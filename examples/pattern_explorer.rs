//! Pattern explorer: feed the three stream shapes of §II-B directly to
//! HoPP's training stack and watch which tier claims each.
//!
//! ```text
//! cargo run --release --example pattern_explorer
//! ```

use hopp::core::three_tier::Tier;
use hopp::core::{HoppConfig, HoppEngine};
use hopp::trace::patterns::{AccessStream, LadderStream, NoiseStream, RippleStream, SimpleStream};
use hopp::types::{HotPage, Nanos, PageFlags, Pid, Result, Vpn};

/// Replays a page-access stream as a hot-page stream (what the MC
/// pipeline would deliver if every touched page crossed the threshold)
/// and reports the tier mix plus a sample of predictions.
fn explore(name: &str, mut stream: impl AccessStream) -> Result<()> {
    let mut engine = HoppEngine::try_new(HoppConfig::default())?;
    let mut orders = 0u64;
    let mut sample = Vec::new();
    let mut t = 0u64;
    while let Some(acc) = stream.next_access() {
        t += 1;
        let hot = HotPage {
            pid: acc.pid,
            vpn: acc.vpn,
            flags: PageFlags::default(),
            at: Nanos::from_micros(t),
        };
        for order in engine.on_hot_page(&hot) {
            orders += 1;
            if sample.len() < 5 {
                sample.push(format!("{} -> {}", acc.vpn, order.vpn));
            }
        }
    }
    let tiers = engine.tier_stats();
    println!("\n### {name}");
    println!(
        "  windows classified: SSP={} LSP={} RSP={} unclassified={}",
        tiers.for_tier(Tier::Simple),
        tiers.for_tier(Tier::Ladder),
        tiers.for_tier(Tier::Ripple),
        tiers.unclassified,
    );
    println!("  orders issued: {orders}");
    for s in sample {
        println!("  e.g. hot {s}");
    }
    Ok(())
}

fn main() -> Result<()> {
    let pid = Pid::new(1);

    // A clean stride-4 scan: SSP territory.
    explore(
        "simple stream (stride 4)",
        SimpleStream::new(pid, Vpn::new(1_000), 4, 200),
    )?;

    // A tread-heavy ladder: the tread stride holds a majority of the
    // window, so SSP already claims it (and its predictions are right
    // three times out of four).
    explore(
        "shallow ladder (tread 2,2,2 / rise 12) — SSP's majority",
        LadderStream::new(pid, Vpn::new(1_000), &[2, 2, 2], 12, 60),
    )?;

    // A balanced ladder: three distinct strides cycle, so none reaches
    // the L/2 majority — this is the shape only LSP can follow.
    explore(
        "balanced ladder (tread 2,12 / rise 7) — LSP territory",
        LadderStream::new(pid, Vpn::new(1_000), &[2, 12], 7, 80),
    )?;

    // Figure 3's ripple: stride-1 distorted by swaps and hops.
    explore(
        "ripple stream (jitter 0.4, hops)",
        RippleStream::new(pid, Vpn::new(1_000), 300, 0.4, 6, 7),
    )?;

    // Pure interference: nothing should be classified.
    explore(
        "interference (uniform random)",
        NoiseStream::new(pid, Vpn::new(1_000), Vpn::new(100_000), 400, 3),
    )?;
    Ok(())
}
