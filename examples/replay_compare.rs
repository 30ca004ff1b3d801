//! Record once, replay everywhere: capture a workload's page trace to a
//! `.hst` file, then run every system on the *identical* access sequence.
//!
//! Replaying a fixed trace removes the last source of variation between
//! systems (the workload itself), which is how apples-to-apples
//! prefetcher comparisons should be done. The file's header carries the
//! recorded pid and footprint, so each replay sizes its memory limit the
//! same way a live run does (`hoppsim --replay-trace` works the same way).
//!
//! ```text
//! cargo run --release --example replay_compare
//! ```

use hopp::scn::{hst, HstHeader};
use hopp::sim::{run_stream_with, BaselineKind, SimConfig, SystemConfig};
use hopp::types::Pid;
use hopp::workloads::WorkloadKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = WorkloadKind::NpbLu;
    let path = std::env::temp_dir().join("hopp_replay_compare.hst");

    // Record.
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: 4_096,
        seed: 42,
        source: kind.name().to_string(),
    };
    let mut stream = kind.build(header.pid, header.footprint_pages, header.seed);
    let count = hst::record_file(&path, &header, &mut *stream)?;
    println!(
        "recorded {count} accesses of {} to {}\n",
        kind.name(),
        path.display()
    );

    // Replay under each system at 50% local memory; the first row runs
    // with everything local and is the normalization baseline.
    let trace = hst::read_file(&path)?;
    std::fs::remove_file(&path).ok();
    let mut local_ns = None;
    println!(
        "{:<13} {:>12} {:>10} {:>8} {:>8} {:>9}",
        "system", "completion", "norm-perf", "major", "p-hits", "coverage"
    );
    for (label, system, ratio) in [
        (
            "local",
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            1.25,
        ),
        (
            "no-prefetch",
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            0.5,
        ),
        ("leap", SystemConfig::Baseline(BaselineKind::Leap), 0.5),
        (
            "fastswap",
            SystemConfig::Baseline(BaselineKind::Fastswap),
            0.5,
        ),
        (
            "depth-32",
            SystemConfig::Baseline(BaselineKind::DepthN(32)),
            0.5,
        ),
        ("hopp", SystemConfig::hopp_default(), 0.5),
    ] {
        let report = run_stream_with(
            SimConfig::with_system(system),
            trace.header.pid,
            Box::new(trace.clone().into_stream()),
            trace.header.footprint_pages,
            ratio,
        )?;
        let ns = report.completion.as_nanos() as f64;
        let local = *local_ns.get_or_insert(ns);
        println!(
            "{label:<13} {:>12} {:>10.3} {:>8} {:>8} {:>8.1}%",
            format!("{}", report.completion),
            local / ns,
            report.counters.major_faults,
            report.counters.minor_faults,
            report.coverage() * 100.0
        );
    }
    Ok(())
}
