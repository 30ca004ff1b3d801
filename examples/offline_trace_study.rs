//! Offline trace study: the §II-B / §VI-D methodology.
//!
//! The paper's motivating analysis captured full memory traces with
//! HMTT offline and studied the stream-pattern mix of each application.
//! This example reproduces that pipeline end to end:
//!
//! 1. run a workload's cacheline accesses through the LLC model,
//! 2. encode each off-chip miss as an HMTT record into the reserved
//!    DRAM ring (with its wrapping 8-bit counters),
//! 3. decode the ring back into a timed physical trace,
//! 4. classify the page-access windows offline with the three-tier
//!    detectors to report each workload's pattern mix.
//!
//! ```text
//! cargo run --release --example offline_trace_study
//! ```

use hopp::core::stt::{StreamTrainingTable, SttConfig};
use hopp::core::three_tier::{ThreeTier, Tier, TierConfig};
use hopp::obs::NopRecorder;
use hopp::trace::hmtt::{HmttDecoder, HmttRecord, TraceRing};
use hopp::trace::llc::{LastLevelCache, LlcConfig};
use hopp::trace::AccessStream;
use hopp::types::{HotPage, LineAccess, Nanos, PageFlags, Ppn, Vpn};
use hopp::workloads::WorkloadKind;

fn main() {
    println!("offline stream-pattern study (HMTT capture -> decode -> classify)\n");
    println!(
        "{:<13} {:>8} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "workload", "records", "lost", "SSP%", "LSP%", "RSP%", "none%"
    );
    for kind in [
        WorkloadKind::Kmeans,
        WorkloadKind::Hpl,
        WorkloadKind::NpbMg,
        WorkloadKind::NpbFt,
        WorkloadKind::GraphBfs,
        WorkloadKind::SparkBayes,
    ] {
        study(kind);
    }
    println!(
        "\n(simple streams dominate overall — the paper's §VI-D observation —\n\
         while HPL adds ladders and NPB-MG adds ripples)"
    );
}

fn study(kind: WorkloadKind) {
    let footprint = 2_048;
    let mut stream = kind.build(hopp::types::Pid::new(1), footprint, 42);
    let mut llc = LastLevelCache::new(LlcConfig::tiny()).unwrap();
    // An identity virtual->physical layout is fine for an offline
    // study: HMTT sees physical addresses; the ring is bounded like the
    // real reserved DRAM area.
    let mut ring = TraceRing::new(1 << 20);
    let mut seqno = 0u64;
    let mut clock = 0u64;

    // Capture phase: every LLC miss becomes an HMTT record.
    while let Some(acc) = stream.next_access() {
        clock += u64::from(acc.think_ns);
        let ppn = Ppn::new(acc.vpn.raw()); // identity mapping
        for line in 0..acc.lines {
            clock += 100;
            if !llc.access(ppn.line(line), acc.kind) {
                let rec = HmttRecord::capture(
                    seqno,
                    &LineAccess {
                        addr: ppn.line(line),
                        kind: acc.kind,
                        at: Nanos::from_nanos(clock),
                    },
                );
                ring.push(rec);
                seqno += 1;
                drain(&mut ring, &mut decoder_of(kind));
            }
        }
    }

    // Decode + classify phase (re-run the ring contents through the
    // decoder and the pattern detectors).
    let mut decoder = HmttDecoder::new();
    let mut stt = StreamTrainingTable::new(SttConfig::default()).unwrap();
    let mut tiers = ThreeTier::new(TierConfig::default());
    let overruns = ring.overruns();
    let mut misses = 0u64;
    let mut last_page: Option<Ppn> = None;
    while let Some(rec) = ring.pop() {
        let access = decoder.decode(rec);
        misses += 1;
        let page = access.addr.ppn();
        if last_page == Some(page) {
            continue; // page-granularity study
        }
        last_page = Some(page);
        let hot = HotPage {
            pid: hopp::types::Pid::new(1),
            vpn: Vpn::new(page.raw()), // identity mapping back
            flags: PageFlags::default(),
            at: access.at,
        };
        if let Some(window) = stt.observe(&hot, &mut NopRecorder) {
            tiers.predict(&window);
        }
    }

    let s = tiers.stats();
    let total = (s.for_tier(Tier::Simple)
        + s.for_tier(Tier::Ladder)
        + s.for_tier(Tier::Ripple)
        + s.unclassified)
        .max(1) as f64;
    println!(
        "{:<13} {:>8} {:>8} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
        kind.name(),
        misses,
        overruns + decoder.dropped,
        s.for_tier(Tier::Simple) as f64 / total * 100.0,
        s.for_tier(Tier::Ladder) as f64 / total * 100.0,
        s.for_tier(Tier::Ripple) as f64 / total * 100.0,
        s.unclassified as f64 / total * 100.0,
    );
}

/// The capture loop drains nothing in this offline setup (the ring is
/// sized for the full trace tail); kept as a hook where the prototype's
/// software HPD would consume records on-line.
fn drain(_ring: &mut TraceRing, _dec: &mut HmttDecoder) {}

fn decoder_of(_kind: WorkloadKind) -> HmttDecoder {
    HmttDecoder::new()
}
