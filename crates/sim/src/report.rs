//! Run results: counters, per-app completion and the paper's metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hopp_core::metrics::MetricsReport;
use hopp_core::three_tier::TierStats;
use hopp_fabric::FabricReport;
use hopp_hw::{BandwidthLedger, HpdStats, RptStats};
use hopp_net::RdmaStats;
use hopp_obs::{LatencySummaries, ObsLevel, TimedEvent};
use hopp_trace::llc::LlcStats;
use hopp_types::{Nanos, Pid};

/// Event counters accumulated over a run.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Counters {
    /// Page accesses executed.
    pub accesses: u64,
    /// Major faults (synchronous remote reads).
    pub major_faults: u64,
    /// Swapcache hits (prefetch-hits, 2.3 µs each).
    pub minor_faults: u64,
    /// First touches (zero-fill, no remote traffic).
    pub first_touches: u64,
    /// Accesses served directly from DRAM (PTE present).
    pub dram_hits: u64,
    /// Accesses that found their page's read in flight and waited for
    /// it. A subset of the other kinds, not a kind of its own: after the
    /// wait the access is counted as what it then finds, usually a DRAM
    /// hit or a minor fault.
    pub inflight_waits: u64,
    /// Pages reclaimed (swapped out or dropped from the swapcache).
    pub reclaimed: u64,
    /// Dirty pages written back over RDMA during reclaim.
    pub writebacks: u64,
    /// Pages prefetched by the fault-path (baseline) prefetcher.
    pub baseline_prefetches: u64,
    /// Pages prefetched by HoPP's separate data path.
    pub hopp_prefetches: u64,
}

/// One timeline sample: the counters' state at a point in simulated
/// time (taken every `SimConfig::timeline_every` accesses).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimelineSample {
    /// Simulated time of the sample.
    pub at: Nanos,
    /// Accesses executed so far.
    pub accesses: u64,
    /// Major faults so far.
    pub major_faults: u64,
    /// Prefetch-hits (minor faults) so far.
    pub minor_faults: u64,
    /// HoPP pages injected so far.
    pub hopp_injected: u64,
}

/// Per-application results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AppReport {
    /// When the app's access stream completed.
    pub finished_at: Nanos,
    /// Accesses the app executed.
    pub accesses: u64,
    /// Its major faults.
    pub major_faults: u64,
    /// Its prefetch-hits.
    pub minor_faults: u64,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Name of the system under test.
    pub system: &'static str,
    /// Completion time of the whole run (last app finishes).
    pub completion: Nanos,
    /// Per-app completions and fault counts, keyed by PID.
    pub per_app: BTreeMap<Pid, AppReport>,
    /// Global event counters.
    pub counters: Counters,
    /// Fault-path prefetcher metrics (swapcache-based accuracy and
    /// coverage). For Depth-N this covers its injected pages.
    pub baseline: MetricsReport,
    /// HoPP's separate-data-path metrics, when HoPP was enabled.
    pub hopp: Option<MetricsReport>,
    /// HoPP per-tier metrics (SSP, LSP, RSP), when enabled.
    pub hopp_tiers: Option<[MetricsReport; 3]>,
    /// Tier classification counters, when enabled.
    pub tier_stats: Option<TierStats>,
    /// Hot page detection counters (Table II's ratio).
    pub hpd: HpdStats,
    /// RPT counters (Table III's hit rate).
    pub rpt: RptStats,
    /// DRAM bandwidth overhead ledger (Table V).
    pub ledger: BandwidthLedger,
    /// LLC counters.
    pub llc: LlcStats,
    /// RDMA link counters (summed over pool nodes).
    pub rdma: RdmaStats,
    /// Memory-pool detail: placement, failovers and per-node traffic.
    /// `None` for the degenerate 1-node fault-free pool (the paper's
    /// testbed), keeping legacy reports byte-identical.
    pub fabric: Option<FabricReport>,
    /// Periodic counter samples (empty unless
    /// `SimConfig::timeline_every > 0`).
    pub timeline: Vec<TimelineSample>,
    /// Observability: latency histograms and (at `full` level) the
    /// typed event stream.
    pub obs: ObsReport,
}

/// Observability output of a run.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// The level the run was recorded at.
    pub level: ObsLevel,
    /// Latency percentile summaries (zeroed at level `off`).
    pub latency: LatencySummaries,
    /// The typed event stream (empty below level `full`).
    pub events: Vec<TimedEvent>,
    /// Events the ring buffer had to drop (oldest-first) to stay
    /// within capacity.
    pub dropped_events: u64,
}

impl SimReport {
    /// Remote page *reads* (demand + prefetch), the Fig 17 metric.
    pub fn remote_reads(&self) -> u64 {
        self.rdma.reads
    }

    /// Combined prefetch accuracy across the fault path and HoPP's
    /// data path.
    pub fn accuracy(&self) -> f64 {
        let prefetched = self.baseline.prefetched + self.hopp.map_or(0, |h| h.prefetched);
        let hits = self.baseline.prefetch_hits + self.hopp.map_or(0, |h| h.prefetch_hits);
        if prefetched == 0 {
            1.0
        } else {
            hits as f64 / prefetched as f64
        }
    }

    /// Combined coverage: all prefetch hits over all remote demand
    /// requests plus hits (§VI-A). The swapcache-hit and DRAM-hit parts
    /// of Fig 11 are [`SimReport::coverage_swapcache`] and
    /// [`SimReport::coverage_injected`]; this is their sum.
    pub fn coverage(&self) -> f64 {
        self.coverage_swapcache() + self.coverage_injected()
    }

    /// The coverage contributed by fault-path prefetches (hits still
    /// pay the 2.3 µs prefetch-hit cost).
    pub fn coverage_swapcache(&self) -> f64 {
        let denom = self.coverage_denominator();
        if denom == 0 {
            0.0
        } else {
            self.baseline.prefetch_hits as f64 / denom as f64
        }
    }

    /// The coverage contributed by HoPP's injected pages (hits are
    /// plain DRAM hits).
    pub fn coverage_injected(&self) -> f64 {
        let denom = self.coverage_denominator();
        if denom == 0 {
            0.0
        } else {
            self.hopp.map_or(0, |h| h.prefetch_hits) as f64 / denom as f64
        }
    }

    fn coverage_denominator(&self) -> u64 {
        self.counters.major_faults
            + self.baseline.prefetch_hits
            + self.hopp.map_or(0, |h| h.prefetch_hits)
    }

    /// Completion time of one app.
    pub fn app_completion(&self, pid: Pid) -> Option<Nanos> {
        self.per_app.get(&pid).map(|a| a.finished_at)
    }

    /// Renders the report as a self-contained JSON document (the
    /// `hoppsim --metrics-json` payload): counters, combined and
    /// per-path prefetch metrics with full timeliness distributions,
    /// and the latency percentile summaries. Hand-rolled, numeric-only
    /// JSON — byte-stable for a given seed and config.
    pub fn metrics_json(&self) -> String {
        let mut o = String::with_capacity(2048);
        o.push('{');
        let _ = write!(o, "\"system\":\"{}\"", self.system);
        let _ = write!(o, ",\"completion_ns\":{}", self.completion.as_nanos());
        let c = &self.counters;
        let _ = write!(
            o,
            ",\"counters\":{{\"accesses\":{},\"major_faults\":{},\"minor_faults\":{},\
             \"first_touches\":{},\"dram_hits\":{},\"inflight_waits\":{},\"reclaimed\":{},\
             \"writebacks\":{},\"baseline_prefetches\":{},\"hopp_prefetches\":{}}}",
            c.accesses,
            c.major_faults,
            c.minor_faults,
            c.first_touches,
            c.dram_hits,
            c.inflight_waits,
            c.reclaimed,
            c.writebacks,
            c.baseline_prefetches,
            c.hopp_prefetches
        );
        let _ = write!(
            o,
            ",\"accuracy\":{:.6},\"coverage\":{:.6}",
            self.accuracy(),
            self.coverage()
        );
        o.push_str(",\"baseline\":");
        write_metrics_json(&mut o, &self.baseline);
        if let Some(h) = &self.hopp {
            o.push_str(",\"hopp\":");
            write_metrics_json(&mut o, h);
        }
        if let Some(tiers) = &self.hopp_tiers {
            o.push_str(",\"hopp_tiers\":{");
            for (i, (name, t)) in ["ssp", "lsp", "rsp"].iter().zip(tiers).enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(o, "\"{name}\":");
                write_metrics_json(&mut o, t);
            }
            o.push('}');
        }
        let _ = write!(
            o,
            ",\"rdma\":{{\"reads\":{},\"writes\":{},\"bytes\":{},\"queueing_ns\":{}}}",
            self.rdma.reads,
            self.rdma.writes,
            self.rdma.bytes,
            self.rdma.queueing.as_nanos()
        );
        if let Some(f) = &self.fabric {
            let _ = write!(
                o,
                ",\"fabric\":{{\"placement\":\"{}\",\"replication\":{},\"failovers\":{},\
                 \"failed_writes\":{},\"nodes\":[",
                f.placement, f.replication, f.failovers, f.failed_writes
            );
            for (i, n) in f.nodes.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                let _ = write!(
                    o,
                    "{{\"node\":{},\"reads\":{},\"writes\":{},\"bytes\":{},\"queueing_ns\":{},\
                     \"placed\":{},\"retries\":{},\"timeouts\":{},\"lost\":{},\"read_latency\":",
                    n.node.raw(),
                    n.link.reads,
                    n.link.writes,
                    n.link.bytes,
                    n.link.queueing.as_nanos(),
                    n.placed,
                    n.retries,
                    n.timeouts,
                    n.lost
                );
                n.latency.read.write_json(&mut o);
                o.push_str(",\"write_latency\":");
                n.latency.write.write_json(&mut o);
                o.push('}');
            }
            o.push_str("]}");
        }
        let _ = write!(o, ",\"obs_level\":\"{}\"", self.obs.level.label());
        o.push_str(",\"latency\":{");
        for (i, (name, h)) in [
            ("major_fault", &self.obs.latency.major_fault),
            ("prefetch_timeliness", &self.obs.latency.timeliness),
            ("inflight_wait", &self.obs.latency.inflight_wait),
            ("rdma_read", &self.obs.latency.rdma_read),
            ("rdma_write", &self.obs.latency.rdma_write),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "\"{name}\":");
            h.write_json(&mut o);
        }
        o.push('}');
        let _ = write!(
            o,
            ",\"events\":{},\"dropped_events\":{}",
            self.obs.events.len(),
            self.obs.dropped_events
        );
        o.push('}');
        o
    }

    /// Renders the timeline samples as CSV (the `hoppsim
    /// --timeline-out` payload), one row per sample plus a header.
    pub fn timeline_csv(&self) -> String {
        let mut o = String::with_capacity(64 + self.timeline.len() * 48);
        o.push_str("at_ns,accesses,major_faults,minor_faults,hopp_injected\n");
        for s in &self.timeline {
            let _ = writeln!(
                o,
                "{},{},{},{},{}",
                s.at.as_nanos(),
                s.accesses,
                s.major_faults,
                s.minor_faults,
                s.hopp_injected
            );
        }
        o
    }
}

/// Writes one [`MetricsReport`] as a JSON object.
fn write_metrics_json(o: &mut String, m: &MetricsReport) {
    let _ = write!(
        o,
        "{{\"prefetched\":{},\"prefetch_hits\":{},\"demand_remote\":{},\"wasted\":{},\
         \"accuracy\":{:.6},\"coverage\":{:.6},\"mean_timeliness_ns\":{},\"timeliness\":",
        m.prefetched,
        m.prefetch_hits,
        m.demand_remote,
        m.wasted,
        m.accuracy,
        m.coverage,
        m.mean_timeliness.as_nanos()
    );
    m.timeliness.write_json(o);
    o.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_obs::HistogramSummary;

    fn empty_report() -> SimReport {
        SimReport {
            system: "test",
            completion: Nanos::ZERO,
            per_app: BTreeMap::new(),
            counters: Counters::default(),
            baseline: MetricsReport {
                prefetched: 0,
                prefetch_hits: 0,
                demand_remote: 0,
                wasted: 0,
                accuracy: 1.0,
                coverage: 0.0,
                mean_timeliness: Nanos::ZERO,
                timeliness: HistogramSummary::default(),
            },
            hopp: None,
            hopp_tiers: None,
            tier_stats: None,
            hpd: HpdStats::default(),
            rpt: RptStats::default(),
            ledger: BandwidthLedger::default(),
            llc: LlcStats::default(),
            rdma: RdmaStats::default(),
            fabric: None,
            timeline: Vec::new(),
            obs: ObsReport::default(),
        }
    }

    #[test]
    fn empty_report_metrics_are_benign() {
        let r = empty_report();
        assert_eq!(r.accuracy(), 1.0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.remote_reads(), 0);
    }

    #[test]
    fn coverage_splits_sum() {
        let mut r = empty_report();
        r.counters.major_faults = 10;
        r.baseline = MetricsReport {
            prefetched: 20,
            prefetch_hits: 5,
            demand_remote: 10,
            wasted: 0,
            accuracy: 0.25,
            coverage: 0.0,
            mean_timeliness: Nanos::ZERO,
            timeliness: HistogramSummary::default(),
        };
        r.hopp = Some(MetricsReport {
            prefetched: 40,
            prefetch_hits: 35,
            demand_remote: 10,
            wasted: 0,
            accuracy: 0.875,
            coverage: 0.0,
            mean_timeliness: Nanos::ZERO,
            timeliness: HistogramSummary::default(),
        });
        // denom = 10 + 5 + 35 = 50
        assert!((r.coverage_swapcache() - 0.1).abs() < 1e-12);
        assert!((r.coverage_injected() - 0.7).abs() < 1e-12);
        assert!((r.coverage() - 0.8).abs() < 1e-12);
        // accuracy = 40 hits / 60 prefetched
        assert!((r.accuracy() - 40.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_json_has_percentile_keys() {
        let j = empty_report().metrics_json();
        let v = hopp_types::json::parse(&j).unwrap_or_else(|e| panic!("{e} in {j}"));
        for key in ["counters", "baseline", "latency"] {
            assert!(v.get(key).is_some(), "missing {key} in {j}");
        }
        let latency = v.get("latency").expect("latency");
        for hist in ["major_fault", "prefetch_timeliness"] {
            for key in ["p50_ns", "p90_ns", "p99_ns"] {
                assert!(
                    latency.get(hist).and_then(|h| h.get(key)).is_some(),
                    "missing latency.{hist}.{key} in {j}"
                );
            }
        }
    }

    #[test]
    fn timeline_csv_has_header_and_rows() {
        let mut r = empty_report();
        r.timeline.push(TimelineSample {
            at: Nanos::from_nanos(500),
            accesses: 10,
            major_faults: 2,
            minor_faults: 1,
            hopp_injected: 3,
        });
        let csv = r.timeline_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("at_ns,accesses,major_faults,minor_faults,hopp_injected")
        );
        assert_eq!(lines.next(), Some("500,10,2,1,3"));
        assert_eq!(lines.next(), None);
    }
}
