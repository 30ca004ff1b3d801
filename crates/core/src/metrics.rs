//! Prefetch quality metrics — §VI-A of the paper.
//!
//! * **Accuracy** — page hits among prefetched pages / total prefetched
//!   pages.
//! * **Coverage** — prefetch hits / (remote demand requests + prefetch
//!   hits).
//! * **Timeliness** — the gap between a prefetched page's arrival and
//!   its first hit.
//!
//! The same struct measures HoPP (arrival = PTE injection, hit = first
//! access to the injected page) and the baselines (arrival = swapcache
//! insert, hit = swapcache take), so every system is scored by the same
//! definitions.

use hopp_obs::{Histogram, HistogramSummary};
use hopp_types::Nanos;

/// A rendered snapshot of the metrics (what experiments print).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MetricsReport {
    /// Pages prefetched.
    pub prefetched: u64,
    /// Prefetched pages hit at least once.
    pub prefetch_hits: u64,
    /// Demand requests that had to go to remote memory.
    pub demand_remote: u64,
    /// Prefetched pages reclaimed before their first hit.
    pub wasted: u64,
    /// Accuracy per the paper's definition.
    pub accuracy: f64,
    /// Coverage per the paper's definition.
    pub coverage: f64,
    /// Mean timeliness over hit prefetches.
    pub mean_timeliness: Nanos,
    /// Full timeliness distribution (log₂ buckets: p50/p90/p99/max).
    pub timeliness: HistogramSummary,
}

/// Running accuracy/coverage/timeliness accounting.
///
/// The caller tracks which pages are pending (prefetched, not yet hit
/// or wasted) and when each arrived; the simulator keeps that on the
/// frame holding the page. Every prefetch ends as exactly one hit or
/// one waste, or is still pending. Remote demand requests are the
/// caller's major-fault count, passed to [`PrefetchMetrics::report`].
///
/// # Example
///
/// ```
/// use hopp_core::metrics::PrefetchMetrics;
/// use hopp_types::Nanos;
///
/// let mut m = PrefetchMetrics::new();
/// m.on_arrival();
/// m.on_arrival();
/// m.on_hit(Nanos::from_micros(45));
/// m.on_wasted();
/// let r = m.report(1);
/// assert_eq!(r.accuracy, 0.5);
/// assert_eq!(r.coverage, 0.5); // one hit, one demand miss
/// assert_eq!(r.mean_timeliness, Nanos::from_micros(45));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PrefetchMetrics {
    prefetched: u64,
    prefetch_hits: u64,
    wasted: u64,
    timeliness: Histogram,
}

impl PrefetchMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a prefetched page becoming available.
    pub fn on_arrival(&mut self) {
        self.prefetched += 1;
    }

    /// Records the first application access to a pending prefetched
    /// page (a *prefetch hit*) with its timeliness `t`: access time −
    /// arrival time.
    pub fn on_hit(&mut self, t: Nanos) {
        self.prefetch_hits += 1;
        self.timeliness.record_nanos(t);
    }

    /// Records that a pending prefetched page was reclaimed before ever
    /// being hit (it stays counted as prefetched but can no longer hit).
    pub fn on_wasted(&mut self) {
        self.wasted += 1;
    }

    /// Pages prefetched so far.
    pub fn prefetched(&self) -> u64 {
        self.prefetched
    }

    /// Prefetch hits so far.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Prefetched pages that were reclaimed unused.
    pub fn wasted(&self) -> u64 {
        self.wasted
    }

    /// Snapshot for reporting, with `demand_remote` remote demand
    /// requests. Accuracy is 1.0 when nothing was prefetched, so a
    /// disabled prefetcher doesn't read as "inaccurate"; coverage is 0.0
    /// when there was no remote traffic at all; mean timeliness is zero
    /// when nothing was hit.
    pub fn report(&self, demand_remote: u64) -> MetricsReport {
        let ratio = |hits: u64, of: u64, none: f64| {
            if of == 0 {
                none
            } else {
                hits as f64 / of as f64
            }
        };
        MetricsReport {
            prefetched: self.prefetched,
            prefetch_hits: self.prefetch_hits,
            demand_remote,
            wasted: self.wasted,
            accuracy: ratio(self.prefetch_hits, self.prefetched, 1.0),
            coverage: ratio(self.prefetch_hits, demand_remote + self.prefetch_hits, 0.0),
            mean_timeliness: Nanos::from_nanos(self.timeliness.mean().round() as u64),
            timeliness: self.timeliness.summary(),
        }
    }
}

/// Totals over several metrics (HoPP's tiers): counts add up and the
/// timeliness histograms merge exactly.
impl<'a> std::iter::Sum<&'a PrefetchMetrics> for PrefetchMetrics {
    fn sum<I: Iterator<Item = &'a PrefetchMetrics>>(parts: I) -> Self {
        parts.fold(PrefetchMetrics::new(), |mut total, m| {
            total.prefetched += m.prefetched;
            total.prefetch_hits += m.prefetch_hits;
            total.wasted += m.wasted;
            total.timeliness.merge(&m.timeliness);
            total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits_over_prefetched() {
        let mut m = PrefetchMetrics::new();
        for _ in 0..10 {
            m.on_arrival();
        }
        for _ in 0..9 {
            m.on_hit(Nanos::from_micros(1));
        }
        assert!((m.report(0).accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_hits_over_remote_traffic() {
        let mut m = PrefetchMetrics::new();
        m.on_arrival();
        m.on_hit(Nanos::from_micros(1));
        assert!((m.report(3).coverage - 0.25).abs() < 1e-12);
        assert_eq!(m.report(3).demand_remote, 3);
    }

    #[test]
    fn waste_counts_against_accuracy() {
        let mut m = PrefetchMetrics::new();
        m.on_arrival();
        m.on_wasted();
        assert_eq!(m.report(0).accuracy, 0.0);
        assert_eq!(m.wasted(), 1);
        assert_eq!(m.prefetch_hits(), 0);
    }

    #[test]
    fn timeliness_averages_hit_gaps() {
        let mut m = PrefetchMetrics::new();
        for gap in [20, 40] {
            m.on_arrival();
            m.on_hit(Nanos::from_micros(gap));
        }
        // Gaps: 20us and 40us -> mean 30us.
        assert_eq!(m.report(0).mean_timeliness, Nanos::from_micros(30));
    }

    #[test]
    fn empty_metrics_are_benign() {
        let r = PrefetchMetrics::new().report(0);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.coverage, 0.0);
        assert_eq!(r.mean_timeliness, Nanos::ZERO);
    }

    #[test]
    fn sum_equals_one_metrics_fed_everything() {
        let gaps = [(0, 10u64), (1, 20), (2, 1_000), (1, 3)];
        let mut parts = [
            PrefetchMetrics::new(),
            PrefetchMetrics::new(),
            PrefetchMetrics::new(),
        ];
        let mut whole = PrefetchMetrics::new();
        for (i, gap) in gaps {
            for m in [&mut parts[i], &mut whole] {
                m.on_arrival();
                m.on_hit(Nanos::from_micros(gap));
            }
        }
        parts[2].on_arrival();
        parts[2].on_wasted();
        whole.on_arrival();
        whole.on_wasted();
        let total: PrefetchMetrics = parts.iter().sum();
        assert_eq!(total.report(5), whole.report(5));
    }

    #[test]
    fn report_carries_timeliness_percentiles() {
        let mut m = PrefetchMetrics::new();
        for gap in [10u64, 20, 1_000] {
            m.on_arrival();
            m.on_hit(Nanos::from_micros(gap));
        }
        let r = m.report(0);
        assert_eq!(r.timeliness.count, 3);
        assert_eq!(r.timeliness.max, 1_000_000);
        assert!(r.timeliness.p50 >= 10_000, "median at least the low gap");
        assert!(r.timeliness.p99 >= r.timeliness.p50);
        assert_eq!(
            Nanos::from_nanos(r.timeliness.mean.round() as u64),
            r.mean_timeliness
        );
    }
}
