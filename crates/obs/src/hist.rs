//! Log₂-bucketed latency histograms.
//!
//! Latency-shaped quantities in the simulator span five orders of
//! magnitude (a DRAM hit is ~100 ns, a queued RDMA read under load can
//! take milliseconds), so the histograms use one bucket per power of
//! two: bucket 0 holds the value 0, bucket `k ≥ 1` holds values in
//! `[2^(k-1), 2^k)`. 64 buckets cover the full `u64` range in 520
//! bytes of counters, recording is a handful of instructions, and the
//! p50/p90/p99 read-outs are exact to within one octave — all any
//! prefetch-timeliness argument ever needs.

use hopp_types::Nanos;

/// Number of buckets: value 0 plus one per power of two.
pub const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else its bit length (capped).
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Records a [`Nanos`] sample.
    pub fn record_nanos(&mut self, t: Nanos) {
        self.record(t.as_nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0.0 when empty) — exact, not bucketed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// containing it, clamped to the exact max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if idx == 0 { 0 } else { (1u64 << idx) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The compact `Copy` summary used in reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// Percentile read-out of a [`Histogram`], cheap to embed in reports.
///
/// `p50`/`p90`/`p99` are bucket upper bounds (exact to within one
/// octave); `mean` and `max` are exact.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistogramSummary {
    /// Appends this summary as a JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"count\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        );
    }
}

/// The simulator's standing set of latency histograms.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LatencyHistograms {
    /// Full major-fault latency (synchronous remote read + CPU cost).
    pub major_fault: Histogram,
    /// Demand-access stalls on in-flight prefetches.
    pub inflight_wait: Histogram,
    /// RDMA read latency (issue→completion, queueing included).
    pub rdma_read: Histogram,
    /// RDMA write latency.
    pub rdma_write: Histogram,
}

impl LatencyHistograms {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copyable summaries of all four histograms, beside `timeliness`:
    /// the prefetch-timeliness summary, which the caller keeps with its
    /// per-source prefetch metrics rather than here.
    pub fn summaries(&self, timeliness: HistogramSummary) -> LatencySummaries {
        LatencySummaries {
            major_fault: self.major_fault.summary(),
            timeliness,
            inflight_wait: self.inflight_wait.summary(),
            rdma_read: self.rdma_read.summary(),
            rdma_write: self.rdma_write.summary(),
        }
    }
}

/// `Copy` summaries of [`LatencyHistograms`], embedded in `SimReport`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencySummaries {
    /// Major-fault latency.
    pub major_fault: HistogramSummary,
    /// Prefetch timeliness: arrival→first-touch (both HoPP and
    /// baseline prefetches).
    pub timeliness: HistogramSummary,
    /// Inflight-wait stalls.
    pub inflight_wait: HistogramSummary,
    /// RDMA read latency.
    pub rdma_read: HistogramSummary,
    /// RDMA write latency.
    pub rdma_write: HistogramSummary,
}

/// Per-node read/write latency histograms for one memory-pool node.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct NodeHistograms {
    /// Read latency on this node's link (issue→completion, queueing,
    /// retries and failover delays included).
    pub read: Histogram,
    /// Write (replication/writeback) latency on this node's link.
    pub write: Histogram,
}

impl NodeHistograms {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copyable summary of both histograms.
    pub fn summary(&self) -> NodeLatencySummary {
        NodeLatencySummary {
            read: self.read.summary(),
            write: self.write.summary(),
        }
    }
}

/// `Copy` summary of one node's [`NodeHistograms`].
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct NodeLatencySummary {
    /// Read latency.
    pub read: HistogramSummary,
    /// Write latency.
    pub write: HistogramSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!((s.p50, s.p90, s.p99, s.max), (0, 0, 0, 0));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_octave_exact() {
        let mut h = Histogram::new();
        // 90 fast samples (~100 ns), 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        // 100 lives in [64,128): upper bound 127.
        assert_eq!(s.p50, 127);
        assert_eq!(s.p90, 127);
        // 1_000_000 lives in [2^19, 2^20): upper bound clamped to max.
        assert_eq!(s.p99, 1_000_000);
        assert_eq!(s.max, 1_000_000);
        let expected_mean = (90.0 * 100.0 + 10.0 * 1_000_000.0) / 100.0;
        assert!((s.mean - expected_mean).abs() < 1e-9);
    }

    #[test]
    fn max_is_exact_and_clamps_quantiles() {
        let mut h = Histogram::new();
        h.record(5);
        let s = h.summary();
        // Bucket upper bound would be 7; the exact max clamps it.
        assert_eq!(s.p50, 5);
        assert_eq!(s.p99, 5);
        assert_eq!(s.max, 5);
    }

    #[test]
    fn merge_combines_counts_and_max() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 200);
        assert_eq!(a.quantile(1.0), 200);
    }

    #[test]
    fn summary_json_is_well_formed() {
        let mut h = Histogram::new();
        h.record(1000);
        let mut out = String::new();
        h.summary().write_json(&mut out);
        let v = hopp_types::json::parse(&out).expect("summary parses");
        let int = |k: &str| v.get(k).and_then(hopp_types::json::Value::as_u64);
        assert_eq!(int("count"), Some(1));
        assert_eq!(int("p99_ns"), Some(1000));
    }
}
