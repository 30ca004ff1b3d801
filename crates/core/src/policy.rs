//! The prefetch policy engine — §III-E of the paper.
//!
//! Real-time trace supply lets HoPP tune *how much* and *how far* to
//! prefetch, per stream:
//!
//! * **Prefetch intensity** — pages issued per hot page of an
//!   identified stream (1 by default; more when the network is the
//!   bottleneck for the stream's access rate).
//! * **Prefetch offset** `i` — how far ahead along the pattern to
//!   fetch. HoPP measures the *timeliness* `T` of each prefetched page
//!   (arrival → first hit) and steers `i` to keep `T` inside
//!   `[T_min, T_max]`: too small a `T` risks late pages (`i ×= 1+α`);
//!   too large a `T` wastes local memory (`i ×= 1−α`). Defaults:
//!   `α = 0.2`, `i ≤ 1K`, `T_min = 40 µs`, `T_max = 5 ms`.
//!
//! Per-stream state (offset, huge-batch confirmations and frontier) is
//! one fixed array indexed by STT slot, sized at construction. Each
//! element is tagged with the generation of the stream that owns it: a
//! window or timeliness sample from a newer generation (the slot was
//! recycled) resets the element, and a late timeliness sample from an
//! older generation — or for a stream outside the STT, such as the
//! Markov trainer's synthetic one — is counted in [`PolicyStats`] but
//! steers nothing. State therefore never outgrows the STT, with no
//! pruning pass and no allocation per hot page.

use hopp_types::{Nanos, Pid, Vpn};

use crate::stt::{StreamId, StreamWindow};
use crate::three_tier::{Prediction, Tier};

/// Huge-page batching (§IV of the paper): once a stream has proven
/// itself long enough, swap 512 consecutive future pages with one
/// prefetch request instead of page-by-page fetches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HugeBatchConfig {
    /// Stream confirmations (classified windows) required before
    /// batching kicks in.
    pub min_confirmations: u32,
    /// Pages per batch (512 = one 2 MB huge page).
    pub batch_pages: u32,
}

impl Default for HugeBatchConfig {
    fn default() -> Self {
        HugeBatchConfig {
            min_confirmations: 64,
            batch_pages: 512,
        }
    }
}

/// Policy-engine parameters (paper defaults).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PolicyConfig {
    /// Pages issued per classified hot page.
    pub intensity: u32,
    /// Multiplicative offset adjustment step `α`.
    pub alpha: f64,
    /// Offset ceiling `i_max`.
    pub max_offset: f64,
    /// Lower timeliness bound `T_min`.
    pub t_min: Nanos,
    /// Upper timeliness bound `T_max`.
    pub t_max: Nanos,
    /// When `Some(i)`, the offset is pinned to `i` and timeliness
    /// feedback is ignored (the "HoPP (offset=1)" / "(offset=20K)"
    /// configurations of Fig 22).
    pub fixed_offset: Option<f64>,
    /// Optional huge-page batching for proven long stride-1 streams
    /// (§IV, disabled by default as in the paper's prototype).
    pub huge_batch: Option<HugeBatchConfig>,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            intensity: 1,
            alpha: 0.2,
            max_offset: 1024.0,
            t_min: Nanos::from_micros(40),
            t_max: Nanos::from_millis(5),
            fixed_offset: None,
            huge_batch: None,
        }
    }
}

impl PolicyConfig {
    /// A policy with the offset pinned (disables timeliness feedback).
    pub fn fixed_offset(i: f64) -> Self {
        PolicyConfig {
            fixed_offset: Some(i),
            ..Default::default()
        }
    }

    /// A policy with default huge-page batching enabled.
    pub fn with_huge_batch() -> Self {
        PolicyConfig {
            huge_batch: Some(HugeBatchConfig::default()),
            ..Default::default()
        }
    }
}

/// One prefetch decision from the policy engine: `span` consecutive
/// pages starting at `vpn` (span is 1 except for huge-page batches).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyOrder {
    /// Owning process.
    pub pid: Pid,
    /// First target page.
    pub vpn: Vpn,
    /// Number of consecutive pages to fetch in one request.
    pub span: u32,
    /// The stream the decision came from (routes timeliness feedback).
    pub stream: StreamId,
    /// The tier that classified the stream (per-tier metrics).
    pub tier: Tier,
}

/// Policy counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PolicyStats {
    /// Orders emitted.
    pub orders: u64,
    /// Timeliness samples below `T_min` (offset increased).
    pub too_late: u64,
    /// Timeliness samples above `T_max` (offset decreased).
    pub too_early: u64,
}

/// Policy state of the stream occupying one STT slot.
#[derive(Clone, Copy, Debug)]
struct SlotState {
    /// Generation of the stream this state belongs to.
    generation: u32,
    /// Prefetch offset `i`.
    offset: f64,
    /// `i` as the whole number of pages an order skips ahead, kept in
    /// step with `offset`.
    pages_ahead: i64,
    /// Classified unit-stride windows seen (huge-batch qualification).
    confirmations: u32,
    /// First page not yet covered by an issued batch.
    batched_until: Option<u64>,
}

impl SlotState {
    fn fresh(generation: u32) -> Self {
        SlotState {
            generation,
            offset: 1.0,
            pages_ahead: 1,
            confirmations: 0,
            batched_until: None,
        }
    }
}

/// The policy engine: per-stream offset state plus the two knobs.
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    config: PolicyConfig,
    /// One element per STT slot.
    slots: Vec<SlotState>,
    /// [`pages_ahead`] of a pinned offset.
    fixed_pages_ahead: Option<i64>,
    stats: PolicyStats,
}

/// The whole pages ahead an offset `i` fetches: `i` rounded, at least 1.
fn pages_ahead(offset: f64) -> i64 {
    offset.round().max(1.0) as i64
}

impl PolicyEngine {
    /// Creates an engine with the given knobs, tracking the streams of
    /// an STT with `stt_entries` slots.
    pub fn new(config: PolicyConfig, stt_entries: usize) -> Self {
        PolicyEngine {
            config,
            slots: vec![SlotState::fresh(0); stt_entries],
            fixed_pages_ahead: config.fixed_offset.map(pages_ahead),
            stats: PolicyStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> PolicyConfig {
        self.config
    }

    /// The state of `stream`'s slot, reset first if `stream` is newer
    /// than its current owner. `None` for a stream older than the
    /// owner or outside the table.
    fn state_mut(&mut self, stream: StreamId) -> Option<&mut SlotState> {
        let state = self.slots.get_mut(stream.slot())?;
        if stream.generation() > state.generation {
            *state = SlotState::fresh(stream.generation());
        }
        if state.generation == stream.generation() {
            Some(state)
        } else {
            None
        }
    }

    /// The current offset for a stream (starts at 1).
    pub fn offset_of(&self, stream: StreamId) -> f64 {
        self.config.fixed_offset.unwrap_or_else(|| {
            self.slots
                .get(stream.slot())
                .filter(|s| s.generation == stream.generation())
                .map_or(1.0, |s| s.offset)
        })
    }

    /// Turns a tier prediction into concrete orders, appended to `out`:
    /// `intensity` pages at offsets `i, i+1, …` along the pattern — or,
    /// for a proven long stride-1 stream with huge batching enabled, one
    /// span-512 order.
    pub fn finalize(
        &mut self,
        window: &StreamWindow,
        prediction: Prediction,
        out: &mut Vec<PolicyOrder>,
    ) {
        let before = out.len();
        // A window from a newer generation claims (and resets) its slot.
        let ahead = self.state_mut(window.stream).map_or(1, |s| s.pages_ahead);
        if !self.try_huge_batch(window, prediction, out) {
            let base = self.fixed_pages_ahead.unwrap_or(ahead);
            let vpn_a = window.vpn_a();
            for j in 0..i64::from(self.config.intensity) {
                if let Some(vpn) = prediction.target(vpn_a, base + j) {
                    out.push(PolicyOrder {
                        pid: window.pid,
                        vpn,
                        span: 1,
                        stream: window.stream,
                        tier: prediction.tier(),
                    });
                }
            }
        }
        self.stats.orders += (out.len() - before) as u64;
    }

    /// §IV: long stride-1 streams are served in 2 MB batches. Returns
    /// `true` when batching takes over order generation for this window
    /// (possibly with no order, when the stream is already covered).
    fn try_huge_batch(
        &mut self,
        window: &StreamWindow,
        prediction: Prediction,
        out: &mut Vec<PolicyOrder>,
    ) -> bool {
        let Some(hb) = self.config.huge_batch else {
            return false;
        };
        // Only unit-stride forward streams map onto a contiguous 2 MB
        // region worth of future pages.
        let unit_stride = matches!(
            prediction,
            Prediction::Simple { stride: 1 } | Prediction::Ripple
        );
        if !unit_stride {
            return false;
        }
        let Some(state) = self.state_mut(window.stream) else {
            return false;
        };
        state.confirmations += 1;
        if state.confirmations < hb.min_confirmations {
            return false;
        }
        let vpn_a = window.vpn_a().raw();
        let covered = state.batched_until.unwrap_or(vpn_a + 1);
        // Re-batch when consumption approaches the covered frontier.
        let lookahead = u64::from(hb.batch_pages) / 4;
        if vpn_a + lookahead < covered {
            return true;
        }
        let start = covered.max(vpn_a + 1);
        state.batched_until = Some(start + u64::from(hb.batch_pages));
        out.push(PolicyOrder {
            pid: window.pid,
            vpn: Vpn::new(start),
            span: hb.batch_pages,
            stream: window.stream,
            tier: prediction.tier(),
        });
        true
    }

    /// Feeds back the measured timeliness of a prefetched page of
    /// `stream`, steering its offset (§III-E). A sample for a stream
    /// that no longer owns its slot is counted but steers nothing.
    pub fn record_timeliness(&mut self, stream: StreamId, t: Nanos) {
        if self.config.fixed_offset.is_some() {
            return;
        }
        let late = t < self.config.t_min;
        if late {
            self.stats.too_late += 1;
        } else if t > self.config.t_max {
            self.stats.too_early += 1;
        } else {
            return;
        }
        let PolicyConfig {
            alpha, max_offset, ..
        } = self.config;
        if let Some(state) = self.state_mut(stream) {
            state.offset = if late {
                (state.offset * (1.0 + alpha)).min(max_offset)
            } else {
                (state.offset * (1.0 - alpha)).max(1.0)
            };
            state.pages_ahead = pages_ahead(state.offset);
        }
    }

    /// Policy counters.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Elements of per-stream state held (one per STT slot).
    #[cfg(test)]
    pub(crate) fn state_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stt::test_support::OwnedWindow;

    /// STT entries the engines under test track.
    const ENTRIES: usize = 64;

    fn sid(slot: u16, generation: u32) -> StreamId {
        StreamId { slot, generation }
    }

    fn window(stream: StreamId) -> OwnedWindow {
        OwnedWindow::from_vpns(&[100, 102, 104, 106]).in_stream(stream)
    }

    /// A unit-stride window of `stream` ending at `last`.
    fn unit_window(stream: StreamId, last: u64) -> OwnedWindow {
        OwnedWindow::from_vpns(&[last - 3, last - 2, last - 1, last]).in_stream(stream)
    }

    fn finalize(pe: &mut PolicyEngine, w: &OwnedWindow, p: Prediction) -> Vec<PolicyOrder> {
        let mut out = Vec::new();
        pe.finalize(&w.window(), p, &mut out);
        out
    }

    #[test]
    fn default_offset_is_one() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let s = sid(0, 0);
        let orders = finalize(&mut pe, &window(s), Prediction::Simple { stride: 2 });
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].vpn, Vpn::new(108), "VPN_A + 1*stride");
        assert_eq!(orders[0].tier, Tier::Simple);
    }

    #[test]
    fn finalize_appends_without_clearing() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let w = window(sid(0, 0));
        let mut out = Vec::new();
        pe.finalize(&w.window(), Prediction::Simple { stride: 2 }, &mut out);
        pe.finalize(&w.window(), Prediction::Ripple, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(pe.stats().orders, 2);
    }

    #[test]
    fn late_pages_push_offset_up() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let s = sid(0, 0);
        for _ in 0..4 {
            pe.record_timeliness(s, Nanos::from_micros(10)); // < T_min
        }
        // 1.0 * 1.2^4 ≈ 2.07 → rounds to 2.
        let orders = finalize(&mut pe, &window(s), Prediction::Simple { stride: 2 });
        assert_eq!(orders[0].vpn, Vpn::new(110), "VPN_A + 2*stride");
        assert_eq!(pe.stats().too_late, 4);
    }

    #[test]
    fn early_pages_pull_offset_down_to_floor() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let s = sid(0, 0);
        for _ in 0..10 {
            pe.record_timeliness(s, Nanos::from_micros(10));
        }
        let up = pe.offset_of(s);
        assert!(up > 2.0);
        for _ in 0..100 {
            pe.record_timeliness(s, Nanos::from_secs(1)); // > T_max
        }
        assert_eq!(pe.offset_of(s), 1.0, "offset floors at 1");
        assert!(pe.stats().too_early >= 10);
    }

    #[test]
    fn offset_is_capped_at_max() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let s = sid(0, 0);
        for _ in 0..100 {
            pe.record_timeliness(s, Nanos::ZERO);
        }
        assert_eq!(pe.offset_of(s), 1024.0);
    }

    #[test]
    fn in_band_timeliness_changes_nothing() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let s = sid(0, 0);
        pe.record_timeliness(s, Nanos::from_micros(100)); // in [40us, 5ms]
        assert_eq!(pe.offset_of(s), 1.0);
        assert_eq!(pe.stats().too_late + pe.stats().too_early, 0);
    }

    #[test]
    fn fixed_offset_ignores_feedback() {
        let mut pe = PolicyEngine::new(PolicyConfig::fixed_offset(20_000.0), ENTRIES);
        let s = sid(0, 0);
        pe.record_timeliness(s, Nanos::ZERO);
        assert_eq!(pe.offset_of(s), 20_000.0);
        let orders = finalize(&mut pe, &window(s), Prediction::Ripple);
        assert_eq!(orders[0].vpn, Vpn::new(106 + 20_000));
    }

    #[test]
    fn intensity_issues_consecutive_offsets() {
        let mut pe = PolicyEngine::new(
            PolicyConfig {
                intensity: 3,
                ..Default::default()
            },
            ENTRIES,
        );
        let orders = finalize(
            &mut pe,
            &window(sid(0, 0)),
            Prediction::Simple { stride: 2 },
        );
        let vpns: Vec<u64> = orders.iter().map(|o| o.vpn.raw()).collect();
        assert_eq!(vpns, vec![108, 110, 112]);
    }

    #[test]
    fn huge_batch_takes_over_after_confirmations() {
        let mut pe = PolicyEngine::new(
            PolicyConfig {
                huge_batch: Some(HugeBatchConfig {
                    min_confirmations: 3,
                    batch_pages: 512,
                }),
                ..Default::default()
            },
            ENTRIES,
        );
        let s = sid(0, 0);
        let unit = Prediction::Simple { stride: 1 };
        // First two confirmations: plain single-page orders.
        for k in 0..2u64 {
            let o = finalize(&mut pe, &unit_window(s, 1_000 + k), unit);
            assert_eq!(o.len(), 1);
            assert_eq!(o[0].span, 1);
        }
        // Third: one 512-page batch starting right after VPN_A.
        let o = finalize(&mut pe, &unit_window(s, 1_002), unit);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].span, 512);
        assert_eq!(o[0].vpn, Vpn::new(1_003));
        // While consumption is far from the frontier: nothing issued.
        let o = finalize(&mut pe, &unit_window(s, 1_003), unit);
        assert!(o.is_empty());
        // Approaching the frontier (within batch/4): the next batch.
        let o = finalize(&mut pe, &unit_window(s, 1_003 + 512 - 100), unit);
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].vpn, Vpn::new(1_003 + 512));
        assert_eq!(o[0].span, 512);
    }

    #[test]
    fn huge_batch_ignores_non_unit_strides() {
        let mut pe = PolicyEngine::new(
            PolicyConfig {
                huge_batch: Some(HugeBatchConfig {
                    min_confirmations: 1,
                    batch_pages: 512,
                }),
                ..Default::default()
            },
            ENTRIES,
        );
        let o = finalize(
            &mut pe,
            &window(sid(0, 0)),
            Prediction::Simple { stride: 2 },
        );
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].span, 1, "stride-2 streams are not batchable");
    }

    #[test]
    fn per_stream_offsets_are_independent() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let (a, b) = (sid(0, 0), sid(1, 0));
        for _ in 0..5 {
            pe.record_timeliness(a, Nanos::ZERO);
        }
        assert!(pe.offset_of(a) > 1.0);
        assert_eq!(pe.offset_of(b), 1.0);
        // The stream recycling a's slot starts from scratch.
        let _ = finalize(&mut pe, &window(sid(0, 1)), Prediction::Ripple);
        assert_eq!(pe.offset_of(sid(0, 1)), 1.0, "new generation resets");
        assert_eq!(pe.offset_of(a), 1.0, "old generation's state is gone");
    }

    #[test]
    fn stale_generation_feedback_is_counted_but_steers_nothing() {
        let mut pe = PolicyEngine::new(
            PolicyConfig {
                huge_batch: Some(HugeBatchConfig {
                    min_confirmations: 2,
                    batch_pages: 512,
                }),
                ..Default::default()
            },
            ENTRIES,
        );
        let old = sid(3, 0);
        let new = sid(3, 1);
        let unit = Prediction::Simple { stride: 1 };
        // The old stream grows its offset, then its slot is recycled.
        for _ in 0..3 {
            pe.record_timeliness(old, Nanos::ZERO);
        }
        assert!(pe.offset_of(old) > 1.0);
        // The new stream confirms once (no batch yet) at offset 1.
        let o = finalize(&mut pe, &unit_window(new, 2_000), unit);
        assert_eq!((o[0].vpn, o[0].span), (Vpn::new(2_001), 1));
        // Late samples for the old generation: counted, not applied.
        let before = pe.stats();
        pe.record_timeliness(old, Nanos::ZERO);
        pe.record_timeliness(old, Nanos::from_secs(1));
        assert_eq!(pe.stats().too_late, before.too_late + 1);
        assert_eq!(pe.stats().too_early, before.too_early + 1);
        assert_eq!(pe.offset_of(new), 1.0, "new offset untouched");
        // Confirmation count and frontier are the new stream's own:
        // the second window batches from VPN_A + 1, the third is
        // covered by that batch.
        let o = finalize(&mut pe, &unit_window(new, 2_001), unit);
        assert_eq!((o[0].vpn, o[0].span), (Vpn::new(2_002), 512));
        pe.record_timeliness(old, Nanos::ZERO);
        assert!(finalize(&mut pe, &unit_window(new, 2_002), unit).is_empty());
    }

    #[test]
    fn streams_outside_the_table_are_counted_only() {
        let mut pe = PolicyEngine::new(PolicyConfig::default(), ENTRIES);
        let synthetic = sid(u16::MAX, 0);
        pe.record_timeliness(synthetic, Nanos::ZERO);
        assert_eq!(pe.stats().too_late, 1);
        assert_eq!(pe.offset_of(synthetic), 1.0);
        assert_eq!(pe.state_len(), ENTRIES);
    }
}
