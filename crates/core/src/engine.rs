//! The assembled HoPP training stack: STT → three-tier → policy.
//!
//! [`HoppEngine`] is the software half of Figure 4's architecture in one
//! object: hot pages in, prefetch orders out, timeliness feedback back
//! in. The execution engine ([`crate::exec::ExecutionEngine`]) is kept
//! separate because it owns the network side and the simulator threads
//! the RDMA link through it explicitly.

use hopp_obs::{Event, NopRecorder, Recorder, TierKind};
use hopp_types::{HotPage, Nanos, Result};

use crate::markov::{MarkovConfig, MarkovEngine};
pub use crate::policy::PolicyOrder as PrefetchOrder;
use crate::policy::{PolicyConfig, PolicyEngine, PolicyStats};
use crate::stt::{StreamId, StreamTrainingTable, SttConfig, SttStats};
use crate::three_tier::{ThreeTier, TierConfig, TierStats};

/// Which trace-driven prediction algorithm the software runs. The
/// training framework is deliberately replaceable (§III-D: "our
/// proposal is just one solution in a large design space").
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum TrainerKind {
    /// The paper's adaptive three-tier prefetching (STT + SSP/LSP/RSP).
    #[default]
    ThreeTier,
    /// A first-order Markov (address-correlation) predictor.
    Markov(MarkovConfig),
}

/// Configuration of the whole software stack.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct HoppConfig {
    /// Stream training table parameters.
    pub stt: SttConfig,
    /// Tier selection (ablation knob).
    pub tiers: TierConfig,
    /// Policy knobs (intensity, offset control).
    pub policy: PolicyConfig,
    /// The prediction algorithm (three-tier by default).
    pub trainer: TrainerKind,
}

/// The HoPP prefetch training framework plus policy engine.
///
/// All training state is fixed-size and allocated at construction, and
/// orders are appended to a caller-owned buffer, so a hot page costs no
/// heap allocation in steady state (the Markov trainer's transition
/// table still grows while it learns new pages).
#[derive(Clone, Debug)]
pub struct HoppEngine {
    stt: StreamTrainingTable,
    tiers: ThreeTier,
    policy: PolicyEngine,
    markov: Option<MarkovEngine>,
}

impl HoppEngine {
    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns the validation error of an invalid [`SttConfig`].
    pub fn try_new(config: HoppConfig) -> Result<Self> {
        Ok(HoppEngine {
            stt: StreamTrainingTable::new(config.stt)?,
            tiers: ThreeTier::new(config.tiers),
            policy: PolicyEngine::new(config.policy, config.stt.entries),
            markov: match config.trainer {
                TrainerKind::ThreeTier => None,
                TrainerKind::Markov(mc) => Some(MarkovEngine::new(mc)),
            },
        })
    }

    /// Consumes one hot page from the hardware pipeline and returns the
    /// prefetch orders it triggers (empty while streams are still in
    /// training or the window matches no pattern).
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer
    /// [`HoppEngine::on_hot_page_into`] with a reused buffer.
    pub fn on_hot_page(&mut self, hot: &HotPage) -> Vec<PrefetchOrder> {
        let mut orders = Vec::new();
        self.on_hot_page_into(hot, &mut NopRecorder, &mut orders);
        orders
    }

    /// [`HoppEngine::on_hot_page`] appending into a caller-owned buffer
    /// (which is *not* cleared first). Records the stream lifecycle (via
    /// the STT) and an [`Event::TierDecision`] whenever a training
    /// window is classified by one of the tiers (or the Markov trainer
    /// makes a prediction).
    pub fn on_hot_page_into(
        &mut self,
        hot: &HotPage,
        rec: &mut dyn Recorder,
        out: &mut Vec<PrefetchOrder>,
    ) {
        let _prof = hopp_prof::span(hopp_prof::SpanId::CoreTrain);
        if let Some(markov) = &mut self.markov {
            if markov.on_hot_page(hot, out) > 0 && rec.is_enabled() {
                rec.record(
                    hot.at,
                    Event::TierDecision {
                        tier: TierKind::Markov,
                        pid: hot.pid,
                        vpn: hot.vpn,
                    },
                );
            }
            return;
        }
        let Some(window) = self.stt.observe(hot, rec) else {
            return;
        };
        let Some(prediction) = self.tiers.predict(&window) else {
            return;
        };
        if rec.is_enabled() {
            let tier = match prediction.tier() {
                crate::three_tier::Tier::Simple => TierKind::Ssp,
                crate::three_tier::Tier::Ladder => TierKind::Lsp,
                crate::three_tier::Tier::Ripple => TierKind::Rsp,
            };
            rec.record(
                hot.at,
                Event::TierDecision {
                    tier,
                    pid: hot.pid,
                    vpn: hot.vpn,
                },
            );
        }
        self.policy.finalize(&window, prediction, out);
    }

    /// Feeds back the timeliness of a prefetched page (measured by the
    /// caller from PTE-injection time to first hit).
    pub fn on_timeliness(&mut self, stream: StreamId, t: Nanos) {
        self.policy.record_timeliness(stream, t);
    }

    /// STT counters.
    pub fn stt_stats(&self) -> SttStats {
        self.stt.stats()
    }

    /// Per-tier prediction counters.
    pub fn tier_stats(&self) -> TierStats {
        self.tiers.stats()
    }

    /// Policy counters.
    pub fn policy_stats(&self) -> PolicyStats {
        self.policy.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_tier::Tier;
    use hopp_types::{PageFlags, Pid, Vpn};

    fn hot(pid: u16, vpn: u64, us: u64) -> HotPage {
        HotPage {
            pid: Pid::new(pid),
            vpn: Vpn::new(vpn),
            flags: PageFlags::default(),
            at: Nanos::from_micros(us),
        }
    }

    fn engine(config: HoppConfig) -> HoppEngine {
        HoppEngine::try_new(config).expect("valid HoPP configuration")
    }

    #[test]
    fn stride_stream_produces_forward_orders() {
        let mut e = engine(HoppConfig::default());
        let mut orders = Vec::new();
        for k in 0..32u64 {
            orders.extend(e.on_hot_page(&hot(1, 1_000 + 4 * k, k)));
        }
        assert!(!orders.is_empty());
        // All predictions continue the stride-4 stream ahead of VPN_A.
        for o in &orders {
            assert_eq!((o.vpn.raw() - 1_000) % 4, 0);
            assert_eq!(o.tier, Tier::Simple);
        }
        assert_eq!(e.tier_stats().simple, orders.len() as u64);
    }

    #[test]
    fn training_needs_a_full_window() {
        let mut e = engine(HoppConfig::default());
        // 15 pages: one short of the default L=16 window.
        for k in 0..15u64 {
            assert!(e.on_hot_page(&hot(1, 100 + k, k)).is_empty());
        }
        assert!(!e.on_hot_page(&hot(1, 115, 15)).is_empty());
    }

    #[test]
    fn random_pages_produce_no_orders() {
        let mut e = engine(HoppConfig::default());
        let mut n = 0;
        // Scattered pages, each its own "stream" that never fills.
        for k in 0..200u64 {
            n += e.on_hot_page(&hot(1, (k * 7_919) % 1_000_000, k)).len();
        }
        assert_eq!(n, 0);
    }

    #[test]
    fn timeliness_feedback_moves_offsets() {
        let mut e = engine(HoppConfig::default());
        let mut first_order = None;
        for k in 0..40u64 {
            for o in e.on_hot_page(&hot(1, 2 * k, k)) {
                if first_order.is_none() {
                    first_order = Some(o);
                }
                // Pretend every page arrived barely in time.
                e.on_timeliness(o.stream, Nanos::from_micros(1));
            }
        }
        let o = first_order.expect("orders were produced");
        // After many too-late samples the offset grew past 1, so later
        // orders reach further ahead than the first one did relative to
        // their VPN_A. Verify via the policy stats.
        assert!(e.policy_stats().too_late > 0);
        assert_eq!(o.tier, Tier::Simple);
    }

    #[test]
    fn markov_trainer_replaces_three_tier() {
        let mut e = engine(HoppConfig {
            trainer: TrainerKind::Markov(crate::markov::MarkovConfig::default()),
            ..HoppConfig::default()
        });
        // An irregular but repeating sequence: three-tier finds nothing,
        // the Markov predictor learns it on the second pass.
        let seq = [5u64, 900, 17, 3_000, 42];
        for &v in &seq {
            assert!(e.on_hot_page(&hot(1, v, 0)).is_empty());
        }
        let mut predicted = 0;
        for &v in &seq {
            predicted += e.on_hot_page(&hot(1, v, 1)).len();
        }
        assert!(predicted > 0);
        assert!(e.markov.as_ref().unwrap().stats().transitions > 0);
        assert_eq!(e.tier_stats().simple, 0, "three-tier never ran");
    }

    #[test]
    fn policy_state_is_bounded_by_the_stt() {
        let entries = 2;
        let mut e = engine(HoppConfig {
            stt: SttConfig {
                entries,
                history: 4,
                ..SttConfig::default()
            },
            ..HoppConfig::default()
        });
        // Churn through thousands of short-lived streams, generating
        // timeliness feedback for each: policy state stays one element
        // per STT entry.
        let mut orders = Vec::new();
        for round in 0..3_000u64 {
            let base = round * 10_000;
            for k in 0..5 {
                orders.clear();
                e.on_hot_page_into(&hot(1, base + k, round), &mut NopRecorder, &mut orders);
                for o in &orders {
                    e.on_timeliness(o.stream, Nanos::from_nanos(1));
                }
            }
        }
        assert!(e.stt_stats().evictions > 2_000);
        assert!(e.policy_stats().too_late > 0);
        assert!(e.policy.state_len() <= entries);
    }

    #[test]
    fn into_appends_to_the_callers_buffer() {
        let mut a = engine(HoppConfig::default());
        let mut b = engine(HoppConfig::default());
        let mut into = Vec::new();
        let mut fresh = Vec::new();
        for k in 0..40u64 {
            let h = hot(1, 500 + 3 * k, k);
            fresh.extend(a.on_hot_page(&h));
            b.on_hot_page_into(&h, &mut NopRecorder, &mut into);
        }
        assert!(!fresh.is_empty());
        assert_eq!(fresh, into);
    }

    #[test]
    fn invalid_config_is_an_error() {
        let bad = HoppConfig {
            stt: SttConfig {
                history: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(HoppEngine::try_new(bad).is_err());
    }
}
