//! Adaptive Three-Tier Prefetching — §III-D of the paper.
//!
//! Each full training window is tried against the three pattern
//! detectors in order of prevalence and cost: SSP (simple streams)
//! first, LSP (ladder streams) if SSP fails, RSP (ripple streams) as
//! the last resort. Each tier can be disabled, which is how the
//! paper's Figure 18–20 ablation (SSP, SSP+LSP, SSP+LSP+RSP) is run.

use crate::stt::StreamWindow;
use crate::{lsp, rsp, ssp};
use hopp_types::Vpn;

/// Which algorithm produced a prediction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tier {
    /// Simple-stream prefetch (majority stride).
    Simple,
    /// Ladder-stream prefetch (Algorithm 1).
    Ladder,
    /// Ripple-stream prefetch (Algorithm 2).
    Ripple,
}

impl Tier {
    /// All tiers, in dispatch order.
    pub const ALL: [Tier; 3] = [Tier::Simple, Tier::Ladder, Tier::Ripple];

    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Simple => "SSP",
            Tier::Ladder => "LSP",
            Tier::Ripple => "RSP",
        }
    }
}

/// Which tiers participate (the Fig 18–20 ablation knob).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TierConfig {
    /// Enable simple-stream detection.
    pub ssp: bool,
    /// Enable ladder-stream detection.
    pub lsp: bool,
    /// Enable ripple-stream detection.
    pub rsp: bool,
    /// RSP's out-of-order tolerance (`max_stride`). Default 2.
    pub max_stride: i64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            ssp: true,
            lsp: true,
            rsp: true,
            max_stride: rsp::MAX_STRIDE,
        }
    }
}

impl TierConfig {
    /// SSP only (the first bar of Fig 18).
    pub fn ssp_only() -> Self {
        TierConfig {
            lsp: false,
            rsp: false,
            ..Default::default()
        }
    }

    /// SSP + LSP (the second bar of Fig 18).
    pub fn ssp_lsp() -> Self {
        TierConfig {
            rsp: false,
            ..Default::default()
        }
    }
}

/// A prediction: how to compute target pages from `VPN_A` and the
/// prefetch offset `i`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Prediction {
    /// A simple stream with the given dominant stride: prefetch
    /// `VPN_A + i × stride`.
    Simple {
        /// The dominant stride.
        stride: i64,
    },
    /// A ladder stream: prefetch
    /// `VPN_A + stride_target + i × pattern_stride`.
    Ladder {
        /// Next stride of the target pattern.
        stride_target: i64,
        /// Distance between pattern repetitions.
        pattern_stride: i64,
    },
    /// A ripple stream (stride 1): prefetch `VPN_A + i`.
    Ripple,
}

impl Prediction {
    /// The tier that produced this prediction.
    pub fn tier(&self) -> Tier {
        match self {
            Prediction::Simple { .. } => Tier::Simple,
            Prediction::Ladder { .. } => Tier::Ladder,
            Prediction::Ripple => Tier::Ripple,
        }
    }

    /// The page this prediction targets at prefetch offset `i`
    /// (`None` if the target would leave the address space).
    pub fn target(&self, vpn_a: Vpn, i: i64) -> Option<Vpn> {
        match *self {
            Prediction::Simple { stride } => vpn_a.offset(i.checked_mul(stride)?),
            Prediction::Ladder {
                stride_target,
                pattern_stride,
            } => vpn_a.offset(stride_target.checked_add(i.checked_mul(pattern_stride)?)?),
            Prediction::Ripple => vpn_a.offset(i),
        }
    }
}

/// Per-tier prediction counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct TierStats {
    /// Predictions produced by SSP.
    pub simple: u64,
    /// Predictions produced by LSP.
    pub ladder: u64,
    /// Predictions produced by RSP.
    pub ripple: u64,
    /// Windows no enabled tier could classify.
    pub unclassified: u64,
}

impl TierStats {
    /// Counter for one tier.
    pub fn for_tier(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Simple => self.simple,
            Tier::Ladder => self.ladder,
            Tier::Ripple => self.ripple,
        }
    }
}

/// The adaptive dispatcher.
#[derive(Clone, Debug)]
pub struct ThreeTier {
    config: TierConfig,
    stats: TierStats,
    /// LSP's vote lists, reused across windows.
    votes: lsp::LadderVotes,
}

impl ThreeTier {
    /// Creates a dispatcher with the given tier selection.
    pub fn new(config: TierConfig) -> Self {
        ThreeTier {
            config,
            stats: TierStats::default(),
            votes: lsp::LadderVotes::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TierConfig {
        self.config
    }

    /// Classifies a window, trying SSP → LSP → RSP.
    pub fn predict(&mut self, window: &StreamWindow) -> Option<Prediction> {
        let _prof = hopp_prof::span(hopp_prof::SpanId::CoreTierPredict);
        if self.config.ssp {
            if let Some(stride) = ssp::dominant_stride(window) {
                self.stats.simple += 1;
                return Some(Prediction::Simple { stride });
            }
        }
        if self.config.lsp {
            if let Some(p) = lsp::predict(window, &mut self.votes) {
                self.stats.ladder += 1;
                return Some(Prediction::Ladder {
                    stride_target: p.stride_target,
                    pattern_stride: p.pattern_stride,
                });
            }
        }
        if self.config.rsp && rsp::is_ripple_with(window, self.config.max_stride) {
            self.stats.ripple += 1;
            return Some(Prediction::Ripple);
        }
        self.stats.unclassified += 1;
        None
    }

    /// Per-tier counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stt::test_support::OwnedWindow;

    fn simple_window() -> OwnedWindow {
        OwnedWindow::from_vpns(&(0..16).map(|k| 100 + 4 * k).collect::<Vec<_>>())
    }

    fn ladder_window() -> OwnedWindow {
        // Strides cycle (2, 12, 7): no majority, but the 2-stride
        // pattern repeats.
        let mut vpns = vec![0u64];
        let strides = [2i64, 12, 7];
        for k in 0..15 {
            let last = *vpns.last().unwrap();
            vpns.push((last as i64 + strides[k % 3]) as u64);
        }
        OwnedWindow::from_vpns(&vpns)
    }

    fn ripple_window() -> OwnedWindow {
        // Stride-1 scan with pervasive adjacent swaps: no single stride
        // dominates (SSP fails), the newest stride pair never repeats
        // (LSP fails), but cumulative strides keep returning to 0 (RSP).
        OwnedWindow::from_vpns(&[
            100, 102, 101, 104, 103, 106, 105, 108, 107, 110, 109, 112, 111, 114, 113, 115,
        ])
    }

    fn random_window() -> OwnedWindow {
        OwnedWindow::from_vpns(&[
            100, 900, 40, 7000, 3, 650, 12000, 88, 4100, 77, 950, 31, 8000, 210, 5, 666,
        ])
    }

    #[test]
    fn dispatch_order_ssp_first() {
        let mut tt = ThreeTier::new(TierConfig::default());
        let p = tt.predict(&simple_window().window()).unwrap();
        assert_eq!(p, Prediction::Simple { stride: 4 });
        assert_eq!(tt.stats().simple, 1);
    }

    #[test]
    fn ladder_falls_through_to_lsp() {
        let mut tt = ThreeTier::new(TierConfig::default());
        let p = tt.predict(&ladder_window().window()).unwrap();
        assert_eq!(p.tier(), Tier::Ladder);
        assert_eq!(tt.stats().ladder, 1);
    }

    #[test]
    fn ripple_falls_through_to_rsp() {
        let mut tt = ThreeTier::new(TierConfig::default());
        let p = tt.predict(&ripple_window().window()).unwrap();
        assert_eq!(p, Prediction::Ripple);
        assert_eq!(tt.stats().ripple, 1);
    }

    #[test]
    fn unclassified_windows_are_counted() {
        let mut tt = ThreeTier::new(TierConfig::default());
        assert_eq!(tt.predict(&random_window().window()), None);
        assert_eq!(tt.stats().unclassified, 1);
    }

    #[test]
    fn disabled_tiers_do_not_fire() {
        let mut tt = ThreeTier::new(TierConfig::ssp_only());
        assert_eq!(
            tt.predict(&ripple_window().window()).map(|p| p.tier()),
            None
        );
        let mut tt = ThreeTier::new(TierConfig::ssp_lsp());
        assert_eq!(tt.predict(&ripple_window().window()), None);
        assert_eq!(
            tt.predict(&ladder_window().window()).unwrap().tier(),
            Tier::Ladder
        );
    }

    #[test]
    fn targets_follow_the_paper_formulas() {
        let a = Vpn::new(1_000);
        assert_eq!(
            Prediction::Simple { stride: 3 }.target(a, 2),
            Some(Vpn::new(1_006))
        );
        assert_eq!(
            Prediction::Ladder {
                stride_target: 2,
                pattern_stride: 18
            }
            .target(a, 1),
            Some(Vpn::new(1_020))
        );
        assert_eq!(Prediction::Ripple.target(a, 5), Some(Vpn::new(1_005)));
        // Negative-stride streams prefetch downwards.
        assert_eq!(
            Prediction::Simple { stride: -4 }.target(a, 3),
            Some(Vpn::new(988))
        );
        // Underflow is rejected, not wrapped.
        assert_eq!(
            Prediction::Simple { stride: -1 }.target(Vpn::new(1), 2),
            None
        );
    }

    #[test]
    fn tier_labels() {
        assert_eq!(Tier::Simple.label(), "SSP");
        assert_eq!(Tier::Ladder.label(), "LSP");
        assert_eq!(Tier::Ripple.label(), "RSP");
        assert_eq!(Tier::ALL.len(), 3);
    }
}
