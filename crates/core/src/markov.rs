//! A Markov (address-correlation) prefetcher over the hot-page trace.
//!
//! §III-D notes that the full memory trace enables prefetch designs
//! beyond the three-tier heuristics, "like machine learning-based
//! ones". This module provides the classic first step on that path: a
//! first-order Markov predictor (Joseph & Grunwald-style, at hot-page
//! granularity). It learns `page → likely-next-page` transitions from
//! the trace and, on every hot page, walks the most-recent transition
//! chain `depth` pages ahead.
//!
//! Correlation prefetching needs *history*: it only predicts
//! re-occurring sequences, so it shines on repeated irregular traversals
//! (graph iterations) and does nothing on first-visit streaming — the
//! opposite trade-off of the stride-based tiers. The
//! `experiments markov` target compares the two.

use std::collections::BTreeMap;

use hopp_types::{HotPage, Nanos, Pid, Vpn};

use crate::engine::PrefetchOrder;
use crate::stt::StreamId;
use crate::three_tier::Tier;

/// Markov predictor parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MarkovConfig {
    /// Successors remembered per page (MRU-ordered).
    pub fanout: usize,
    /// Chain length walked per hot page (pages prefetched).
    pub depth: u32,
    /// Maximum transition-table entries (hardware-budget bound); new
    /// pages stop being learned beyond this.
    pub max_entries: usize,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        MarkovConfig {
            fanout: 2,
            depth: 4,
            max_entries: 1 << 20,
        }
    }
}

/// Markov-engine counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MarkovStats {
    /// Transitions recorded.
    pub transitions: u64,
    /// Orders emitted.
    pub predictions: u64,
    /// Hot pages with no learned successor.
    pub cold_lookups: u64,
}

/// The Markov trace trainer. Drop-in alternative to
/// [`crate::HoppEngine`]'s three-tier stack (select it with
/// [`crate::engine::TrainerKind::Markov`]).
#[derive(Clone, Debug)]
pub struct MarkovEngine {
    config: MarkovConfig,
    /// MRU-ordered successor lists.
    table: BTreeMap<(Pid, Vpn), Vec<Vpn>>,
    /// Last hot page seen per process.
    last: BTreeMap<Pid, Vpn>,
    stats: MarkovStats,
}

impl MarkovEngine {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` or `depth` is zero.
    pub fn new(config: MarkovConfig) -> Self {
        assert!(config.fanout >= 1, "fanout must be at least 1");
        assert!(config.depth >= 1, "depth must be at least 1");
        MarkovEngine {
            config,
            table: BTreeMap::new(),
            last: BTreeMap::new(),
            stats: MarkovStats::default(),
        }
    }

    /// All Markov orders are attributed to one synthetic stream (the
    /// predictor has no stream notion; timeliness feedback is a no-op).
    fn stream_id() -> StreamId {
        StreamId {
            slot: u16::MAX,
            generation: 0,
        }
    }

    /// Learns the transition and predicts along the MRU chain,
    /// appending the orders to `out`. Returns the number appended.
    pub fn on_hot_page(&mut self, hot: &HotPage, out: &mut Vec<PrefetchOrder>) -> usize {
        // Learn: previous hot page of this process leads to this one.
        if let Some(prev) = self.last.insert(hot.pid, hot.vpn) {
            if prev != hot.vpn {
                let at_capacity = self.table.len() >= self.config.max_entries;
                if let Some(successors) = self.table.get_mut(&(hot.pid, prev)) {
                    successors.retain(|v| *v != hot.vpn);
                    successors.insert(0, hot.vpn);
                    successors.truncate(self.config.fanout);
                    self.stats.transitions += 1;
                } else if !at_capacity {
                    self.table.insert((hot.pid, prev), vec![hot.vpn]);
                    self.stats.transitions += 1;
                }
            }
        }

        // Predict: walk the most-recent successor chain, never
        // revisiting the hot page or a page already on the chain.
        let start = out.len();
        let mut cursor = hot.vpn;
        for _ in 0..self.config.depth {
            let Some(successors) = self.table.get(&(hot.pid, cursor)) else {
                break;
            };
            let chain = &out[start..];
            let Some(&next) = successors
                .iter()
                .find(|&&v| v != hot.vpn && chain.iter().all(|o| o.vpn != v))
            else {
                break;
            };
            out.push(PrefetchOrder {
                pid: hot.pid,
                vpn: next,
                span: 1,
                stream: Self::stream_id(),
                tier: Tier::Simple,
            });
            cursor = next;
        }
        let predicted = out.len() - start;
        if predicted == 0 {
            self.stats.cold_lookups += 1;
        }
        self.stats.predictions += predicted as u64;
        predicted
    }

    /// Timeliness feedback is not used by the Markov predictor.
    pub fn on_timeliness(&mut self, _stream: StreamId, _t: Nanos) {}

    /// Counters.
    pub fn stats(&self) -> MarkovStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_types::PageFlags;

    fn hot(pid: u16, vpn: u64) -> HotPage {
        HotPage {
            pid: Pid::new(pid),
            vpn: Vpn::new(vpn),
            flags: PageFlags::default(),
            at: Nanos::ZERO,
        }
    }

    fn predict(m: &mut MarkovEngine, h: &HotPage) -> Vec<PrefetchOrder> {
        let mut out = Vec::new();
        m.on_hot_page(h, &mut out);
        out
    }

    fn feed(m: &mut MarkovEngine, seq: &[u64]) -> Vec<Vec<u64>> {
        seq.iter()
            .map(|&v| {
                predict(m, &hot(1, v))
                    .into_iter()
                    .map(|o| o.vpn.raw())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn first_pass_is_cold_second_pass_predicts() {
        let mut m = MarkovEngine::new(MarkovConfig::default());
        let seq = [10u64, 95, 12, 40, 7];
        let first = feed(&mut m, &seq);
        assert!(first.iter().all(|o| o.is_empty()), "nothing learned yet");
        // Second traversal of the same irregular sequence: each page
        // predicts the chain ahead.
        let second = feed(&mut m, &seq);
        // After re-seeing 95, the chain 12 -> 40 -> 7 is known (the
        // wrap-around transition 7 -> 10 may extend it).
        assert_eq!(&second[1][..3], &[12, 40, 7]);
        assert_eq!(&second[2][..2], &[40, 7]);
    }

    #[test]
    fn mru_successor_wins_on_divergence() {
        let mut m = MarkovEngine::new(MarkovConfig::default());
        feed(&mut m, &[1, 2]);
        feed(&mut m, &[1, 3]); // newer transition 1 -> 3
        let out = predict(&mut m, &hot(1, 1));
        assert_eq!(out[0].vpn, Vpn::new(3));
    }

    #[test]
    fn fanout_bounds_successor_lists() {
        let mut m = MarkovEngine::new(MarkovConfig {
            fanout: 2,
            ..Default::default()
        });
        for next in [2u64, 3, 4, 5] {
            feed(&mut m, &[1, next]);
        }
        // Only the two most recent successors survive.
        let out = predict(&mut m, &hot(1, 1));
        assert_eq!(out[0].vpn, Vpn::new(5));
    }

    #[test]
    fn processes_do_not_share_transitions() {
        let mut m = MarkovEngine::new(MarkovConfig::default());
        feed(&mut m, &[1, 2]);
        predict(&mut m, &hot(2, 1));
        let out = predict(&mut m, &hot(2, 1));
        assert!(out.is_empty(), "pid 2 never saw 1 -> 2");
    }

    #[test]
    fn chains_do_not_loop() {
        let mut m = MarkovEngine::new(MarkovConfig {
            depth: 8,
            ..Default::default()
        });
        // A tight cycle 1 -> 2 -> 1 ...
        feed(&mut m, &[1, 2, 1, 2, 1]);
        let out = predict(&mut m, &hot(1, 2));
        // The chain stops rather than ping-ponging forever.
        assert!(out.len() <= 2, "{out:?}");
    }

    #[test]
    fn capacity_stops_learning_new_keys() {
        let mut m = MarkovEngine::new(MarkovConfig {
            max_entries: 2,
            ..Default::default()
        });
        feed(&mut m, &[1, 2, 3, 4, 5]); // would need 4 entries
        assert_eq!(m.table.len(), 2);
        // Existing keys keep updating.
        feed(&mut m, &[1, 9]);
        let out = predict(&mut m, &hot(1, 1));
        assert_eq!(out[0].vpn, Vpn::new(9));
    }
}
