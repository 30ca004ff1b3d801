//! Leap's majority-based stride prefetching over fault history.
//!
//! Leap (ATC '20) keeps a small window of recent page-fault addresses
//! and looks for a *majority stride* among consecutive differences; if
//! one exists it prefetches ahead along that stride. Because the window
//! only ever contains *missing* pages, it is coarse-grained, easily
//! confused by interleaved streams and polluted by interference pages —
//! the three limitations Figure 1 of the HoPP paper walks through.
//!
//! History is per-process (Leap tracks per-process access histories);
//! within a process, concurrent streams still collide, which is the
//! §VI-E effect that makes Leap slower than Fastswap on the two-thread
//! microbenchmark.

use std::collections::{BTreeMap, VecDeque};

use hopp_kernel::{FaultInfo, PrefetchRequest, Prefetcher, SlotView};
use hopp_types::{Pid, Vpn};

/// Leap's majority-based prefetcher.
#[derive(Clone, Debug)]
pub struct LeapPrefetcher {
    window: usize,
    depth: usize,
    /// Adaptive prefetch-window sizing (Leap's own design): the depth
    /// doubles after a prefetch-hit and halves after a major fault,
    /// within `[min_depth, max_depth]`.
    adaptive: Option<(usize, usize)>,
    history: BTreeMap<Pid, VecDeque<Vpn>>,
}

impl Default for LeapPrefetcher {
    fn default() -> Self {
        // Leap's SPLIT window is adaptive around a handful of entries;
        // the HoPP paper's motivating example uses window 4. Depth 8
        // matches the readahead volume of the other baselines.
        LeapPrefetcher::new(4, 8)
    }
}

impl LeapPrefetcher {
    /// Creates a prefetcher with a fault-history `window` and a fixed
    /// prefetch `depth` (pages fetched along a detected stride).
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (stride detection needs two faults).
    pub fn new(window: usize, depth: usize) -> Self {
        assert!(window >= 2, "leap window must hold at least two faults");
        LeapPrefetcher {
            window,
            depth,
            adaptive: None,
            history: BTreeMap::new(),
        }
    }

    /// Leap with its adaptive prefetch-window sizing enabled: the depth
    /// starts at `min_depth`, doubles on swapcache hits (the trend is
    /// working) and halves on major faults, bounded by `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`, `min_depth == 0` or
    /// `min_depth > max_depth`.
    pub fn adaptive(window: usize, min_depth: usize, max_depth: usize) -> Self {
        assert!(window >= 2, "leap window must hold at least two faults");
        assert!(min_depth >= 1 && min_depth <= max_depth);
        LeapPrefetcher {
            window,
            depth: min_depth,
            adaptive: Some((min_depth, max_depth)),
            history: BTreeMap::new(),
        }
    }

    /// The current prefetch depth (fixed, or the adaptive window's
    /// present size).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The majority stride of a fault window, if any: a stride value
    /// occurring in more than half of the consecutive differences.
    fn majority_stride(history: &VecDeque<Vpn>) -> Option<i64> {
        let n = history.len();
        if n < 2 {
            return None;
        }
        let strides: Vec<i64> = history
            .iter()
            .zip(history.iter().skip(1))
            .map(|(a, b)| b.stride_from(*a))
            .collect();
        let need = strides.len() / 2 + 1; // strict majority
        for (i, &s) in strides.iter().enumerate() {
            if s == 0 || strides[..i].contains(&s) {
                continue;
            }
            if strides.iter().filter(|&&x| x == s).count() >= need {
                return Some(s);
            }
        }
        None
    }
}

impl Prefetcher for LeapPrefetcher {
    fn name(&self) -> &str {
        "leap"
    }

    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        _slots: &dyn SlotView,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if let Some((min_depth, max_depth)) = self.adaptive {
            self.depth = if fault.hit_swapcache {
                (self.depth * 2).min(max_depth)
            } else {
                (self.depth / 2).max(min_depth)
            };
        }
        let history = self.history.entry(fault.pid).or_default();
        history.push_back(fault.vpn);
        if history.len() > self.window {
            history.pop_front();
        }
        let Some(stride) = Self::majority_stride(history) else {
            return;
        };
        for k in 1..=self.depth as i64 {
            let Some(step) = k.checked_mul(stride) else {
                break;
            };
            let Some(vpn) = fault.vpn.offset(step) else {
                break;
            };
            out.push(PrefetchRequest {
                pid: fault.pid,
                vpn,
                inject: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_types::Nanos;

    struct NoSlots;
    impl SlotView for NoSlots {
        fn page_at(&self, _: hopp_types::SwapSlot) -> Option<(Pid, Vpn)> {
            None
        }
    }

    fn fault(pid: u16, vpn: u64) -> FaultInfo {
        FaultInfo {
            pid: Pid::new(pid),
            vpn: Vpn::new(vpn),
            now: Nanos::ZERO,
            hit_swapcache: false,
            slot: None,
        }
    }

    fn run(leap: &mut LeapPrefetcher, faults: &[(u16, u64)]) -> Vec<Vec<u64>> {
        faults
            .iter()
            .map(|&(p, v)| {
                let mut out = Vec::new();
                leap.on_fault(&fault(p, v), &NoSlots, &mut out);
                out.iter().map(|r| r.vpn.raw()).collect()
            })
            .collect()
    }

    #[test]
    fn clean_stride_is_detected_and_prefetched() {
        let mut leap = LeapPrefetcher::new(4, 3);
        let outs = run(&mut leap, &[(1, 100), (1, 104), (1, 108), (1, 112)]);
        // After two faults the stride 4 already has a strict majority
        // (1 of 1); conservative check on the final window:
        assert_eq!(outs.last().unwrap(), &vec![116, 120, 124]);
    }

    #[test]
    fn interleaved_streams_confuse_the_stride() {
        // The Figure 1 scenario: streams A (stride 2) and B (stride 1)
        // intertwine; consecutive fault diffs jump between streams and
        // no stride reaches a strict majority in the window.
        let mut leap = LeapPrefetcher::new(4, 3);
        let outs = run(
            &mut leap,
            &[
                (1, 1_000),
                (1, 5_001),
                (1, 1_002),
                (1, 5_002),
                (1, 1_004),
                (1, 5_003),
            ],
        );
        assert!(
            outs.iter().skip(2).all(|o| o.is_empty()),
            "no stable stride once streams interleave: {outs:?}"
        );
    }

    #[test]
    fn separate_processes_have_separate_histories() {
        // The same interleaving as above, but tagged with distinct PIDs:
        // per-process histories keep both streams clean.
        let mut leap = LeapPrefetcher::new(4, 1);
        let outs = run(
            &mut leap,
            &[
                (1, 1_000),
                (2, 5_001),
                (1, 1_002),
                (2, 5_002),
                (1, 1_004),
                (2, 5_003),
            ],
        );
        assert_eq!(outs[4], vec![1_006]);
        assert_eq!(outs[5], vec![5_004]);
    }

    #[test]
    fn interference_page_breaks_a_fragile_window() {
        let mut leap = LeapPrefetcher::new(4, 1);
        // Stride-2 stream with one interference page in the window.
        let outs = run(&mut leap, &[(1, 10), (1, 12), (1, 900), (1, 14)]);
        // Window [10,12,900,14]: strides [2,888,-886] — no majority.
        assert!(outs.last().unwrap().is_empty());
    }

    #[test]
    fn negative_strides_work() {
        let mut leap = LeapPrefetcher::new(4, 2);
        let outs = run(&mut leap, &[(1, 100), (1, 97), (1, 94), (1, 91)]);
        assert_eq!(outs.last().unwrap(), &vec![88, 85]);
    }

    #[test]
    fn adaptive_window_grows_on_hits_and_shrinks_on_misses() {
        let mut leap = LeapPrefetcher::adaptive(4, 2, 16);
        assert_eq!(leap.depth(), 2);
        let mut out = Vec::new();
        let hit = FaultInfo {
            pid: Pid::new(1),
            vpn: Vpn::new(100),
            now: Nanos::ZERO,
            hit_swapcache: true,
            slot: None,
        };
        leap.on_fault(&hit, &NoSlots, &mut out);
        assert_eq!(leap.depth(), 4);
        leap.on_fault(
            &FaultInfo {
                vpn: Vpn::new(104),
                ..hit
            },
            &NoSlots,
            &mut out,
        );
        leap.on_fault(
            &FaultInfo {
                vpn: Vpn::new(108),
                ..hit
            },
            &NoSlots,
            &mut out,
        );
        assert_eq!(leap.depth(), 16, "doubles per hit, capped at max");
        let miss = FaultInfo {
            hit_swapcache: false,
            vpn: Vpn::new(112),
            ..hit
        };
        leap.on_fault(&miss, &NoSlots, &mut out);
        assert_eq!(leap.depth(), 8);
        for k in 0..6 {
            leap.on_fault(
                &FaultInfo {
                    vpn: Vpn::new(116 + 4 * k),
                    ..miss
                },
                &NoSlots,
                &mut out,
            );
        }
        assert_eq!(leap.depth(), 2, "halves per miss, floored at min");
    }

    #[test]
    fn adaptive_depth_bounds_prefetch_volume() {
        let mut leap = LeapPrefetcher::adaptive(4, 2, 8);
        // A clean stride stream with hits growing the window.
        let mut out = Vec::new();
        for k in 0..6u64 {
            out.clear();
            leap.on_fault(
                &FaultInfo {
                    pid: Pid::new(1),
                    vpn: Vpn::new(100 + 4 * k),
                    now: Nanos::ZERO,
                    hit_swapcache: true,
                    slot: None,
                },
                &NoSlots,
                &mut out,
            );
            assert!(out.len() <= 8);
        }
        assert_eq!(out.len(), 8, "window grew to its cap");
    }

    #[test]
    fn repeated_fault_address_is_not_a_stride() {
        let mut leap = LeapPrefetcher::new(4, 2);
        let outs = run(&mut leap, &[(1, 5), (1, 5), (1, 5), (1, 5)]);
        assert!(
            outs.iter().all(|o| o.is_empty()),
            "zero stride never prefetches"
        );
    }
}
