//! Property tests for the HPD semantics of §III-B, checked against a
//! deliberately naive reference model on seeded random streams (no
//! `proptest`: the workspace is dependency-free, and seeded
//! `SplitMix64` streams give reproducible counter-examples).
//!
//! Properties:
//! * a page becomes hot on exactly its `N`-th counted read while
//!   resident, never earlier, never later;
//! * the send bit suppresses re-emission until the entry leaves the
//!   table (eviction or invalidation);
//! * sets are isolated: traffic in one set never disturbs another;
//! * replacement is exact LRU over 16 ways × 4 sets, preferring
//!   invalid ways;
//! * every `HpdStats` counter matches the reference, also under heavy
//!   invalidation and on other geometries;
//! * a run of `n` misses (`on_misses`) equals `n` single misses, on the
//!   16-way geometry (whose sets are searched as fixed-width arrays) and
//!   on others, for small PPNs and for PPNs just below the highest one an
//!   entry can hold.

use hopp_hw::hpd::{HotPageDetector, HpdConfig, HpdStats};
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, Ppn};

/// A transparent reference model of one HPD set: a plain vector with
/// the documented LRU policy, no cleverness. The real table must match
/// it emission-for-emission.
struct RefModel {
    config: HpdConfig,
    /// `sets[s]` holds `(ppn, count, sent, lru)` for each valid entry.
    sets: Vec<Vec<(Ppn, u32, bool, u64)>>,
    clock: u64,
    stats: HpdStats,
}

impl RefModel {
    fn new(config: HpdConfig) -> Self {
        RefModel {
            sets: vec![Vec::new(); config.sets],
            config,
            clock: 0,
            stats: HpdStats::default(),
        }
    }

    fn on_write(&mut self) {
        self.stats.writes_ignored += 1;
    }

    fn on_read(&mut self, ppn: Ppn) -> Option<Ppn> {
        self.clock += 1;
        self.stats.reads += 1;
        let set = &mut self.sets[(ppn.raw() % self.config.sets as u64) as usize];
        if let Some(e) = set.iter_mut().find(|e| e.0 == ppn) {
            e.3 = self.clock;
            if e.2 {
                self.stats.send_bit_drops += 1;
                return None;
            }
            e.1 += 1;
            if e.1 >= self.config.threshold {
                e.2 = true;
                self.stats.hot_pages += 1;
                return Some(ppn);
            }
            return None;
        }
        if set.len() == self.config.ways {
            // Evict the least recently used entry.
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.3)
                .map(|(i, _)| i)
                .unwrap();
            if set.swap_remove(victim).2 {
                self.stats.sent_evictions += 1;
            } else {
                self.stats.cold_evictions += 1;
            }
        }
        let sent = self.config.threshold == 1;
        set.push((ppn, 1, sent, self.clock));
        if sent {
            self.stats.hot_pages += 1;
        }
        sent.then_some(ppn)
    }

    fn invalidate(&mut self, ppn: Ppn) {
        let set = &mut self.sets[(ppn.raw() % self.config.sets as u64) as usize];
        set.retain(|e| e.0 != ppn);
    }
}

#[test]
fn table_matches_the_reference_model_on_random_streams() {
    // The load sweeps from "fits comfortably" to "3× overcommitted" so
    // both the no-eviction and constant-thrash regimes are exercised.
    for (seed, pages, threshold) in [
        (1u64, 16u64, 1u32),
        (2, 32, 2),
        (3, 48, 4),
        (4, 64, 8),
        (5, 96, 8),
        (6, 192, 4),
        (7, 192, 64),
    ] {
        let config = HpdConfig::with_threshold(threshold);
        let mut real = HotPageDetector::new(config).unwrap();
        let mut reference = RefModel::new(config);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for step in 0..50_000u32 {
            let ppn = Ppn::new(rng.gen_range(0..pages));
            if rng.gen_range(0..16) == 0 {
                real.invalidate(ppn);
                reference.invalidate(ppn);
                continue;
            }
            let line = rng.gen_range(0..64) as u8;
            let got = real.on_miss(ppn.line(line), AccessKind::Read);
            let want = reference.on_read(ppn);
            assert_eq!(
                got, want,
                "seed {seed} pages {pages} N {threshold}: diverged at step {step}"
            );
        }
    }
}

#[test]
fn every_counter_matches_the_reference_under_heavy_invalidation() {
    // One operation in three invalidates, as when reclaim churns the
    // pages the table is tracking; one read in eight is a write. Odd
    // geometries exercise the set mask beyond the default 16 × 4.
    for (seed, sets, ways, pages, threshold) in [
        (41u64, 4usize, 16usize, 96u64, 4u32),
        (42, 4, 16, 192, 1),
        (43, 1, 4, 12, 2),
        (44, 8, 2, 40, 3),
        (45, 2, 16, 40, 8),
    ] {
        let config = HpdConfig {
            threshold,
            ways,
            sets,
        };
        let mut real = HotPageDetector::new(config).unwrap();
        let mut reference = RefModel::new(config);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for step in 0..60_000u32 {
            let ppn = Ppn::new(rng.gen_range(0..pages));
            let line = ppn.line(rng.gen_range(0..64) as u8);
            match rng.gen_range(0..24) {
                0..=7 => {
                    real.invalidate(ppn);
                    reference.invalidate(ppn);
                }
                8..=9 => {
                    assert_eq!(real.on_miss(line, AccessKind::Write), None);
                    reference.on_write();
                }
                _ => assert_eq!(
                    real.on_miss(line, AccessKind::Read),
                    reference.on_read(ppn),
                    "seed {seed}: emission diverged at step {step}"
                ),
            }
            assert_eq!(
                real.stats(),
                reference.stats,
                "seed {seed}: counters diverged at step {step}"
            );
        }
        let stats = real.stats();
        assert!(
            stats.hot_pages > 0 && stats.cold_evictions + stats.sent_evictions > 0,
            "seed {seed}: stream too tame to be a useful check: {stats:?}"
        );
    }
}

#[test]
fn page_runs_match_the_reference_fed_single_misses() {
    // Runs of 0..=64 misses, one in four of them writes, with one
    // operation in eight an invalidation. Half the pages sit just below
    // the highest packable PPN, half at the bottom of the range. The
    // first three geometries are 16-way; the others take the slice
    // search.
    let top = HotPageDetector::MAX_PPN.raw();
    let mut evictions = (0, 0);
    for (seed, sets, ways, pages, threshold) in [
        (61u64, 4usize, 16usize, 48u64, 8u32),
        (62, 4, 16, 96, 1),
        (63, 4, 16, 160, 64),
        (64, 8, 4, 24, 3),
        (65, 2, 12, 32, 16),
    ] {
        let config = HpdConfig {
            threshold,
            ways,
            sets,
        };
        let mut real = HotPageDetector::new(config).unwrap();
        let mut reference = RefModel::new(config);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for step in 0..20_000u32 {
            let k = rng.gen_range(0..pages);
            let ppn = Ppn::new(if rng.gen_bool(0.5) { top - k } else { k });
            if rng.gen_range(0..8) == 0 {
                real.invalidate(ppn);
                reference.invalidate(ppn);
                continue;
            }
            let n = rng.gen_range(0..65) as u32;
            let kind = if rng.gen_range(0..4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = real.on_misses(ppn, n, kind);
            let mut want = None;
            for i in 0..n {
                if !kind.is_read() {
                    reference.on_write();
                } else if reference.on_read(ppn).is_some() {
                    assert_eq!(
                        want.replace(i),
                        None,
                        "seed {seed}: two emissions in one run"
                    );
                }
            }
            assert_eq!(
                got, want,
                "seed {seed}: run of {n} {kind:?} misses to {ppn:?} diverged at step {step}"
            );
            assert_eq!(
                real.stats(),
                reference.stats,
                "seed {seed}: counters diverged at step {step}"
            );
        }
        let s = real.stats();
        assert!(
            s.hot_pages > 0
                && s.send_bit_drops > 0
                && s.cold_evictions + s.sent_evictions > 0
                && s.writes_ignored > 0,
            "seed {seed}: stream too tame to be a useful check: {s:?}"
        );
        // At threshold 1 every entry is sent, so only the others can
        // evict an unsent one.
        evictions.0 += s.cold_evictions;
        evictions.1 += s.sent_evictions;
    }
    assert!(
        evictions.0 > 0 && evictions.1 > 0,
        "cold and sent evictions: {evictions:?}"
    );
}

#[test]
fn page_goes_hot_on_exactly_its_nth_resident_read() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for _ in 0..200 {
        let n = 1 + rng.gen_range(0..64) as u32;
        let mut h = HotPageDetector::new(HpdConfig::with_threshold(n)).unwrap();
        let ppn = Ppn::new(rng.gen_range(0..1 << 20));
        // No other traffic: the page cannot be evicted, so the counter
        // must fire on exactly the n-th read — cacheline choice is
        // irrelevant, repeats included.
        for i in 1..=(2 * n) {
            let line = rng.gen_range(0..64) as u8;
            let hot = h.on_miss(ppn.line(line), AccessKind::Read);
            assert_eq!(
                hot,
                (i == n).then_some(ppn),
                "N={n}: wrong emission at read {i}"
            );
        }
        assert_eq!(h.stats().hot_pages, 1);
        assert_eq!(h.stats().send_bit_drops, u64::from(n));
    }
}

#[test]
fn send_bit_holds_until_the_entry_leaves_the_table() {
    let mut rng = SplitMix64::seed_from_u64(23);
    for _ in 0..100 {
        let n = 1 + rng.gen_range(0..8) as u32;
        let config = HpdConfig::with_threshold(n);
        let mut h = HotPageDetector::new(config).unwrap();
        let ppn = Ppn::new(4 * rng.gen_range(0..1000)); // set 0
        for i in 0..n {
            h.on_miss(ppn.line(i as u8), AccessKind::Read);
        }
        assert_eq!(h.stats().hot_pages, 1);
        // Arbitrarily many further reads: suppressed.
        for _ in 0..rng.gen_range(1..200) {
            let line = rng.gen_range(0..64) as u8;
            assert_eq!(h.on_miss(ppn.line(line), AccessKind::Read), None);
        }
        // The entry leaves the table — by explicit invalidation or by
        // LRU pressure from 16 fresh set-mates — and the page is
        // detectable again from a zeroed counter.
        if rng.gen_range(0..2) == 0 {
            h.invalidate(ppn);
        } else {
            for i in 1..=16u64 {
                h.on_miss(Ppn::new(ppn.raw() + 4 * i).line(0), AccessKind::Read);
            }
        }
        let before = h.stats().hot_pages;
        for i in 1..=n {
            let hot = h.on_miss(ppn.line(0), AccessKind::Read);
            assert_eq!(hot, (i == n).then_some(ppn), "re-detection at read {i}");
        }
        assert_eq!(h.stats().hot_pages, before + 1);
    }
}

#[test]
fn sets_are_fully_isolated() {
    // Interleave four independent per-set streams; each set must behave
    // exactly as it does when run alone.
    let config = HpdConfig::default();
    let mut interleaved = HotPageDetector::new(config).unwrap();
    let mut solo: Vec<HotPageDetector> = (0..4)
        .map(|_| HotPageDetector::new(config).unwrap())
        .collect();
    let mut rng = SplitMix64::seed_from_u64(31);
    let mut interleaved_hot = vec![Vec::new(); 4];
    let mut solo_hot = vec![Vec::new(); 4];
    for _ in 0..40_000 {
        let set = rng.gen_range(0..4);
        // 32 pages per set: twice the associativity, steady eviction.
        let ppn = Ppn::new(rng.gen_range(0..32) * 4 + set);
        let line = rng.gen_range(0..64) as u8;
        let set = set as usize;
        interleaved_hot[set].extend(interleaved.on_miss(ppn.line(line), AccessKind::Read));
        solo_hot[set].extend(solo[set].on_miss(ppn.line(line), AccessKind::Read));
    }
    for set in 0..4 {
        assert_eq!(
            interleaved_hot[set], solo_hot[set],
            "set {set} was disturbed by traffic in other sets"
        );
        assert!(
            !interleaved_hot[set].is_empty(),
            "set {set} stream too cold"
        );
    }
}

#[test]
fn replacement_is_exact_lru_over_sixteen_ways() {
    let mut h = HotPageDetector::new(HpdConfig::with_threshold(8)).unwrap();
    // Fill set 0 with pages 0*4..16*4, touching them in order.
    let pages: Vec<Ppn> = (0..16u64).map(|i| Ppn::new(i * 4)).collect();
    for p in &pages {
        h.on_miss(p.line(0), AccessKind::Read);
    }
    // Refresh everything except pages[5]: it becomes the unique LRU.
    for (i, p) in pages.iter().enumerate() {
        if i != 5 {
            h.on_miss(p.line(1), AccessKind::Read);
        }
    }
    // A 17th page must evict pages[5] and nothing else: every other
    // page retains its count (2) and goes hot after 6 more reads, while
    // pages[5] restarts from zero and needs a full 8.
    h.on_miss(Ppn::new(16 * 4).line(0), AccessKind::Read);
    assert_eq!(h.stats().cold_evictions, 1);
    for (i, p) in pages.iter().enumerate() {
        if i == 5 {
            continue;
        }
        for line in 2..7 {
            assert_eq!(h.on_miss(p.line(line), AccessKind::Read), None);
        }
        assert_eq!(
            h.on_miss(p.line(7), AccessKind::Read),
            Some(*p),
            "page {i} lost its counter despite never being LRU"
        );
    }
    for line in 2..9 {
        assert_eq!(h.on_miss(pages[5].line(line), AccessKind::Read), None);
    }
    assert_eq!(
        h.on_miss(pages[5].line(9), AccessKind::Read),
        Some(pages[5])
    );
}
