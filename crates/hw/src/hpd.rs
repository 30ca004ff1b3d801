//! Hot Page Detection (HPD) table — §III-B of the paper.
//!
//! The memory controller sees cacheline-granular LLC misses. Feeding the
//! raw trace to software would consume excessive bandwidth, so the HPD
//! table condenses it into *hot pages*: pages read-missed at least `N`
//! times while resident in the small table. The table is a 16-way,
//! 4-set associative cache (64 entries) with LRU replacement; the lowest
//! two PPN bits select the set. Each entry holds the PPN, an access
//! counter, and a *send bit* marking pages already emitted (further
//! accesses to them are dropped until the entry is evicted).
//!
//! Only READ misses are counted: write misses appear first as reads on
//! the bus, and RDMA DMA-writes of fetched pages would otherwise be
//! indistinguishable from application writes (§III-B).
//!
//! # Layout
//!
//! The entries live in one flat `sets × ways` array, like the LLC
//! model's tags. Each set is kept in most-recently-used-first order with
//! empty entries at the tail, so an entry stores only `{ppn, count,
//! sent}`: recency is its position and emptiness a reserved value. The
//! three fields pack into one `u64`: the PPN above bit 8, the send bit
//! at bit 7 and the count below it (a count never exceeds the threshold,
//! at most 64). A hit moves the entry to the front. A miss takes the
//! first empty entry or, in a full set, the LRU entry at the tail
//! (counted as a cold or sent eviction), shifts the entries before it
//! back by one and writes the new entry at the front. An invalidation
//! removes the entry and appends an empty one. The set is picked with a
//! mask, since [`HpdConfig::validate`] requires a power-of-two set count.
//!
//! One routine applies misses to a set. A 16-way set, the paper's
//! geometry, is passed to it as a `[u64; 16]`, so the compiler unrolls
//! its search; other geometries run the same loop over the slice.
//!
//! # Page runs
//!
//! The simulator delivers a page touch's LLC misses together, so the
//! table counts them as one run: [`HotPageDetector::on_misses`] applies
//! `n` misses of one page with one lookup and one move to the front,
//! then `count += n`, capped at the threshold. It returns the index of
//! the miss that crossed the threshold, and the misses after it count as
//! send-bit drops. This is exact, because after the first miss of the
//! run the page's entry is at the front of its set and no other page's
//! miss comes between the rest. [`HotPageDetector::on_miss`] is the
//! one-miss run, so counting has one implementation.

use std::ops::Range;

use hopp_types::{AccessKind, Error, LineAddr, Ppn, Result};

/// Geometry and threshold of the HPD table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HpdConfig {
    /// Hotness threshold `N`: reads required before a page is emitted.
    /// Must be in `1..=64` (a 4 KB page has 64 cachelines). Default 8.
    pub threshold: u32,
    /// Associativity. Default 16.
    pub ways: usize,
    /// Number of sets (indexed by the low PPN bits). Default 4.
    pub sets: usize,
}

impl Default for HpdConfig {
    fn default() -> Self {
        HpdConfig {
            threshold: 8,
            ways: 16,
            sets: 4,
        }
    }
}

impl HpdConfig {
    /// A default-geometry table with a custom threshold `n`.
    pub fn with_threshold(n: u32) -> Self {
        HpdConfig {
            threshold: n,
            ..HpdConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the threshold is outside
    /// `1..=64`, a dimension is zero, or `sets` is not a power of two.
    pub fn validate(&self) -> Result<()> {
        if self.threshold == 0 || self.threshold > hopp_types::LINES_PER_PAGE as u32 {
            return Err(Error::InvalidConfig {
                what: "hpd threshold",
                constraint: "1..=64",
            });
        }
        if self.ways == 0 || self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                what: "hpd geometry",
                constraint: "ways > 0, sets a power of two",
            });
        }
        Ok(())
    }
}

/// Counters describing HPD behaviour; Table II is derived from these.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct HpdStats {
    /// Read misses processed (the table's input volume).
    pub reads: u64,
    /// Write misses seen and ignored.
    pub writes_ignored: u64,
    /// Hot pages emitted.
    pub hot_pages: u64,
    /// Accesses dropped because the entry's send bit was set.
    pub send_bit_drops: u64,
    /// Entries evicted before reaching the threshold (hotness lost).
    pub cold_evictions: u64,
    /// Evicted entries that had already been sent (re-detection likely).
    pub sent_evictions: u64,
}

impl HpdStats {
    /// Accumulates another channel's counters into this one.
    pub fn merge(&mut self, other: HpdStats) {
        self.reads += other.reads;
        self.writes_ignored += other.writes_ignored;
        self.hot_pages += other.hot_pages;
        self.send_bit_drops += other.send_bit_drops;
        self.cold_evictions += other.cold_evictions;
        self.sent_evictions += other.sent_evictions;
    }

    /// Table II's metric: hot pages emitted per memory access processed.
    pub fn hot_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.hot_pages as f64 / self.reads as f64
        }
    }
}

/// Bits below an entry's PPN: the send bit and the count.
const PPN_SHIFT: u32 = 8;

/// An entry's send bit.
const SENT: u64 = 1 << 7;

/// An entry's count bits.
const COUNT: u64 = SENT - 1;

/// An empty entry. Its PPN field is one past
/// [`HotPageDetector::MAX_PPN`], and its count of 127 is above any
/// threshold, so it never equals a real entry.
const EMPTY: u64 = u64::MAX;

/// The hot page detection table.
///
/// # Example
///
/// ```
/// use hopp_hw::hpd::{HotPageDetector, HpdConfig};
/// use hopp_types::{AccessKind, Ppn};
///
/// let mut hpd = HotPageDetector::new(HpdConfig::with_threshold(2))?;
/// let page = Ppn::new(40);
/// assert_eq!(hpd.on_miss(page.line(0), AccessKind::Read), None);
/// assert_eq!(hpd.on_miss(page.line(1), AccessKind::Read), Some(page));
/// // Send bit set: further accesses are dropped.
/// assert_eq!(hpd.on_miss(page.line(2), AccessKind::Read), None);
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct HotPageDetector {
    config: HpdConfig,
    /// `sets × ways` entries; each set most-recently-used first, empty
    /// entries at the tail. Each entry is packed (module doc, "Layout").
    entries: Vec<u64>,
    set_mask: u64,
    stats: HpdStats,
}

impl HotPageDetector {
    /// The highest PPN an entry can hold: the 56 bits above the send bit
    /// and count, less the value reserved for an empty entry. Debug
    /// builds check every PPN that reaches the table against it;
    /// `Simulator::new` keeps frame numbers below 2^32.
    pub const MAX_PPN: Ppn = Ppn::new((u64::MAX >> PPN_SHIFT) - 1);

    /// Builds an empty table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `config` is invalid.
    pub fn new(config: HpdConfig) -> Result<Self> {
        config.validate()?;
        Ok(HotPageDetector {
            entries: vec![EMPTY; config.sets * config.ways],
            // `validate` guarantees a power-of-two set count.
            set_mask: config.sets as u64 - 1,
            config,
            stats: HpdStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> HpdConfig {
        self.config
    }

    /// Processes one LLC miss; returns the PPN if this miss makes the
    /// page hot. One-miss form of [`HotPageDetector::on_misses`].
    pub fn on_miss(&mut self, line: LineAddr, kind: AccessKind) -> Option<Ppn> {
        let ppn = line.ppn();
        self.on_misses(ppn, 1, kind).map(|_| ppn)
    }

    /// Processes `n` consecutive LLC misses to page `ppn` in one table
    /// update and returns the 0-based index of the miss that made the
    /// page hot, if one did.
    ///
    /// Equivalent to `n` calls of [`HotPageDetector::on_miss`] on lines
    /// of `ppn`: after the first of them the page's entry is at the front
    /// of its set and every later one hits it there, so the run costs one
    /// lookup and one move to the front, then `count += n`. Misses after
    /// the one that crosses the threshold, and all `n` misses to an entry
    /// whose send bit is already set, count as send-bit drops. `n == 0`
    /// leaves the table untouched.
    pub fn on_misses(&mut self, ppn: Ppn, n: u32, kind: AccessKind) -> Option<u32> {
        if n == 0 {
            return None;
        }
        if !kind.is_read() {
            self.stats.writes_ignored += u64::from(n);
            return None;
        }
        self.stats.reads += u64::from(n);
        let range = self.set_range(ppn);
        let (threshold, stats) = (self.config.threshold, &mut self.stats);
        let set = &mut self.entries[range];
        match <&mut [u64; 16]>::try_from(&mut *set) {
            Ok(fixed) => run_misses(fixed, ppn.raw(), n, threshold, stats),
            Err(_) => run_misses(set, ppn.raw(), n, threshold, stats),
        }
    }

    /// Invalidate the entry of a page leaving DRAM, so its counter does
    /// not linger.
    pub fn invalidate(&mut self, ppn: Ppn) {
        let range = self.set_range(ppn);
        let set = &mut self.entries[range];
        let Some(way) = set
            .iter()
            .take_while(|&&e| e != EMPTY)
            .position(|&e| e >> PPN_SHIFT == ppn.raw())
        else {
            return;
        };
        set.copy_within(way + 1.., way);
        set[set.len() - 1] = EMPTY;
    }

    /// The index range of the set `ppn` maps to.
    fn set_range(&self, ppn: Ppn) -> Range<usize> {
        debug_assert!(
            ppn <= Self::MAX_PPN,
            "{ppn:?} does not pack into an HPD entry"
        );
        let base = (ppn.raw() & self.set_mask) as usize * self.config.ways;
        base..base + self.config.ways
    }

    /// Accumulated counters.
    pub fn stats(&self) -> HpdStats {
        self.stats
    }
}

/// Applies a run of `n ≥ 1` read misses of page `ppn` to its set and
/// returns the index of the miss that made the page hot, if one did
/// ([`HotPageDetector::on_misses`]). Generic so that a `[u64; 16]` set
/// runs it at a fixed length.
#[inline(always)]
fn run_misses<S: AsMut<[u64]> + ?Sized>(
    set: &mut S,
    ppn: u64,
    n: u32,
    threshold: u32,
    stats: &mut HpdStats,
) -> Option<u32> {
    let set = set.as_mut();
    // A page's misses come in bursts, so its entry is usually already at
    // the front. Otherwise shift the set one entry towards the tail,
    // front to back, until the page's entry or an empty one is
    // displaced; if neither turns up, the LRU entry falls off the tail.
    // `entry` ends up holding whichever was displaced, and the front is
    // rewritten below.
    let mut entry = set[0];
    if entry >> PPN_SHIFT != ppn {
        entry = EMPTY;
        for slot in set.iter_mut() {
            entry = std::mem::replace(slot, entry);
            if entry >> PPN_SHIFT == ppn || entry == EMPTY {
                break;
            }
        }
    }
    let count = if entry >> PPN_SHIFT == ppn {
        if entry & SENT != 0 {
            set[0] = entry;
            stats.send_bit_drops += u64::from(n);
            return None;
        }
        (entry & COUNT) as u32
    } else {
        if entry != EMPTY {
            if entry & SENT != 0 {
                stats.sent_evictions += 1;
            } else {
                stats.cold_evictions += 1;
            }
        }
        0
    };
    // An unsent entry is below the threshold, so `to_hot >= 1`.
    let to_hot = threshold - count;
    let key = ppn << PPN_SHIFT;
    if n >= to_hot {
        set[0] = key | SENT | u64::from(threshold);
        stats.hot_pages += 1;
        stats.send_bit_drops += u64::from(n - to_hot);
        return Some(to_hot - 1);
    }
    set[0] = key | u64::from(count + n);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hpd(n: u32) -> HotPageDetector {
        HotPageDetector::new(HpdConfig::with_threshold(n)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(HpdConfig::with_threshold(0).validate().is_err());
        assert!(HpdConfig::with_threshold(65).validate().is_err());
        assert!(HpdConfig::with_threshold(8).validate().is_ok());
        assert!(HpdConfig {
            sets: 3,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HpdConfig {
            ways: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn page_becomes_hot_exactly_at_threshold() {
        let mut h = hpd(8);
        let page = Ppn::new(100);
        for i in 0..7 {
            assert_eq!(h.on_miss(page.line(i), AccessKind::Read), None);
        }
        assert_eq!(h.on_miss(page.line(7), AccessKind::Read), Some(page));
        assert_eq!(h.stats().hot_pages, 1);
    }

    #[test]
    fn send_bit_suppresses_repeats() {
        let mut h = hpd(2);
        let page = Ppn::new(4);
        h.on_miss(page.line(0), AccessKind::Read);
        assert_eq!(h.on_miss(page.line(1), AccessKind::Read), Some(page));
        for i in 2..10 {
            assert_eq!(h.on_miss(page.line(i), AccessKind::Read), None);
        }
        assert_eq!(h.stats().send_bit_drops, 8);
        assert_eq!(h.stats().hot_pages, 1);
    }

    #[test]
    fn writes_are_ignored() {
        let mut h = hpd(1);
        assert_eq!(h.on_miss(Ppn::new(1).line(0), AccessKind::Write), None);
        assert_eq!(h.stats().writes_ignored, 1);
        assert_eq!(h.stats().reads, 0);
    }

    #[test]
    fn threshold_one_fires_immediately() {
        let mut h = hpd(1);
        let page = Ppn::new(9);
        assert_eq!(h.on_miss(page.line(0), AccessKind::Read), Some(page));
    }

    #[test]
    fn lru_eviction_loses_cold_counts() {
        let mut h = hpd(8);
        // 17 pages mapping to set 0 (ppn % 4 == 0): one more than the ways.
        let pages: Vec<Ppn> = (0..17u64).map(|i| Ppn::new(i * 4)).collect();
        for p in &pages {
            h.on_miss(p.line(0), AccessKind::Read);
        }
        assert_eq!(h.stats().cold_evictions, 1);
        // pages[0] was evicted: its count restarts, so 7 more accesses
        // don't make it hot (1+7 == 8 would, but the old count is gone).
        for i in 1..8 {
            assert_eq!(h.on_miss(pages[0].line(i), AccessKind::Read), None);
        }
        assert_eq!(
            h.on_miss(pages[0].line(8), AccessKind::Read),
            Some(pages[0])
        );
    }

    #[test]
    fn eviction_of_sent_entry_allows_re_detection() {
        let mut h = hpd(1);
        let hot = Ppn::new(0);
        assert_eq!(h.on_miss(hot.line(0), AccessKind::Read), Some(hot));
        // Evict it by filling the set with 16 other pages.
        for i in 1..=16u64 {
            h.on_miss(Ppn::new(i * 4).line(0), AccessKind::Read);
        }
        assert_eq!(h.stats().sent_evictions, 1);
        // The page can be detected hot again — software dedups (§III-B).
        assert_eq!(h.on_miss(hot.line(1), AccessKind::Read), Some(hot));
        assert_eq!(h.stats().hot_pages, 18);
    }

    #[test]
    fn sets_are_independent() {
        let mut h = hpd(2);
        // Pages in different sets never evict each other.
        let a = Ppn::new(0); // set 0
        let b = Ppn::new(1); // set 1
        h.on_miss(a.line(0), AccessKind::Read);
        h.on_miss(b.line(0), AccessKind::Read);
        assert_eq!(h.on_miss(a.line(1), AccessKind::Read), Some(a));
        assert_eq!(h.on_miss(b.line(1), AccessKind::Read), Some(b));
        assert_eq!(h.stats().cold_evictions, 0);
    }

    #[test]
    fn invalidate_resets_progress() {
        let mut h = hpd(2);
        let page = Ppn::new(12);
        h.on_miss(page.line(0), AccessKind::Read);
        h.invalidate(page);
        assert_eq!(h.on_miss(page.line(1), AccessKind::Read), None);
        assert_eq!(h.on_miss(page.line(2), AccessKind::Read), Some(page));
    }

    #[test]
    fn on_misses_returns_the_crossing_index() {
        let mut h = hpd(8);
        let page = Ppn::new(20);
        assert_eq!(h.on_misses(page, 3, AccessKind::Read), None);
        // Count 3 needs 5 more: the fifth miss (index 4) crosses, and
        // the 5 after it hit the fresh send bit.
        assert_eq!(h.on_misses(page, 10, AccessKind::Read), Some(4));
        let fresh = Ppn::new(24);
        assert_eq!(h.on_misses(fresh, 64, AccessKind::Read), Some(7));
        let s = h.stats();
        assert_eq!((s.reads, s.hot_pages, s.send_bit_drops), (77, 2, 5 + 56));
    }

    #[test]
    fn on_misses_to_a_sent_entry_are_all_dropped() {
        let mut h = hpd(2);
        let page = Ppn::new(4);
        assert_eq!(h.on_misses(page, 2, AccessKind::Read), Some(1));
        assert_eq!(h.on_misses(page, 9, AccessKind::Read), None);
        assert_eq!(h.on_misses(page, 3, AccessKind::Write), None);
        let s = h.stats();
        assert_eq!((s.reads, s.send_bit_drops, s.hot_pages), (11, 9, 1));
        assert_eq!(s.writes_ignored, 3);
    }

    #[test]
    fn zero_misses_leave_the_set_order_untouched() {
        // Fill set 0; pages[0] is its LRU entry. A zero-miss touch of it
        // must not refresh it, so the next new page evicts it, while a
        // one-miss touch would have made pages[1] the victim.
        let pages: Vec<Ppn> = (0..17u64).map(|i| Ppn::new(i * 4)).collect();
        for refresh in [0, 1] {
            let mut h = hpd(8);
            for p in &pages[..16] {
                h.on_misses(*p, 1, AccessKind::Read);
            }
            assert_eq!(h.on_misses(pages[0], refresh, AccessKind::Read), None);
            h.on_misses(pages[16], 1, AccessKind::Read);
            assert_eq!(h.stats().cold_evictions, 1);
            // The survivor keeps its count (1 + refresh), so 7 - refresh
            // more misses make it hot; the victim restarts from zero.
            let (victim, survivor) = if refresh == 0 {
                (pages[0], pages[1])
            } else {
                (pages[1], pages[0])
            };
            assert_eq!(
                h.on_misses(survivor, 7 - refresh, AccessKind::Read),
                Some(6 - refresh)
            );
            assert_eq!(h.on_misses(victim, 7, AccessKind::Read), None);
        }
    }

    #[test]
    fn highest_packable_ppn_hits_goes_hot_and_invalidates_exactly() {
        let mut h = hpd(2);
        let top = HotPageDetector::MAX_PPN;
        // Two set-mates: one whose PPN differs from top's in one bit
        // above the set bits, and a small one.
        let (near, low) = (Ppn::new(top.raw() ^ 4), Ppn::new(top.raw() % 4));
        assert_eq!(h.on_misses(low, 1, AccessKind::Read), None);
        assert_eq!(h.on_misses(near, 1, AccessKind::Read), None);
        assert_eq!(h.on_miss(top.line(0), AccessKind::Read), None);
        assert_eq!(h.on_miss(top.line(63), AccessKind::Read), Some(top));
        assert_eq!(h.on_misses(top, 5, AccessKind::Read), None);
        assert_eq!(h.stats().send_bit_drops, 5);
        h.invalidate(top);
        // The set-mates keep their counts; top restarts from zero.
        assert_eq!(h.on_misses(near, 1, AccessKind::Read), Some(0));
        assert_eq!(h.on_misses(low, 1, AccessKind::Read), Some(0));
        assert_eq!(h.on_misses(top, 1, AccessKind::Read), None);
        assert_eq!(h.on_misses(top, 1, AccessKind::Read), Some(0));
        let s = h.stats();
        assert_eq!((s.hot_pages, s.cold_evictions, s.sent_evictions), (4, 0, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not pack")]
    fn first_unpackable_ppn_trips_the_debug_check() {
        let past = Ppn::new(HotPageDetector::MAX_PPN.raw() + 1);
        hpd(8).on_misses(past, 1, AccessKind::Read);
    }

    #[test]
    fn hot_ratio_matches_counts() {
        let mut h = hpd(4);
        assert_eq!(h.stats().hot_ratio(), 0.0);
        let page = Ppn::new(8);
        for i in 0..4 {
            h.on_miss(page.line(i), AccessKind::Read);
        }
        assert!((h.stats().hot_ratio() - 0.25).abs() < 1e-12);
    }
}
