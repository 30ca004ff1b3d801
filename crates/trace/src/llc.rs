//! A set-associative last-level cache model.
//!
//! The memory controller — and therefore HoPP's hot page detection —
//! only sees accesses that *miss* in the LLC (§II-D: "MC processes
//! LLC-misses, which automatically reduces the access volume by
//! filtering out those in-LLC accesses"). This model reproduces that
//! filtering: the simulator pushes every page touch through
//! [`LastLevelCache::access_lines`] (or single cachelines through
//! [`LastLevelCache::access`]); hits are absorbed, misses are forwarded
//! to the MC model.
//!
//! The cache is physically indexed (the simulator translates VPN→PPN
//! before touching it) and uses true-LRU replacement within each set,
//! which is accurate enough at the page-stream granularity HoPP cares
//! about.
//!
//! # Layout
//!
//! The tags live in one flat `sets × ways` array of `u32`. Each set is
//! kept in most-recently-used-first order, with empty ways (tag
//! `u32::MAX`) at the tail, so recency is the position in the set and
//! no LRU stamps are stored. A hit moves its tag to the front. A miss
//! takes the first empty way or, in a full set, the LRU way at the
//! tail, shifts the ways before it back by one and writes the new tag
//! at the front. An invalidation removes the tag and appends an empty
//! way. A lookup stops at the first empty way.
//!
//! With at least 64 sets the lines of a page fall in consecutive sets
//! under one tag, so lines `0..n` of a page own one contiguous block of
//! `n × ways` tags. Both page-granular calls first scan that block once
//! for the tag, branch-free. Most pages the LLC sees are absent from
//! it, since it is a miss filter in front of the memory controller.
//! - [`LastLevelCache::invalidate_page`] returns at once when the tag
//!   is absent.
//! - [`LastLevelCache::access_lines`] treats an absent tag as `n`
//!   misses: each set in the block shifts all its ways back by one and
//!   takes the tag at the front, with no per-way search. This is exact
//!   because empty ways sit at the tail: shifting the whole set moves
//!   the same tags as shifting up to the first empty way would, and in
//!   a full set the LRU way falls off as on any miss.
//!
//! A page whose tag is present in the block takes the per-line loop.
//! With fewer than 64 sets a page's lines wrap around the sets, so both
//! calls always take the per-line loop.
//!
//! A tag is the line address shifted right by the set bits, so `u32`
//! tags cover pages `0..`[`LlcConfig::max_pages`]: 2^37 pages for a
//! 2 MB, 16-way cache. Half-width tags halve the array, and SSE2
//! compares 32-bit lanes natively.

use std::ops::Range;

use hopp_types::{AccessKind, Error, LineAddr, Ppn, Result, LINES_PER_PAGE};

/// Geometry of the modelled LLC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl LlcConfig {
    /// A 16 MB, 16-way LLC — representative of the 14-core Xeons in the
    /// paper's testbed.
    pub const fn default_server() -> Self {
        LlcConfig {
            capacity_bytes: 16 * 1024 * 1024,
            ways: 16,
        }
    }

    /// A 2 MB, 16-way LLC (2,048 sets): the simulator's default. It is
    /// small next to the simulated footprints on purpose, so capacity
    /// misses reach the memory controller as they do when multi-GB
    /// footprints meet a real 16 MB LLC.
    pub const fn simulator_default() -> Self {
        LlcConfig {
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
        }
    }

    /// A small 256 KB, 8-way cache, useful in tests where eviction
    /// behaviour must be exercised quickly.
    pub const fn tiny() -> Self {
        LlcConfig {
            capacity_bytes: 256 * 1024,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry does not divide
    /// into a power-of-two number of non-empty sets.
    pub fn sets(&self) -> Result<usize> {
        let lines = self.capacity_bytes / hopp_types::LINE_SIZE;
        if self.ways == 0 || lines == 0 || !lines.is_multiple_of(self.ways) {
            return Err(Error::InvalidConfig {
                what: "llc geometry",
                constraint: "capacity must be a multiple of ways * 64B",
            });
        }
        let sets = lines / self.ways;
        if !sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                what: "llc sets",
                constraint: "set count must be a power of two",
            });
        }
        Ok(sets)
    }

    /// The number of pages the cache can tag: it models pages
    /// `0..max_pages()`. A tag is a line address shifted right by the
    /// set bits and must stay below the `u32::MAX` that marks an empty
    /// way, so the bound is `(2^32 − 1) · sets / 64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry is invalid (see
    /// [`LlcConfig::sets`]).
    pub fn max_pages(&self) -> Result<u64> {
        let sets = self.sets()? as u64;
        Ok(u64::from(EMPTY).saturating_mul(sets) / LINES_PER_PAGE as u64)
    }
}

/// Hit/miss counters for the cache model.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LlcStats {
    /// Accesses that hit in the cache.
    pub hits: u64,
    /// Accesses that missed and went to memory.
    pub misses: u64,
    /// Lines invalidated because their page left DRAM.
    pub invalidations: u64,
}

impl LlcStats {
    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that hit (0 when no accesses were made).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Tag value of an empty way. A real tag is a line address shifted
/// right by the set bits, which stays below `u32::MAX` for every page
/// below [`LlcConfig::max_pages`].
const EMPTY: u32 = u32::MAX;

/// A set-associative, physically-indexed LLC with true-LRU replacement.
///
/// Every page passed in must lie below [`LlcConfig::max_pages`]; the
/// line loop checks this in debug builds only, so callers bound their
/// frame numbers up front (the simulator does in `Simulator::new`).
///
/// # Example
///
/// ```
/// use hopp_trace::llc::{LastLevelCache, LlcConfig};
/// use hopp_types::{AccessKind, Ppn};
///
/// let mut llc = LastLevelCache::new(LlcConfig::tiny())?;
/// let line = Ppn::new(1).line(0);
/// assert!(!llc.access(line, AccessKind::Read)); // cold miss
/// assert!(llc.access(line, AccessKind::Read));  // now a hit
/// // Lines 0..4 of the page: only line 0 is resident.
/// assert_eq!(llc.access_lines(Ppn::new(1), 4), 0b1110);
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct LastLevelCache {
    /// `sets × ways` tags; each set most-recently-used first, empty ways
    /// at the tail.
    tags: Vec<u32>,
    ways: usize,
    set_mask: u64,
    set_bits: u32,
    stats: LlcStats,
}

impl LastLevelCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry is invalid (see
    /// [`LlcConfig::sets`]).
    pub fn new(config: LlcConfig) -> Result<Self> {
        let sets = config.sets()?;
        Ok(LastLevelCache {
            tags: vec![EMPTY; sets * config.ways],
            ways: config.ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            stats: LlcStats::default(),
        })
    }

    /// Performs one cacheline access; returns `true` on a hit.
    ///
    /// On a miss the line is installed, evicting the LRU way of its set.
    /// Writes allocate just like reads (write-allocate policy), matching
    /// the "write miss first appears as a read on the bus" behaviour the
    /// paper leans on.
    pub fn access(&mut self, line: LineAddr, _kind: AccessKind) -> bool {
        self.touch(line.raw())
    }

    /// Accesses lines `0..lines` of page `ppn` in order and returns the
    /// miss bitmask: bit `j` is set when line `j` missed. Equivalent to
    /// `lines` calls of [`LastLevelCache::access`], reads and writes
    /// alike (write-allocate).
    ///
    /// # Panics
    ///
    /// Panics if `lines` exceeds [`LINES_PER_PAGE`] (debug builds only).
    pub fn access_lines(&mut self, ppn: Ppn, lines: u8) -> u64 {
        debug_assert!(usize::from(lines) <= LINES_PER_PAGE);
        let first = ppn.line(0).raw();
        if let Some((block, tag)) = self.absent_block(first, lines.into()) {
            // Every walked line misses, each in a set of its own; the
            // module doc says why shifting the whole set is exact.
            for set in self.tags[block].chunks_exact_mut(self.ways) {
                set.copy_within(..set.len() - 1, 1);
                set[0] = tag;
            }
            self.stats.misses += u64::from(lines);
            return u64::MAX.checked_shr(64 - u32::from(lines)).unwrap_or(0);
        }
        let mut misses = 0;
        for j in 0..u64::from(lines) {
            if !self.touch(first + j) {
                misses |= 1 << j;
            }
        }
        misses
    }

    /// The index range of the set holding line address `raw`, and the
    /// tag the line is stored as.
    fn locate(&self, raw: u64) -> (Range<usize>, u32) {
        let base = (raw & self.set_mask) as usize * self.ways;
        let tag = raw >> self.set_bits;
        debug_assert!(
            tag < u64::from(EMPTY),
            "line {raw:#x} lies past LlcConfig::max_pages"
        );
        (base..base + self.ways, tag as u32)
    }

    /// With at least 64 sets, lines `0..lines` of the page whose line 0
    /// is `first` sit in `lines` consecutive sets under one tag: one
    /// contiguous block of `lines × ways` tags. Scans that block once,
    /// branch-free (`pcmpeqd`/`por` on x86-64), and returns its index
    /// range and the tag if the tag occurs nowhere in it. Returns `None`
    /// if the tag is present, or if the cache has fewer than 64 sets and
    /// a page's lines wrap around them.
    fn absent_block(&self, first: u64, lines: usize) -> Option<(Range<usize>, u32)> {
        if self.set_bits < LINES_PER_PAGE.trailing_zeros() {
            return None;
        }
        let (set, tag) = self.locate(first);
        let block = set.start..set.start + lines * self.ways;
        let present = self.tags[block.clone()]
            .iter()
            .fold(false, |any, &t| any | (t == tag));
        (!present).then_some((block, tag))
    }

    /// One access to line address `raw`; returns `true` on a hit. The
    /// line ends up most recently used either way.
    fn touch(&mut self, raw: u64) -> bool {
        let (range, tag) = self.locate(raw);
        // Shift the set one way towards the tail, front to back, until
        // the tag itself (a hit) or an empty way is displaced; if neither
        // turns up, the LRU tag falls off the tail. The tag ends up at
        // the front either way.
        let mut carry = tag;
        for slot in &mut self.tags[range] {
            carry = std::mem::replace(slot, carry);
            if carry == tag || carry == EMPTY {
                break;
            }
        }
        let hit = carry == tag;
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Drops every line belonging to `ppn`.
    ///
    /// Called when a page is reclaimed to remote memory: its cached lines
    /// must not keep serving hits for data that is no longer local.
    pub fn invalidate_page(&mut self, ppn: Ppn) {
        let first = ppn.line(0).raw();
        // A reclaimed page is cold, so one scan of its block almost
        // always finds nothing and ends the call.
        if self.absent_block(first, LINES_PER_PAGE).is_some() {
            return;
        }
        for j in 0..LINES_PER_PAGE as u64 {
            let (range, tag) = self.locate(first + j);
            let set = &mut self.tags[range];
            let Some(way) = set
                .iter()
                .take_while(|&&t| t != EMPTY)
                .position(|&t| t == tag)
            else {
                continue;
            };
            set.copy_within(way + 1.., way);
            set[set.len() - 1] = EMPTY;
            self.stats.invalidations += 1;
        }
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_types::LINE_SIZE;

    fn cache() -> LastLevelCache {
        LastLevelCache::new(LlcConfig::tiny()).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(LlcConfig {
            capacity_bytes: 0,
            ways: 8
        }
        .sets()
        .is_err());
        assert!(LlcConfig {
            capacity_bytes: 1024,
            ways: 0
        }
        .sets()
        .is_err());
        // 3 sets: not a power of two.
        assert!(LlcConfig {
            capacity_bytes: 3 * 8 * LINE_SIZE,
            ways: 8
        }
        .sets()
        .is_err());
        assert_eq!(LlcConfig::tiny().sets().unwrap(), 512);
        assert_eq!(LlcConfig::default_server().sets().unwrap(), 16384);
    }

    #[test]
    fn max_pages_is_the_u32_tag_range() {
        let geometry = |sets: usize, ways: usize| LlcConfig {
            capacity_bytes: sets * ways * LINE_SIZE,
            ways,
        };
        assert_eq!(geometry(1, 16).max_pages().unwrap(), (1 << 26) - 1);
        assert_eq!(geometry(4, 4).max_pages().unwrap(), (1 << 28) - 1);
        assert_eq!(geometry(64, 16).max_pages().unwrap(), u64::from(u32::MAX));
        let sim = LlcConfig::simulator_default();
        assert_eq!(sim.sets().unwrap(), 2_048);
        assert_eq!(sim.max_pages().unwrap(), u64::from(u32::MAX) * 32);
        assert!(geometry(3, 8).max_pages().is_err());
    }

    #[test]
    fn highest_taggable_page_hits_misses_and_invalidates_exactly() {
        for (sets, ways) in [(1, 16), (4, 4), (64, 4), (2_048, 16)] {
            let config = LlcConfig {
                capacity_bytes: sets * ways * LINE_SIZE,
                ways,
            };
            let top = Ppn::new(config.max_pages().unwrap() - 1);
            // A page that shares top's sets, with a tag far from it.
            let low = Ppn::new(top.raw() % (sets as u64).div_ceil(64));
            let mut llc = LastLevelCache::new(config).unwrap();
            let all = u64::MAX;
            let resident = LINES_PER_PAGE.min(sets * ways) as u64;
            assert_eq!(llc.access_lines(top, 64), all, "{sets} sets: cold");
            // A walk longer than the cache thrashes true LRU.
            let warm = if resident == 64 { 0 } else { all };
            assert_eq!(llc.access_lines(top, 64), warm, "{sets} sets: warm");
            llc.invalidate_page(low);
            assert_eq!(llc.stats().invalidations, 0, "{sets} sets: low page");
            llc.invalidate_page(top);
            assert_eq!(llc.stats().invalidations, resident, "{sets} sets");
            assert_eq!(llc.access_lines(top, 64), all, "{sets} sets: dropped");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past LlcConfig::max_pages")]
    fn first_untaggable_page_trips_the_debug_check() {
        let config = LlcConfig {
            capacity_bytes: 16 * LINE_SIZE,
            ways: 16,
        };
        let mut llc = LastLevelCache::new(config).unwrap();
        llc.access_lines(Ppn::new(config.max_pages().unwrap()), 64);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut llc = cache();
        let line = Ppn::new(42).line(3);
        assert!(!llc.access(line, AccessKind::Read));
        assert!(llc.access(line, AccessKind::Read));
        assert_eq!(llc.stats().hits, 1);
        assert_eq!(llc.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut llc = cache();
        // Fill one set: lines that share the low set-index bits. tiny() has
        // 512 sets, 8 ways; construct 9 lines mapping to set 0.
        let lines: Vec<LineAddr> = (0..9u64).map(|i| LineAddr::new(i * 512)).collect();
        for l in &lines[..8] {
            assert!(!llc.access(*l, AccessKind::Read));
        }
        // Touch line 0 so line 1 becomes the LRU victim.
        assert!(llc.access(lines[0], AccessKind::Read));
        assert!(!llc.access(lines[8], AccessKind::Read)); // evicts lines[1]
        assert!(llc.access(lines[0], AccessKind::Read)); // still resident
        assert!(!llc.access(lines[1], AccessKind::Read)); // was evicted
    }

    #[test]
    fn invalidate_page_drops_all_its_lines() {
        let mut llc = cache();
        let ppn = Ppn::new(7);
        for line in 0..LINES_PER_PAGE as u8 {
            llc.access(ppn.line(line), AccessKind::Read);
        }
        llc.invalidate_page(ppn);
        assert_eq!(llc.stats().invalidations, LINES_PER_PAGE as u64);
        assert!(!llc.access(ppn.line(0), AccessKind::Read));
    }

    #[test]
    fn hit_rate_reporting() {
        let mut llc = cache();
        assert_eq!(llc.stats().hit_rate(), 0.0);
        let line = Ppn::new(1).line(1);
        llc.access(line, AccessKind::Read);
        llc.access(line, AccessKind::Read);
        llc.access(line, AccessKind::Read);
        let s = llc.stats();
        assert_eq!(s.total(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_walk_is_a_no_op() {
        let mut llc = LastLevelCache::new(LlcConfig::simulator_default()).unwrap();
        assert_eq!(llc.access_lines(Ppn::new(3), 0), 0);
        assert_eq!(llc.stats(), LlcStats::default());
        assert!(llc.tags.iter().all(|&t| t == EMPTY));
    }

    #[test]
    fn a_resident_line_past_the_walk_leaves_the_page_absent() {
        let mut llc = LastLevelCache::new(LlcConfig::simulator_default()).unwrap();
        let ppn = Ppn::new(5);
        assert!(!llc.access(ppn.line(50), AccessKind::Read));
        // Line 50's set lies outside the block of lines 0..10, so the
        // walk takes the absent path: ten misses, no per-set search.
        let (set, tag) = llc.locate(ppn.line(0).raw());
        assert_eq!(
            llc.absent_block(ppn.line(0).raw(), 10),
            Some((set.start..set.start + 10 * 16, tag))
        );
        assert_eq!(llc.access_lines(ppn, 10), 0x3ff);
        assert_eq!(llc.stats().misses, 11);
        assert!(llc.access(ppn.line(50), AccessKind::Read));
        assert_eq!(llc.access_lines(ppn, 10), 0);
        assert_eq!(llc.stats().hits, 11);
    }

    #[test]
    fn writes_allocate_like_reads() {
        let mut llc = cache();
        let line = Ppn::new(9).line(9);
        assert!(!llc.access(line, AccessKind::Write));
        assert!(llc.access(line, AccessKind::Read));
    }
}
