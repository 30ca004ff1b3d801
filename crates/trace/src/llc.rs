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
//! kept in most-recently-used-first order, with empty ways at the tail,
//! so recency is the position in the set and no LRU stamps are stored.
//! A hit moves its tag to the front. A miss takes the first empty way
//! or, in a full set, the LRU way at the tail, shifts the ways before it
//! back by one and writes the new tag at the front. An invalidation
//! removes the tag and appends an empty way. A lookup stops at the first
//! empty way. A line is stored as its tag plus one and an empty way as
//! 0, so a new cache is a zeroed allocation that construction never
//! writes.
//!
//! One routine looks a tag up in a set and moves it to the front. A
//! 16-way set (every preset but `tiny`) is passed to it as a
//! `[u32; 16]`, so the compiler unrolls its search; other geometries
//! run the same loop over the slice. With at least 64 sets, lines `0..n` of a
//! page lie in `n` consecutive sets under one tag, so a page walk that
//! is not proven absent (below) touches that block set by set, in
//! fixed-width chunks when the sets have 16 ways, and updates the
//! counters once.
//!
//! # Presence bound
//!
//! With at least 64 sets the lines of a page fall in consecutive sets
//! under one tag, so lines `0..n` of a page own one contiguous block of
//! `n × ways` tags. Most pages the LLC sees are absent from it, since it
//! is a miss filter in front of the memory controller. The cache proves
//! that absence in O(1) instead of scanning the block, from two
//! counters:
//! - each set has a `u32` *pressure*: the absent-path walks through it,
//!   less the removals in its group of 64 sets;
//! - each tracked page has a `u8` *walked* prefix, the most lines
//!   walked (or one past the highest line accessed) since its lines
//!   were last dropped or proven absent, so lines past it are absent;
//!   and a `u32` *stamp*, the pressure of set `walked − 1` taken after
//!   its last touch.
//!
//! An absent-path walk of `n` lines shifts every tag in its `n` sets
//! one way deeper, so each such walk with `n ≥ walked` since the page's
//! last touch pushed every line the page may have one way deeper. Hits
//! and misses of the per-line loop never move another tag up; only a
//! removal does, by at most one way per set per invalidated page, and
//! a removal lowers all 64 pressures of its group by one. So a page is
//! proven absent when `walked == 0` or when `pressure − stamp ≥ ways`
//! (wrapping, compared signed): each of its lines has sunk past the
//! last way. The bound only tells the cache when it may skip work, so
//! every result is the same as without it. (The signed compare is sound
//! while a group sees fewer than 2^31 more removals than walks between
//! two touches of a page.)
//! - [`LastLevelCache::invalidate_page`] of a proven page clears its
//!   mark and returns.
//! - [`LastLevelCache::access_lines`] of a proven page treats the walk
//!   as `n` misses with no per-way search: one `memmove` shifts its
//!   block of `n × ways` tags back by one, which shifts every set back
//!   by one way, and each set takes the tag at its front. This is exact
//!   because empty ways sit at the tail: shifting the whole set moves
//!   the same tags as shifting up to the first empty way would, and in
//!   a full set the LRU way falls off as on any miss.
//!
//! Any other page takes the per-line loop. Only pages below the count
//! given to [`LastLevelCache::with_tracked_pages`] are tracked, at 5
//! bytes each: reserved at construction, filled in as pages are first
//! touched, never reallocated. With fewer than 64 sets a page's
//! lines wrap around the sets, so no page is tracked and both calls
//! always take the per-line loop.
//!
//! A tag is the line address shifted right by the set bits, stored plus
//! one, so `u32` tags cover pages `0..`[`LlcConfig::max_pages`]: 2^37
//! pages for a 2 MB, 16-way cache. Half-width tags halve the array.

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
    /// set bits, stored plus one to keep 0 for an empty way, so it must
    /// stay below `u32::MAX` and the bound is `(2^32 − 1) · sets / 64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry is invalid (see
    /// [`LlcConfig::sets`]).
    pub fn max_pages(&self) -> Result<u64> {
        let sets = self.sets()? as u64;
        Ok(u64::from(u32::MAX).saturating_mul(sets) / LINES_PER_PAGE as u64)
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

/// Stored value of an empty way. A line is stored as its tag plus one,
/// and a tag stays below `u32::MAX` for every page below
/// [`LlcConfig::max_pages`], so no line is stored as 0.
const EMPTY: u32 = 0;

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
    /// Per set: absent-path walks through it, less removals in its
    /// group of 64 sets (module doc, "Presence bound"). Empty when no
    /// page is tracked.
    pressure: Vec<u32>,
    /// Pages `0..tracked` are tracked.
    tracked: usize,
    /// Per tracked page: lines walked since its lines were last dropped
    /// or proven absent. Reserved for every tracked page at
    /// construction, it grows within that capacity as pages are first
    /// touched, so neither construction nor the run zeroes or allocates
    /// it; a page past its length has never been touched.
    walked: Vec<u8>,
    /// Per tracked page: the pressure of set `walked − 1` after its last
    /// touch. Grows with `walked`.
    stamp: Vec<u32>,
    stats: LlcStats,
}

impl LastLevelCache {
    /// Builds an empty cache with the given geometry that tracks no
    /// page, so every call takes the per-line loop.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry is invalid (see
    /// [`LlcConfig::sets`]).
    pub fn new(config: LlcConfig) -> Result<Self> {
        Self::with_tracked_pages(config, 0)
    }

    /// Builds an empty cache that tracks pages `0..pages` for the
    /// presence bound (module doc), at 5 bytes a page reserved here; the
    /// cache never allocates after this. A cache with fewer than 64 sets
    /// tracks nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry is invalid (see
    /// [`LlcConfig::sets`]).
    pub fn with_tracked_pages(config: LlcConfig, pages: usize) -> Result<Self> {
        let sets = config.sets()?;
        let pages = if sets >= LINES_PER_PAGE { pages } else { 0 };
        Ok(LastLevelCache {
            // A zeroed allocation: construction touches none of its pages.
            tags: vec![EMPTY; sets * config.ways],
            ways: config.ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            pressure: vec![0; if pages > 0 { sets } else { 0 }],
            tracked: pages,
            walked: Vec::with_capacity(pages),
            stamp: Vec::with_capacity(pages),
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
        let (range, tag) = self.locate(line.raw());
        let hit = touch(&mut self.tags[range], tag);
        self.count(1, u64::from(!hit));
        let ppn = line.ppn();
        if ppn.index() < self.tracked {
            self.mark(ppn, self.walked(ppn).max(line.line_in_page() + 1));
        }
        hit
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
        if self.proven_absent(ppn) {
            self.check_absent(ppn);
            // Every walked line misses, each in a set of its own. One
            // move of the block shifts every set back by one way (module
            // doc); the tag that crosses into the next set is overwritten
            // by that set's new front.
            let (set, tag) = self.locate(first);
            let n = usize::from(lines);
            let block = &mut self.tags[set.start..set.start + n * self.ways];
            if let Some(last) = block.len().checked_sub(1) {
                block.copy_within(..last, 1);
            }
            for front in block.iter_mut().step_by(self.ways) {
                *front = tag;
            }
            let set = set.start / self.ways;
            for pressure in &mut self.pressure[set..set + n] {
                *pressure = pressure.wrapping_add(1);
            }
            self.stats.misses += u64::from(lines);
            // Stamped after this walk's own bump: its lines are at the
            // front now.
            self.mark(ppn, lines);
            return u64::MAX.checked_shr(64 - u32::from(lines)).unwrap_or(0);
        }
        let misses = if self.set_bits >= LINES_PER_PAGE.trailing_zeros() {
            // Lines `0..n` share one tag in `n` consecutive sets.
            let (set, tag) = self.locate(first);
            let block = &mut self.tags[set.start..set.start + usize::from(lines) * self.ways];
            walk_block(block, self.ways, tag)
        } else {
            let mut misses = 0;
            for j in 0..u64::from(lines) {
                let (range, tag) = self.locate(first + j);
                misses |= u64::from(!touch(&mut self.tags[range], tag)) << j;
            }
            misses
        };
        self.count(lines, misses);
        if ppn.index() < self.tracked {
            self.mark(ppn, self.walked(ppn).max(lines));
        }
        misses
    }

    /// Counts a walk of `lines` lines whose misses are the bits of
    /// `misses`.
    fn count(&mut self, lines: u8, misses: u64) {
        let missed = u64::from(misses.count_ones());
        self.stats.misses += missed;
        self.stats.hits += u64::from(lines) - missed;
    }

    /// Whether the presence bound (module doc) proves that no line of
    /// `ppn` is cached. Always `false` for a page that is not tracked.
    pub fn proven_absent(&self, ppn: Ppn) -> bool {
        match self.walked.get(ppn.index()) {
            Some(0) => true,
            Some(&walked) => {
                let set = (ppn.line(walked - 1).raw() & self.set_mask) as usize;
                let sunk = self.pressure[set].wrapping_sub(self.stamp[ppn.index()]) as i32;
                sunk >= self.ways as i32
            }
            // Never touched, if tracked at all.
            None => ppn.index() < self.tracked,
        }
    }

    /// The walked prefix of tracked page `ppn`.
    fn walked(&self, ppn: Ppn) -> u8 {
        self.walked.get(ppn.index()).copied().unwrap_or(0)
    }

    /// Records that tracked page `ppn` was just touched and that lines
    /// `walked..` of it are absent.
    fn mark(&mut self, ppn: Ppn, walked: u8) {
        if ppn.index() >= self.walked.len() {
            // First touch: grow within the capacity reserved for it.
            self.walked.resize(ppn.index() + 1, 0);
            self.stamp.resize(ppn.index() + 1, 0);
        }
        self.walked[ppn.index()] = walked;
        if walked > 0 {
            let set = (ppn.line(walked - 1).raw() & self.set_mask) as usize;
            self.stamp[ppn.index()] = self.pressure[set];
        }
    }

    /// Debug builds check a proven-absent decision against a scan of the
    /// page's whole block of `64 × ways` tags, which also checks that no
    /// line past its walked prefix is cached.
    fn check_absent(&self, ppn: Ppn) {
        if cfg!(debug_assertions) {
            let (set, tag) = self.locate(ppn.line(0).raw());
            let block = &self.tags[set.start..set.start + LINES_PER_PAGE * self.ways];
            assert!(
                !block.contains(&tag),
                "{ppn:?} proven absent with a line cached"
            );
        }
    }

    /// The index range of the set holding line address `raw`, and the
    /// value the line is stored as: its tag plus one.
    fn locate(&self, raw: u64) -> (Range<usize>, u32) {
        let base = (raw & self.set_mask) as usize * self.ways;
        let tag = raw >> self.set_bits;
        debug_assert!(
            tag < u64::from(u32::MAX),
            "line {raw:#x} lies past LlcConfig::max_pages"
        );
        (base..base + self.ways, tag as u32 + 1)
    }

    /// Drops every line belonging to `ppn`.
    ///
    /// Called when a page is reclaimed to remote memory: its cached lines
    /// must not keep serving hits for data that is no longer local.
    pub fn invalidate_page(&mut self, ppn: Ppn) {
        // A reclaimed page is cold, so the bound almost always proves it
        // absent and ends the call.
        let proven = self.proven_absent(ppn);
        if let Some(walked) = self.walked.get_mut(ppn.index()) {
            *walked = 0;
        }
        if proven {
            self.check_absent(ppn);
            return;
        }
        let first = ppn.line(0).raw();
        let before = self.stats.invalidations;
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
        // A removal moves the tags behind it up by one way, at most once
        // per set: take one absent walk back from every set of the group.
        if self.stats.invalidations != before && !self.pressure.is_empty() {
            let set = (first & self.set_mask) as usize;
            for pressure in &mut self.pressure[set..set + LINES_PER_PAGE] {
                *pressure = pressure.wrapping_sub(1);
            }
        }
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }
}

/// Touches `tag` in one set; returns `true` on a hit. The tag ends up
/// most recently used either way. A 16-way set is touched as an array.
#[inline(always)]
fn touch(set: &mut [u32], tag: u32) -> bool {
    match <&mut [u32; 16]>::try_from(&mut *set) {
        Ok(fixed) => touch_set(fixed, tag),
        Err(_) => touch_set(set, tag),
    }
}

/// Touches `tag` in every set of `block`, a run of consecutive sets of
/// `ways` ways each, front to back, and returns the miss mask: bit `j`
/// set when set `j` missed. 16-way sets are touched as arrays.
#[inline(always)]
fn walk_block(block: &mut [u32], ways: usize, tag: u32) -> u64 {
    let mut misses = 0;
    if ways == 16 {
        let (sets, _) = block.as_chunks_mut::<16>();
        for (j, set) in sets.iter_mut().enumerate() {
            misses |= u64::from(!touch_set(set, tag)) << j;
        }
    } else {
        for (j, set) in block.chunks_exact_mut(ways).enumerate() {
            misses |= u64::from(!touch_set(set, tag)) << j;
        }
    }
    misses
}

/// The one routine that looks a tag up in a set: shifts it one way
/// towards the tail, front to back, until `tag` itself (a hit) or an
/// empty way is displaced; if neither turns up, the LRU tag falls off
/// the tail. The tag ends up at the front either way. Generic so that a
/// `[u32; 16]` set runs it at a fixed length.
#[inline(always)]
fn touch_set<S: AsMut<[u32]> + ?Sized>(set: &mut S, tag: u32) -> bool {
    let mut carry = tag;
    // One exit test per way: with a second `break` the compiler leaves
    // the loop rolled inside a block walk.
    let mut hit = false;
    for slot in set.as_mut() {
        carry = std::mem::replace(slot, carry);
        hit = carry == tag;
        if hit || carry == EMPTY {
            break;
        }
    }
    hit
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
        for (sets, ways) in [(1, 16), (4, 4), (64, 4), (512, 8), (2_048, 16)] {
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
            // With at least 64 sets its last line has the highest tag,
            // stored as `u32::MAX`.
            assert_eq!(llc.tags.contains(&u32::MAX), sets >= 64, "{sets} sets");
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
    fn the_top_line_is_stored_as_u32_max_and_round_trips() {
        for config in [LlcConfig::simulator_default(), LlcConfig::tiny()] {
            let top = Ppn::new(config.max_pages().unwrap() - 1);
            let line = top.line(63);
            let mut llc = LastLevelCache::new(config).unwrap();
            assert_eq!(llc.locate(line.raw()).1, u32::MAX, "{config:?}");
            assert!(!llc.access(line, AccessKind::Read), "{config:?}: cold");
            assert!(llc.access(line, AccessKind::Write), "{config:?}: warm");
            assert_eq!(llc.tags.iter().filter(|&&t| t != EMPTY).count(), 1);
            llc.invalidate_page(top);
            assert_eq!(llc.stats().invalidations, 1, "{config:?}");
            assert!(llc.tags.iter().all(|&t| t == EMPTY), "{config:?}");
            assert!(!llc.access(line, AccessKind::Read), "{config:?}: dropped");
        }
    }

    #[test]
    fn a_new_cache_is_all_zero() {
        assert_eq!(EMPTY, 0);
        let one_set = LlcConfig {
            capacity_bytes: 16 * LINE_SIZE,
            ways: 16,
        };
        for config in [
            LlcConfig::simulator_default(),
            LlcConfig::tiny(),
            LlcConfig::default_server(),
            one_set,
        ] {
            let llc = LastLevelCache::with_tracked_pages(config, 4_096).unwrap();
            assert!(llc.tags.iter().all(|&t| t == 0), "{config:?}");
            assert!(llc.pressure.iter().all(|&p| p == 0), "{config:?}");
            assert!(llc.walked.is_empty() && llc.stamp.is_empty());
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

    /// Page `5 + 32k` of the simulator's 2,048 sets: every `k` shares
    /// page 5's group of 64 sets.
    fn group_mate(k: u64) -> Ppn {
        Ppn::new(5 + 32 * k)
    }

    #[test]
    fn a_resident_line_past_the_walk_keeps_the_page_unproven_until_it_sinks() {
        let mut llc =
            LastLevelCache::with_tracked_pages(LlcConfig::simulator_default(), 1_100).unwrap();
        let ppn = group_mate(0);
        assert!(llc.proven_absent(ppn), "never touched");
        assert!(!llc.access(ppn.line(50), AccessKind::Read));
        // Line 50 lies past the ten walked lines but in the walked-to
        // prefix, so the walk takes the per-line loop: ten misses.
        assert!(!llc.proven_absent(ppn));
        assert_eq!(llc.access_lines(ppn, 10), 0x3ff);
        // Absent walks of 50 lines push lines 0..10 out but never reach
        // line 50's set, so they prove nothing.
        for k in 1..=16 {
            assert!(llc.proven_absent(group_mate(k)));
            assert_eq!(llc.access_lines(group_mate(k), 50), (1 << 50) - 1);
        }
        assert!(!llc.proven_absent(ppn));
        // Each 64-line absent walk pushes line 50 one way deeper; after
        // fifteen it sits in the last way.
        for k in 17..32 {
            assert_eq!(llc.access_lines(group_mate(k), 64), u64::MAX);
        }
        assert!(!llc.proven_absent(ppn));
        assert!(llc.clone().access(ppn.line(50), AccessKind::Read));
        llc.access_lines(group_mate(32), 64);
        assert!(llc.proven_absent(ppn));
        assert_eq!(llc.access_lines(ppn, 64), u64::MAX);
        assert_eq!(llc.stats().hits, 0);
    }

    #[test]
    fn a_removal_takes_one_walk_back_from_its_group() {
        let mut llc =
            LastLevelCache::with_tracked_pages(LlcConfig::simulator_default(), 1_100).unwrap();
        let (page, dropped) = (group_mate(0), group_mate(1));
        llc.access_lines(page, 64);
        llc.access_lines(dropped, 64);
        // Dropping the page walked after `page` moves `page`'s lines back
        // to the front of every set.
        llc.invalidate_page(dropped);
        assert_eq!(llc.stats().invalidations, 64);
        assert!(llc.proven_absent(dropped));
        for k in 2..17 {
            llc.access_lines(group_mate(k), 64);
        }
        assert!(!llc.proven_absent(page), "one walk in, one removal out");
        assert!(llc.clone().access(page.line(63), AccessKind::Read));
        llc.access_lines(group_mate(17), 64);
        assert!(llc.proven_absent(page));
        llc.invalidate_page(page);
        assert_eq!(llc.stats().invalidations, 64, "nothing left to drop");
    }

    #[test]
    fn untracked_pages_and_small_caches_take_the_line_loop() {
        let mut llc =
            LastLevelCache::with_tracked_pages(LlcConfig::simulator_default(), 8).unwrap();
        assert!(llc.proven_absent(Ppn::new(7)));
        assert!(!llc.proven_absent(Ppn::new(8)));
        assert_eq!(llc.access_lines(Ppn::new(8), 64), u64::MAX);
        assert!(!llc.access(Ppn::new(1 << 20).line(3), AccessKind::Read));
        llc.invalidate_page(Ppn::new(8));
        // The marks are reserved once: untracked pages never grow them.
        assert_eq!((llc.walked.len(), llc.walked.capacity()), (0, 8));
        assert_eq!(llc.stamp.capacity(), 8);
        llc.access_lines(Ppn::new(7), 64);
        assert_eq!((llc.walked.len(), llc.walked.capacity()), (8, 8));
        let four_sets = LlcConfig {
            capacity_bytes: 4 * 4 * LINE_SIZE,
            ways: 4,
        };
        let llc = LastLevelCache::with_tracked_pages(four_sets, 8).unwrap();
        assert!(!llc.proven_absent(Ppn::new(0)));
        assert!(llc.pressure.is_empty() && llc.walked.is_empty());
    }

    #[test]
    fn writes_allocate_like_reads() {
        let mut llc = cache();
        let line = Ppn::new(9).line(9);
        assert!(!llc.access(line, AccessKind::Write));
        assert!(llc.access(line, AccessKind::Read));
    }
}
