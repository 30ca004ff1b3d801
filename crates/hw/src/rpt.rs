//! Reverse Page Table (RPT) and its in-MC cache — §III-C of the paper.
//!
//! The memory controller works in physical addresses; prefetching works
//! in `(PID, VPN)` space. The RPT maps each PPN back to its owner. The
//! authoritative copy lives in a reserved, *uncached* DRAM region (8 B
//! per frame: 16-bit PID, 40-bit VPN, shared flag, 2-bit huge flag); the
//! MC holds a small 16-way write-back cache in front of it. All RPT
//! reads and writes pass through the cache, so no extra coherence
//! machinery is needed.
//!
//! The kernel keeps the RPT current by notifying it from its PTE
//! install/clear paths — [`ReversePageTable`] implements
//! [`hopp_mem::PteListener`] for exactly that purpose. The DRAM copy is
//! only updated lazily when the cache writes back dirty entries, as in
//! the paper.
//!
//! # Layout
//!
//! An entry is the paper's 64-bit word, [`PackedRptEntry`], in both this
//! model and the RTL one ([`crate::rtl_rpt`]). The DRAM copy is a
//! column of words indexed by PPN, as in the paper's reserved region: a
//! mapped frame's word has a spare bit set, and 0 means no mapping. The
//! column covers the frames written so far and grows in steps of 1,024
//! frames (8 KiB); a frame past its end reads as 0.
//!
//! The cache is one flat `sets × ways` array, like the HPD table and the
//! LLC model. Each set is kept in most-recently-used-first order with
//! empty ways at the tail, so a way is 16 bytes: its key, the PPN plus
//! one, and the packed entry, whose spare bits say whether it holds a
//! mapping and whether it is dirty. Recency is its position, and an
//! empty way is all zero, so a new cache is a zeroed allocation that
//! construction never writes.
//! Every lookup and PTE hook touches one way. A hit moves it to the
//! front. A miss shifts the set back by one into its first empty way
//! or, in a full set, lets the LRU way fall off the tail (writing it
//! back if dirty), and fills the front. Ways are never invalidated: a
//! cleared PTE stays cached as a dirty "no mapping" until it is
//! evicted.

use std::ops::Range;

use hopp_mem::PteListener;
use hopp_types::{Error, PageFlags, Pid, Ppn, Result, Vpn};

/// Size of one RPT entry in bytes (64 bits per the paper's layout).
pub const RPT_ENTRY_BYTES: usize = 8;

/// Width of an entry's VPN field: an entry names VPNs below `2^40`.
pub const RPT_VPN_BITS: u32 = 40;

/// One RPT record: the owner and flags of a physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RptEntry {
    /// Owning process (16 bits in hardware).
    pub pid: Pid,
    /// Virtual page within that process (40 bits in hardware).
    pub vpn: Vpn,
    /// Shared/huge flags, forwarded to software unconsumed.
    pub flags: PageFlags,
}

/// An RPT entry in the paper's 64-bit layout:
/// `[spare:5][pid:16][vpn:40][shared:1][huge:2]`, most significant bit
/// first. The huge field carries one flag in its low bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PackedRptEntry(u64);

impl PackedRptEntry {
    /// The bits the layout assigns; the five above them are spare.
    const FIELDS: u64 = (1 << 59) - 1;

    /// Packs an entry into the paper's 64-bit layout. The VPN must fit
    /// its [`RPT_VPN_BITS`]-bit field.
    pub fn pack(entry: RptEntry) -> Self {
        debug_assert!(entry.vpn.raw() >> RPT_VPN_BITS == 0);
        let pid = u64::from(entry.pid.raw()) << 43;
        let vpn = entry.vpn.raw() << 3;
        let shared = u64::from(entry.flags.shared) << 2;
        let huge = u64::from(entry.flags.huge);
        PackedRptEntry(pid | vpn | shared | huge)
    }

    /// Unpacks back to the behavioural representation.
    pub fn unpack(self) -> RptEntry {
        RptEntry {
            // hopp-check: allow(unit-hygiene): unpacking the entry's 16-bit PID bitfield, not converting units
            pid: Pid::new((self.0 >> 43) as u16),
            vpn: Vpn::new((self.0 >> 3) & ((1 << RPT_VPN_BITS) - 1)),
            flags: PageFlags {
                shared: (self.0 >> 2) & 1 == 1,
                huge: self.0 & 0b11 != 0,
            },
        }
    }
}

/// Geometry of the in-MC RPT cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RptCacheConfig {
    /// Cache capacity in bytes (entries are 8 B each). Default 64 KB.
    pub capacity_bytes: usize,
    /// Associativity. Default 16.
    pub ways: usize,
}

impl Default for RptCacheConfig {
    fn default() -> Self {
        RptCacheConfig {
            capacity_bytes: 64 * 1024,
            ways: 16,
        }
    }
}

impl RptCacheConfig {
    /// A default-associativity cache of `kib` kibibytes.
    pub fn with_kib(kib: usize) -> Self {
        RptCacheConfig {
            capacity_bytes: kib * 1024,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the capacity does not divide
    /// into a power-of-two number of non-empty sets.
    pub fn sets(&self) -> Result<usize> {
        let entries = self.capacity_bytes / RPT_ENTRY_BYTES;
        if self.ways == 0 || entries == 0 || !entries.is_multiple_of(self.ways) {
            return Err(Error::InvalidConfig {
                what: "rpt cache geometry",
                constraint: "capacity must be a multiple of ways * 8B",
            });
        }
        let sets = entries / self.ways;
        if !sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                what: "rpt cache sets",
                constraint: "set count must be a power of two",
            });
        }
        Ok(sets)
    }
}

/// RPT activity counters; Table III (hit rate) and the RPT row of
/// Table V (DRAM traffic) derive from these.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RptStats {
    /// Hot-page lookups served.
    pub lookups: u64,
    /// Lookups satisfied by the cache.
    pub hits: u64,
    /// Lookups that had to read the DRAM RPT.
    pub dram_reads: u64,
    /// Dirty entries written back to the DRAM RPT.
    pub dram_writebacks: u64,
    /// Lookups that found no mapping at all (frame not owned).
    pub unresolved: u64,
    /// PTE-hook updates applied.
    pub updates: u64,
}

impl RptStats {
    /// Cache hit rate over lookups (Table III's metric).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Total 8-byte DRAM RPT transfers (reads + writebacks).
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writebacks
    }
}

/// Frames the DRAM column grows by: 8 KiB of words a step. Growing in
/// fixed steps keeps the column within a step of the highest frame
/// written, where doubling could leave up to twice that.
const DRAM_STEP: usize = 1 << 10;

/// Spare bit of a stored word: it holds a mapping. A cached word
/// without it is a "no mapping", a cleared PTE not yet written back.
const MAPPED: u64 = 1 << 63;
/// Spare bit of a cached word: it differs from the DRAM copy.
const DIRTY: u64 = 1 << 62;

/// The stored word of `entry`: its packed fields, [`MAPPED`] if it is a
/// mapping.
fn word_of(entry: Option<RptEntry>) -> u64 {
    entry.map_or(0, |e| PackedRptEntry::pack(e).0 | MAPPED)
}

/// The mapping a stored word holds.
fn entry_of(word: u64) -> Option<RptEntry> {
    (word & MAPPED != 0).then(|| PackedRptEntry(word & PackedRptEntry::FIELDS).unpack())
}

/// One cache way: `[key, word]`, the frame's [`key`] and its stored
/// word, [`DIRTY`] included. An empty way is all zero.
type CacheWay = [u64; 2];

/// The key of `ppn`'s way: its PPN plus one, so that key 0 is an empty
/// way. Frame `u64::MAX` has no key.
fn key(ppn: Ppn) -> u64 {
    ppn.raw() + 1
}

/// The reverse page table: DRAM copy + in-MC cache.
///
/// # Example
///
/// ```
/// use hopp_hw::rpt::{ReversePageTable, RptCacheConfig};
/// use hopp_mem::PteListener;
/// use hopp_types::{Pid, Ppn, Vpn};
///
/// let mut rpt = ReversePageTable::new(RptCacheConfig::default())?;
/// // The kernel installs a PTE; the hook keeps the RPT current.
/// rpt.pte_set(Pid::new(1), Vpn::new(0x10), Ppn::new(3));
/// let e = rpt.lookup(Ppn::new(3)).unwrap();
/// assert_eq!((e.pid, e.vpn), (Pid::new(1), Vpn::new(0x10)));
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReversePageTable {
    /// The DRAM copy: every frame's stored word, [`MAPPED`] set for a
    /// mapping, indexed by PPN. Frames past the end read as 0.
    dram: Vec<u64>,
    /// `sets × ways` ways; each set most-recently-used first, empty ways
    /// at the tail.
    cache: Vec<CacheWay>,
    ways: usize,
    set_mask: u64,
    stats: RptStats,
}

impl ReversePageTable {
    /// Builds an empty RPT with the given cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid geometry.
    pub fn new(config: RptCacheConfig) -> Result<Self> {
        let sets = config.sets()?;
        Ok(ReversePageTable {
            dram: Vec::new(),
            // A zeroed allocation: construction touches none of its pages.
            cache: vec![[0; 2]; sets * config.ways],
            ways: config.ways,
            set_mask: sets as u64 - 1,
            stats: RptStats::default(),
        })
    }

    /// Builds the initial RPT by walking all existing page tables, as
    /// HoPP does at startup (§III-C). `owned` yields every allocated
    /// frame with its owner (see [`hopp_mem::FrameAllocator::iter_owned`]).
    pub fn bootstrap<I>(&mut self, owned: I)
    where
        I: IntoIterator<Item = (Ppn, Pid, Vpn)>,
    {
        for (ppn, pid, vpn) in owned {
            let entry = RptEntry {
                pid,
                vpn,
                flags: PageFlags::default(),
            };
            self.write_dram(ppn, word_of(Some(entry)));
        }
    }

    /// The index range of the set `ppn` maps to.
    fn set_range(&self, ppn: Ppn) -> Range<usize> {
        let base = (ppn.raw() & self.set_mask) as usize * self.ways;
        base..base + self.ways
    }

    /// Brings `ppn`'s set to the state after an access to `ppn` and
    /// returns the index of its front way and whether `ppn` hit. On a
    /// hit the front way is `ppn`'s. On a miss the set has shifted back
    /// by one into its first empty way, or else its LRU way fell off the
    /// tail and was written back if dirty; the caller fills the front.
    fn touch(&mut self, ppn: Ppn) -> (usize, bool) {
        let range = self.set_range(ppn);
        let front = range.start;
        let key = key(ppn);
        let set = &mut self.cache[range];
        let at = set
            .iter()
            .position(|&[k, _]| k == key || k == 0)
            .unwrap_or(set.len() - 1);
        let way @ [k, word] = set[at];
        set.copy_within(..at, 1);
        if k == key {
            set[0] = way;
            return (front, true);
        }
        // Empty ways are never dirty. Lazy DRAM update on writeback (§V).
        if word & DIRTY != 0 {
            self.write_dram(Ppn::new(k - 1), word & !DIRTY);
            self.stats.dram_writebacks += 1;
        }
        (front, false)
    }

    /// `ppn`'s DRAM copy: 0 past the end of the column.
    fn read_dram(&self, ppn: Ppn) -> u64 {
        self.dram.get(ppn.index()).copied().unwrap_or(0)
    }

    /// Stores `word` (not [`DIRTY`]) as `ppn`'s DRAM copy. A mapping's
    /// word has [`MAPPED`] set; every other word is zero and clears the
    /// copy. A write past the end grows the column to the next multiple
    /// of [`DRAM_STEP`] frames.
    fn write_dram(&mut self, ppn: Ppn, word: u64) {
        let i = ppn.index();
        if i >= self.dram.len() {
            let len = (i / DRAM_STEP + 1) * DRAM_STEP;
            self.dram.reserve_exact(len - self.dram.len());
            self.dram.resize(len, 0);
        }
        self.dram[i] = word;
    }

    /// Resolves a hot PPN to its owner, via the cache.
    ///
    /// Returns `None` when the frame has no current mapping (e.g. it was
    /// freed between detection and lookup) — such hot pages are dropped.
    pub fn lookup(&mut self, ppn: Ppn) -> Option<RptEntry> {
        self.stats.lookups += 1;
        let (front, hit) = self.touch(ppn);
        let word = if hit {
            self.stats.hits += 1;
            self.cache[front][1]
        } else {
            // Miss: read the DRAM copy and fill.
            let _prof = hopp_prof::span(hopp_prof::SpanId::HwRptWalk);
            self.stats.dram_reads += 1;
            let word = self.read_dram(ppn);
            self.cache[front] = [key(ppn), word];
            word
        };
        let entry = entry_of(word);
        if entry.is_none() {
            self.stats.unresolved += 1;
        }
        entry
    }

    /// The mapping the RPT holds for `ppn`: its cached way if it has
    /// one, else the DRAM copy. Unlike [`Self::lookup`] it counts
    /// nothing and leaves recency alone (for consistency checks).
    pub fn peek(&self, ppn: Ppn) -> Option<RptEntry> {
        match self.cache[self.set_range(ppn)]
            .iter()
            .find(|&&[k, _]| k == key(ppn))
        {
            Some(&[_, word]) => entry_of(word),
            None => entry_of(self.read_dram(ppn)),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> RptStats {
        self.stats
    }

    /// Writes `entry` for `ppn` into the cache (write-back: cache now,
    /// DRAM at eviction).
    fn update(&mut self, ppn: Ppn, entry: Option<RptEntry>) {
        self.stats.updates += 1;
        let (front, _) = self.touch(ppn);
        self.cache[front] = [key(ppn), word_of(entry) | DIRTY];
    }
}

impl PteListener for ReversePageTable {
    /// `set_pte_at` hook: record the new mapping.
    fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        self.update(
            ppn,
            Some(RptEntry {
                pid,
                vpn,
                flags: PageFlags::default(),
            }),
        );
    }

    /// `pte_clear` hook: drop the mapping.
    fn pte_clear(&mut self, _pid: Pid, _vpn: Vpn, ppn: Ppn) {
        self.update(ppn, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpt() -> ReversePageTable {
        ReversePageTable::new(RptCacheConfig::default()).unwrap()
    }

    fn small_rpt() -> ReversePageTable {
        // 1 set x 2 ways, to force evictions easily.
        ReversePageTable::new(RptCacheConfig {
            capacity_bytes: 2 * RPT_ENTRY_BYTES,
            ways: 2,
        })
        .unwrap()
    }

    #[test]
    fn packing_roundtrips_all_fields_below_the_spare_bits() {
        for (pid, vpn, shared, huge) in [
            (0u16, 0u64, false, false),
            (u16::MAX, (1 << RPT_VPN_BITS) - 1, true, true),
            (7, 0x1234_5678, true, false),
            (9, 42, false, true),
        ] {
            let e = RptEntry {
                pid: Pid::new(pid),
                vpn: Vpn::new(vpn),
                flags: PageFlags { shared, huge },
            };
            let packed = PackedRptEntry::pack(e);
            assert_eq!(packed.unpack(), e);
            assert_eq!(packed.0 & !PackedRptEntry::FIELDS, 0);
            assert_eq!(entry_of(word_of(Some(e))), Some(e));
            assert_eq!(entry_of(word_of(Some(e)) | DIRTY), Some(e));
        }
        assert_eq!(entry_of(word_of(None) | DIRTY), None);
    }

    #[test]
    fn ways_and_dram_words_are_table_width() {
        assert_eq!(std::mem::size_of::<CacheWay>(), 16);
        let mut r = rpt();
        r.bootstrap([(Ppn::new(0), Pid::new(1), Vpn::new(1))]);
        assert_eq!(std::mem::size_of_val(&r.dram[0]), RPT_ENTRY_BYTES);
    }

    #[test]
    fn a_new_cache_is_all_zero_and_names_no_frame() {
        for mut r in [
            rpt(),
            small_rpt(),
            ReversePageTable::new(RptCacheConfig::with_kib(1)).unwrap(),
        ] {
            assert!(r.cache.iter().all(|&way| way == [0; 2]));
            assert!(r.dram.is_empty());
            // Frame 0's key is 1: an empty way does not match it.
            assert_eq!(r.peek(Ppn::new(0)), None);
            assert_eq!(r.lookup(Ppn::new(0)), None);
            assert_eq!((r.stats().hits, r.stats().dram_reads), (0, 1));
        }
    }

    #[test]
    fn frames_at_the_column_edges_round_trip_through_writeback() {
        // Frame 0, the last frame of the first step and the first of the
        // second.
        for (ppn, steps) in [(0, 1), (DRAM_STEP - 1, 1), (DRAM_STEP, 2)] {
            let ppn = Ppn::new(ppn as u64);
            let mut r = small_rpt();
            let (a, b) = (Ppn::new(1), Ppn::new(2));
            let e = RptEntry {
                pid: Pid::new(u16::MAX),
                vpn: Vpn::new((1 << RPT_VPN_BITS) - 1),
                flags: PageFlags::default(),
            };
            r.pte_set(e.pid, e.vpn, ppn);
            assert_eq!(r.lookup(ppn), Some(e), "{ppn:?}: cached");
            assert_eq!(r.peek(ppn), Some(e));
            // Two other frames push it out of the 2-way set: written back.
            r.pte_set(Pid::new(1), Vpn::new(1), a);
            r.pte_set(Pid::new(1), Vpn::new(2), b);
            assert_eq!(r.stats().dram_writebacks, 1, "{ppn:?}");
            assert!(r.cache.iter().all(|&[k, _]| k != key(ppn)));
            assert_eq!(r.dram.len(), steps * DRAM_STEP, "{ppn:?}");
            assert_eq!(r.peek(ppn), Some(e), "{ppn:?}: in DRAM");
            assert_eq!(r.lookup(ppn), Some(e), "{ppn:?}: read back");
            assert_eq!(r.stats().dram_reads, 1);
            r.pte_clear(e.pid, e.vpn, ppn);
            assert_eq!(r.lookup(ppn), None, "{ppn:?}: cleared");
            r.pte_set(Pid::new(1), Vpn::new(1), a);
            r.pte_set(Pid::new(1), Vpn::new(2), b);
            // The cleared word went back too and zeroed the DRAM copy.
            assert!(r.cache.iter().all(|&[k, _]| k != key(ppn)));
            assert_eq!(r.read_dram(ppn), 0, "{ppn:?}: cleared in DRAM");
            assert_eq!(r.lookup(ppn), None);
            assert_eq!(r.stats().unresolved, 2);
            assert_eq!(r.peek(a).map(|e| e.vpn), Some(Vpn::new(1)));
        }
    }

    #[test]
    fn the_top_frame_keys_its_way_through_the_cache() {
        // The top frame of the simulator's frame table, whose links are
        // `u32` (2^32 − 2 frames). Its DRAM word would need a 32 GiB
        // column, so it stays cached: set, peek, lookup and clear.
        let top = Ppn::new(u64::from(u32::MAX) - 2);
        let mut r = small_rpt();
        let e = RptEntry {
            pid: Pid::new(u16::MAX),
            vpn: Vpn::new((1 << RPT_VPN_BITS) - 1),
            flags: PageFlags::default(),
        };
        r.pte_set(e.pid, e.vpn, top);
        assert_eq!(r.cache[0], [key(top), word_of(Some(e)) | DIRTY]);
        assert_eq!(r.peek(top), Some(e));
        assert_eq!(r.peek(Ppn::new(u64::from(u32::MAX) - 3)), None);
        assert_eq!(r.lookup(top), Some(e));
        r.pte_clear(e.pid, e.vpn, top);
        assert_eq!(r.peek(top), None);
        assert_eq!(r.lookup(top), None);
        let stats = r.stats();
        assert_eq!(
            (stats.hits, stats.dram_reads, stats.dram_writebacks),
            (2, 0, 0)
        );
        assert!(r.dram.is_empty());
    }

    #[test]
    fn a_frame_past_the_column_reads_as_no_mapping() {
        let mut r = rpt();
        r.bootstrap([(Ppn::new(3), Pid::new(1), Vpn::new(30))]);
        let past = Ppn::new(DRAM_STEP as u64);
        assert_eq!(r.peek(past), None);
        assert_eq!(r.lookup(past), None);
        assert_eq!((r.stats().dram_reads, r.stats().unresolved), (1, 1));
        assert_eq!(r.dram.len(), DRAM_STEP, "a read grows nothing");
    }

    #[test]
    fn a_writeback_past_the_column_grows_it_by_one_step() {
        let mut r = small_rpt();
        r.bootstrap([(Ppn::new(0), Pid::new(1), Vpn::new(10))]);
        assert_eq!((r.dram.len(), r.dram.capacity()), (DRAM_STEP, DRAM_STEP));
        let edge = Ppn::new(DRAM_STEP as u64);
        r.pte_set(Pid::new(2), Vpn::new(20), edge);
        r.pte_set(Pid::new(1), Vpn::new(1), Ppn::new(1));
        r.pte_set(Pid::new(1), Vpn::new(2), Ppn::new(2));
        assert_eq!(r.stats().dram_writebacks, 1);
        let step = 2 * DRAM_STEP;
        assert_eq!((r.dram.len(), r.dram.capacity()), (step, step));
        assert_eq!(r.lookup(edge).map(|e| e.vpn), Some(Vpn::new(20)));
        assert_eq!(r.lookup(Ppn::new(0)).map(|e| e.vpn), Some(Vpn::new(10)));
    }

    #[test]
    fn geometry_validation() {
        assert_eq!(RptCacheConfig::default().sets().unwrap(), 512);
        assert_eq!(RptCacheConfig::with_kib(1).sets().unwrap(), 8);
        assert!(RptCacheConfig {
            capacity_bytes: 24,
            ways: 16
        }
        .sets()
        .is_err());
        assert!(RptCacheConfig {
            capacity_bytes: 0,
            ways: 16
        }
        .sets()
        .is_err());
    }

    #[test]
    fn hook_then_lookup_hits_cache() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(0x99), Ppn::new(5));
        let e = r.lookup(Ppn::new(5)).unwrap();
        assert_eq!(e.pid, Pid::new(1));
        assert_eq!(e.vpn, Vpn::new(0x99));
        assert_eq!(r.stats().hits, 1);
        assert_eq!(r.stats().dram_reads, 0);
    }

    #[test]
    fn clear_hook_invalidates_mapping() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(1), Ppn::new(2));
        r.pte_clear(Pid::new(1), Vpn::new(1), Ppn::new(2));
        assert_eq!(r.lookup(Ppn::new(2)), None);
        assert_eq!(r.stats().unresolved, 1);
    }

    #[test]
    fn bootstrap_fills_dram_and_miss_reads_it() {
        let mut r = rpt();
        r.bootstrap([(Ppn::new(7), Pid::new(2), Vpn::new(70))]);
        let e = r.lookup(Ppn::new(7)).unwrap();
        assert_eq!(e.vpn, Vpn::new(70));
        assert_eq!(r.stats().dram_reads, 1);
        assert_eq!(r.stats().hits, 0);
        // Second lookup hits the cache.
        r.lookup(Ppn::new(7)).unwrap();
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_lazily() {
        let mut r = small_rpt();
        r.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(0));
        r.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        assert_eq!(
            r.stats().dram_writebacks,
            0,
            "write-back: DRAM untouched so far"
        );
        // Third distinct PPN evicts the LRU dirty entry.
        r.pte_set(Pid::new(1), Vpn::new(12), Ppn::new(2));
        assert_eq!(r.stats().dram_writebacks, 1);
        // The written-back mapping is still resolvable (via DRAM read).
        let e = r.lookup(Ppn::new(0)).unwrap();
        assert_eq!(e.vpn, Vpn::new(10));
        assert_eq!(r.stats().dram_reads, 1);
    }

    #[test]
    fn a_hit_refreshes_recency() {
        let mut r = small_rpt();
        let (a, b, c) = (Ppn::new(0), Ppn::new(1), Ppn::new(2));
        r.pte_set(Pid::new(1), Vpn::new(10), a);
        r.pte_set(Pid::new(1), Vpn::new(11), b);
        r.lookup(a).unwrap();
        r.pte_set(Pid::new(1), Vpn::new(12), c);
        assert_eq!(r.stats().dram_writebacks, 1);
        // B was the LRU way and went to DRAM; A is still cached.
        assert_eq!(r.lookup(a).unwrap().vpn, Vpn::new(10));
        assert_eq!((r.stats().hits, r.stats().dram_reads), (2, 0));
        assert_eq!(r.lookup(b).unwrap().vpn, Vpn::new(11));
        assert_eq!(r.stats().dram_reads, 1);
    }

    #[test]
    fn peek_sees_the_cache_first_without_side_effects() {
        let mut r = small_rpt();
        r.bootstrap([(Ppn::new(0), Pid::new(1), Vpn::new(10))]);
        assert_eq!(r.peek(Ppn::new(0)).map(|e| e.vpn), Some(Vpn::new(10)));
        r.pte_clear(Pid::new(1), Vpn::new(10), Ppn::new(0));
        assert_eq!(r.peek(Ppn::new(0)), None, "the cached tombstone wins");
        r.pte_set(Pid::new(2), Vpn::new(20), Ppn::new(1));
        let before = r.stats();
        assert_eq!(r.peek(Ppn::new(0)), None);
        assert_eq!(r.peek(Ppn::new(7)), None);
        assert_eq!(r.stats(), before);
        // Peeking did not refresh ppn 0: it is still the LRU way.
        r.pte_set(Pid::new(2), Vpn::new(21), Ppn::new(2));
        assert_eq!(r.lookup(Ppn::new(1)).unwrap().vpn, Vpn::new(20));
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn cleared_mapping_eviction_removes_from_dram() {
        let mut r = small_rpt();
        r.bootstrap([(Ppn::new(0), Pid::new(1), Vpn::new(10))]);
        r.pte_clear(Pid::new(1), Vpn::new(10), Ppn::new(0));
        // Evict the tombstone.
        r.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        r.pte_set(Pid::new(1), Vpn::new(12), Ppn::new(2));
        assert_eq!(r.lookup(Ppn::new(0)), None);
    }

    #[test]
    fn remap_supersedes_previous_owner() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(3));
        r.pte_clear(Pid::new(1), Vpn::new(10), Ppn::new(3));
        r.pte_set(Pid::new(2), Vpn::new(20), Ppn::new(3));
        let e = r.lookup(Ppn::new(3)).unwrap();
        assert_eq!((e.pid, e.vpn), (Pid::new(2), Vpn::new(20)));
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut r = rpt();
        r.bootstrap((0..100u64).map(|i| (Ppn::new(i), Pid::new(1), Vpn::new(i))));
        // First pass: all misses. Second pass: all hits.
        for i in 0..100u64 {
            r.lookup(Ppn::new(i));
        }
        for i in 0..100u64 {
            r.lookup(Ppn::new(i));
        }
        assert!((r.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_frame_is_unresolved() {
        let mut r = rpt();
        assert_eq!(r.lookup(Ppn::new(12345)), None);
        assert_eq!(r.stats().unresolved, 1);
    }
}
