//! A register-transfer-level model of the RPT cache.
//!
//! Companion to [`crate::rtl`] (the HPD's RTL model): the second module
//! the paper implements in Verilog for §VI-F. The cache is 16-way
//! set-associative over 64-bit entries in the paper's exact layout —
//! PID (16 bits), VPN (40 bits), shared flag (1 bit), huge flags
//! (2 bits), the [`PackedRptEntry`] the behavioural model stores too —
//! plus per-way valid/dirty registers and 4-bit ages.
//!
//! Unlike the behavioural [`crate::rpt::ReversePageTable`], which hides
//! the DRAM round trip inside `lookup`, the RTL model exposes the
//! memory interface as an explicit handshake, the way the hardware
//! would:
//!
//! ```text
//!   lookup(ppn)  ─►  Hit(entry)                         (same cycle)
//!                └─►  Miss { dram_read: ppn }            (port request)
//!   dram_response(ppn, entry?)  ─►  fill + forward
//!   (evictions of dirty ways surface as DramWrite requests)
//! ```
//!
//! The MC stalls nothing while a miss is outstanding: hot pages that
//! miss the cache are parked in a small MSHR-style register until the
//! DRAM responds, exactly one outstanding miss per hot page.

use hopp_types::{PageFlags, Pid, Ppn, Result, Vpn};

use crate::rpt::{PackedRptEntry, RptCacheConfig, RptEntry, RPT_ENTRY_BYTES};
use crate::rtl::victim_way;

/// Result of a lookup issued to the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RptRtlResponse {
    /// Tag match: the combo is available in the same cycle.
    Hit(RptEntry),
    /// Tag miss: the cache has issued a DRAM read for this PPN; the
    /// caller must eventually answer via
    /// [`RptRtl::dram_response`].
    Miss,
}

/// A dirty entry written back to the DRAM RPT on eviction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramWrite {
    /// The frame whose mapping is being written back.
    pub ppn: Ppn,
    /// The packed entry (`None` encodes an invalidated mapping: the
    /// DRAM row is cleared).
    pub entry: Option<PackedRptEntry>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    ppn: Ppn,
    entry: Option<PackedRptEntry>, // None = cached "no mapping"
    valid: bool,
    dirty: bool,
    age: u8,
}

/// The RTL-style RPT cache.
///
/// # Example
///
/// ```
/// use hopp_hw::rtl_rpt::{RptRtl, RptRtlResponse};
/// use hopp_hw::rpt::{RptCacheConfig, RptEntry};
/// use hopp_types::{PageFlags, Pid, Ppn, Vpn};
///
/// let mut cache = RptRtl::new(RptCacheConfig::default())?;
/// // First lookup misses and requests the DRAM row.
/// assert_eq!(cache.lookup(Ppn::new(9)), RptRtlResponse::Miss);
/// // The memory controller answers; the mapping is forwarded and filled.
/// let entry = RptEntry { pid: Pid::new(1), vpn: Vpn::new(0x90), flags: PageFlags::default() };
/// assert_eq!(cache.dram_response(Ppn::new(9), Some(entry)), Some(entry));
/// // Now it hits.
/// assert_eq!(cache.lookup(Ppn::new(9)), RptRtlResponse::Hit(entry));
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct RptRtl {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    /// Outstanding miss registers (MSHRs): PPNs awaiting DRAM data.
    mshr: Vec<Ppn>,
    /// Dirty evictions waiting to drain to DRAM.
    writeback_queue: Vec<DramWrite>,
    hits: u64,
    misses: u64,
}

/// MSHR capacity: how many distinct misses may be outstanding. Hot
/// pages arrive at most one per N LLC misses, so a handful suffices.
pub const MSHR_ENTRIES: usize = 4;

impl RptRtl {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`hopp_types::Error::InvalidConfig`] for invalid geometry.
    pub fn new(config: RptCacheConfig) -> Result<Self> {
        let sets = config.sets()?;
        Ok(RptRtl {
            sets: vec![vec![Way::default(); config.ways]; sets],
            set_mask: sets as u64 - 1,
            mshr: Vec::with_capacity(MSHR_ENTRIES),
            writeback_queue: Vec::new(),
            hits: 0,
            misses: 0,
        })
    }

    fn set_of(&self, ppn: Ppn) -> usize {
        (ppn.raw() & self.set_mask) as usize
    }

    fn age_touch(set: &mut [Way], way: usize) {
        for (w, e) in set.iter_mut().enumerate() {
            if w == way {
                e.age = 0;
            } else {
                e.age = e.age.saturating_add(1).min(15);
            }
        }
    }

    /// Looks up a hot PPN. On a miss, a DRAM read is implicitly issued
    /// and an MSHR is allocated (duplicate misses collapse into one).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MSHR_ENTRIES`] distinct misses are
    /// outstanding — the hardware would apply backpressure; the model
    /// treats it as a protocol violation by the caller.
    pub fn lookup(&mut self, ppn: Ppn) -> RptRtlResponse {
        let set_idx = self.set_of(ppn);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter().position(|w| w.valid && w.ppn == ppn) {
            Self::age_touch(set, way);
            self.hits += 1;
            // A cached "no mapping" is still a hit for the tag array; it
            // resolves to a dropped hot page upstream, encoded here as a
            // kernel-owned entry.
            return match set[way].entry {
                Some(packed) => RptRtlResponse::Hit(packed.unpack()),
                None => RptRtlResponse::Hit(RptEntry {
                    pid: Pid::KERNEL,
                    vpn: Vpn::new(0),
                    flags: PageFlags::default(),
                }),
            };
        }
        self.misses += 1;
        if !self.mshr.contains(&ppn) {
            assert!(
                self.mshr.len() < MSHR_ENTRIES,
                "MSHR overflow: caller must drain dram_response first"
            );
            self.mshr.push(ppn);
        }
        RptRtlResponse::Miss
    }

    /// Delivers the DRAM row for an outstanding miss: fills the cache
    /// (possibly queueing a dirty writeback) and returns the entry to
    /// forward to software (`None` for an unmapped frame).
    ///
    /// Responses for PPNs with no outstanding MSHR are ignored (a
    /// response that raced with an invalidation).
    pub fn dram_response(&mut self, ppn: Ppn, entry: Option<RptEntry>) -> Option<RptEntry> {
        let pos = self.mshr.iter().position(|p| *p == ppn)?;
        self.mshr.swap_remove(pos);
        self.fill(ppn, entry.map(PackedRptEntry::pack), false);
        entry
    }

    /// `set_pte_at` hook: write-allocate the new mapping, dirty.
    pub fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        let packed = PackedRptEntry::pack(RptEntry {
            pid,
            vpn,
            flags: PageFlags::default(),
        });
        self.update(ppn, Some(packed));
    }

    /// `pte_clear` hook: record the unmapping, dirty.
    pub fn pte_clear(&mut self, ppn: Ppn) {
        self.update(ppn, None);
    }

    fn update(&mut self, ppn: Ppn, entry: Option<PackedRptEntry>) {
        let set_idx = self.set_of(ppn);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter().position(|w| w.valid && w.ppn == ppn) {
            set[way].entry = entry;
            set[way].dirty = true;
            Self::age_touch(set, way);
        } else {
            self.fill(ppn, entry, true);
        }
    }

    fn fill(&mut self, ppn: Ppn, entry: Option<PackedRptEntry>, dirty: bool) {
        let set_idx = self.set_of(ppn);
        let set = &mut self.sets[set_idx];
        let victim = victim_way(
            set.iter()
                .map(|w| if w.valid { u16::from(w.age) } else { u16::MAX }),
        );
        let old = set[victim];
        if old.valid && old.dirty {
            self.writeback_queue.push(DramWrite {
                ppn: old.ppn,
                entry: old.entry,
            });
        }
        set[victim] = Way {
            ppn,
            entry,
            valid: true,
            dirty,
            age: 0,
        };
        Self::age_touch(set, victim);
        // age_touch reset the victim and aged the rest; re-zero victim.
        set[victim].age = 0;
    }

    /// Drains one pending dirty writeback (the DRAM write port).
    pub fn pop_writeback(&mut self) -> Option<DramWrite> {
        self.writeback_queue.pop()
    }

    /// Hit rate over lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total state bits: `ways × sets × (64 + tag + valid + dirty +
    /// age)` — the feasibility figure for CACTI.
    pub fn state_bits(&self, config: &RptCacheConfig) -> u64 {
        let entries = (config.capacity_bytes / RPT_ENTRY_BYTES) as u64;
        // 64 data bits + 52-bit tag + valid + dirty + 4-bit age.
        entries * (64 + 52 + 1 + 1 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pid: u16, vpn: u64) -> RptEntry {
        RptEntry {
            pid: Pid::new(pid),
            vpn: Vpn::new(vpn),
            flags: PageFlags::default(),
        }
    }

    fn small() -> RptRtl {
        // 1 set x 2 ways.
        RptRtl::new(RptCacheConfig {
            capacity_bytes: 2 * RPT_ENTRY_BYTES,
            ways: 2,
        })
        .unwrap()
    }

    /// Equal victim keys go to the highest way: an empty set fills
    /// from its last way down.
    #[test]
    fn victim_ties_go_to_the_highest_way() {
        let mut c = small();
        c.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(0));
        assert_eq!(c.sets[0][1].ppn, Ppn::new(0));
        c.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        assert_eq!(c.sets[0][0].ppn, Ppn::new(1));
    }

    #[test]
    fn miss_fill_hit_handshake() {
        let mut c = RptRtl::new(RptCacheConfig::default()).unwrap();
        assert_eq!(c.lookup(Ppn::new(5)), RptRtlResponse::Miss);
        assert_eq!(c.mshr.len(), 1);
        // A duplicate miss does not allocate a second MSHR.
        assert_eq!(c.lookup(Ppn::new(5)), RptRtlResponse::Miss);
        assert_eq!(c.mshr.len(), 1);
        let e = entry(3, 0x50);
        assert_eq!(c.dram_response(Ppn::new(5), Some(e)), Some(e));
        assert_eq!(c.mshr.len(), 0);
        assert_eq!(c.lookup(Ppn::new(5)), RptRtlResponse::Hit(e));
    }

    #[test]
    fn unsolicited_dram_response_is_ignored() {
        let mut c = RptRtl::new(RptCacheConfig::default()).unwrap();
        assert_eq!(c.dram_response(Ppn::new(9), Some(entry(1, 1))), None);
    }

    #[test]
    #[should_panic]
    fn mshr_overflow_is_a_protocol_violation() {
        let mut c = RptRtl::new(RptCacheConfig::default()).unwrap();
        for p in 0..=MSHR_ENTRIES as u64 {
            c.lookup(Ppn::new(p));
        }
    }

    #[test]
    fn dirty_eviction_surfaces_on_the_write_port() {
        let mut c = small();
        c.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(0));
        c.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        assert!(c.pop_writeback().is_none(), "no eviction yet");
        // Third fill evicts the oldest dirty way.
        c.pte_set(Pid::new(1), Vpn::new(12), Ppn::new(2));
        let wb = c.pop_writeback().expect("dirty victim written back");
        assert_eq!(wb.ppn, Ppn::new(0));
        assert_eq!(wb.entry.unwrap().unpack().vpn, Vpn::new(10));
    }

    #[test]
    fn pte_clear_writes_back_a_tombstone() {
        let mut c = small();
        c.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(0));
        c.pte_clear(Ppn::new(0));
        // Evict it.
        c.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        c.pte_set(Pid::new(1), Vpn::new(12), Ppn::new(2));
        let wb = c.pop_writeback().unwrap();
        assert_eq!(wb.ppn, Ppn::new(0));
        assert!(wb.entry.is_none(), "cleared mapping clears the DRAM row");
    }

    #[test]
    fn hit_rate_matches_behavioural_regime() {
        // Same access pattern as the behavioural hit-rate test: two
        // passes over 100 frames with a default cache — second pass all
        // hits.
        let mut c = RptRtl::new(RptCacheConfig::default()).unwrap();
        for pass in 0..2 {
            for p in 0..100u64 {
                match c.lookup(Ppn::new(p)) {
                    RptRtlResponse::Miss => {
                        assert_eq!(pass, 0, "second pass must hit");
                        c.dram_response(Ppn::new(p), Some(entry(1, p)));
                    }
                    RptRtlResponse::Hit(e) => {
                        assert_eq!(e.vpn, Vpn::new(p));
                    }
                }
            }
        }
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn state_bits_scale_with_capacity() {
        let c = RptRtl::new(RptCacheConfig::default()).unwrap();
        let full = c.state_bits(&RptCacheConfig::default());
        let half = c.state_bits(&RptCacheConfig::with_kib(32));
        assert_eq!(full, 2 * half);
        // 64 KB of entries costs ~1.9x its data size in total state.
        assert!(full / 8 < 2 * 64 * 1024);
    }
}
