//! The (remote) swap device: slot allocation, the slot → page map and
//! the swapcache.
//!
//! Swap slots are handed out in allocation order, so pages evicted
//! together occupy adjacent slots. Fastswap's readahead exploits exactly
//! this adjacency — it prefetches the pages stored in neighbouring
//! slots — which is why the device keeps a reverse map from slot to the
//! page stored there. Slots are minted densely from 0 and reused, so
//! that map is a slot-indexed table.
//!
//! The swapcache lives in the same table. A page fetched ahead of its
//! fault gets a local frame but no PTE; as in Linux, which indexes the
//! swapcache by swap entry, the slot it came from records that frame
//! until a fault maps it (a *minor* fault, 2.3 µs instead of a remote
//! round trip) or reclaim drops it. HoPP bypasses the swapcache for its
//! own prefetches: early PTE injection turns would-be prefetch-hits into
//! plain DRAM hits, one of its headline wins (§II-C).
//!
//! A read in flight is a slot state too. As in Linux, where a faulting
//! access blocks on the IO of its swap entry's page, the slot records
//! which read — the fault-path prefetcher's or HoPP's — is bringing its
//! page in, until a swapcache fill or freeing the slot ends it.

use hopp_types::{Error, Pid, Ppn, Result, SwapSlot, Vpn};

use crate::lru::MAX_FRAMES;
use crate::prefetcher::SlotView;

/// One slot's record: 16 bytes, so the swapcache and the in-flight
/// state cost the directory no extra memory.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    vpn: Vpn,
    /// The swapcache frame holding the page's data as `ppn + 1`
    /// (0 = not cached).
    cached: u32,
    pid: Pid,
    /// [`USED`] and the [`InflightRead`] bits.
    flags: u8,
}

/// [`Slot::flags`]: the slot holds a page.
const USED: u8 = 1;

/// A read that brings a swapped-out page in ahead of its fault; the
/// discriminant is its bit in the swap slot's flags byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum InflightRead {
    /// The fault-path (baseline) prefetcher's read.
    Baseline = 2,
    /// HoPP's read, one page or a huge-page batch.
    Hopp = 4,
}

/// Swap-slot allocator, directory and swapcache.
#[derive(Clone, Debug, Default)]
pub struct SwapDevice {
    /// `slots[slot]`: every slot minted so far.
    slots: Vec<Slot>,
    /// Freed slots, the most recently freed last.
    free: Vec<SwapSlot>,
    /// Slots currently holding a page.
    used: usize,
    /// Remote node capacity in pages (`None` = unbounded). The paper's
    /// memory node offers 6 x 8 GB of DRAM; exhausting it is an
    /// operator error this surfaces.
    capacity: Option<usize>,
}

impl SwapDevice {
    /// Creates a device with unbounded capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a device backed by a remote node holding at most
    /// `capacity_pages` pages.
    pub fn with_capacity(capacity_pages: usize) -> Self {
        SwapDevice {
            capacity: Some(capacity_pages),
            ..Self::default()
        }
    }

    /// Allocates a slot for a page being swapped out. Freed slots are
    /// reused (LIFO) before fresh ones are minted, as in the kernel's
    /// swap map scan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RemoteMemoryExhausted`] when the remote node is
    /// at capacity.
    pub fn alloc(&mut self, pid: Pid, vpn: Vpn) -> Result<SwapSlot> {
        let _prof = hopp_prof::span(hopp_prof::SpanId::KernelSwapAlloc);
        if let Some(cap) = self.capacity {
            if self.used >= cap {
                return Err(Error::RemoteMemoryExhausted {
                    capacity_pages: cap,
                });
            }
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            SwapSlot::from_index(self.slots.len() - 1)
        });
        self.slots[slot.index()] = Slot {
            vpn,
            cached: 0,
            pid,
            flags: USED,
        };
        self.used += 1;
        Ok(slot)
    }

    /// Releases a slot once its page has been read back in; a
    /// swapcache frame the slot recorded leaves the swapcache with it,
    /// and its in-flight flags are cleared.
    ///
    /// Unknown slots are ignored (the page may have been freed twice by
    /// racing paths in a real kernel; here it is simply idempotent).
    pub fn free(&mut self, slot: SwapSlot) {
        if let Some(s) = self.used_mut(slot) {
            *s = Slot::default();
            self.free.push(slot);
            self.used -= 1;
        }
    }

    /// Records that frame `ppn` holds a local copy of `slot`'s page (a
    /// swapcache fill), which ends any read in flight for it. Ignored for
    /// a slot holding no page.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is not below [`MAX_FRAMES`].
    pub fn cache(&mut self, slot: SwapSlot, ppn: Ppn) {
        assert!(ppn.index() < MAX_FRAMES, "{ppn:?} beyond the frame range");
        if let Some(s) = self.used_mut(slot) {
            s.cached = (ppn.index() + 1) as u32;
            s.flags = USED;
        }
    }

    /// The swapcache frame holding `slot`'s page, if any.
    pub fn cached(&self, slot: SwapSlot) -> Option<Ppn> {
        match self.slots.get(slot.index()) {
            Some(s) if s.cached != 0 => Some(Ppn::from_index(s.cached as usize - 1)),
            _ => None,
        }
    }

    /// Removes `slot`'s page from the swapcache and returns its frame.
    /// The slot keeps the page: the swap copy stays valid.
    pub fn take_cached(&mut self, slot: SwapSlot) -> Option<Ppn> {
        let ppn = self.cached(slot)?;
        self.slots[slot.index()].cached = 0;
        Some(ppn)
    }

    /// The number of slots whose page is in the swapcache (a scan of
    /// every slot, for consistency checks).
    pub fn cached_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.cached != 0).count()
    }

    /// Records that `read` is bringing `slot`'s page in. Ignored for a
    /// slot holding no page.
    pub fn set_inflight(&mut self, slot: SwapSlot, read: InflightRead) {
        if let Some(s) = self.used_mut(slot) {
            s.flags |= read as u8;
        }
    }

    /// Whether `read` is bringing `slot`'s page in.
    pub fn is_inflight(&self, slot: SwapSlot, read: InflightRead) -> bool {
        self.slots
            .get(slot.index())
            .is_some_and(|s| s.flags & read as u8 != 0)
    }

    /// `slot`'s record, if the slot holds a page.
    fn used_mut(&mut self, slot: SwapSlot) -> Option<&mut Slot> {
        let s = self.slots.get_mut(slot.index())?;
        (s.flags & USED != 0).then_some(s)
    }

    /// The number of pages currently swapped out.
    pub fn used_slots(&self) -> usize {
        self.used
    }
}

impl SlotView for SwapDevice {
    fn page_at(&self, slot: SwapSlot) -> Option<(Pid, Vpn)> {
        match self.slots.get(slot.index()) {
            Some(s) if s.flags & USED != 0 => Some((s.pid, s.vpn)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_sequential() {
        let mut dev = SwapDevice::new();
        let a = dev.alloc(Pid::new(1), Vpn::new(10)).unwrap();
        let b = dev.alloc(Pid::new(1), Vpn::new(11)).unwrap();
        assert_eq!(a, SwapSlot::new(0));
        assert_eq!(b, SwapSlot::new(1));
        assert_eq!(dev.page_at(a), Some((Pid::new(1), Vpn::new(10))));
        assert_eq!(dev.used_slots(), 2);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut dev = SwapDevice::new();
        let a = dev.alloc(Pid::new(1), Vpn::new(10)).unwrap();
        dev.free(a);
        assert_eq!(dev.page_at(a), None);
        let b = dev.alloc(Pid::new(2), Vpn::new(20)).unwrap();
        assert_eq!(b, a);
        assert_eq!(dev.page_at(b), Some((Pid::new(2), Vpn::new(20))));
        assert_eq!(dev.slots.len(), 1);
    }

    #[test]
    fn double_free_is_idempotent() {
        let mut dev = SwapDevice::new();
        let a = dev.alloc(Pid::new(1), Vpn::new(1)).unwrap();
        dev.free(a);
        dev.free(a);
        let b = dev.alloc(Pid::new(1), Vpn::new(2)).unwrap();
        let c = dev.alloc(Pid::new(1), Vpn::new(3)).unwrap();
        assert_ne!(b, c, "a double free must not hand the slot out twice");
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut dev = SwapDevice::with_capacity(2);
        let a = dev.alloc(Pid::new(1), Vpn::new(1)).unwrap();
        dev.alloc(Pid::new(1), Vpn::new(2)).unwrap();
        assert!(matches!(
            dev.alloc(Pid::new(1), Vpn::new(3)),
            Err(hopp_types::Error::RemoteMemoryExhausted { capacity_pages: 2 })
        ));
        // Freeing makes room again.
        dev.free(a);
        assert!(dev.alloc(Pid::new(1), Vpn::new(3)).is_ok());
    }

    /// Seeded alloc/free/cache/take/in-flight traffic against a
    /// `BTreeMap` directory and swapcache, a `BTreeSet` of in-flight
    /// flags and a LIFO free list: same slots, same pages, same cached
    /// frames, same flags (which a free or a swapcache fill clears),
    /// same exhaustion.
    #[test]
    fn directory_matches_a_btreemap_model() {
        use hopp_types::rng::SplitMix64;
        use std::collections::{BTreeMap, BTreeSet};
        const CAP: usize = 48;
        const READS: [InflightRead; 2] = [InflightRead::Baseline, InflightRead::Hopp];
        for seed in [1, 7, 42] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut dev = SwapDevice::with_capacity(CAP);
            let mut model: BTreeMap<SwapSlot, (Pid, Vpn)> = BTreeMap::new();
            let mut cache: BTreeMap<SwapSlot, Ppn> = BTreeMap::new();
            let mut inflight: BTreeSet<(SwapSlot, usize)> = BTreeSet::new();
            let mut freed: Vec<SwapSlot> = Vec::new();
            let mut minted = 0;
            for op in 0..4_000usize {
                let slot = SwapSlot::new(rng.gen_range(0..minted + 4));
                let read = rng.gen_range(0..2) as usize;
                match rng.gen_range(0..6) {
                    0 => {
                        let pid = [Pid::new(1), Pid::new(2), Pid::new(3)][op % 3];
                        let page = (pid, Vpn::new(op as u64));
                        let got = dev.alloc(page.0, page.1);
                        if model.len() >= CAP {
                            assert!(got.is_err(), "seed {seed} op {op}");
                            continue;
                        }
                        let want = freed.pop().unwrap_or_else(|| {
                            minted += 1;
                            SwapSlot::new(minted - 1)
                        });
                        assert_eq!(got.unwrap(), want, "seed {seed} op {op}");
                        model.insert(want, page);
                    }
                    1 => {
                        dev.free(slot);
                        if model.remove(&slot).is_some() {
                            freed.push(slot);
                        }
                        cache.remove(&slot);
                        inflight.retain(|&(s, _)| s != slot);
                    }
                    2 => {
                        let ppn = Ppn::new(rng.gen_range(0..1 << 20));
                        dev.cache(slot, ppn);
                        if model.contains_key(&slot) {
                            cache.insert(slot, ppn);
                            inflight.retain(|&(s, _)| s != slot);
                        }
                    }
                    3 => {
                        assert_eq!(dev.take_cached(slot), cache.remove(&slot));
                    }
                    4 => {
                        dev.set_inflight(slot, READS[read]);
                        if model.contains_key(&slot) {
                            inflight.insert((slot, read));
                        }
                    }
                    _ => {
                        assert_eq!(dev.page_at(slot), model.get(&slot).copied());
                        assert_eq!(dev.cached(slot), cache.get(&slot).copied());
                        for (r, &kind) in READS.iter().enumerate() {
                            assert_eq!(dev.is_inflight(slot, kind), inflight.contains(&(slot, r)));
                        }
                    }
                }
                assert_eq!(dev.used_slots(), model.len(), "seed {seed} op {op}");
                assert_eq!(dev.cached_slots(), cache.len(), "seed {seed} op {op}");
                assert_eq!(dev.slots.len() as u64, minted);
            }
        }
    }

    #[test]
    fn a_cached_frame_is_taken_once() {
        let mut dev = SwapDevice::new();
        let slot = dev.alloc(Pid::new(1), Vpn::new(100)).unwrap();
        assert_eq!(dev.cached(slot), None);
        dev.cache(slot, Ppn::new(7));
        assert_eq!(dev.cached(slot), Some(Ppn::new(7)));
        assert_eq!(dev.cached_slots(), 1);
        assert_eq!(dev.take_cached(slot), Some(Ppn::new(7)));
        assert_eq!(dev.take_cached(slot), None);
        assert_eq!(dev.cached_slots(), 0);
    }

    #[test]
    fn eviction_keeps_the_slot_and_a_hit_frees_it() {
        let mut dev = SwapDevice::new();
        let page = (Pid::new(1), Vpn::new(100));
        let evicted = dev.alloc(page.0, page.1).unwrap();
        let hit = dev.alloc(Pid::new(1), Vpn::new(101)).unwrap();
        dev.cache(evicted, Ppn::new(1));
        dev.cache(hit, Ppn::new(2));
        // Reclaim drops the local copy; the swap copy stays valid.
        assert_eq!(dev.take_cached(evicted), Some(Ppn::new(1)));
        assert_eq!(dev.page_at(evicted), Some(page));
        // A minor fault maps the cached frame and frees the slot, which
        // takes the page out of the swapcache with it.
        assert_eq!(dev.cached(hit), Some(Ppn::new(2)));
        dev.free(hit);
        assert_eq!(dev.cached(hit), None);
        assert_eq!(dev.page_at(hit), None);
        assert_eq!((dev.used_slots(), dev.cached_slots()), (1, 0));
    }

    #[test]
    fn caching_is_per_slot() {
        let mut dev = SwapDevice::new();
        let a = dev.alloc(Pid::new(1), Vpn::new(5)).unwrap();
        let b = dev.alloc(Pid::new(2), Vpn::new(5)).unwrap();
        dev.cache(a, Ppn::new(3));
        assert_eq!(dev.cached(b), None);
        // A slot holding no page caches nothing.
        dev.cache(SwapSlot::new(9), Ppn::new(4));
        assert_eq!(dev.cached(SwapSlot::new(9)), None);
        assert_eq!(dev.cached_slots(), 1);
    }

    #[test]
    fn a_slot_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn eviction_order_shows_in_adjacency() {
        let mut dev = SwapDevice::new();
        // Evict a stream of pages in order: their slots are adjacent.
        let slots: Vec<SwapSlot> = (0..5)
            .map(|i| dev.alloc(Pid::new(1), Vpn::new(100 + i)).unwrap())
            .collect();
        for w in slots.windows(2) {
            assert_eq!(w[1].raw(), w[0].raw() + 1);
        }
        // Readahead around slot 2 finds the stream's neighbours.
        assert_eq!(
            dev.page_at(slots[2].offset(1).unwrap()),
            Some((Pid::new(1), Vpn::new(103)))
        );
    }
}
