//! The (remote) swap device: slot allocation and the slot → page map.
//!
//! Swap slots are handed out in allocation order, so pages evicted
//! together occupy adjacent slots. Fastswap's readahead exploits exactly
//! this adjacency — it prefetches the pages stored in neighbouring
//! slots — which is why the device keeps a reverse map from slot to the
//! page stored there. Slots are minted densely from 0 and reused, so
//! that map is a slot-indexed table.

use hopp_types::{Error, Pid, Result, SwapSlot, Vpn};

use crate::prefetcher::SlotView;

/// Swap-slot allocator and directory.
#[derive(Clone, Debug, Default)]
pub struct SwapDevice {
    /// `contents[slot]`: the page stored in each slot minted so far.
    contents: Vec<Option<(Pid, Vpn)>>,
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
        let _prof = hopp_prof::span("kernel/swap_alloc");
        if let Some(cap) = self.capacity {
            if self.used >= cap {
                return Err(Error::RemoteMemoryExhausted {
                    capacity_pages: cap,
                });
            }
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.contents.push(None);
            SwapSlot::from_index(self.contents.len() - 1)
        });
        self.contents[slot.index()] = Some((pid, vpn));
        self.used += 1;
        Ok(slot)
    }

    /// Releases a slot once its page has been read back in.
    ///
    /// Unknown slots are ignored (the page may have been freed twice by
    /// racing paths in a real kernel; here it is simply idempotent).
    pub fn free(&mut self, slot: SwapSlot) {
        if let Some(page) = self.contents.get_mut(slot.index()) {
            if page.take().is_some() {
                self.free.push(slot);
                self.used -= 1;
            }
        }
    }

    /// The number of pages currently swapped out.
    pub fn used_slots(&self) -> usize {
        self.used
    }

    /// Highest slot index ever allocated (device footprint).
    pub fn high_water(&self) -> u64 {
        self.contents.len() as u64
    }
}

impl SlotView for SwapDevice {
    fn page_at(&self, slot: SwapSlot) -> Option<(Pid, Vpn)> {
        self.contents.get(slot.index()).copied().flatten()
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
        assert_eq!(dev.high_water(), 1);
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

    /// Seeded alloc/free/`page_at` traffic against a `BTreeMap`
    /// directory and a LIFO free list: same slots, same pages, same
    /// exhaustion.
    #[test]
    fn directory_matches_a_btreemap_model() {
        use hopp_types::rng::SplitMix64;
        use std::collections::BTreeMap;
        const CAP: usize = 48;
        for seed in [1, 7, 42] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut dev = SwapDevice::with_capacity(CAP);
            let mut model: BTreeMap<SwapSlot, (Pid, Vpn)> = BTreeMap::new();
            let mut freed: Vec<SwapSlot> = Vec::new();
            let mut minted = 0;
            for op in 0..4_000usize {
                let slot = SwapSlot::new(rng.gen_range(0..minted + 4));
                match rng.gen_range(0..3) {
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
                    }
                    _ => {
                        assert_eq!(dev.page_at(slot), model.get(&slot).copied());
                    }
                }
                assert_eq!(dev.used_slots(), model.len(), "seed {seed} op {op}");
                assert_eq!(dev.high_water(), minted);
            }
        }
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
