//! The (remote) swap device: slot allocation and the slot → page map.
//!
//! Swap slots are handed out in allocation order, so pages evicted
//! together occupy adjacent slots. Fastswap's readahead exploits exactly
//! this adjacency — it prefetches the pages stored in neighbouring
//! slots — which is why the device keeps a reverse map from slot to the
//! page stored there.

use hopp_ds::DetMap;
use hopp_types::{Error, Pid, Result, SwapSlot, Vpn};

use crate::prefetcher::SlotView;

/// Swap-slot allocator and directory.
#[derive(Clone, Debug, Default)]
pub struct SwapDevice {
    next: u64,
    free: Vec<SwapSlot>,
    contents: DetMap<SwapSlot, (Pid, Vpn)>,
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
            if self.contents.len() >= cap {
                return Err(Error::RemoteMemoryExhausted {
                    capacity_pages: cap,
                });
            }
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            let s = SwapSlot::new(self.next);
            self.next += 1;
            s
        });
        self.contents.insert(slot, (pid, vpn));
        Ok(slot)
    }

    /// Releases a slot once its page has been read back in.
    ///
    /// Unknown slots are ignored (the page may have been freed twice by
    /// racing paths in a real kernel; here it is simply idempotent).
    pub fn free(&mut self, slot: SwapSlot) {
        if self.contents.remove(&slot).is_some() {
            self.free.push(slot);
        }
    }

    /// The number of pages currently swapped out.
    pub fn used_slots(&self) -> usize {
        self.contents.len()
    }

    /// Highest slot index ever allocated (device footprint).
    pub fn high_water(&self) -> u64 {
        self.next
    }
}

impl SlotView for SwapDevice {
    fn page_at(&self, slot: SwapSlot) -> Option<(Pid, Vpn)> {
        self.contents.get(&slot).copied()
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
