//! Local DRAM frame allocation and ownership tracking.

use hopp_types::{Error, Pid, Ppn, Result, Vpn};

/// The pool of local physical frames.
///
/// Besides allocation, the allocator records which `(Pid, Vpn)` owns
/// each frame. That owner table is exactly the information the paper's
/// reverse page table stores, and it is what the RPT is initialized from
/// when HoPP starts (§III-C: "it traverses all existing page tables,
/// builds the mappings from PPN to the PID+VPN combo").
///
/// Fresh frames are handed out in ascending order, and freed frames are
/// reused most-recently-freed first (LIFO, which mimics the kernel's
/// per-cpu page caches well enough). Nothing is written per frame at
/// construction: the owner table's capacity is reserved, and a frame's
/// record is pushed when it is first handed out, so the table's length
/// is the bump pointer past the frames never handed out.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    /// `owner[ppn] = (allocated, pid, vpn)` for every frame handed out
    /// so far, `(false, 0, 0)` once freed.
    owner: Vec<(bool, u16, u64)>,
    /// Frames managed.
    total: usize,
    /// Freed frames, the most recently freed last.
    freed: Vec<Ppn>,
}

impl FrameAllocator {
    /// Creates an allocator managing `total` frames (frame indices
    /// `0..total`).
    pub fn new(total: usize) -> Self {
        FrameAllocator {
            owner: Vec::with_capacity(total),
            total,
            freed: Vec::new(),
        }
    }

    /// Total number of frames managed.
    pub fn capacity(&self) -> usize {
        self.total
    }

    /// Number of frames currently allocated.
    pub fn in_use(&self) -> usize {
        self.owner.len() - self.freed.len()
    }

    /// Allocates a frame for `(pid, vpn)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfFrames`] when every frame is in use — the
    /// caller (the kernel) is expected to reclaim first.
    pub fn alloc(&mut self, pid: Pid, vpn: Vpn) -> Result<Ppn> {
        let owner = (true, pid.raw(), vpn.raw());
        if let Some(ppn) = self.freed.pop() {
            self.owner[ppn.index()] = owner;
            return Ok(ppn);
        }
        if self.owner.len() == self.total {
            return Err(Error::OutOfFrames);
        }
        self.owner.push(owner);
        Ok(Ppn::from_index(self.owner.len() - 1))
    }

    /// Releases a frame back to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FrameNotOwned`] if the frame was not allocated.
    pub fn free(&mut self, ppn: Ppn) -> Result<()> {
        match self.owner.get_mut(ppn.index()) {
            Some(owner) if owner.0 => *owner = (false, 0, 0),
            _ => return Err(Error::FrameNotOwned { ppn }),
        }
        self.freed.push(ppn);
        Ok(())
    }

    /// The `(pid, vpn)` that owns `ppn`, if allocated.
    pub fn owner(&self, ppn: Ppn) -> Option<(Pid, Vpn)> {
        match self.owner.get(ppn.index()) {
            Some(&(true, pid, vpn)) => Some((Pid::new(pid), Vpn::new(vpn))),
            _ => None,
        }
    }

    /// Iterates over all allocated frames and their owners, in frame
    /// order. Used to build the initial RPT.
    pub fn iter_owned(&self) -> impl Iterator<Item = (Ppn, Pid, Vpn)> + '_ {
        (0..self.owner.len())
            .map(Ppn::from_index)
            .filter_map(|ppn| self.owner(ppn).map(|(pid, vpn)| (ppn, pid, vpn)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut fa = FrameAllocator::new(2);
        assert_eq!(fa.capacity(), 2);
        let a = fa.alloc(Pid::new(1), Vpn::new(10)).unwrap();
        let b = fa.alloc(Pid::new(1), Vpn::new(11)).unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.in_use(), 2);
        assert!(matches!(
            fa.alloc(Pid::new(1), Vpn::new(12)),
            Err(Error::OutOfFrames)
        ));
        fa.free(a).unwrap();
        assert_eq!(fa.capacity() - fa.in_use(), 1);
        let c = fa.alloc(Pid::new(2), Vpn::new(20)).unwrap();
        assert_eq!(c, a, "LIFO reuse of the freed frame");
        assert_eq!(fa.owner(c), Some((Pid::new(2), Vpn::new(20))));
    }

    #[test]
    fn double_free_is_an_error() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc(Pid::new(1), Vpn::new(1)).unwrap();
        fa.free(a).unwrap();
        assert!(matches!(fa.free(a), Err(Error::FrameNotOwned { .. })));
    }

    #[test]
    fn free_of_out_of_range_frame_is_an_error() {
        let mut fa = FrameAllocator::new(1);
        assert!(fa.free(Ppn::new(99)).is_err());
    }

    #[test]
    fn owner_table_tracks_allocations() {
        let mut fa = FrameAllocator::new(4);
        let p0 = fa.alloc(Pid::new(1), Vpn::new(100)).unwrap();
        let p1 = fa.alloc(Pid::new(2), Vpn::new(200)).unwrap();
        assert_eq!(fa.owner(p0), Some((Pid::new(1), Vpn::new(100))));
        assert_eq!(fa.owner(p1), Some((Pid::new(2), Vpn::new(200))));
        let owned: Vec<_> = fa.iter_owned().collect();
        assert_eq!(owned.len(), 2);
        fa.free(p0).unwrap();
        assert_eq!(fa.owner(p0), None);
        assert_eq!(fa.iter_owned().count(), 1);
    }

    #[test]
    fn freed_frames_are_reused_before_fresh_ones_most_recent_first() {
        let mut fa = FrameAllocator::new(6);
        let p: Vec<Ppn> = (0..4)
            .map(|v| fa.alloc(Pid::new(1), Vpn::new(v)).unwrap())
            .collect();
        fa.free(p[1]).unwrap();
        fa.free(p[3]).unwrap();
        let order: Vec<Ppn> = (0..4)
            .map(|v| fa.alloc(Pid::new(2), Vpn::new(v)).unwrap())
            .collect();
        assert_eq!(order, [p[3], p[1], Ppn::new(4), Ppn::new(5)]);
        assert_eq!(fa.capacity() - fa.in_use(), 0);
    }

    #[test]
    fn frame_zero_is_handed_out_first() {
        let mut fa = FrameAllocator::new(3);
        assert_eq!(fa.alloc(Pid::new(1), Vpn::new(0)).unwrap(), Ppn::new(0));
        assert_eq!(fa.alloc(Pid::new(1), Vpn::new(1)).unwrap(), Ppn::new(1));
    }
}
