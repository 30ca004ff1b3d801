//! The frame table: one record per local DRAM frame, as the kernel's
//! `struct page` (the local-memory cap fixes the frame count, §III-C).
//! A record holds the frame's owner, its LRU links and list (owner
//! [`SWAPCACHE`] for swapcache pages, [`list_of`]`(i) = i + 1` for the
//! mapped pages of the simulator's `i`-th process record), its marks,
//! its pending prefetch's arrival time and HoPP stream, and its last
//! hot time under trace-assisted reclaim.
//! Zero means empty in every column, and a frame's record is pushed as
//! zeroes when the frame is first handed out, so building the table
//! only reserves memory: it writes nothing per frame. The marks are
//! exact: a frame is marked as a swapcache page exactly while its
//! owner's swap slot records it as cached, and as holding a pending
//! prefetch from the page's arrival until its first hit or its
//! reclaim. No other structure tracks either.

use hopp_core::three_tier::Tier;
use hopp_core::StreamId;
use hopp_kernel::LruLinks;
use hopp_mem::FrameAllocator;
use hopp_types::{Nanos, Pid, Ppn, Result, Vpn};

/// The list owner of the swapcache pages.
pub(crate) const SWAPCACHE: usize = 0;

/// The list owner of the mapped pages of the `i`-th process record.
pub(crate) const fn list_of(i: usize) -> usize {
    i + 1
}

/// Mark: the frame holds an uncharged swapcache page.
pub(crate) const IN_SWAPCACHE: u8 = 1;
/// Mark: a baseline prefetch of the frame's page is pending.
const BASE_PENDING: u8 = 1 << 1;
/// Marks: HoPP injected the frame's page and it is pending; the two
/// bits hold the injecting tier's index plus one.
const INJECTED_SHIFT: u8 = 2;
const INJECTED: u8 = 3 << INJECTED_SHIFT;

/// A tier's index into per-tier tables.
pub(crate) fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Simple => 0,
        Tier::Ladder => 1,
        Tier::Ripple => 2,
    }
}

/// A frame's pending prefetch: when its page arrived and, for a HoPP
/// injection, the injecting stream's [`StreamId::key`].
#[derive(Clone, Copy, Debug, Default)]
struct Prefetch {
    arrival: Nanos,
    stream: u64,
}

/// The simulator's per-frame records.
#[derive(Clone, Debug)]
pub(crate) struct FrameTable {
    pool: FrameAllocator,
    pub(crate) lru: LruLinks,
    marks: Vec<u8>,
    /// The pending prefetch of the frame's page, valid under
    /// [`BASE_PENDING`] (its arrival) or the injected marks (both).
    prefetch: Vec<Prefetch>,
    /// Last hot report as `ns + 1` (0 = never); empty unless
    /// trace-assisted reclaim is on.
    last_hot: Vec<u64>,
    track_hot: bool,
}

impl FrameTable {
    /// A table of `frames` free frames for `processes` processes.
    pub(crate) fn new(frames: usize, processes: usize, track_hot: bool) -> Self {
        FrameTable {
            pool: FrameAllocator::new(frames),
            // The swapcache list, then one list per process.
            lru: LruLinks::new(frames, processes + 1),
            marks: Vec::with_capacity(frames),
            prefetch: Vec::with_capacity(frames),
            last_hot: Vec::with_capacity(if track_hot { frames } else { 0 }),
            track_hot,
        }
    }

    /// Allocates a frame for `(pid, vpn)`; see [`FrameAllocator::alloc`].
    pub(crate) fn alloc(&mut self, pid: Pid, vpn: Vpn) -> Result<Ppn> {
        let ppn = self.pool.alloc(pid, vpn)?;
        if ppn.index() == self.marks.len() {
            self.marks.push(0);
            self.prefetch.push(Prefetch::default());
            if self.track_hot {
                self.last_hot.push(0);
            }
        }
        Ok(ppn)
    }

    /// The `(pid, vpn)` that owns `ppn`, if allocated.
    pub(crate) fn owner(&self, ppn: Ppn) -> Option<(Pid, Vpn)> {
        self.pool.owner(ppn)
    }

    /// Frames allocated.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn in_use(&self) -> usize {
        self.pool.in_use()
    }

    /// Frees `ppn` and clears its record.
    pub(crate) fn free(&mut self, ppn: Ppn) -> Result<()> {
        self.pool.free(ppn)?;
        self.lru.remove(ppn);
        let i = ppn.index();
        self.marks[i] = 0;
        if let Some(t) = self.last_hot.get_mut(i) {
            *t = 0;
        }
        Ok(())
    }

    /// Sets `mark` on `ppn`.
    pub(crate) fn mark(&mut self, ppn: Ppn, mark: u8) {
        self.marks[ppn.index()] |= mark;
    }

    /// Whether `mark` is set on `ppn`.
    pub(crate) fn has(&self, ppn: Ppn, mark: u8) -> bool {
        self.marks[ppn.index()] & mark != 0
    }

    /// Clears `mark` on `ppn`; returns whether it was set.
    pub(crate) fn take(&mut self, ppn: Ppn, mark: u8) -> bool {
        let was = self.has(ppn, mark);
        self.marks[ppn.index()] &= !mark;
        was
    }

    /// Records that a baseline prefetch brought `ppn`'s page in at
    /// `at` and is pending.
    pub(crate) fn mark_pending(&mut self, ppn: Ppn, at: Nanos) {
        self.marks[ppn.index()] |= BASE_PENDING;
        self.prefetch[ppn.index()].arrival = at;
    }

    /// Clears `ppn`'s baseline-pending mark; returns the page's arrival
    /// time, if it was set.
    pub(crate) fn take_pending(&mut self, ppn: Ppn) -> Option<Nanos> {
        self.take(ppn, BASE_PENDING)
            .then(|| self.prefetch[ppn.index()].arrival)
    }

    /// Records that HoPP's `stream` and `tier` injected `ppn`'s page,
    /// which arrived at `at`.
    pub(crate) fn mark_injected(&mut self, ppn: Ppn, stream: StreamId, tier: Tier, at: Nanos) {
        let i = ppn.index();
        self.prefetch[i] = Prefetch {
            arrival: at,
            stream: stream.key(),
        };
        self.marks[i] &= !INJECTED;
        self.marks[i] |= (tier_index(tier) as u8 + 1) << INJECTED_SHIFT;
    }

    /// Clears `ppn`'s injected mark; returns the stream and tier that
    /// injected it and the page's arrival time, if it was set.
    pub(crate) fn take_injected(&mut self, ppn: Ppn) -> Option<(StreamId, Tier, Nanos)> {
        let i = ppn.index();
        let tier = self.injected_tier(i);
        self.marks[i] &= !INJECTED;
        let Prefetch { arrival, stream } = self.prefetch[i];
        Some((StreamId::from_key(stream), tier?, arrival))
    }

    /// The tier that injected frame `i`'s page, if it is pending.
    fn injected_tier(&self, i: usize) -> Option<Tier> {
        let tier = usize::from((self.marks[i] & INJECTED) >> INJECTED_SHIFT);
        Tier::ALL.get(tier.checked_sub(1)?).copied()
    }

    /// Moves `from`'s prefetch marks to `to`, which now holds its page.
    pub(crate) fn inherit_marks(&mut self, from: Ppn, to: Ppn) {
        let (f, t) = (from.index(), to.index());
        self.marks[t] |= self.marks[f] & (BASE_PENDING | INJECTED);
        self.prefetch[t] = self.prefetch[f];
    }

    /// Frames with a pending baseline prefetch, and with a pending HoPP
    /// injection per tier (a scan, for consistency checks; freed frames
    /// carry no marks).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn pending_counts(&self) -> (usize, [usize; 3]) {
        let mut base = 0;
        let mut tiers = [0; 3];
        for (i, &marks) in self.marks.iter().enumerate() {
            base += usize::from(marks & BASE_PENDING != 0);
            if let Some(tier) = self.injected_tier(i) {
                tiers[tier_index(tier)] += 1;
            }
        }
        (base, tiers)
    }

    /// Allocated frames marked as swapcache pages, with their owners
    /// (a scan, for consistency checks).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn swapcache_frames(&self) -> impl Iterator<Item = (Ppn, Pid, Vpn)> + '_ {
        (0..self.marks.len()).filter_map(|i| {
            let ppn = Ppn::from_index(i);
            let (pid, vpn) = self.pool.owner(ppn)?;
            self.has(ppn, IN_SWAPCACHE).then_some((ppn, pid, vpn))
        })
    }

    /// Every frame handed out so far, with the owner of the page it
    /// maps: `None` for a swapcache page or a free frame (a scan, for
    /// consistency checks).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn mapped_owners(&self) -> impl Iterator<Item = (Ppn, Option<(Pid, Vpn)>)> + '_ {
        (0..self.marks.len()).map(|i| {
            let ppn = Ppn::from_index(i);
            let owner = self
                .pool
                .owner(ppn)
                .filter(|_| !self.has(ppn, IN_SWAPCACHE));
            (ppn, owner)
        })
    }

    /// Records that the MC reported `ppn` hot at `at` (trace-assisted
    /// reclaim only; a no-op otherwise).
    pub(crate) fn set_hot(&mut self, ppn: Ppn, at: Nanos) {
        if let Some(t) = self.last_hot.get_mut(ppn.index()) {
            *t = at.as_nanos().saturating_add(1);
        }
    }

    /// When the MC last reported `ppn` hot.
    pub(crate) fn last_hot(&self, ppn: Ppn) -> Option<Nanos> {
        match self.last_hot.get(ppn.index()) {
            Some(&t) if t != 0 => Some(Nanos::from_nanos(t - 1)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_kernel::LruTier;
    use hopp_types::Vpn;

    #[test]
    fn a_freed_frame_comes_back_with_an_empty_record() {
        let mut ft = FrameTable::new(2, 1, true);
        let ppn = ft.alloc(Pid::new(3), Vpn::new(9)).unwrap();
        ft.lru.insert(list_of(0), ppn, LruTier::Active);
        ft.mark(ppn, IN_SWAPCACHE);
        ft.mark_pending(ppn, Nanos::from_nanos(3));
        ft.mark_injected(
            ppn,
            StreamId::from_key(7 << 16 | 5),
            Tier::Ripple,
            Nanos::ZERO,
        );
        ft.set_hot(ppn, Nanos::ZERO);
        assert_eq!(ft.last_hot(ppn), Some(Nanos::ZERO));
        ft.free(ppn).unwrap();
        assert_eq!(ft.lru.total_len(), 0);
        let again = ft.alloc(Pid::new(3), Vpn::new(10)).unwrap();
        assert_eq!(again, ppn, "LIFO reuse");
        assert!(!ft.has(again, IN_SWAPCACHE));
        assert_eq!(ft.take_pending(again), None);
        assert_eq!(ft.take_injected(again), None);
        assert_eq!(ft.last_hot(again), None);
    }

    #[test]
    fn injected_marks_keep_stream_and_tier() {
        let mut ft = FrameTable::new(1, 1, false);
        let ppn = ft.alloc(Pid::new(1), Vpn::new(0)).unwrap();
        let stream = StreamId::from_key(u64::from(u32::MAX) << 16 | 63);
        for (at, tier) in Tier::ALL.into_iter().enumerate() {
            let at = Nanos::from_nanos(at as u64);
            ft.mark_injected(ppn, stream, tier, at);
            assert_eq!(ft.pending_counts().1[tier_index(tier)], 1);
            assert_eq!(ft.take_injected(ppn), Some((stream, tier, at)));
            assert_eq!(ft.take_injected(ppn), None);
        }
        ft.mark_pending(ppn, Nanos::from_nanos(9));
        assert_eq!(ft.pending_counts(), (1, [0; 3]));
        assert_eq!(ft.take_pending(ppn), Some(Nanos::from_nanos(9)));
        assert_eq!(ft.take_pending(ppn), None);
        // Without trace-assisted reclaim nothing is remembered.
        ft.set_hot(ppn, Nanos::from_nanos(5));
        assert_eq!(ft.last_hot(ppn), None);
    }
}
