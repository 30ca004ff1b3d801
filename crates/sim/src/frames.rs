//! The frame table: one record per local DRAM frame, as the kernel's
//! `struct page` (the local-memory cap fixes the frame count, §III-C).
//! A record holds the frame's owner, its LRU links and list (owner
//! [`SWAPCACHE`] for swapcache pages, [`list_of`]`(i) = i + 1` for the
//! mapped pages of the simulator's `i`-th process record), its marks
//! (the [`Source`] of its pending prefetch), that prefetch's arrival
//! time and HoPP stream, and its last hot time under trace-assisted
//! reclaim.
//! Zero means empty in every column, and a frame's record is pushed as
//! zeroes when the frame is first handed out, so building the table
//! only reserves memory: it writes nothing per frame. The list a frame
//! is on is the one record of what it holds: a frame holds a swapcache
//! page exactly while it is on the [`SWAPCACHE`] list, which is exactly
//! while its owner's swap slot records it as cached, and a process's
//! list is as long as its cgroup's charge. The marks are exact too: a
//! frame names one prefetch source from the page's arrival until its
//! first hit or its reclaim (no page is prefetched twice at once), and
//! nothing else tracks that.

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

/// Who issued a prefetch: the fault-path baseline (Depth-N's injections
/// included) or one of HoPP's tiers. Every step of a prefetch's life is
/// counted in its source's row of per-source tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Source {
    Baseline,
    Hopp(Tier),
}

impl Source {
    /// Every source, in [`Source::index`] order.
    pub(crate) const ALL: [Source; 4] = [
        Source::Baseline,
        Source::Hopp(Tier::Simple),
        Source::Hopp(Tier::Ladder),
        Source::Hopp(Tier::Ripple),
    ];

    /// The source's row in per-source tables: the baseline's first,
    /// then HoPP's tiers in [`Tier::ALL`] order.
    pub(crate) fn index(self) -> usize {
        match self {
            Source::Baseline => 0,
            Source::Hopp(tier) => 1 + tier as usize,
        }
    }
}

/// A frame's pending prefetch: when its page arrived and, for a HoPP
/// prefetch, the asking stream's [`StreamId::key`].
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
    /// Per frame: its pending prefetch's [`Source::index`] plus one, or
    /// zero.
    marks: Vec<u8>,
    /// The pending prefetch of the frame's page, valid while its marks
    /// name a source.
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

    /// Records that `source` prefetched `ppn`'s page, which arrived at
    /// `at`; `stream` is the HoPP stream that asked for it (`None` for
    /// the baseline).
    pub(crate) fn mark_prefetch(
        &mut self,
        ppn: Ppn,
        source: Source,
        stream: Option<StreamId>,
        at: Nanos,
    ) {
        let i = ppn.index();
        debug_assert!(self.source(i).is_none(), "{ppn:?}: a prefetch is pending");
        self.marks[i] = source.index() as u8 + 1;
        self.prefetch[i] = Prefetch {
            arrival: at,
            stream: stream.map_or(0, StreamId::key),
        };
    }

    /// Clears `ppn`'s pending prefetch; returns its source, its HoPP
    /// stream and its page's arrival time, if one was pending.
    pub(crate) fn take_prefetch(&mut self, ppn: Ppn) -> Option<(Source, Option<StreamId>, Nanos)> {
        let i = ppn.index();
        let source = self.source(i)?;
        self.marks[i] = 0;
        let Prefetch { arrival, stream } = self.prefetch[i];
        let stream = (source != Source::Baseline).then(|| StreamId::from_key(stream));
        Some((source, stream, arrival))
    }

    /// The source of frame `i`'s pending prefetch, if any.
    fn source(&self, i: usize) -> Option<Source> {
        Source::ALL
            .get(usize::from(self.marks[i]).checked_sub(1)?)
            .copied()
    }

    /// Frames with a pending prefetch, per [`Source::index`] (a scan,
    /// for consistency checks; freed frames carry none).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn pending_counts(&self) -> [usize; 4] {
        let mut counts = [0; 4];
        for source in (0..self.marks.len()).filter_map(|i| self.source(i)) {
            counts[source.index()] += 1;
        }
        counts
    }

    /// Allocated frames on the swapcache list, with their owners (a
    /// scan, for consistency checks).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn swapcache_frames(&self) -> impl Iterator<Item = (Ppn, Pid, Vpn)> + '_ {
        (0..self.marks.len()).filter_map(|i| {
            let ppn = Ppn::from_index(i);
            let (pid, vpn) = self.pool.owner(ppn)?;
            self.on_swapcache_list(ppn).then_some((ppn, pid, vpn))
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
                .filter(|_| !self.on_swapcache_list(ppn));
            (ppn, owner)
        })
    }

    /// Whether `ppn` is on the swapcache's list.
    #[cfg(any(test, debug_assertions))]
    fn on_swapcache_list(&self, ppn: Ppn) -> bool {
        self.lru
            .list_of(ppn)
            .is_some_and(|(owner, _)| owner == SWAPCACHE)
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
        for source in Source::ALL {
            let ppn = ft.alloc(Pid::new(3), Vpn::new(9)).unwrap();
            ft.lru.insert(SWAPCACHE, ppn, LruTier::Inactive);
            ft.mark_prefetch(ppn, source, None, Nanos::from_nanos(3));
            ft.set_hot(ppn, Nanos::ZERO);
            assert_eq!(ft.last_hot(ppn), Some(Nanos::ZERO));
            ft.free(ppn).unwrap();
            assert_eq!(ft.lru.total_len(), 0);
            let again = ft.alloc(Pid::new(3), Vpn::new(10)).unwrap();
            assert_eq!(again, ppn, "LIFO reuse");
            assert_eq!(ft.swapcache_frames().count(), 0);
            assert_eq!(ft.pending_counts(), [0; 4]);
            assert_eq!(ft.take_prefetch(again), None);
            assert_eq!(ft.last_hot(again), None);
            ft.free(again).unwrap();
        }
    }

    #[test]
    fn the_list_a_frame_is_on_says_whether_it_maps_its_page() {
        let mut ft = FrameTable::new(2, 1, false);
        let owner = (Pid::new(1), Vpn::new(4));
        let ppn = ft.alloc(owner.0, owner.1).unwrap();
        ft.lru.insert(SWAPCACHE, ppn, LruTier::Inactive);
        assert_eq!(
            ft.swapcache_frames().collect::<Vec<_>>(),
            [(ppn, owner.0, owner.1)]
        );
        assert_eq!(ft.mapped_owners().collect::<Vec<_>>(), [(ppn, None)]);
        // A minor fault moves the frame to its process's list.
        ft.lru.insert(list_of(0), ppn, LruTier::Active);
        assert_eq!(ft.swapcache_frames().count(), 0);
        assert_eq!(ft.mapped_owners().collect::<Vec<_>>(), [(ppn, Some(owner))]);
        ft.free(ppn).unwrap();
        assert_eq!(ft.mapped_owners().collect::<Vec<_>>(), [(ppn, None)]);
    }

    #[test]
    fn prefetch_marks_keep_source_stream_and_arrival() {
        let mut ft = FrameTable::new(1, 1, false);
        let ppn = ft.alloc(Pid::new(1), Vpn::new(0)).unwrap();
        let stream = StreamId::from_key(u64::from(u32::MAX) << 16 | 63);
        for (at, source) in Source::ALL.into_iter().enumerate() {
            let at = Nanos::from_nanos(at as u64);
            let stream = (source != Source::Baseline).then_some(stream);
            ft.mark_prefetch(ppn, source, stream, at);
            let mut pending = [0; 4];
            pending[source.index()] = 1;
            assert_eq!(ft.pending_counts(), pending);
            assert_eq!(ft.take_prefetch(ppn), Some((source, stream, at)));
            assert_eq!(ft.take_prefetch(ppn), None);
        }
        // Without trace-assisted reclaim nothing is remembered.
        ft.set_hot(ppn, Nanos::from_nanos(5));
        assert_eq!(ft.last_hot(ppn), None);
    }
}
