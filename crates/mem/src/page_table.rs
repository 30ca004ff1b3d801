//! Per-process page tables and the PTE-update hook interface.

use hopp_types::{Pid, Ppn, SwapSlot, Vpn};

use crate::pagemap::PageMap;

/// A present page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pte {
    /// The frame this virtual page maps to.
    pub ppn: Ppn,
    /// Set when the page has been written since it was faulted in; dirty
    /// pages must be written back to the remote node on reclaim.
    pub dirty: bool,
}

/// The state of a virtual page that the process has touched at least
/// once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mapping {
    /// Present in local DRAM.
    Present(Pte),
    /// Swapped out to the remote node at the given slot.
    Swapped(SwapSlot),
}

/// Observer of PTE installs and clears.
///
/// The paper keeps the reverse page table current by hooking
/// `set_pte_at` and `pte_clear` (§V). Any component that needs the same
/// visibility implements this trait and is threaded through the mapping
/// calls. The unit type implements it as a no-op for callers that do not
/// care.
pub trait PteListener {
    /// A PTE for `(pid, vpn) → ppn` was installed.
    fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn);
    /// The PTE for `(pid, vpn) → ppn` was removed.
    fn pte_clear(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn);
}

/// No-op listener.
impl PteListener for () {
    fn pte_set(&mut self, _: Pid, _: Vpn, _: Ppn) {}
    fn pte_clear(&mut self, _: Pid, _: Vpn, _: Ppn) {}
}

impl<L: PteListener + ?Sized> PteListener for &mut L {
    fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        (**self).pte_set(pid, vpn, ppn);
    }
    fn pte_clear(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        (**self).pte_clear(pid, vpn, ppn);
    }
}

/// One process's page table.
///
/// Pages the process has never touched have no entry at all; a demand
/// fault on such a page is a *first touch* (zero-fill) rather than a
/// remote fetch.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    pid: Pid,
    map: PageMap<Mapping>,
}

impl AddressSpace {
    /// Creates an empty address space for `pid`.
    pub fn new(pid: Pid) -> Self {
        AddressSpace {
            pid,
            map: PageMap::new(),
        }
    }

    /// The owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Looks up the state of a virtual page.
    pub fn lookup(&self, vpn: Vpn) -> Option<Mapping> {
        self.map.get(vpn).copied()
    }

    /// Installs a present PTE, notifying `listener`.
    ///
    /// Returns the PTE that was displaced if the page was **already
    /// present** (a double map): the caller must free the returned
    /// frame or it leaks. The displaced mapping's `pte_clear` fires
    /// before the new mapping's `pte_set`, in both build profiles —
    /// this used to be a `debug_assert!`, so release builds silently
    /// overwrote the mapping and leaked its frame.
    #[must_use = "a displaced PTE's frame must be freed by the caller"]
    pub fn map_present<L: PteListener>(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        listener: &mut L,
    ) -> Option<Pte> {
        let prev = self
            .map
            .insert(vpn, Mapping::Present(Pte { ppn, dirty: false }));
        let displaced = match prev {
            Some(Mapping::Present(pte)) => {
                listener.pte_clear(self.pid, vpn, pte.ppn);
                Some(pte)
            }
            _ => None,
        };
        listener.pte_set(self.pid, vpn, ppn);
        displaced
    }

    /// Marks a present page dirty (a store hit). No-op for non-present
    /// pages.
    pub fn mark_dirty(&mut self, vpn: Vpn) {
        if let Some(Mapping::Present(pte)) = self.map.get_mut(vpn) {
            pte.dirty = true;
        }
    }

    /// Clears the PTE and records the page as swapped out to `slot`.
    ///
    /// Returns the PTE that was present, so the caller can free/writeback
    /// the frame. Returns `None` (and changes nothing) if the page was
    /// not present.
    pub fn swap_out<L: PteListener>(
        &mut self,
        vpn: Vpn,
        slot: SwapSlot,
        listener: &mut L,
    ) -> Option<Pte> {
        match self.map.get(vpn).copied() {
            Some(Mapping::Present(pte)) => {
                self.map.insert(vpn, Mapping::Swapped(slot));
                listener.pte_clear(self.pid, vpn, pte.ppn);
                Some(pte)
            }
            _ => None,
        }
    }

    /// Iterates over present pages in ascending `Vpn` order.
    pub fn iter_present(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.map.iter().filter_map(|(vpn, m)| match m {
            Mapping::Present(pte) => Some((vpn, *pte)),
            Mapping::Swapped(_) => None,
        })
    }

    /// Iterates over swapped-out pages and their slots in ascending
    /// `Vpn` order.
    pub fn iter_swapped(&self) -> impl Iterator<Item = (Vpn, SwapSlot)> + '_ {
        self.map.iter().filter_map(|(vpn, m)| match m {
            Mapping::Swapped(slot) => Some((vpn, *slot)),
            Mapping::Present(_) => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records hook invocations for verification.
    #[derive(Default)]
    struct Recorder {
        sets: Vec<(Pid, Vpn, Ppn)>,
        clears: Vec<(Pid, Vpn, Ppn)>,
    }

    impl PteListener for Recorder {
        fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
            self.sets.push((pid, vpn, ppn));
        }
        fn pte_clear(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
            self.clears.push((pid, vpn, ppn));
        }
    }

    #[test]
    fn map_lookup_swap_cycle() {
        let mut rec = Recorder::default();
        let mut space = AddressSpace::new(Pid::new(3));
        let vpn = Vpn::new(0x42);
        let ppn = Ppn::new(7);

        assert_eq!(space.lookup(vpn), None);
        assert!(space.map_present(vpn, ppn, &mut rec).is_none());
        assert_eq!(space.iter_present().count(), 1);
        assert!(matches!(space.lookup(vpn), Some(Mapping::Present(p)) if p.ppn == ppn));

        let pte = space.swap_out(vpn, SwapSlot::new(9), &mut rec).unwrap();
        assert_eq!(pte.ppn, ppn);
        assert_eq!(space.iter_present().count(), 0);
        assert!(matches!(
            space.lookup(vpn),
            Some(Mapping::Swapped(s)) if s == SwapSlot::new(9)
        ));

        assert_eq!(rec.sets, vec![(Pid::new(3), vpn, ppn)]);
        assert_eq!(rec.clears, vec![(Pid::new(3), vpn, ppn)]);
    }

    #[test]
    fn remap_returns_displaced_pte_in_every_profile() {
        let mut rec = Recorder::default();
        let mut space = AddressSpace::new(Pid::new(1));
        let vpn = Vpn::new(7);
        assert!(space.map_present(vpn, Ppn::new(1), &mut rec).is_none());
        space.mark_dirty(vpn);
        // Double map: the displaced PTE comes back (dirty bit intact)
        // so the caller can free or write back its frame. This holds in
        // debug *and* release builds — the old debug_assert! guard
        // compiled to nothing in release and the frame leaked silently.
        let prev = space
            .map_present(vpn, Ppn::new(2), &mut rec)
            .expect("displaced PTE");
        assert_eq!(prev.ppn, Ppn::new(1));
        assert!(prev.dirty);
        assert_eq!(
            space.iter_present().count(),
            1,
            "a remap leaves one present page"
        );
        assert_eq!(rec.clears, vec![(Pid::new(1), vpn, Ppn::new(1))]);
        assert_eq!(
            rec.sets,
            vec![
                (Pid::new(1), vpn, Ppn::new(1)),
                (Pid::new(1), vpn, Ppn::new(2))
            ]
        );
        assert!(matches!(
            space.lookup(vpn),
            Some(Mapping::Present(p)) if p.ppn == Ppn::new(2) && !p.dirty
        ));
    }

    #[test]
    fn swap_out_of_absent_page_is_none() {
        let mut space = AddressSpace::new(Pid::new(1));
        assert!(space
            .swap_out(Vpn::new(1), SwapSlot::new(0), &mut ())
            .is_none());
    }

    #[test]
    fn dirty_tracking() {
        let mut space = AddressSpace::new(Pid::new(1));
        let vpn = Vpn::new(5);
        assert!(space.map_present(vpn, Ppn::new(1), &mut ()).is_none());
        space.mark_dirty(vpn);
        let pte = space.swap_out(vpn, SwapSlot::new(0), &mut ()).unwrap();
        assert!(pte.dirty);
    }

    #[test]
    fn mark_dirty_on_swapped_page_is_noop() {
        let mut space = AddressSpace::new(Pid::new(1));
        let vpn = Vpn::new(5);
        assert!(space.map_present(vpn, Ppn::new(1), &mut ()).is_none());
        space.swap_out(vpn, SwapSlot::new(0), &mut ()).unwrap();
        space.mark_dirty(vpn); // must not panic or resurrect the mapping
        assert!(matches!(space.lookup(vpn), Some(Mapping::Swapped(_))));
    }

    #[test]
    fn iter_present_skips_swapped() {
        let mut space = AddressSpace::new(Pid::new(1));
        assert!(space
            .map_present(Vpn::new(1), Ppn::new(1), &mut ())
            .is_none());
        assert!(space
            .map_present(Vpn::new(2), Ppn::new(2), &mut ())
            .is_none());
        space.swap_out(Vpn::new(1), SwapSlot::new(0), &mut ());
        let present: Vec<_> = space.iter_present().map(|(v, _)| v).collect();
        assert_eq!(present, vec![Vpn::new(2)]);
        let swapped: Vec<_> = space.iter_swapped().collect();
        assert_eq!(swapped, vec![(Vpn::new(1), SwapSlot::new(0))]);
    }
}
