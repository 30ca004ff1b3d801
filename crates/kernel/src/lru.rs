//! Active/inactive page lists, the kernel's reclaim order.
//!
//! Reclaim evicts from the tail of the *inactive* list first; pages on
//! the *active* list survive much longer. This two-tier structure is
//! load-bearing for the paper's Depth-N analysis (§II-C): a page whose
//! PTE was injected eagerly is placed on the active list ("the kernel
//! put it at the very beginning of the LRU-based page list"), so a
//! *wrong* eager prefetch occupies precious local memory for a long
//! time, while an unconsumed swapcache page sits on the inactive list
//! and is cheap to drop.
//!
//! The lists are intrusive, as in Linux's `struct page`: every frame
//! has one `prev`/`next`/list record in a frame-indexed table
//! ([`LruLinks`]), and a list is just a head, a tail and a length.
//! Every owner (a cgroup, or the swapcache) has an active and an
//! inactive list over the same table. [`LruLists`] is the one-owner
//! view of it.
//!
//! The lists are the cgroup accounting too (cgroup v2 `memory.max`):
//! a cgroup's charge is the length of its two lists, and it is over
//! its limit exactly when they hold more pages than the limit. HoPP
//! charges the pages it injects, because they go on the owning
//! application's lists; Fastswap and Leap leave their prefetched
//! swapcache pages on the swapcache's lists, where they count against
//! no limit (§I).

use hopp_types::Ppn;

/// Which list a page lives on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LruTier {
    /// Recently used (or eagerly injected) pages; reclaimed last.
    Active,
    /// Not-yet-proven pages (fresh swapcache fills); reclaimed first.
    Inactive,
}

/// The largest frame count an [`LruLinks`] table can index: links are
/// stored as `u32` frame numbers plus one.
pub const MAX_FRAMES: usize = u32::MAX as usize - 1;

/// Intrusive LRU links over a frame-indexed table, shared by the
/// active and inactive lists of any number of owners.
///
/// Each frame is on at most one list. Every operation is a few array
/// indexes: no hashing, no per-node allocation. Links and list tags
/// are stored so that zero means "none" (`frame + 1`, `list + 1`), and
/// a frame's record is written as zeroes the first time the frame is
/// inserted: [`LruLinks::new`] only reserves the table, so it costs
/// nothing to build however many frames it covers.
///
/// # Example
///
/// ```
/// use hopp_kernel::lru::{LruLinks, LruTier};
/// use hopp_types::Ppn;
///
/// let mut links = LruLinks::new(8, 2);
/// links.insert(0, Ppn::new(1), LruTier::Active);
/// links.insert(1, Ppn::new(2), LruTier::Inactive);
/// assert_eq!(links.list_of(Ppn::new(2)), Some((1, LruTier::Inactive)));
/// assert_eq!(links.pop_evict(1), Some((Ppn::new(2), LruTier::Inactive)));
/// assert_eq!(links.pop_evict(1), None);
/// assert_eq!(links.len(0), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LruLinks {
    /// Per frame: the neighbours toward the MRU end and toward the LRU
    /// end, as `frame + 1`, and the list tag, as `list + 1` (0 = on no
    /// list).
    links: Vec<[u32; 3]>,
    /// Per list: `[head (MRU), tail (LRU)]` as `frame + 1`.
    ends: Vec<[u32; 2]>,
    /// Per list: its length.
    lens: Vec<usize>,
}

/// The list of owner `owner` and tier `tier`: active lists are even,
/// inactive lists odd.
fn list(owner: usize, tier: LruTier) -> usize {
    2 * owner + usize::from(tier == LruTier::Inactive)
}

/// The owner and tier of list `list`.
fn owner_tier(list: usize) -> (usize, LruTier) {
    (list / 2, [LruTier::Active, LruTier::Inactive][list % 2])
}

/// A frame index as a stored link (`index + 1`).
fn link(index: usize) -> u32 {
    debug_assert!(index < MAX_FRAMES, "frame {index} beyond the link range");
    (index + 1) as u32
}

/// A stored link (`index + 1`, nonzero) as a frame index.
fn index(link: u32) -> usize {
    link as usize - 1
}

impl LruLinks {
    /// Empty lists for `owners` owners, with room reserved for frames
    /// `0..frames`; [`LruLinks::insert`] grows the table to each frame
    /// it meets.
    pub fn new(frames: usize, owners: usize) -> Self {
        LruLinks {
            links: Vec::with_capacity(frames),
            ends: vec![[0; 2]; 2 * owners],
            lens: vec![0; 2 * owners],
        }
    }

    /// The owner and tier of the list `ppn` is on.
    pub fn list_of(&self, ppn: Ppn) -> Option<(usize, LruTier)> {
        let tag = self.links.get(ppn.index())?[2];
        (tag != 0).then(|| owner_tier(index(tag)))
    }

    /// Puts `ppn` at the head (most-recent end) of `owner`'s `tier`
    /// list, first taking it off whatever list it was on.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is not below the owner count given to
    /// [`LruLinks::new`].
    pub fn insert(&mut self, owner: usize, ppn: Ppn, tier: LruTier) {
        let i = ppn.index();
        if i >= self.links.len() {
            self.links.resize(i + 1, [0; 3]);
        }
        self.unlink(i);
        let l = list(owner, tier);
        let head = self.ends[l][0];
        self.links[i] = [0, head, link(l)];
        if head == 0 {
            self.ends[l][1] = link(i);
        } else {
            self.links[index(head)][0] = link(i);
        }
        self.ends[l][0] = link(i);
        self.lens[l] += 1;
    }

    /// Moves `ppn` to the head of `owner`'s active list if it is on one
    /// of `owner`'s lists (a second touch activates an inactive page,
    /// as in Linux). Returns whether it was.
    pub fn touch(&mut self, owner: usize, ppn: Ppn) -> bool {
        let on_owner = self.list_of(ppn).is_some_and(|(o, _)| o == owner);
        if on_owner {
            self.insert(owner, ppn, LruTier::Active);
        }
        on_owner
    }

    /// Takes `ppn` off its list. Returns the owner and tier it was on.
    pub fn remove(&mut self, ppn: Ppn) -> Option<(usize, LruTier)> {
        self.unlink(ppn.index()).map(owner_tier)
    }

    /// Removes and returns `owner`'s eviction candidate, the oldest
    /// page of its inactive list or else of its active list, with the
    /// tier it came off.
    pub fn pop_evict(&mut self, owner: usize) -> Option<(Ppn, LruTier)> {
        let (tail, tier) = [LruTier::Inactive, LruTier::Active]
            .into_iter()
            .map(|tier| (self.ends[list(owner, tier)][1], tier))
            .find(|&(tail, _)| tail != 0)?;
        self.unlink(index(tail));
        Some((Ppn::from_index(index(tail)), tier))
    }

    /// Pages on `owner`'s two lists.
    pub fn len(&self, owner: usize) -> usize {
        self.lens[2 * owner] + self.lens[2 * owner + 1]
    }

    /// Pages on every list.
    pub fn total_len(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Takes frame `i` off its list; returns the list it was on.
    fn unlink(&mut self, i: usize) -> Option<usize> {
        let [prev, next, tag] = *self.links.get(i)?;
        if tag == 0 {
            return None;
        }
        let l = index(tag);
        if prev == 0 {
            self.ends[l][0] = next;
        } else {
            self.links[index(prev)][1] = next;
        }
        if next == 0 {
            self.ends[l][1] = prev;
        } else {
            self.links[index(next)][0] = prev;
        }
        self.links[i] = [0; 3];
        self.lens[l] -= 1;
        Some(l)
    }
}

/// The two LRU lists of one owner: a one-owner view of [`LruLinks`]
/// whose table grows to the highest frame inserted.
///
/// # Example
///
/// ```
/// use hopp_kernel::lru::{LruLists, LruTier};
/// use hopp_types::Ppn;
///
/// let mut lru = LruLists::new();
/// lru.insert(Ppn::new(1), LruTier::Active);
/// lru.insert(Ppn::new(2), LruTier::Inactive);
/// // Inactive pages are evicted before active ones.
/// assert_eq!(lru.pop_evict(), Some(Ppn::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct LruLists {
    links: LruLinks,
}

impl Default for LruLists {
    fn default() -> Self {
        Self::new()
    }
}

impl LruLists {
    /// Creates empty lists.
    pub fn new() -> Self {
        LruLists {
            links: LruLinks::new(0, 1),
        }
    }

    /// Adds a page to the head (most-recent end) of `tier`, or moves it
    /// there if it is already tracked.
    pub fn insert(&mut self, ppn: Ppn, tier: LruTier) {
        self.links.insert(0, ppn, tier);
    }

    /// Promotes a tracked `ppn` to the head of the active list.
    pub fn touch(&mut self, ppn: Ppn) {
        self.links.touch(0, ppn);
    }

    /// Removes and returns the oldest inactive page, or the oldest
    /// active page if the inactive list is empty.
    pub fn pop_evict(&mut self) -> Option<Ppn> {
        self.links.pop_evict(0).map(|(ppn, _)| ppn)
    }

    /// The tier a page currently lives on.
    pub fn tier_of(&self, ppn: Ppn) -> Option<LruTier> {
        self.links.list_of(ppn).map(|(_, tier)| tier)
    }

    /// Total tracked pages.
    pub fn len(&self) -> usize {
        self.links.len(0)
    }

    /// True when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn eviction_prefers_inactive_oldest_first() {
        let mut lru = LruLists::new();
        lru.insert(Ppn::new(1), LruTier::Inactive);
        lru.insert(Ppn::new(2), LruTier::Inactive);
        lru.insert(Ppn::new(3), LruTier::Active);
        assert_eq!(lru.pop_evict(), Some(Ppn::new(1)));
        assert_eq!(lru.pop_evict(), Some(Ppn::new(2)));
        assert_eq!(lru.pop_evict(), Some(Ppn::new(3)));
        assert_eq!(lru.pop_evict(), None);
    }

    #[test]
    fn touch_promotes_to_active() {
        let mut lru = LruLists::new();
        lru.insert(Ppn::new(1), LruTier::Inactive);
        lru.insert(Ppn::new(2), LruTier::Inactive);
        lru.touch(Ppn::new(1));
        assert_eq!(lru.tier_of(Ppn::new(1)), Some(LruTier::Active));
        // 2 is now the only inactive page, evicted first even though it
        // was inserted after 1.
        assert_eq!(lru.pop_evict(), Some(Ppn::new(2)));
    }

    #[test]
    fn touch_of_untracked_page_is_noop() {
        let mut lru = LruLists::new();
        lru.touch(Ppn::new(9));
        assert!(lru.is_empty());
    }

    #[test]
    fn active_list_is_lru_ordered_too() {
        let mut lru = LruLists::new();
        lru.insert(Ppn::new(1), LruTier::Active);
        lru.insert(Ppn::new(2), LruTier::Active);
        lru.touch(Ppn::new(1)); // 2 becomes the LRU active page
        assert_eq!(lru.pop_evict(), Some(Ppn::new(2)));
    }

    #[test]
    fn reinsert_moves_between_tiers() {
        let mut lru = LruLists::new();
        lru.insert(Ppn::new(1), LruTier::Active);
        lru.insert(Ppn::new(1), LruTier::Inactive);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.tier_of(Ppn::new(1)), Some(LruTier::Inactive));
    }

    /// The reference: per owner, an active and an inactive `VecDeque`
    /// with the most recent page at the front.
    struct Model {
        lists: Vec<[VecDeque<Ppn>; 2]>,
    }

    impl Model {
        fn slot(tier: LruTier) -> usize {
            usize::from(tier == LruTier::Inactive)
        }

        fn find(&self, ppn: Ppn) -> Option<(usize, LruTier)> {
            self.lists.iter().enumerate().find_map(|(owner, lists)| {
                [LruTier::Active, LruTier::Inactive]
                    .into_iter()
                    .find(|&tier| lists[Self::slot(tier)].contains(&ppn))
                    .map(|tier| (owner, tier))
            })
        }

        fn remove(&mut self, ppn: Ppn) -> Option<(usize, LruTier)> {
            let (owner, tier) = self.find(ppn)?;
            self.lists[owner][Self::slot(tier)].retain(|&p| p != ppn);
            Some((owner, tier))
        }

        fn insert(&mut self, owner: usize, ppn: Ppn, tier: LruTier) {
            self.remove(ppn);
            self.lists[owner][Self::slot(tier)].push_front(ppn);
        }

        fn pop_evict(&mut self, owner: usize) -> Option<(Ppn, LruTier)> {
            [LruTier::Inactive, LruTier::Active]
                .into_iter()
                .find_map(|tier| {
                    self.lists[owner][Self::slot(tier)]
                        .pop_back()
                        .map(|p| (p, tier))
                })
        }

        /// Oldest inactive to newest, then oldest active to newest.
        fn eviction_order(&self, owner: usize) -> Vec<Ppn> {
            let [active, inactive] = &self.lists[owner];
            inactive
                .iter()
                .rev()
                .chain(active.iter().rev())
                .copied()
                .collect()
        }
    }

    /// `owner`'s pages in eviction order, walked tail to head over the
    /// `prev` links; the `next` links must walk the same lists back.
    fn eviction_order(links: &LruLinks, owner: usize) -> Vec<Ppn> {
        let mut order = Vec::new();
        for tier in [LruTier::Inactive, LruTier::Active] {
            let l = list(owner, tier);
            let mut walked = Vec::new();
            let mut at = links.ends[l][1];
            while at != 0 {
                walked.push(Ppn::from_index(index(at)));
                assert_eq!(links.links[index(at)][2], link(l), "frame on list {l}");
                at = links.links[index(at)][0];
            }
            let mut back = Vec::new();
            let mut at = links.ends[l][0];
            while at != 0 {
                back.push(Ppn::from_index(index(at)));
                at = links.links[index(at)][1];
            }
            back.reverse();
            assert_eq!(walked, back, "list {l}: prev and next links disagree");
            assert_eq!(walked.len(), links.lens[l], "list {l}: length");
            order.extend(walked);
        }
        order
    }

    /// Seeded insert/touch/remove/pop traffic over four owners and both
    /// tiers against the `VecDeque` model: after every operation the
    /// results, every owner's eviction order and length, and every
    /// frame's list agree.
    #[test]
    fn links_match_a_reference_model() {
        use hopp_types::rng::SplitMix64;
        const OWNERS: usize = 4;
        const FRAMES: u64 = 48;
        for seed in [1, 2, 3, 42, 0xDEAD_BEEF] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            // Start small so inserts also exercise growth.
            let mut links = LruLinks::new(8, OWNERS);
            let mut model = Model {
                lists: (0..OWNERS).map(|_| Default::default()).collect(),
            };
            for op in 0..6_000 {
                let ppn = Ppn::new(rng.gen_range(0..FRAMES));
                let owner = rng.gen_range(0..OWNERS as u64) as usize;
                let tier = if rng.gen_bool(0.5) {
                    LruTier::Active
                } else {
                    LruTier::Inactive
                };
                match rng.gen_range(0..8) {
                    0..=2 => {
                        links.insert(owner, ppn, tier);
                        model.insert(owner, ppn, tier);
                    }
                    3..=4 => {
                        let on_owner = model.find(ppn).is_some_and(|(o, _)| o == owner);
                        if on_owner {
                            model.insert(owner, ppn, LruTier::Active);
                        }
                        assert_eq!(links.touch(owner, ppn), on_owner, "seed {seed} op {op}");
                    }
                    5 => assert_eq!(links.remove(ppn), model.remove(ppn), "seed {seed} op {op}"),
                    _ => assert_eq!(
                        links.pop_evict(owner),
                        model.pop_evict(owner),
                        "seed {seed} op {op}"
                    ),
                }
                for o in 0..OWNERS {
                    assert_eq!(
                        eviction_order(&links, o),
                        model.eviction_order(o),
                        "seed {seed} op {op} owner {o}"
                    );
                    assert_eq!(links.len(o), model.eviction_order(o).len());
                    assert_eq!(
                        links.lens[list(o, LruTier::Inactive)],
                        model.lists[o][Model::slot(LruTier::Inactive)].len()
                    );
                }
                for f in 0..FRAMES {
                    assert_eq!(links.list_of(Ppn::new(f)), model.find(Ppn::new(f)));
                }
            }
        }
    }

    #[test]
    fn owners_share_the_table_but_not_their_lists() {
        let mut links = LruLinks::new(4, 3);
        links.insert(1, Ppn::new(0), LruTier::Active);
        links.insert(2, Ppn::new(1), LruTier::Active);
        assert!(!links.touch(2, Ppn::new(0)), "frame 0 is owner 1's");
        assert!(links.touch(1, Ppn::new(0)));
        // Re-inserting under another owner moves the frame over.
        links.insert(2, Ppn::new(0), LruTier::Inactive);
        assert_eq!(links.len(1), 0);
        assert_eq!(links.len(2), 2);
        assert_eq!(links.total_len(), 2);
        assert_eq!(links.pop_evict(2), Some((Ppn::new(0), LruTier::Inactive)));
        assert_eq!(links.pop_evict(2), Some((Ppn::new(1), LruTier::Active)));
        assert_eq!(links.pop_evict(0), None);
    }
}
