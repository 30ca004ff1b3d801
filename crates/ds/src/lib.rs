//! `hopp-ds` — a deterministic, allocation-lean collection for the
//! HoPP hot paths.
//!
//! The simulated stack must replay byte-identically from a seed, which
//! rules out `std::collections::HashMap` (RandomState draws OS entropy
//! and iteration order varies run to run). A `BTreeMap` buys order
//! stability at the cost of O(log n) pointer chasing, which on the
//! per-access page tables is the single most-executed code in the
//! repo. This crate provides the dense-key alternative — deterministic
//! *and* cache-friendly:
//!
//! * [`PageMap`] — a paged direct-index table for dense page/frame
//!   number keys ([`Vpn`]/[`Ppn`]); O(1) lookup, iteration in key
//!   order (the same order the `BTreeMap`s it replaces iterated in).
//!
//! Sparse software-side maps (Markov tables, Leap's per-process
//! history, fabric placement exceptions, stream-placement hints) are
//! plain `BTreeMap`s: no benchmark workload fills them. (The kernel's
//! LRU lists are intrusive links in a frame-indexed table,
//! `hopp_kernel::lru::LruLinks`, not a collection here.)
//!
//! [`PageMap`] is deterministic for a fixed operation sequence, and
//! allocation-lean: cleared capacity is reused, and steady-state
//! operation allocates nothing.
//!
//! [`Vpn`]: hopp_types::Vpn
//! [`Ppn`]: hopp_types::Ppn

use hopp_types::{Ppn, Vpn};

mod pagemap;

pub use pagemap::PageMap;

/// A key that is (or wraps) a small dense table index, usable with
/// [`PageMap`].
///
/// Implementations must round-trip: `from_page_index(k.page_index())
/// == k`.
pub trait PageIndex: Copy + Eq {
    /// The key as a table index.
    fn page_index(self) -> usize;
    /// The key at a given table index.
    fn from_page_index(index: usize) -> Self;
}

impl PageIndex for usize {
    fn page_index(self) -> usize {
        self
    }
    fn from_page_index(index: usize) -> Self {
        index
    }
}

impl PageIndex for Vpn {
    fn page_index(self) -> usize {
        self.index()
    }
    fn from_page_index(index: usize) -> Self {
        Vpn::from_index(index)
    }
}

impl PageIndex for Ppn {
    fn page_index(self) -> usize {
        self.index()
    }
    fn from_page_index(index: usize) -> Self {
        Ppn::from_index(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_index_roundtrips() {
        assert_eq!(Vpn::from_page_index(Vpn::new(7).page_index()), Vpn::new(7));
        assert_eq!(Ppn::from_page_index(Ppn::new(9).page_index()), Ppn::new(9));
        assert_eq!(usize::from_page_index(3usize.page_index()), 3);
    }
}
