//! `hopp-ds` — deterministic, allocation-lean collections for the HoPP
//! hot paths.
//!
//! The simulated stack must replay byte-identically from a seed, which
//! rules out `std::collections::HashMap` (RandomState draws OS entropy
//! and iteration order varies run to run). PR 3 converted every
//! per-access map to `BTreeMap`, buying order stability at the cost of
//! O(log n) pointer chasing on the single most-executed code in the
//! repo. This crate provides the missing third option — deterministic
//! *and* cache-friendly:
//!
//! * [`DetMap`] — a seeded open-addressing hash map (SplitMix64-mixed,
//!   linear probing with backward-shift deletion over flat `Vec`s) with
//!   **insertion-order iteration**. No `RandomState`, no OS entropy: it
//!   passes the hopp-check determinism rule by construction.
//! * [`PageMap`] — a paged direct-index table for dense page/frame
//!   number keys ([`Vpn`]/[`Ppn`]); O(1) lookup, iteration in key
//!   order (the same order the `BTreeMap`s it replaces iterated in).
//!
//! (The kernel's LRU lists are intrusive links in a frame-indexed
//! table, `hopp_kernel::lru::LruLinks`, not a collection here.)
//!
//! Both are deterministic for a fixed seed and operation sequence,
//! and allocation-lean: cleared capacity is reused, and steady-state
//! operation allocates nothing.
//!
//! [`Vpn`]: hopp_types::Vpn
//! [`Ppn`]: hopp_types::Ppn

use hopp_types::{LineAddr, NodeId, Pid, Ppn, Vpn};

mod detmap;
mod pagemap;

pub use detmap::DetMap;
pub use pagemap::PageMap;

/// The SplitMix64 finalizer (same constants as
/// `hopp_types::rng::SplitMix64`): a fast, statistically strong 64-bit
/// mixing function. Pure arithmetic — no state, no entropy.
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A key [`DetMap`] can hash deterministically.
///
/// `det_key` digests the key into 64 bits; the map then mixes the
/// digest with its seed through [`mix64`]. Composite keys pre-mix their
/// first component so `(a, b)` and `(b, a)` land in different buckets.
pub trait DetKey: Copy + Eq {
    /// A 64-bit digest of the key (need not be uniformly distributed;
    /// the map mixes it before use).
    fn det_key(&self) -> u64;
}

impl DetKey for u64 {
    fn det_key(&self) -> u64 {
        *self
    }
}

impl DetKey for u32 {
    fn det_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl DetKey for u16 {
    fn det_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl DetKey for u8 {
    fn det_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl DetKey for usize {
    fn det_key(&self) -> u64 {
        *self as u64
    }
}

impl DetKey for Pid {
    fn det_key(&self) -> u64 {
        u64::from(self.raw())
    }
}

impl DetKey for Vpn {
    fn det_key(&self) -> u64 {
        self.raw()
    }
}

impl DetKey for Ppn {
    fn det_key(&self) -> u64 {
        self.raw()
    }
}

impl DetKey for NodeId {
    fn det_key(&self) -> u64 {
        u64::from(self.raw())
    }
}

impl DetKey for LineAddr {
    fn det_key(&self) -> u64 {
        self.raw()
    }
}

impl<A: DetKey, B: DetKey> DetKey for (A, B) {
    fn det_key(&self) -> u64 {
        mix64(self.0.det_key()).wrapping_add(self.1.det_key())
    }
}

impl<A: DetKey, B: DetKey, C: DetKey> DetKey for (A, B, C) {
    fn det_key(&self) -> u64 {
        mix64(mix64(self.0.det_key()).wrapping_add(self.1.det_key())).wrapping_add(self.2.det_key())
    }
}

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
    fn mix64_matches_reference_vector() {
        // SplitMix64 with seed 0 produces this first output after the
        // golden-ratio increment; mix64 is the finalizer applied to it.
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn tuple_keys_are_order_sensitive() {
        let ab = (Pid::new(1), Vpn::new(2)).det_key();
        let ba = (Pid::new(2), Vpn::new(1)).det_key();
        assert_ne!(ab, ba);
    }

    #[test]
    fn page_index_roundtrips() {
        assert_eq!(Vpn::from_page_index(Vpn::new(7).page_index()), Vpn::new(7));
        assert_eq!(Ppn::from_page_index(Ppn::new(9).page_index()), Ppn::new(9));
        assert_eq!(usize::from_page_index(3usize.page_index()), 3);
    }
}
