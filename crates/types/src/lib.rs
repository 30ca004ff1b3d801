#![warn(missing_docs)]
//! Common vocabulary types for the HoPP simulation stack.
//!
//! Every crate in this workspace speaks in terms of the newtypes defined
//! here: physical and virtual page numbers ([`Ppn`], [`Vpn`]), process
//! identifiers ([`Pid`]), physical cacheline addresses ([`LineAddr`]),
//! simulated time ([`Nanos`]) and the architectural constants of the
//! simulated machine (page and cacheline geometry).
//!
//! The newtypes exist to make unit confusion a compile error: a `Vpn`
//! can never be handed to a component that expects a `Ppn` (the paper's
//! reverse page table exists precisely because that translation is
//! non-trivial), and raw `u64` byte addresses cannot be mistaken for
//! page numbers.
//!
//! # Example
//!
//! ```
//! use hopp_types::{Vpn, Ppn, PAGE_SIZE, LINES_PER_PAGE};
//!
//! let vpn = Vpn::new(0x1234);
//! assert_eq!(vpn.base_addr(), 0x1234 * PAGE_SIZE as u64);
//! assert_eq!(LINES_PER_PAGE, 64);
//! let next = vpn.offset(1).unwrap();
//! assert_eq!(next.stride_from(vpn), 1);
//! # let _ = Ppn::new(7);
//! ```

pub mod access;
pub mod error;
pub mod ids;
pub mod json;
pub mod rng;
pub mod time;

pub use access::{AccessKind, HotPage, PageAccess, PageFlags};
pub use error::{Error, Result};
pub use ids::{LineAddr, NodeId, Pid, Ppn, SwapSlot, Vpn};
pub use rng::SplitMix64;
pub use time::Nanos;

/// Size of a (small) page in bytes. The paper's kernel swap path and all
/// of HoPP's structures operate on 4 KB pages.
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a cacheline in bytes.
pub const LINE_SIZE: usize = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;
/// Number of cachelines in a 4 KB page (64). The HPD threshold `N` of the
/// paper ranges over `1..=LINES_PER_PAGE`.
pub const LINES_PER_PAGE: usize = PAGE_SIZE / LINE_SIZE;
/// Size of a 2 MB huge page in small pages.
pub const HUGE_PAGE_PAGES: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(1usize << PAGE_SHIFT, PAGE_SIZE);
        assert_eq!(1usize << LINE_SHIFT, LINE_SIZE);
        assert_eq!(LINES_PER_PAGE, 64);
        assert_eq!(HUGE_PAGE_PAGES * PAGE_SIZE, 2 * 1024 * 1024);
    }
}
