#![warn(missing_docs)]
//! Physical memory and page-table substrate.
//!
//! This crate models the machine-level memory state the kernel and the
//! HoPP hardware both observe:
//!
//! * [`frames::FrameAllocator`] — the pool of local DRAM frames, with an
//!   owner table (`Ppn → (Pid, Vpn)`) that doubles as the ground truth
//!   the reverse page table is built from.
//! * [`page_table::AddressSpace`] — one per process: `Vpn → Mapping`,
//!   where a mapping is either *present* (a PTE pointing at a frame) or
//!   *swapped* (a slot on the remote swap device).
//! * [`page_table::PteListener`] — the hook interface the paper installs
//!   into `set_pte_at`/`pte_clear` (§V) so the RPT cache stays current.
//!
//! # Example
//!
//! ```
//! use hopp_mem::{AddressSpace, FrameAllocator, Mapping};
//! use hopp_types::{Pid, Vpn};
//!
//! let mut frames = FrameAllocator::new(128);
//! let mut space = AddressSpace::new(Pid::new(1));
//! let ppn = frames.alloc(Pid::new(1), Vpn::new(7)).unwrap();
//! assert!(space.map_present(Vpn::new(7), ppn, &mut ()).is_none());
//! assert!(matches!(space.lookup(Vpn::new(7)), Some(Mapping::Present(p)) if p.ppn == ppn));
//! ```

pub mod frames;
pub mod page_table;
mod pagemap;

pub use frames::FrameAllocator;
pub use page_table::{AddressSpace, Mapping, Pte, PteListener};
