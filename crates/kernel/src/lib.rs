#![warn(missing_docs)]
//! Simulated kernel virtual-memory subsystem.
//!
//! Kernel-based disaggregated-memory systems (Fastswap, Leap, and HoPP's
//! host system) live inside the Linux swap path. This crate reproduces
//! the pieces of that path the paper's results depend on:
//!
//! * [`latency::FaultLatencyModel`] — the measured per-step costs of a
//!   swap fault (§II-A): context switch 0.3 µs, page-table walk 0.6 µs,
//!   swapcache query 0.4 µs, PTE establish 1 µs, plus reclaim cost and
//!   the DRAM-hit cost a prefetch-hit is compared against.
//! * [`lru::LruLinks`] — intrusive active/inactive page lists driving
//!   reclaim, one frame-indexed link table shared by every owner
//!   ([`lru::LruLists`] is its one-owner view). Early-injected pages
//!   land on the active list, which is what makes inaccurate Depth-N
//!   prefetches expensive to get rid of (§II-C). The lists are also the
//!   cgroup accounting: an application's charge is the length of its
//!   two lists, held against its local-memory limit (the evaluation
//!   caps each workload at 50 % / 25 % of its footprint), and
//!   swapcache pages sit on the swapcache's own lists, uncharged, as
//!   Fastswap and Leap leave them (§I).
//! * [`swap::SwapDevice`] — swap-slot allocation; Fastswap's readahead
//!   prefetches pages *adjacent in slot order*, so slot assignment
//!   (i.e. eviction order) shapes its behaviour. Its slot records also
//!   hold the swapcache: the frame of a page fetched from remote that
//!   has no PTE yet; hitting one is a *minor* fault costing 2.3 µs
//!   instead of a full remote round trip.
//! * [`prefetcher`] — the kernel's readahead interface, implemented by
//!   the baselines in `hopp-baselines`. HoPP itself does *not* use this
//!   interface: it runs on the hot-page trace as a separate data path.

pub mod latency;
pub mod lru;
pub mod prefetcher;
pub mod swap;

pub use latency::FaultLatencyModel;
pub use lru::{LruLinks, LruLists, LruTier};
pub use prefetcher::{FaultInfo, NoPrefetch, PrefetchRequest, Prefetcher, SlotView};
pub use swap::{InflightRead, SwapDevice};
