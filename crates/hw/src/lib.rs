#![warn(missing_docs)]
//! HoPP's hardware modules, modelled cycle-approximately in software.
//!
//! The paper adds two blocks to the memory controller and verifies them
//! in Verilog; here they are reproduced as faithful behavioural models
//! with the same geometry and the same observable outputs:
//!
//! * [`hpd::HotPageDetector`] — the Hot Page Detection table (§III-B):
//!   a 16-way × 4-set associative counter cache over LLC *read* misses.
//!   A page whose miss count reaches the threshold `N` (default 8) is
//!   emitted once (a *send bit* suppresses repeats until eviction).
//! * [`rpt::ReversePageTable`] — the Reverse Page Table and its in-MC
//!   cache (§III-C): `Ppn → (Pid, Vpn, shared, huge)`. The authoritative
//!   copy lives in reserved DRAM; the 64 KB, 16-way write-back cache
//!   absorbs nearly all queries (Table III) and is kept current by the
//!   kernel's PTE hooks (it implements
//!   [`hopp_mem::PteListener`]).
//! * [`cost`] — DRAM-bandwidth overhead accounting (Table V) and the
//!   CACTI-derived area/energy numbers (§VI-F).
//!
//! The full pipeline (LLC miss → HPD → RPT → hot page handed to
//! software) is wired together by [`McPipeline`].

pub mod cost;
pub mod hpd;
pub mod pipeline;
pub mod rpt;

pub use cost::{BandwidthLedger, HwCostModel};
pub use hpd::{HotPageDetector, HpdConfig, HpdStats};
pub use pipeline::McPipeline;
pub use rpt::{ReversePageTable, RptCacheConfig, RptEntry, RptStats};
