//! # hopp — a full-system reproduction of HoPP (HPCA 2023)
//!
//! *HoPP: Hardware-Software Co-Designed Page Prefetching for
//! Disaggregated Memory* proposes collecting full, real-time memory
//! access traces in the memory controller — instead of learning only
//! from page faults — and feeding them to a software prefetching stack
//! that runs as a separate data path next to a kernel-based remote
//! memory system.
//!
//! This crate is the façade over the workspace that reproduces the
//! whole system in simulation:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `hopp-types` | page numbers, PIDs, time, page-access and hot-page records |
//! | [`trace`] | `hopp-trace` | LLC model, pattern generators |
//! | [`mem`] | `hopp-mem` | frames, page tables, PTE hooks |
//! | [`hw`] | `hopp-hw` | hot page detection, reverse page table (+cache) |
//! | [`kernel`] | `hopp-kernel` | swapcache, LRU reclaim, fault costs, cgroups |
//! | [`net`] | `hopp-net` | RDMA link model, completion queues |
//! | [`fabric`] | `hopp-fabric` | sharded memory pool, placement, faults, failover |
//! | [`core`] | `hopp-core` | STT, SSP/LSP/RSP, policy + execution engines |
//! | [`baselines`] | `hopp-baselines` | Fastswap, Leap, VMA, Depth-N |
//! | [`workloads`] | `hopp-workloads` | the paper's 15 application models |
//! | [`scn`] | `hopp-scn` | `.hst` trace record/replay, scenario DSL |
//! | [`obs`] | `hopp-obs` | event tracing, histograms, trace export |
//! | [`prof`] | `hopp-prof` | host-side span profiler (time + allocation attribution) |
//! | [`sim`] | `hopp-sim` | the integrated simulator and runners |
//!
//! # Quick start
//!
//! ```
//! use hopp::sim::{run_workload, BaselineKind, SystemConfig};
//! use hopp::workloads::WorkloadKind;
//!
//! # fn main() -> hopp::types::Result<()> {
//! // K-means with half its working set in remote memory:
//! let fastswap = run_workload(WorkloadKind::Kmeans, 1_024, 42,
//!     SystemConfig::Baseline(BaselineKind::Fastswap), 0.5)?;
//! let hopp = run_workload(WorkloadKind::Kmeans, 1_024, 42,
//!     SystemConfig::hopp_default(), 0.5)?;
//!
//! // HoPP turns prefetch-hits into plain DRAM hits:
//! assert!(hopp.completion < fastswap.completion);
//! assert!(hopp.coverage() > fastswap.coverage());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and the `experiments` binary
//! in `hopp-bench` for the full table/figure reproduction.

pub use hopp_baselines as baselines;
pub use hopp_core as core;
pub use hopp_fabric as fabric;
pub use hopp_hw as hw;
pub use hopp_kernel as kernel;
pub use hopp_mem as mem;
pub use hopp_net as net;
pub use hopp_obs as obs;
pub use hopp_prof as prof;
pub use hopp_scn as scn;
pub use hopp_sim as sim;
pub use hopp_trace as trace;
pub use hopp_types as types;
pub use hopp_workloads as workloads;

/// The Rust fences in README.md, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The Rust fences in docs/observability.md, compiled as doctests.
#[cfg(doctest)]
#[doc = include_str!("../docs/observability.md")]
pub struct ObservabilityDoctests;
