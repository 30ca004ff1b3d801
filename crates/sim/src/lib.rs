#![warn(missing_docs)]
//! The integrated disaggregated-memory simulator.
//!
//! This crate wires every substrate together into the full system of
//! the paper's Figure 4 and runs workloads through it:
//!
//! * application page accesses come from `hopp-workloads` streams;
//! * address translation, frames and PTEs from `hopp-mem`; the
//!   simulator keeps every per-frame fact (owner, LRU links, pending
//!   prefetch) in one PPN-indexed frame table, where the list a frame
//!   is on says whether it holds a swapcache page, and a process's list
//!   length is its cgroup charge;
//! * the LLC model filters accesses into the off-chip miss stream
//!   (`hopp-trace`), which feeds the MC pipeline (`hopp-hw`);
//! * the kernel side (swapcache, LRU reclaim, cgroup limits, fault
//!   costs) comes from `hopp-kernel`, with baseline prefetchers from
//!   `hopp-baselines` on the fault path;
//! * HoPP's training/policy/execution engines (`hopp-core`) run on the
//!   hot-page stream as a separate data path and inject PTEs on
//!   completion;
//! * all remote traffic flows through a remote-memory pool
//!   (`hopp-fabric`): one RDMA link per node (`hopp-net`), sharded
//!   placement, optional replication and scripted faults. The default
//!   single-node pool is the paper's testbed, bit-for-bit.
//!
//! Simulated time advances with each access: compute (think time), LLC
//! hits/misses, fault handling and synchronous network waits, per the
//! latency model of §II-A. [`SimReport`] carries completion time,
//! fault/traffic counters and the paper's accuracy/coverage/timeliness
//! metrics for whichever prefetching system was configured.
//!
//! # Example
//!
//! ```
//! use hopp_sim::{run_workload, BaselineKind, SystemConfig};
//! use hopp_workloads::WorkloadKind;
//!
//! # fn main() -> hopp_types::Result<()> {
//! // K-means with half its footprint remote, under Fastswap vs HoPP.
//! let fs = run_workload(WorkloadKind::Kmeans, 1_024, 7,
//!                       SystemConfig::Baseline(BaselineKind::Fastswap), 0.5)?;
//! let hopp = run_workload(WorkloadKind::Kmeans, 1_024, 7,
//!                         SystemConfig::hopp_default(), 0.5)?;
//! assert!(hopp.completion <= fs.completion);
//! # Ok(())
//! # }
//! ```

pub mod config;
mod frames;
pub mod report;
pub mod runner;
pub mod simulator;

pub use config::{AppSpec, BaselineKind, SimConfig, SystemConfig};
pub use hopp_fabric::{FabricConfig, FabricReport, FaultScript, PlacementKind};
pub use report::{AppReport, Counters, ObsReport, SimReport};
pub use runner::{
    run_local, run_stream_with, run_workload, run_workload_with, run_workload_with_faults,
    solo_simulator,
};
pub use simulator::Simulator;
