//! Convenience runners implementing the paper's measurement protocol.
//!
//! §VI-A: *normalized performance* is `CT_local / CT_system`, where
//! `CT_local` is the completion time with the whole working set in
//! local memory; *speedup* (§VI-D) is `1 − CT_system / CT_Fastswap`.

use hopp_fabric::FaultScript;
use hopp_trace::AccessStream;
use hopp_types::{Pid, Result};
use hopp_workloads::WorkloadKind;

use crate::config::{AppSpec, BaselineKind, SimConfig, SystemConfig};
use crate::report::SimReport;
use crate::simulator::Simulator;

/// The PID used for single-workload runs.
pub const SOLO_PID: Pid = Pid::new(1);

/// Runs `kind` with its local memory limited to `mem_ratio` of the
/// footprint under the given system.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors (lost
/// pages, exhausted pools).
///
/// # Panics
///
/// Panics if `mem_ratio` is not within `(0, +∞)` (a programming error
/// in experiment code).
pub fn run_workload(
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    system: SystemConfig,
    mem_ratio: f64,
) -> Result<SimReport> {
    run_workload_with(
        SimConfig::with_system(system),
        kind,
        footprint_pages,
        seed,
        mem_ratio,
    )
}

/// [`run_workload`] with full control over the machine configuration.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn run_workload_with(
    config: SimConfig,
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    mem_ratio: f64,
) -> Result<SimReport> {
    run_stream_with(
        config,
        SOLO_PID,
        kind.build(SOLO_PID, footprint_pages, seed),
        footprint_pages,
        mem_ratio,
    )
}

/// Runs an arbitrary pre-built access stream — a replayed `.hst` trace,
/// a compiled scenario, or anything else implementing [`AccessStream`]
/// — under the same measurement protocol as [`run_workload_with`].
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn run_stream_with(
    config: SimConfig,
    pid: Pid,
    stream: Box<dyn AccessStream>,
    footprint_pages: u64,
    mem_ratio: f64,
) -> Result<SimReport> {
    solo_simulator(config, pid, stream, footprint_pages, mem_ratio)?.run()
}

/// [`run_workload_with`] plus a deterministic [`FaultScript`] attached
/// to the memory pool before the run starts: the same script against
/// the same seed replays byte-identically.
///
/// # Errors
///
/// Returns configuration validation errors, a script naming a node
/// outside the pool, and fatal run errors — a fault-injection run that
/// loses every replica of a page reports
/// [`hopp_types::Error::PageUnreachable`] with the page and node
/// context instead of panicking.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn run_workload_with_faults(
    config: SimConfig,
    kind: WorkloadKind,
    footprint_pages: u64,
    seed: u64,
    mem_ratio: f64,
    script: &FaultScript,
) -> Result<SimReport> {
    let stream = kind.build(SOLO_PID, footprint_pages, seed);
    let mut sim = solo_simulator(config, SOLO_PID, stream, footprint_pages, mem_ratio)?;
    sim.set_fault_script(script)?;
    sim.run()
}

/// The one application of a solo run, not yet started: `pid` must
/// match the PID the stream emits, and the local-memory limit is
/// `ceil(footprint_pages * mem_ratio)` clamped to ≥ 64 pages. Attach a
/// fault script before calling [`Simulator::run`].
///
/// # Errors
///
/// Returns configuration validation errors.
///
/// # Panics
///
/// Panics if `mem_ratio` is not positive (experiment-code bug).
pub fn solo_simulator(
    config: SimConfig,
    pid: Pid,
    stream: Box<dyn AccessStream>,
    footprint_pages: u64,
    mem_ratio: f64,
) -> Result<Simulator> {
    assert!(mem_ratio > 0.0, "memory ratio must be positive");
    let limit = ((footprint_pages as f64 * mem_ratio).ceil() as usize).max(64);
    let app = AppSpec {
        pid,
        stream,
        limit_pages: limit,
    };
    Simulator::new(config, vec![app])
}

/// The all-local reference run (`CT_local`): limit ≥ footprint, no
/// prefetching.
///
/// # Errors
///
/// Returns configuration validation errors and fatal run errors.
pub fn run_local(kind: WorkloadKind, footprint_pages: u64, seed: u64) -> Result<SimReport> {
    run_workload(
        kind,
        footprint_pages,
        seed,
        SystemConfig::Baseline(BaselineKind::NoPrefetch),
        1.25,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_run_is_full_speed() {
        let r = run_local(WorkloadKind::Kmeans, 1_024, 3).unwrap();
        assert_eq!(r.counters.major_faults, 0);
    }
}
