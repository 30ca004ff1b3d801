//! hopp-lab: parallel, deterministic, cached experiment sweeps.
//!
//! The sweep engine fans an experiment grid (workload × system × seed)
//! out over a thread pool while preserving the workspace's determinism
//! contract:
//!
//! * every cell is an isolated [`Simulator`] run — no shared mutable
//!   state crosses cells, so thread interleaving cannot change results;
//! * results are aggregated in **grid order**, never completion order,
//!   so the emitted JSON is byte-identical for `--threads 1` and
//!   `--threads N`;
//! * each finished cell is cached on disk under a content hash of its
//!   full configuration ([`SimConfig::fingerprint`] + workload + seed +
//!   ratio), so re-runs and interrupted sweeps resume instead of
//!   recomputing — and a cached cell renders byte-identically to a
//!   fresh one (`u64` fields roundtrip exactly; `f64` fields roundtrip
//!   through Rust's shortest-representation `Display`).
//!
//! Wall-clock timing never enters the sweep artifact: it flows to
//! stderr and to [`hopp_obs`] `Lab` events (exportable as a Chrome
//! trace) only.
//!
//! This module is the one sanctioned home for threads in the
//! workspace; `hopp-check`'s determinism rule bans `thread::spawn` /
//! `thread::scope` everywhere else.
//!
//! [`Simulator`]: hopp_sim::Simulator

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hopp_obs::{Event, TimedEvent};
use hopp_scn::{fnv1a64, WorkloadSource};
use hopp_sim::runner::SOLO_PID;
use hopp_sim::{BaselineKind, SimConfig, SystemConfig};
use hopp_types::json::{self, escape, Value};
use hopp_types::{Nanos, Result};
use hopp_workloads::WorkloadKind;

use crate::experiments::quality_systems;

/// Runs `jobs` independent tasks over a pool of at most `threads`
/// worker threads and returns their results **in job-index order**,
/// regardless of completion order.
///
/// Workers claim indices from a shared atomic counter, so the mapping
/// of job → thread is racy — but each job's result lands in its own
/// index-addressed slot, and the returned `Vec` is assembled from the
/// slots, never from completion order. Callers that only consume the
/// returned order therefore observe identical output at any thread
/// count.
pub fn run_indexed<T, F>(threads: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(jobs.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = job(i);
                slots
                    .lock()
                    .expect("a lab worker panicked while holding the slot lock")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("a lab worker panicked while holding the slot lock")
        .into_iter()
        .map(|slot| slot.expect("every claimed job stores a result"))
        .collect()
}

/// The grid a sweep runs: the cross product of workloads × systems ×
/// seeds at one footprint and local-memory ratio.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Workload sources on the grid's first axis: catalogue workloads
    /// and DSL scenarios mix freely.
    pub workloads: Vec<WorkloadSource>,
    /// Systems on the second axis, with the label used in output rows.
    pub systems: Vec<(String, SystemConfig)>,
    /// Seeds on the third axis; multi-seed cells aggregate mean/min/max.
    pub seeds: Vec<u64>,
    /// Footprint of non-JVM workloads, in pages.
    pub footprint: u64,
    /// Footprint of JVM (Spark) workloads, in pages.
    pub spark_footprint: u64,
    /// Local memory as a fraction of the footprint.
    pub ratio: f64,
    /// Worker threads (1 = serial; output is identical either way).
    pub threads: usize,
    /// Cell cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl SweepSpec {
    /// The default `--quick` CI grid: 2 workloads × 2 systems × 2 seeds
    /// at the quick footprint — 8 cells, small enough to run twice in a
    /// CI job, large enough to exercise multi-seed aggregation.
    pub fn quick() -> Self {
        SweepSpec {
            workloads: vec![
                WorkloadSource::Catalogue(WorkloadKind::Kmeans),
                WorkloadSource::Catalogue(WorkloadKind::Quicksort),
            ],
            systems: labelled_quality_systems(),
            seeds: vec![42, 7],
            footprint: 1_024,
            spark_footprint: 1_024,
            ratio: 0.5,
            threads: 1,
            cache_dir: None,
        }
    }
}

/// [`quality_systems`], labelled for a sweep grid.
fn labelled_quality_systems() -> Vec<(String, SystemConfig)> {
    quality_systems()
        .map(|(name, system)| (name.to_string(), system))
        .to_vec()
}

/// One cell of the grid, fully identifying one simulator run.
#[derive(Clone, Debug)]
struct Cell {
    workload: WorkloadSource,
    system_label: String,
    system: SystemConfig,
    seed: u64,
    footprint: u64,
    ratio: f64,
}

/// The simulated quantities a cell produces. All fields are either
/// integers or `f64`s that roundtrip exactly through the cache, so a
/// cached cell is indistinguishable from a fresh one in the artifact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellMetrics {
    /// Completion time of the run under test, in simulated ns.
    pub completion_ns: u64,
    /// Completion time of the all-local reference run, in simulated ns.
    pub local_ns: u64,
    /// Page accesses executed.
    pub accesses: u64,
    /// Demand faults that read remote memory synchronously.
    pub major_faults: u64,
    /// Remote reads issued (faults + prefetches).
    pub remote_reads: u64,
    /// Prefetch accuracy.
    pub accuracy: f64,
    /// Prefetch coverage.
    pub coverage: f64,
}

impl CellMetrics {
    /// Normalized performance: `CT_local / CT_system`.
    pub fn normalized(&self) -> f64 {
        self.local_ns as f64 / self.completion_ns.max(1) as f64
    }
}

/// Outcome of one cell: its metrics, or the typed error that failed it.
/// A failed cell fails its own row only — never the sweep.
type CellOutcome = std::result::Result<CellMetrics, String>;

/// What [`run_sweep`] returns.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The aggregated sweep artifact: byte-identical across thread
    /// counts and across cold/warm (cached) runs of the same grid.
    pub json: String,
    /// Cells computed by running the simulator.
    pub cells_run: usize,
    /// Cells served from the on-disk cache.
    pub cells_cached: usize,
    /// Cells whose run failed (their rows carry the error).
    pub cells_failed: usize,
    /// Wall-clock `Lab` progress events (`LabCellStart`/`LabCellDone`),
    /// timestamped in nanoseconds since the sweep started. Exportable
    /// with [`hopp_obs::events_to_chrome_trace`]; never part of `json`.
    pub events: Vec<TimedEvent>,
}

/// Runs the sweep grid across the pool and aggregates in grid order.
///
/// # Errors
///
/// Returns an error only for harness-level failures (an unwritable
/// cache directory). Individual cell failures are reported inside the
/// artifact and counted in [`SweepOutcome::cells_failed`].
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepOutcome> {
    let cells = grid(spec);
    if let Some(dir) = &spec.cache_dir {
        // Surface an unusable cache directory before spawning workers.
        std::fs::create_dir_all(dir).map_err(|_| hopp_types::Error::InvalidConfig {
            what: "cache_dir",
            constraint: "a creatable directory",
        })?;
    }
    let started = Instant::now();
    let events: Mutex<Vec<TimedEvent>> = Mutex::new(Vec::with_capacity(cells.len() * 2));
    let total = cells.len() as u32;
    let outcomes: Vec<(CellOutcome, bool)> = run_indexed(spec.threads, cells.len(), |i| {
        let cell = &cells[i];
        let t0 = wall_nanos(&started);
        push_event(
            &events,
            t0,
            Event::LabCellStart {
                index: i as u32,
                total,
            },
        );
        let (outcome, cached) = run_cell_cached(cell, spec.cache_dir.as_deref());
        let t1 = wall_nanos(&started);
        push_event(
            &events,
            t1,
            Event::LabCellDone {
                index: i as u32,
                cached,
                wall: Nanos::from_nanos(t1.as_nanos().saturating_sub(t0.as_nanos())),
            },
        );
        (outcome, cached)
    });
    let cells_cached = outcomes.iter().filter(|(_, cached)| *cached).count();
    let cells_failed = outcomes.iter().filter(|(o, _)| o.is_err()).count();
    let cells_run = outcomes.len() - cells_cached - cells_failed;
    let json = render_sweep_json(spec, &cells, &outcomes);
    Ok(SweepOutcome {
        json,
        cells_run,
        cells_cached,
        cells_failed,
        events: events
            .into_inner()
            .expect("a lab worker panicked while holding the event lock"),
    })
}

/// Builds the grid in canonical order: workload-major, then system,
/// then seed. Aggregation and rendering follow this order exactly.
fn grid(spec: &SweepSpec) -> Vec<Cell> {
    let mut cells =
        Vec::with_capacity(spec.workloads.len() * spec.systems.len() * spec.seeds.len());
    for workload in &spec.workloads {
        let footprint = workload.footprint(spec.footprint, spec.spark_footprint);
        for (label, system) in &spec.systems {
            for &seed in &spec.seeds {
                cells.push(Cell {
                    workload: workload.clone(),
                    system_label: label.clone(),
                    system: *system,
                    seed,
                    footprint,
                    ratio: spec.ratio,
                });
            }
        }
    }
    cells
}

fn wall_nanos(started: &Instant) -> Nanos {
    Nanos::from_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

fn push_event(events: &Mutex<Vec<TimedEvent>>, at: Nanos, event: Event) {
    events
        .lock()
        .expect("a lab worker panicked while holding the event lock")
        .push(TimedEvent { at, event });
}

/// Runs one cell, consulting the on-disk cache first. Returns the
/// outcome and whether it came from the cache.
fn run_cell_cached(cell: &Cell, cache_dir: Option<&Path>) -> (CellOutcome, bool) {
    let fingerprint = cell_fingerprint(cell);
    let path =
        cache_dir.map(|dir| dir.join(format!("{:016x}.json", fnv1a64(fingerprint.as_bytes()))));
    if let Some(path) = &path {
        if let Some(metrics) = load_cached_cell(path, &fingerprint) {
            return (Ok(metrics), true);
        }
    }
    let outcome = run_cell(cell).map_err(|e| e.to_string());
    if let (Some(path), Ok(metrics)) = (&path, &outcome) {
        // Cache write failures are non-fatal: the next run recomputes.
        let _ = std::fs::write(path, cell_cache_json(&fingerprint, metrics));
    }
    (outcome, false)
}

/// The isolated simulator run behind one cell: the all-local reference
/// plus the system under test, both keyed by the cell's seed.
fn run_cell(cell: &Cell) -> Result<CellMetrics> {
    let local = hopp_sim::run_stream_with(
        SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch)),
        SOLO_PID,
        cell.workload.build(SOLO_PID, cell.footprint, cell.seed),
        cell.footprint,
        1.25,
    )?;
    let report = hopp_sim::run_stream_with(
        SimConfig::with_system(cell.system),
        SOLO_PID,
        cell.workload.build(SOLO_PID, cell.footprint, cell.seed),
        cell.footprint,
        cell.ratio,
    )?;
    Ok(CellMetrics {
        completion_ns: report.completion.as_nanos(),
        local_ns: local.completion.as_nanos(),
        accesses: report.counters.accesses,
        major_faults: report.counters.major_faults,
        remote_reads: report.remote_reads(),
        accuracy: report.accuracy(),
        coverage: report.coverage(),
    })
}

/// The canonical cache key of a cell: a schema version, the cell's
/// grid coordinates, and the full [`SimConfig::fingerprint`] of the
/// run it performs. Any knob change anywhere in the config tree
/// changes this string and therefore the cell's cache slot. The
/// workload component is [`WorkloadSource::cache_tag`], which embeds a
/// scenario's file-content hash — *editing* a scenario TOML invalidates
/// its cached cells even when the path and name stay the same.
fn cell_fingerprint(cell: &Cell) -> String {
    let config = SimConfig::with_system(cell.system);
    format!(
        "hopp-lab-cell/v1|workload={}|system={}|seed={}|footprint={}|ratio={:?}|{}",
        cell.workload.cache_tag(),
        cell.system_label,
        cell.seed,
        cell.footprint,
        cell.ratio,
        config.fingerprint()
    )
}

/// Serializes one cached cell. `f64` fields use Rust's shortest
/// roundtrip `Display`, so parsing them back yields the identical bit
/// pattern and cached cells render byte-identically to fresh ones.
fn cell_cache_json(fingerprint: &str, m: &CellMetrics) -> String {
    format!(
        "{{\"schema\":\"hopp-lab-cell/v1\",\"fingerprint\":\"{}\",\
         \"completion_ns\":{},\"local_ns\":{},\"accesses\":{},\"major_faults\":{},\
         \"remote_reads\":{},\"accuracy\":{},\"coverage\":{}}}\n",
        escape(fingerprint),
        m.completion_ns,
        m.local_ns,
        m.accesses,
        m.major_faults,
        m.remote_reads,
        m.accuracy,
        m.coverage
    )
}

/// Loads a cached cell, returning `None` on any mismatch (missing
/// file, wrong schema, fingerprint collision, parse failure) so the
/// cell is recomputed.
fn load_cached_cell(path: &Path, fingerprint: &str) -> Option<CellMetrics> {
    let doc = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let text = |k: &str| doc.get(k).and_then(Value::as_str);
    if text("schema")? != "hopp-lab-cell/v1" || text("fingerprint")? != fingerprint {
        return None;
    }
    let int = |k: &str| doc.get(k).and_then(Value::as_u64);
    let float = |k: &str| doc.get(k).and_then(Value::as_f64);
    Some(CellMetrics {
        completion_ns: int("completion_ns")?,
        local_ns: int("local_ns")?,
        accesses: int("accesses")?,
        major_faults: int("major_faults")?,
        remote_reads: int("remote_reads")?,
        accuracy: float("accuracy")?,
        coverage: float("coverage")?,
    })
}

/// Renders the sweep artifact: per-cell rows in grid order, then
/// per-(workload, system) mean/min/max aggregates across seeds.
/// Contains only simulated quantities — never wall-clock time or
/// cache status — so cold/warm and 1-thread/N-thread runs emit
/// byte-identical documents.
fn render_sweep_json(spec: &SweepSpec, cells: &[Cell], outcomes: &[(CellOutcome, bool)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"hopp-lab-sweep/v1\",\n  \"grid\": {");
    let _ = writeln!(
        out,
        "\"workloads\": [{}], \"systems\": [{}], \"seeds\": [{}], \
         \"footprint\": {}, \"spark_footprint\": {}, \"ratio\": {}}},",
        spec.workloads
            .iter()
            .map(|w| format!("\"{}\"", w.name()))
            .collect::<Vec<_>>()
            .join(", "),
        spec.systems
            .iter()
            .map(|(label, _)| format!("\"{}\"", escape(label)))
            .collect::<Vec<_>>()
            .join(", "),
        spec.seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        spec.footprint,
        spec.spark_footprint,
        spec.ratio
    );
    out.push_str("  \"cells\": [\n");
    for (i, (cell, (outcome, _))) in cells.iter().zip(outcomes).enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"system\": \"{}\", \"seed\": {}, ",
            cell.workload.name(),
            escape(&cell.system_label),
            cell.seed
        );
        match outcome {
            Ok(m) => {
                let _ = write!(
                    out,
                    "\"completion_ns\": {}, \"local_ns\": {}, \"normalized\": {}, \
                     \"accuracy\": {}, \"coverage\": {}, \"accesses\": {}, \
                     \"major_faults\": {}, \"remote_reads\": {}}}",
                    m.completion_ns,
                    m.local_ns,
                    m.normalized(),
                    m.accuracy,
                    m.coverage,
                    m.accesses,
                    m.major_faults,
                    m.remote_reads
                );
            }
            Err(e) => {
                let _ = write!(out, "\"error\": \"{}\"}}", escape(e));
            }
        }
        out.push_str(if i + 1 == cells.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"aggregates\": [\n");
    let mut agg_rows = Vec::new();
    for workload in &spec.workloads {
        for (label, _) in &spec.systems {
            let ok_cells: Vec<&CellMetrics> = cells
                .iter()
                .zip(outcomes)
                .filter(|(c, _)| c.workload == *workload && c.system_label == *label)
                .filter_map(|(_, (o, _))| o.as_ref().ok())
                .collect();
            if ok_cells.is_empty() {
                continue;
            }
            let mut row = format!(
                "    {{\"workload\": \"{}\", \"system\": \"{}\", \"seeds\": {}",
                workload.name(),
                escape(label),
                ok_cells.len()
            );
            for (key, values) in [
                (
                    "normalized",
                    ok_cells.iter().map(|m| m.normalized()).collect::<Vec<_>>(),
                ),
                (
                    "accuracy",
                    ok_cells.iter().map(|m| m.accuracy).collect::<Vec<_>>(),
                ),
                (
                    "coverage",
                    ok_cells.iter().map(|m| m.coverage).collect::<Vec<_>>(),
                ),
            ] {
                let (mean, min, max) = mean_min_max(&values);
                let _ = write!(
                    row,
                    ", \"{key}\": {{\"mean\": {mean}, \"min\": {min}, \"max\": {max}}}"
                );
            }
            row.push('}');
            agg_rows.push(row);
        }
    }
    out.push_str(&agg_rows.join(",\n"));
    if !agg_rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Mean/min/max in first-to-last order (grid order), so float
/// summation order — and therefore the rendered digits — is fixed.
fn mean_min_max(values: &[f64]) -> (f64, f64, f64) {
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        sum += v;
        min = min.min(v);
        max = max.max(v);
    }
    (sum / values.len() as f64, min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(threads: usize, cache_dir: Option<PathBuf>) -> SweepSpec {
        SweepSpec {
            workloads: vec![WorkloadSource::Catalogue(WorkloadKind::Kmeans)],
            systems: labelled_quality_systems(),
            seeds: vec![42, 7],
            footprint: 256,
            spark_footprint: 256,
            ratio: 0.5,
            threads,
            cache_dir,
        }
    }

    #[test]
    fn pool_returns_results_in_index_order_at_any_thread_count() {
        let serial = run_indexed(1, 17, |i| i * i);
        for threads in [2, 4, 8] {
            assert_eq!(run_indexed(threads, 17, |i| i * i), serial);
        }
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn sweep_json_is_identical_across_thread_counts() {
        let one = run_sweep(&tiny_spec(1, None)).expect("sweep runs");
        let four = run_sweep(&tiny_spec(4, None)).expect("sweep runs");
        assert_eq!(one.json, four.json, "grid-order aggregation is byte-stable");
        let doc = json::parse(&one.json).expect("the sweep artifact parses");
        let rows = |k: &str| doc.get(k).and_then(Value::as_arr).map(<[Value]>::len);
        assert_eq!((rows("cells"), rows("aggregates")), (Some(4), Some(2)));
        assert_eq!(one.cells_run, 4);
        assert_eq!(one.cells_failed, 0);
        // Two progress events per cell, on the Lab track.
        assert_eq!(one.events.len(), 8);
        assert!(one
            .events
            .iter()
            .all(|e| e.event.component() == hopp_obs::Component::Lab));
    }

    #[test]
    fn cached_cells_render_byte_identically_to_fresh_ones() {
        let dir = std::env::temp_dir().join(format!("hopp-lab-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run_sweep(&tiny_spec(2, Some(dir.clone()))).expect("cold sweep runs");
        assert_eq!(cold.cells_cached, 0);
        let warm = run_sweep(&tiny_spec(2, Some(dir.clone()))).expect("warm sweep runs");
        assert_eq!(warm.cells_cached, 4, "every cell served from cache");
        assert_eq!(warm.cells_run, 0);
        assert_eq!(cold.json, warm.json, "cache roundtrip is byte-exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_entries_are_invalidated_by_fingerprint_mismatch() {
        let m = CellMetrics {
            completion_ns: 10,
            local_ns: 5,
            accesses: 100,
            major_faults: 3,
            remote_reads: 7,
            accuracy: 0.25,
            coverage: 1.0 / 3.0,
        };
        let doc = cell_cache_json("fp-a", &m);
        let dir = std::env::temp_dir().join(format!("hopp-lab-fp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cell.json");
        std::fs::write(&path, &doc).expect("write cache entry");
        assert_eq!(load_cached_cell(&path, "fp-a"), Some(m));
        assert_eq!(load_cached_cell(&path, "fp-b"), None, "stale entries miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_cache_roundtrip_is_bit_exact() {
        for v in [1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 12345.678901234567] {
            let rendered = format!("{v}");
            let parsed: f64 = rendered.parse().expect("shortest display reparses");
            assert_eq!(parsed.to_bits(), v.to_bits(), "{rendered}");
        }
    }
}
