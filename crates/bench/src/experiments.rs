//! The experiment generators (one per table/figure).
//!
//! Every generator that runs the simulator returns
//! [`hopp_types::Result`]: a failed run (typed [`hopp_types::Error`])
//! propagates to the caller instead of killing the process, so a sweep
//! cell that fails takes down only its own cell. Pure computations
//! (`hwcost`, `quality_json`, `fig16_systems`) stay infallible.

use hopp_core::three_tier::TierConfig;
use hopp_core::{HoppConfig, PolicyConfig};
use hopp_hw::{HpdConfig, HwCostModel, RptCacheConfig};
use hopp_scn::{Scenario, WorkloadSource};
use hopp_sim::runner::SOLO_PID;
use hopp_sim::{
    AppSpec, BaselineKind, FabricConfig, FaultScript, PlacementKind, SimConfig, SimReport,
    Simulator, SystemConfig,
};
use hopp_types::{Error, Nanos, Pid, Result};
use hopp_workloads::WorkloadKind;

/// Experiment sizing. Footprints are in 4 KB pages; the defaults keep a
/// full `experiments all` run to a couple of minutes in release mode
/// while staying far above the simulated LLC so capacity misses behave
/// like the paper's multi-GB footprints.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Footprint of the native workloads, in pages.
    pub footprint: u64,
    /// Footprint of the Spark workloads, in pages.
    pub spark_footprint: u64,
    /// RNG seed for all workload randomness.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            footprint: 4_096,
            spark_footprint: 4_096,
            seed: 42,
        }
    }
}

impl Scale {
    /// A reduced scale for CI and smoke runs.
    pub fn quick() -> Self {
        Scale {
            footprint: 1_024,
            spark_footprint: 1_024,
            seed: 42,
        }
    }

    fn footprint_of(&self, kind: WorkloadKind) -> u64 {
        if kind.is_jvm() {
            self.spark_footprint
        } else {
            self.footprint
        }
    }
}

/// The four workloads the tracked `BENCH_quality.json` baseline is recorded
/// over (one per pattern family: scan, phase-chained, ripple, graph).
pub fn default_bench_workloads() -> Vec<WorkloadSource> {
    [
        WorkloadKind::Kmeans,
        WorkloadKind::Quicksort,
        WorkloadKind::NpbMg,
        WorkloadKind::GraphPr,
    ]
    .into_iter()
    .map(WorkloadSource::Catalogue)
    .collect()
}

/// The widened `--full` axis: the entire 15-workload catalogue plus any
/// scenarios, so the quality grid scales past 20 entries
/// from a checked-in `scenarios/` directory.
pub fn full_bench_workloads(scenarios: &[Scenario]) -> Vec<WorkloadSource> {
    let mut out: Vec<WorkloadSource> = WorkloadKind::ALL
        .into_iter()
        .map(WorkloadSource::Catalogue)
        .collect();
    out.extend(scenarios.iter().cloned().map(WorkloadSource::Scenario));
    out
}

/// One (workload, system) evaluation at a memory ratio.
#[derive(Clone, Debug)]
pub struct PerfRecord {
    /// The workload.
    pub workload: WorkloadKind,
    /// Fraction of the footprint kept local.
    pub ratio: f64,
    /// All-local completion time (the normalization baseline).
    pub local_ct: Nanos,
    /// The Fastswap run.
    pub fastswap: SimReport,
    /// The HoPP (on Fastswap) run.
    pub hopp: SimReport,
}

impl PerfRecord {
    /// Normalized performance of a run.
    pub fn normalized(&self, report: &SimReport) -> f64 {
        self.local_ct.as_nanos() as f64 / report.completion.as_nanos() as f64
    }
}

/// Runs the Fastswap-vs-HoPP matrix for a workload group.
pub fn perf_matrix(scale: &Scale, group: &[WorkloadKind], ratio: f64) -> Result<Vec<PerfRecord>> {
    let mut records = Vec::with_capacity(group.len());
    for &kind in group {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?;
        let fastswap = hopp_sim::run_workload(
            kind,
            fp,
            scale.seed,
            SystemConfig::Baseline(BaselineKind::Fastswap),
            ratio,
        )?;
        let hopp =
            hopp_sim::run_workload(kind, fp, scale.seed, SystemConfig::hopp_default(), ratio)?;
        records.push(PerfRecord {
            workload: kind,
            ratio,
            local_ct: local.completion,
            fastswap,
            hopp,
        });
    }
    Ok(records)
}

/// Table II: hot pages identified per memory access, sweeping the HPD
/// threshold `N`.
pub fn table2(scale: &Scale) -> Result<Vec<(WorkloadKind, Vec<(u32, f64)>)>> {
    const NS: [u32; 5] = [2, 4, 8, 16, 32];
    let workloads = [
        WorkloadKind::Kmeans,
        WorkloadKind::GraphPr,
        WorkloadKind::GraphCc,
        WorkloadKind::GraphLp,
        WorkloadKind::GraphBfs,
    ];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let mut rows = Vec::with_capacity(NS.len());
        for &n in &NS {
            let config = SimConfig {
                hpd: HpdConfig::with_threshold(n),
                ..SimConfig::with_system(SystemConfig::hopp_default())
            };
            let report = hopp_sim::run_workload_with(
                config,
                kind,
                scale.footprint_of(kind),
                scale.seed,
                0.5,
            )?;
            rows.push((n, report.hpd.hot_ratio() * 100.0));
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// Table III: RPT cache hit rate while sweeping its capacity.
pub fn table3(scale: &Scale) -> Result<Vec<(WorkloadKind, Vec<(usize, f64)>)>> {
    const KIBS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
    let workloads = [WorkloadKind::Kmeans, WorkloadKind::GraphPr];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let mut rows = Vec::with_capacity(KIBS.len());
        for &kib in &KIBS {
            let config = SimConfig {
                rpt: RptCacheConfig::with_kib(kib),
                ..SimConfig::with_system(SystemConfig::hopp_default())
            };
            let report = hopp_sim::run_workload_with(
                config,
                kind,
                scale.footprint_of(kind),
                scale.seed,
                0.5,
            )?;
            rows.push((kib, report.rpt.hit_rate()));
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// Table V: DRAM bandwidth consumed by hot-page extraction and RPT
/// queries, as a percentage of application traffic.
pub fn table5(scale: &Scale) -> Result<Vec<(WorkloadKind, f64, f64)>> {
    let mut programs: Vec<WorkloadKind> = WorkloadKind::NON_JVM.to_vec();
    programs.extend(WorkloadKind::SPARK);
    let mut out = Vec::with_capacity(programs.len());
    for kind in programs {
        // 4x the usual footprint so the working set exceeds the
        // 8192-entry RPT cache and its DRAM traffic is measurable,
        // as with the paper's multi-GB footprints.
        let report = hopp_sim::run_workload(
            kind,
            scale.footprint_of(kind) * 4,
            scale.seed,
            SystemConfig::hopp_default(),
            0.5,
        )?;
        out.push((
            kind,
            report.ledger.hpd_overhead_percent(),
            report.ledger.rpt_overhead_percent(),
        ));
    }
    Ok(out)
}

/// Figures 9–11: non-JVM workloads at 50 % and 25 % local memory.
pub fn fig9_matrix(scale: &Scale) -> Result<(Vec<PerfRecord>, Vec<PerfRecord>)> {
    Ok((
        perf_matrix(scale, &WorkloadKind::NON_JVM, 0.5)?,
        perf_matrix(scale, &WorkloadKind::NON_JVM, 0.25)?,
    ))
}

/// Figures 12–14: Spark workloads. The GraphX jobs and Bayes run at
/// one-third local memory (the paper's 11 GB of 33 GB); Spark-Kmeans
/// runs at ~15 % (the paper caps it at 2 GB of its 13 GB footprint).
pub fn fig12_matrix(scale: &Scale) -> Result<Vec<PerfRecord>> {
    let mut records = Vec::new();
    for &kind in WorkloadKind::SPARK.iter() {
        let ratio = if kind == WorkloadKind::SparkKmeans {
            0.15
        } else {
            1.0 / 3.0
        };
        records.extend(perf_matrix(scale, &[kind], ratio)?);
    }
    Ok(records)
}

/// Fig 15: co-running application pairs; per-app speedup of HoPP over
/// Fastswap with each app's local memory capped at 50 % via cgroups.
pub fn fig15(scale: &Scale) -> Result<Vec<(String, Vec<(WorkloadKind, f64)>)>> {
    let groups: [&[WorkloadKind]; 4] = [
        &[WorkloadKind::Kmeans, WorkloadKind::GraphPr],
        &[WorkloadKind::Quicksort, WorkloadKind::NpbMg],
        &[WorkloadKind::Hpl, WorkloadKind::NpbCg],
        &[
            WorkloadKind::Kmeans,
            WorkloadKind::NpbLu,
            WorkloadKind::NpbIs,
        ],
    ];
    let mut out = Vec::with_capacity(groups.len());
    for &group in &groups {
        let run_group = |system: SystemConfig| -> Result<SimReport> {
            let apps = group
                .iter()
                .enumerate()
                .map(|(i, &kind)| AppSpec {
                    pid: Pid::from_index(i + 1),
                    stream: kind.build(
                        Pid::from_index(i + 1),
                        scale.footprint_of(kind),
                        scale.seed + i as u64,
                    ),
                    limit_pages: (scale.footprint_of(kind) / 2) as usize,
                })
                .collect();
            Simulator::new(SimConfig::with_system(system), apps)?.run()
        };
        let fs = run_group(SystemConfig::Baseline(BaselineKind::Fastswap))?;
        let hp = run_group(SystemConfig::hopp_default())?;
        let mut speedups = Vec::with_capacity(group.len());
        for (i, &kind) in group.iter().enumerate() {
            let pid = Pid::from_index(i + 1);
            let f = fs
                .app_completion(pid)
                .ok_or(Error::UnknownProcess { pid })?
                .as_nanos() as f64;
            let h = hp
                .app_completion(pid)
                .ok_or(Error::UnknownProcess { pid })?
                .as_nanos() as f64;
            speedups.push((kind, f / h));
        }
        let label = group.iter().map(|k| k.name()).collect::<Vec<_>>().join("+");
        out.push((label, speedups));
    }
    Ok(out)
}

/// The systems compared in Fig 16/17.
pub fn fig16_systems() -> [(&'static str, SystemConfig); 4] {
    [
        ("Depth-16", SystemConfig::Baseline(BaselineKind::DepthN(16))),
        ("Depth-32", SystemConfig::Baseline(BaselineKind::DepthN(32))),
        ("Fastswap", SystemConfig::Baseline(BaselineKind::Fastswap)),
        ("HoPP", SystemConfig::hopp_default()),
    ]
}

/// One Fig 16/17 row: per-system normalized performance and normalized
/// remote accesses (versus Fastswap-without-prefetching).
#[derive(Clone, Debug)]
pub struct DepthRow {
    /// The workload.
    pub workload: WorkloadKind,
    /// Per system: (name, normalized performance, normalized remote
    /// accesses).
    pub systems: Vec<(&'static str, f64, f64)>,
}

/// Figures 16 and 17: Depth-N versus Fastswap versus HoPP.
pub fn fig16_17(scale: &Scale) -> Result<Vec<DepthRow>> {
    let workloads = [
        WorkloadKind::NpbCg,
        WorkloadKind::NpbFt,
        WorkloadKind::NpbLu,
        WorkloadKind::NpbMg,
        WorkloadKind::NpbIs,
        WorkloadKind::Kmeans,
        WorkloadKind::Quicksort,
    ];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        let no_prefetch = hopp_sim::run_workload(
            kind,
            fp,
            scale.seed,
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            0.5,
        )?;
        let base_remote = no_prefetch.remote_reads().max(1) as f64;
        let mut systems = Vec::with_capacity(fig16_systems().len());
        for &(name, system) in fig16_systems().iter() {
            let r = hopp_sim::run_workload(kind, fp, scale.seed, system, 0.5)?;
            systems.push((
                name,
                local / r.completion.as_nanos() as f64,
                r.remote_reads() as f64 / base_remote,
            ));
        }
        out.push(DepthRow {
            workload: kind,
            systems,
        });
    }
    Ok(out)
}

/// One Fig 18–20 row: the tier ablation for one workload.
#[derive(Clone, Debug)]
pub struct TierRow {
    /// The workload.
    pub workload: WorkloadKind,
    /// Speedup over Fastswap with SSP only / SSP+LSP / all three.
    pub speedup: [f64; 3],
    /// Accuracy of each tier's own prefetches in the full system.
    pub tier_accuracy: [f64; 3],
    /// Coverage contributed by each tier in the full system.
    pub tier_coverage: [f64; 3],
}

/// Figures 18, 19, 20: adding LSP and RSP on top of SSP.
pub fn fig18_20(scale: &Scale) -> Result<Vec<TierRow>> {
    let workloads = [
        WorkloadKind::Hpl,
        WorkloadKind::NpbMg,
        WorkloadKind::NpbFt,
        WorkloadKind::Kmeans,
        WorkloadKind::Quicksort,
    ];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let fs_ct = hopp_sim::run_workload(
            kind,
            fp,
            scale.seed,
            SystemConfig::Baseline(BaselineKind::Fastswap),
            0.5,
        )?
        .completion
        .as_nanos() as f64;
        let run_tier = |tiers: TierConfig| -> Result<SimReport> {
            let config = HoppConfig {
                tiers,
                ..HoppConfig::default()
            };
            hopp_sim::run_workload(kind, fp, scale.seed, SystemConfig::hopp_with(config), 0.5)
        };
        let speedup_of = |r: &SimReport| 1.0 - r.completion.as_nanos() as f64 / fs_ct;
        let ssp = run_tier(TierConfig::ssp_only())?;
        let ssp_lsp = run_tier(TierConfig::ssp_lsp())?;
        let full = run_tier(TierConfig::default())?;
        let speedup = [speedup_of(&ssp), speedup_of(&ssp_lsp), speedup_of(&full)];
        let tiers = full.hopp_tiers.ok_or(Error::InvalidConfig {
            what: "hopp_tiers",
            constraint: "per-tier metrics present on SystemConfig::Hopp runs",
        })?;
        let denom = (full.counters.major_faults
            + full.baseline.prefetch_hits
            + full.hopp.map(|h| h.prefetch_hits).unwrap_or(0))
        .max(1) as f64;
        out.push(TierRow {
            workload: kind,
            speedup,
            tier_accuracy: [tiers[0].accuracy, tiers[1].accuracy, tiers[2].accuracy],
            tier_coverage: [
                tiers[0].prefetch_hits as f64 / denom,
                tiers[1].prefetch_hits as f64 / denom,
                tiers[2].prefetch_hits as f64 / denom,
            ],
        });
    }
    Ok(out)
}

/// One Fig 21 point.
#[derive(Clone, Copy, Debug)]
pub struct ScatterPoint {
    /// The workload.
    pub workload: WorkloadKind,
    /// "fastswap" or "hopp".
    pub system: &'static str,
    /// Prefetch accuracy.
    pub accuracy: f64,
    /// Prefetch coverage.
    pub coverage: f64,
    /// Normalized performance.
    pub normalized: f64,
}

/// Figure 21: normalized performance against (accuracy, coverage) for
/// every workload under both systems at 50 % local memory.
pub fn fig21(scale: &Scale) -> Result<Vec<ScatterPoint>> {
    let mut points = Vec::new();
    let mut group: Vec<WorkloadKind> = WorkloadKind::NON_JVM.to_vec();
    group.extend(WorkloadKind::SPARK);
    for rec in perf_matrix(scale, &group, 0.5)? {
        points.push(ScatterPoint {
            workload: rec.workload,
            system: "fastswap",
            accuracy: rec.fastswap.accuracy(),
            coverage: rec.fastswap.coverage(),
            normalized: rec.normalized(&rec.fastswap),
        });
        points.push(ScatterPoint {
            workload: rec.workload,
            system: "hopp",
            accuracy: rec.hopp.accuracy(),
            coverage: rec.hopp.coverage(),
            normalized: rec.normalized(&rec.hopp),
        });
    }
    Ok(points)
}

/// The systems compared on the §VI-E microbenchmark (Fig 22).
pub fn fig22(scale: &Scale) -> Result<Vec<(&'static str, f64)>> {
    let kind = WorkloadKind::Microbench;
    let fp = scale.footprint;
    let fs_ct = hopp_sim::run_workload(
        kind,
        fp,
        scale.seed,
        SystemConfig::Baseline(BaselineKind::Fastswap),
        0.5,
    )?
    .completion
    .as_nanos() as f64;
    let speedup = |system: SystemConfig| -> Result<f64> {
        let r = hopp_sim::run_workload(kind, fp, scale.seed, system, 0.5)?;
        Ok(1.0 - r.completion.as_nanos() as f64 / fs_ct)
    };
    let hopp_fixed = |offset: f64| {
        SystemConfig::hopp_with(HoppConfig {
            policy: PolicyConfig::fixed_offset(offset),
            ..HoppConfig::default()
        })
    };
    Ok(vec![
        ("Leap", speedup(SystemConfig::Baseline(BaselineKind::Leap))?),
        ("VMA", speedup(SystemConfig::Baseline(BaselineKind::Vma))?),
        (
            "Depth-32",
            speedup(SystemConfig::Baseline(BaselineKind::DepthN(32)))?,
        ),
        ("HoPP (offset=1)", speedup(hopp_fixed(1.0))?),
        ("HoPP (offset=20K)", speedup(hopp_fixed(20_000.0))?),
        ("HoPP (dynamic)", speedup(SystemConfig::hopp_default())?),
    ])
}

/// Fig 22 under latency volatility (§III-E's stated motivation): the
/// same HoPP offset configurations on a link with periodic 8x
/// congestion bursts. This is where the dynamic controller separates
/// from a pinned offset of 1.
pub fn fig22_volatile(scale: &Scale) -> Result<Vec<(&'static str, f64)>> {
    use hopp_net::RdmaConfig;
    let kind = WorkloadKind::Microbench;
    let fp = scale.footprint;
    let volatile = |system: SystemConfig| SimConfig {
        rdma: RdmaConfig::volatile(),
        ..SimConfig::with_system(system)
    };
    let fs_ct = hopp_sim::run_workload_with(
        volatile(SystemConfig::Baseline(BaselineKind::Fastswap)),
        kind,
        fp,
        scale.seed,
        0.5,
    )?
    .completion
    .as_nanos() as f64;
    let speedup = |system: SystemConfig| -> Result<f64> {
        let r = hopp_sim::run_workload_with(volatile(system), kind, fp, scale.seed, 0.5)?;
        Ok(1.0 - r.completion.as_nanos() as f64 / fs_ct)
    };
    let hopp_fixed = |offset: f64| {
        SystemConfig::hopp_with(HoppConfig {
            policy: PolicyConfig::fixed_offset(offset),
            ..HoppConfig::default()
        })
    };
    Ok(vec![
        ("HoPP (offset=1)", speedup(hopp_fixed(1.0))?),
        ("HoPP (offset=20K)", speedup(hopp_fixed(20_000.0))?),
        ("HoPP (dynamic)", speedup(SystemConfig::hopp_default())?),
    ])
}

/// Ablation of Leap's own adaptive prefetch-window sizing: fixed depth
/// vs the grow-on-hit/shrink-on-miss window, per workload. Reports
/// (workload, fixed coverage, adaptive coverage, fixed norm-perf,
/// adaptive norm-perf).
pub fn leap_window(scale: &Scale) -> Result<Vec<(WorkloadKind, f64, f64, f64, f64)>> {
    use hopp_baselines::LeapPrefetcher;
    use hopp_kernel::Prefetcher;
    let workloads = [WorkloadKind::NpbLu, WorkloadKind::Quicksort];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        let run_leap = |leap: Box<dyn Prefetcher>| -> Result<SimReport> {
            let app = AppSpec {
                pid: Pid::new(1),
                stream: kind.build(Pid::new(1), fp, scale.seed),
                limit_pages: (fp / 2) as usize,
            };
            let mut sim = Simulator::new(
                SimConfig::with_system(SystemConfig::Baseline(BaselineKind::Leap)),
                vec![app],
            )?;
            sim.replace_baseline(leap);
            sim.run()
        };
        let fixed = run_leap(Box::new(LeapPrefetcher::new(4, 8)))?;
        let adaptive = run_leap(Box::new(LeapPrefetcher::adaptive(4, 2, 32)))?;
        out.push((
            kind,
            fixed.coverage(),
            adaptive.coverage(),
            local / fixed.completion.as_nanos() as f64,
            local / adaptive.completion.as_nanos() as f64,
        ));
    }
    Ok(out)
}

/// §II-B's motivating study: fault-driven Leap versus the revamped
/// majority prefetcher on the full trace (page clustering + large
/// window == HoPP restricted to SSP).
pub fn motivate(scale: &Scale) -> Result<Vec<(WorkloadKind, [f64; 2], [f64; 2])>> {
    let workloads = [
        WorkloadKind::Microbench,
        WorkloadKind::Kmeans,
        WorkloadKind::NpbLu,
    ];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let leap = hopp_sim::run_workload(
            kind,
            fp,
            scale.seed,
            SystemConfig::Baseline(BaselineKind::Leap),
            0.5,
        )?;
        let ssp = hopp_sim::run_workload(
            kind,
            fp,
            scale.seed,
            SystemConfig::hopp_with(HoppConfig {
                tiers: TierConfig::ssp_only(),
                ..HoppConfig::default()
            }),
            0.5,
        )?;
        out.push((
            kind,
            [leap.accuracy(), leap.coverage()],
            [ssp.accuracy(), ssp.coverage()],
        ));
    }
    Ok(out)
}

/// Policy-engine sensitivity (an ablation of §III-E's *prefetch
/// intensity* knob beyond the paper's figures): normalized performance
/// and the swapcache/DRAM-hit coverage split while sweeping the pages
/// issued per hot page.
pub fn intensity_sweep(scale: &Scale) -> Result<Vec<(WorkloadKind, Vec<(u32, f64, f64, f64)>)>> {
    let workloads = [
        WorkloadKind::NpbMg,
        WorkloadKind::NpbCg,
        WorkloadKind::NpbIs,
    ];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        let mut rows = Vec::new();
        for &intensity in &[1u32, 2, 4] {
            let config = HoppConfig {
                policy: PolicyConfig {
                    intensity,
                    ..PolicyConfig::default()
                },
                ..HoppConfig::default()
            };
            let r =
                hopp_sim::run_workload(kind, fp, scale.seed, SystemConfig::hopp_with(config), 0.5)?;
            rows.push((
                intensity,
                local / r.completion.as_nanos() as f64,
                r.coverage_swapcache(),
                r.coverage_injected(),
            ));
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// §III-B extension: the impact of multiple interleaved memory
/// channels. Each channel runs an HPD with threshold `N / channels`;
/// repeated extractions are de-duplicated in the training framework.
/// Reports (channels, hot-page ratio %, coverage, normalized perf).
pub fn channels_sweep(scale: &Scale) -> Result<Vec<(WorkloadKind, Vec<(usize, f64, f64, f64)>)>> {
    let workloads = [WorkloadKind::Kmeans, WorkloadKind::NpbLu];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        let mut rows = Vec::new();
        for &channels in &[1usize, 2, 4] {
            let config = SimConfig {
                channels,
                ..SimConfig::with_system(SystemConfig::hopp_default())
            };
            let r = hopp_sim::run_workload_with(config, kind, fp, scale.seed, 0.5)?;
            rows.push((
                channels,
                r.hpd.hot_ratio() * 100.0,
                r.coverage(),
                local / r.completion.as_nanos() as f64,
            ));
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// §IV extension: huge-page batched prefetching for proven long
/// stride-1 streams. Reports per workload: (batching?, normalized
/// perf, RDMA read *requests*, pages moved).
pub fn hugepage_study(scale: &Scale) -> Result<Vec<(WorkloadKind, bool, f64, u64, u64)>> {
    let workloads = [
        WorkloadKind::Kmeans,
        WorkloadKind::Microbench,
        WorkloadKind::Quicksort,
    ];
    let mut rows = Vec::new();
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        for batching in [false, true] {
            // The paper's batch is 512 pages (2 MB) against multi-GB
            // footprints; at this simulation's ~16 MB footprints the
            // proportional batch is 64 pages.
            let policy = if batching {
                PolicyConfig {
                    huge_batch: Some(hopp_core::policy::HugeBatchConfig {
                        min_confirmations: 64,
                        batch_pages: 64,
                    }),
                    ..PolicyConfig::default()
                }
            } else {
                PolicyConfig::default()
            };
            let r = hopp_sim::run_workload(
                kind,
                fp,
                scale.seed,
                SystemConfig::hopp_with(HoppConfig {
                    policy,
                    ..HoppConfig::default()
                }),
                0.5,
            )?;
            rows.push((
                kind,
                batching,
                local / r.completion.as_nanos() as f64,
                r.rdma.reads,
                r.rdma.bytes / hopp_types::PAGE_SIZE as u64,
            ));
        }
    }
    Ok(rows)
}

/// §III-D extension: the Markov (address-correlation) trainer against
/// adaptive three-tier prefetching. Correlation needs history, so it
/// trades first-visit streaming coverage for repeated-irregular
/// coverage. Reports (trainer, accuracy, coverage, normalized perf).
pub fn markov_study(
    scale: &Scale,
) -> Result<Vec<(WorkloadKind, Vec<(&'static str, f64, f64, f64)>)>> {
    use hopp_core::{MarkovConfig, TrainerKind};
    let workloads = [
        WorkloadKind::Kmeans,
        WorkloadKind::GraphPr,
        WorkloadKind::GraphBfs,
        WorkloadKind::NpbCg,
    ];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        let mut rows = Vec::new();
        for &(name, trainer) in &[
            ("three-tier", TrainerKind::ThreeTier),
            ("markov", TrainerKind::Markov(MarkovConfig::default())),
        ] {
            let r = hopp_sim::run_workload(
                kind,
                fp,
                scale.seed,
                SystemConfig::hopp_with(HoppConfig {
                    trainer,
                    ..HoppConfig::default()
                }),
                0.5,
            )?;
            rows.push((
                name,
                r.accuracy(),
                r.coverage(),
                local / r.completion.as_nanos() as f64,
            ));
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// §IV extension: trace-assisted reclaim (hot pages get a second
/// chance before eviction). Reports (window, major faults, normalized
/// perf) per workload.
pub fn reclaim_study(scale: &Scale) -> Result<Vec<(WorkloadKind, Vec<(&'static str, u64, f64)>)>> {
    let workloads = [WorkloadKind::NpbCg, WorkloadKind::GraphPr];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let local = hopp_sim::run_local(kind, fp, scale.seed)?
            .completion
            .as_nanos() as f64;
        // The hot window must span a reuse period (a superstep is
        // tens of milliseconds at this scale) to protect anything.
        let mut rows = Vec::new();
        for &(name, window) in &[
            ("off", None),
            ("2ms", Some(Nanos::from_millis(2))),
            ("20ms", Some(Nanos::from_millis(20))),
            ("100ms", Some(Nanos::from_millis(100))),
        ] {
            // Run with fault-order LRU (no accessed-bit scanning):
            // the regime where the MC's hotness info is new signal.
            let config = SimConfig {
                trace_assisted_reclaim: window,
                precise_lru: false,
                ..SimConfig::with_system(SystemConfig::hopp_default())
            };
            let r = hopp_sim::run_workload_with(config, kind, fp, scale.seed, 0.5)?;
            rows.push((
                name,
                r.counters.major_faults,
                local / r.completion.as_nanos() as f64,
            ));
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// Design sensitivity beyond the paper's figures: STT history length
/// `L` and clustering distance `Δ_stream`. Reports (L, Δ, coverage,
/// accuracy) for one stream-rich and one noisy workload.
pub fn stt_sensitivity(scale: &Scale) -> Result<Vec<(WorkloadKind, Vec<(usize, u64, f64, f64)>)>> {
    use hopp_core::SttConfig;
    let workloads = [WorkloadKind::Hpl, WorkloadKind::GraphBfs];
    let mut out = Vec::with_capacity(workloads.len());
    for &kind in &workloads {
        let fp = scale.footprint_of(kind);
        let mut rows = Vec::new();
        for &history in &[8usize, 16, 32] {
            for &delta in &[16u64, 64, 256] {
                let config = HoppConfig {
                    stt: SttConfig {
                        history,
                        delta_stream: delta,
                        ..SttConfig::default()
                    },
                    ..HoppConfig::default()
                };
                let r = hopp_sim::run_workload(
                    kind,
                    fp,
                    scale.seed,
                    SystemConfig::hopp_with(config),
                    0.5,
                )?;
                rows.push((history, delta, r.coverage(), r.accuracy()));
            }
        }
        out.push((kind, rows));
    }
    Ok(out)
}

/// Warmup dynamics (§VI-E: "When HoPP is started, the application must
/// access the remote memory via page faults … With more prefetch-hits,
/// the timeliness is becoming smaller over time, HoPP will detect it
/// and increase the prefetch offset"). Reports per-window major-fault
/// counts over the run for Fastswap and HoPP.
pub fn warmup(scale: &Scale) -> Result<Vec<(&'static str, Vec<u64>)>> {
    let kind = WorkloadKind::Kmeans;
    let fp = scale.footprint;
    let run = |system: SystemConfig| -> Result<Vec<u64>> {
        let config = SimConfig {
            timeline_every: fp * 3 / 12, // 12 windows over the run
            ..SimConfig::with_system(system)
        };
        let r = hopp_sim::run_workload_with(config, kind, fp, scale.seed, 0.5)?;
        let mut windows = Vec::new();
        let mut prev = 0u64;
        for sample in &r.timeline {
            windows.push(sample.major_faults - prev);
            prev = sample.major_faults;
        }
        Ok(windows)
    };
    Ok(vec![
        (
            "Fastswap",
            run(SystemConfig::Baseline(BaselineKind::Fastswap))?,
        ),
        ("HoPP", run(SystemConfig::hopp_default())?),
    ])
}

/// Scale robustness: the headline comparison (HoPP vs Fastswap,
/// normalized performance at 50 % local) at three footprints and two
/// seeds. The reproduction rests on the claim that the *shape* of the
/// results is insensitive to the scaled-down footprints; this
/// experiment is the evidence.
pub fn scale_robustness() -> Result<Vec<(u64, u64, WorkloadKind, f64, f64)>> {
    let workloads = [
        WorkloadKind::Kmeans,
        WorkloadKind::NpbMg,
        WorkloadKind::GraphPr,
    ];
    let mut rows = Vec::new();
    for &fp in &[2_048u64, 4_096, 8_192] {
        for &seed in &[42u64, 7] {
            for &kind in &workloads {
                let local = hopp_sim::run_local(kind, fp, seed)?.completion.as_nanos() as f64;
                let fs = hopp_sim::run_workload(
                    kind,
                    fp,
                    seed,
                    SystemConfig::Baseline(BaselineKind::Fastswap),
                    0.5,
                )?;
                let hp = hopp_sim::run_workload(kind, fp, seed, SystemConfig::hopp_default(), 0.5)?;
                rows.push((
                    fp,
                    seed,
                    kind,
                    local / fs.completion.as_nanos() as f64,
                    local / hp.completion.as_nanos() as f64,
                ));
            }
        }
    }
    Ok(rows)
}

/// Latency distributions (observability tentpole): fault, timeliness
/// and RDMA percentiles for Fastswap vs HoPP on the same workload —
/// the distribution-level view the paper's mean-only tables hide.
pub fn latency_study(scale: &Scale) -> Result<Vec<(&'static str, hopp_obs::LatencySummaries)>> {
    let kind = WorkloadKind::Kmeans;
    let fp = scale.footprint_of(kind);
    let mut out = Vec::new();
    for (name, system) in [
        ("fastswap", SystemConfig::Baseline(BaselineKind::Fastswap)),
        ("hopp", SystemConfig::hopp_default()),
    ] {
        let report = hopp_sim::run_workload(kind, fp, scale.seed, system, 0.5)?;
        out.push((name, report.obs.latency));
    }
    Ok(out)
}

/// One row of the `hopp-fabric` node-count sweep.
#[derive(Clone, Debug)]
pub struct FabricRow {
    /// Memory nodes in the pool.
    pub nodes: usize,
    /// Placement policy name.
    pub placement: &'static str,
    /// Normalized performance (`CT_local / CT_system`).
    pub normalized: f64,
    /// Major-fault p99 latency.
    pub major_p99: Nanos,
    /// Total time remote reads spent queued behind a busy link.
    pub queueing: Nanos,
    /// Remote reads issued.
    pub reads: u64,
}

/// `hopp-fabric`: HoPP's normalized performance and link queueing as
/// the remote pool widens from the paper's single server to 8 nodes,
/// under each placement policy. Prefetch intensity 4 makes the data
/// path burst hard enough to queue on one link; wider pools spread the
/// bursts over parallel links, so queueing falls as nodes grow.
pub fn fabric_sweep(scale: &Scale) -> Result<Vec<FabricRow>> {
    let kind = WorkloadKind::Kmeans;
    let fp = scale.footprint_of(kind);
    let local = hopp_sim::run_local(kind, fp, scale.seed)?.completion;
    let system = SystemConfig::hopp_with(HoppConfig {
        policy: PolicyConfig {
            intensity: 4,
            ..PolicyConfig::default()
        },
        ..HoppConfig::default()
    });
    let mut rows = Vec::new();
    for nodes in [1usize, 2, 4, 8] {
        for placement in [
            PlacementKind::StaticHash,
            PlacementKind::RoundRobin,
            PlacementKind::StreamAware,
        ] {
            // A 1-node pool places everything on node 0 regardless.
            if nodes == 1 && placement != PlacementKind::StaticHash {
                continue;
            }
            let config = SimConfig {
                fabric: FabricConfig {
                    nodes,
                    placement,
                    ..FabricConfig::default()
                },
                ..SimConfig::with_system(system)
            };
            let r = hopp_sim::run_workload_with(config, kind, fp, scale.seed, 0.25)?;
            rows.push(FabricRow {
                nodes,
                placement: placement.name(),
                normalized: local.as_nanos() as f64 / r.completion.as_nanos() as f64,
                major_p99: Nanos::from_nanos(r.obs.latency.major_fault.p99),
                queueing: r.rdma.queueing,
                reads: r.rdma.reads,
            });
        }
    }
    Ok(rows)
}

/// One row of the fault-injection study.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// System under test.
    pub system: &'static str,
    /// Fault scenario name.
    pub scenario: &'static str,
    /// Normalized performance (`CT_local / CT_system`).
    pub normalized: f64,
    /// Major-fault p99 latency.
    pub major_p99: Nanos,
    /// Reads served by a replica after the primary failed.
    pub failovers: u64,
    /// Transient-failure retries paid.
    pub retries: u64,
}

/// `hopp-fabric`: Fastswap vs HoPP on a 4-node, replication-2 pool
/// under scripted degradation — healthy, one node 4x slow, one node
/// lost outright. HoPP keeps its major-fault tail lower than Fastswap
/// because prefetched pages dodge the synchronous read that eats the
/// slow-down or failover penalty.
pub fn fault_study(scale: &Scale) -> Result<Vec<FaultRow>> {
    let kind = WorkloadKind::Kmeans;
    let fp = scale.footprint_of(kind);
    let local = hopp_sim::run_local(kind, fp, scale.seed)?.completion;
    let scenarios: [(&'static str, Option<&str>); 3] = [
        ("healthy", None),
        ("node0 4x slow", Some("2:0:slow:4")),
        ("node1 lost", Some("5:1:down")),
    ];
    let systems = [
        ("fastswap", SystemConfig::Baseline(BaselineKind::Fastswap)),
        ("hopp", SystemConfig::hopp_default()),
    ];
    let mut rows = Vec::new();
    for (scenario, script) in scenarios {
        for (name, system) in systems {
            let config = SimConfig {
                fabric: FabricConfig {
                    nodes: 4,
                    replication: 2,
                    ..FabricConfig::default()
                },
                ..SimConfig::with_system(system)
            };
            let r = match script {
                Some(s) => {
                    let script = FaultScript::parse(s)?;
                    hopp_sim::run_workload_with_faults(config, kind, fp, scale.seed, 0.5, &script)?
                }
                None => hopp_sim::run_workload_with(config, kind, fp, scale.seed, 0.5)?,
            };
            let fabric = r.fabric.as_ref().ok_or(Error::InvalidConfig {
                what: "fabric",
                constraint: "multi-node pools report fabric stats",
            })?;
            rows.push(FaultRow {
                system: name,
                scenario,
                normalized: local.as_nanos() as f64 / r.completion.as_nanos() as f64,
                major_p99: Nanos::from_nanos(r.obs.latency.major_fault.p99),
                failovers: fabric.failovers,
                retries: fabric.nodes.iter().map(|n| n.retries).sum(),
            });
        }
    }
    Ok(rows)
}

/// One prefetch-quality row: the scoreboard for a (workload, system)
/// pair. Every field is a function of simulated state only, so rows are
/// bit-stable for a given [`Scale`].
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// The workload (catalogue name or scenario name).
    pub workload: String,
    /// System under test.
    pub system: &'static str,
    /// Page accesses the run executed.
    pub accesses: u64,
    /// Pages prefetched (fault path + HoPP data path).
    pub prefetched: u64,
    /// Prefetched pages that were used before eviction.
    pub prefetch_hits: u64,
    /// Prefetched pages evicted unused.
    pub wasted: u64,
    /// Combined coverage, percent (§VI-A).
    pub coverage_pct: f64,
    /// Combined accuracy, percent.
    pub accuracy_pct: f64,
    /// Wasted prefetches over all prefetches, percent.
    pub pollution_pct: f64,
    /// Mean lead time of useful prefetches, ns (hit-weighted across the
    /// fault path and HoPP's data path).
    pub mean_timeliness_ns: u64,
}

/// The systems on the quality scoreboard — the ones that prefetch.
pub fn quality_systems() -> [(&'static str, SystemConfig); 2] {
    [
        ("fastswap", SystemConfig::Baseline(BaselineKind::Fastswap)),
        ("hopp", SystemConfig::hopp_default()),
    ]
}

/// Prefetch-quality scoreboard: coverage, accuracy, pollution and
/// timeliness per workload × system at 50 % local memory, over
/// [`default_bench_workloads`]. Tracked as `BENCH_quality.json` and
/// regression-gated by `cargo xtask gate`.
pub fn quality(scale: &Scale) -> Result<Vec<QualityRow>> {
    quality_over(scale, &default_bench_workloads())
}

/// [`quality`] over an explicit workload axis — catalogue workloads and
/// scenarios mix freely (`--full` and `--scenarios` route here).
pub fn quality_over(scale: &Scale, workloads: &[WorkloadSource]) -> Result<Vec<QualityRow>> {
    let mut rows = Vec::new();
    for source in workloads {
        let fp = source.footprint(scale.footprint, scale.spark_footprint);
        for (name, system) in quality_systems() {
            let stream = source.build(SOLO_PID, fp, scale.seed);
            let r = hopp_sim::run_stream_with(
                SimConfig::with_system(system),
                SOLO_PID,
                stream,
                fp,
                0.5,
            )?;
            let hopp = r.hopp.as_ref();
            let prefetched = r.baseline.prefetched + hopp.map_or(0, |h| h.prefetched);
            let hits = r.baseline.prefetch_hits + hopp.map_or(0, |h| h.prefetch_hits);
            let wasted = r.baseline.wasted + hopp.map_or(0, |h| h.wasted);
            let timeliness_weighted = r.baseline.mean_timeliness.as_nanos()
                * r.baseline.prefetch_hits
                + hopp.map_or(0, |h| h.mean_timeliness.as_nanos() * h.prefetch_hits);
            rows.push(QualityRow {
                workload: source.name().to_string(),
                system: name,
                accesses: r.counters.accesses,
                prefetched,
                prefetch_hits: hits,
                wasted,
                coverage_pct: r.coverage() * 100.0,
                accuracy_pct: r.accuracy() * 100.0,
                pollution_pct: if prefetched == 0 {
                    0.0
                } else {
                    wasted as f64 / prefetched as f64 * 100.0
                },
                mean_timeliness_ns: timeliness_weighted / hits.max(1),
            });
        }
    }
    Ok(rows)
}

/// Renders quality rows as the tracked `BENCH_quality.json` document.
pub fn quality_json(scale: &Scale, rows: &[QualityRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hopp-bench-quality/v1\",\n");
    out.push_str(&format!(
        "  \"scale\": {{\"footprint\": {}, \"spark_footprint\": {}, \"seed\": {}}},\n",
        scale.footprint, scale.spark_footprint, scale.seed
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"system\": \"{}\", \"accesses\": {}, \
             \"prefetched\": {}, \"prefetch_hits\": {}, \"wasted\": {}, \
             \"coverage_pct\": {:.2}, \"accuracy_pct\": {:.2}, \"pollution_pct\": {:.2}, \
             \"mean_timeliness_ns\": {}}}{}\n",
            r.workload,
            r.system,
            r.accesses,
            r.prefetched,
            r.prefetch_hits,
            r.wasted,
            r.coverage_pct,
            r.accuracy_pct,
            r.pollution_pct,
            r.mean_timeliness_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// §VI-F: the CACTI-derived area and static-power estimates.
pub fn hwcost() -> [(String, f64, f64); 2] {
    let model = HwCostModel::default();
    let hpd = HpdConfig::default();
    let rpt = RptCacheConfig::default();
    [
        (
            "HPD table (16x4, 22nm)".to_string(),
            model.hpd_area_mm2(&hpd),
            model.hpd_static_mw(&hpd),
        ),
        (
            "RPT cache (64KB, 22nm)".to_string(),
            model.rpt_area_mm2(&rpt),
            model.rpt_static_mw(&rpt),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            footprint: 512,
            spark_footprint: 512,
            seed: 7,
        }
    }

    #[test]
    fn perf_matrix_produces_sane_normalized_values() {
        let recs = perf_matrix(&tiny(), &[WorkloadKind::Kmeans], 0.5).unwrap();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        let fs = r.normalized(&r.fastswap);
        let hp = r.normalized(&r.hopp);
        assert!(fs > 0.0 && fs <= 1.0);
        assert!(hp > 0.0 && hp <= 1.05);
    }

    #[test]
    fn table2_ratio_decreases_with_n() {
        let rows = table2(&tiny()).unwrap();
        for (_, series) in rows {
            let first = series.first().unwrap().1;
            let last = series.last().unwrap().1;
            assert!(first >= last, "ratio should fall as N grows");
        }
    }

    #[test]
    fn table3_hit_rate_grows_with_capacity() {
        let rows = table3(&tiny()).unwrap();
        for (_, series) in rows {
            let first = series.first().unwrap().1;
            let last = series.last().unwrap().1;
            assert!(last >= first, "bigger cache, better hit rate");
            assert!(last > 0.9, "64 KB cache absorbs nearly everything");
        }
    }

    #[test]
    fn fig22_dynamic_offset_beats_extreme_fixed_offsets() {
        let rows = fig22(&tiny()).unwrap();
        let get = |name: &str| rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("HoPP (dynamic)") >= get("HoPP (offset=20K)"));
        assert!(get("HoPP (dynamic)") > get("Leap"));
    }

    #[test]
    fn fabric_sweep_spreads_queueing_over_nodes() {
        let rows = fabric_sweep(&tiny()).unwrap();
        let q = |nodes: usize| {
            rows.iter()
                .find(|r| r.nodes == nodes && r.placement == "hash")
                .unwrap()
                .queueing
        };
        assert!(q(8) <= q(1), "8 hashed links never queue more than 1");
    }

    #[test]
    fn fault_study_degradation_hurts_and_failover_fires() {
        let rows = fault_study(&tiny()).unwrap();
        assert_eq!(rows.len(), 6);
        let get = |sys: &str, sc: &str| {
            rows.iter()
                .find(|r| r.system == sys && r.scenario == sc)
                .unwrap()
        };
        // Node loss completes via failover, not a panic.
        assert!(get("fastswap", "node1 lost").normalized > 0.0);
        assert!(get("hopp", "node1 lost").normalized > 0.0);
        // A slow node can only lengthen the fault tail.
        assert!(get("fastswap", "node0 4x slow").major_p99 >= get("fastswap", "healthy").major_p99);
    }

    #[test]
    fn hwcost_matches_the_paper() {
        let rows = hwcost();
        assert!((rows[0].1 - 0.000252).abs() < 1e-9);
        assert!((rows[1].2 - 21.4).abs() < 1e-9);
    }
}
