//! `hoppsim` — run a disaggregated-memory simulation from the command
//! line.
//!
//! ```text
//! hoppsim --workload kmeans --system hopp --ratio 0.5
//! hoppsim --workload npb-mg --system depth-32 --footprint 8192
//! hoppsim --workload microbench --system hopp --intensity 2 --channels 4
//! hoppsim --workload kmeans --system hopp --trace-out t.json --metrics-json m.json
//! hoppsim --scenario scenarios/drifting-mix.toml --system hopp
//! hoppsim --workload kmeans --record-trace k.hst --metrics-json a.json
//! hoppsim --replay-trace k.hst --metrics-json b.json   # a.json == b.json
//! hoppsim --list
//! ```

use std::path::Path;

use hopp_core::policy::{HugeBatchConfig, PolicyConfig};
use hopp_core::{HoppConfig, MarkovConfig, TrainerKind};
use hopp_obs::{events_to_chrome_trace_with_extra, ObsLevel};
use hopp_scn::{hst, HstHeader, Scenario};
use hopp_sim::{
    run_stream_with, run_workload_with, run_workload_with_faults, BaselineKind, FabricConfig,
    FaultScript, PlacementKind, SimConfig, SimReport, SystemConfig,
};
use hopp_trace::AccessStream;
use hopp_workloads::WorkloadKind;

/// Count heap allocations per thread so `--prof-json` spans can report
/// allocation churn alongside wall time (allocators are per-binary).
#[global_allocator]
static ALLOC: hopp_prof::alloc::CountingAlloc = hopp_prof::alloc::CountingAlloc;

#[derive(Debug)]
struct Args {
    workload: WorkloadKind,
    system: String,
    ratio: f64,
    footprint: u64,
    seed: u64,
    channels: usize,
    llc_kb: Option<usize>,
    llc_hit_ns: Option<u64>,
    hpd_threshold: Option<u32>,
    rpt_kb: Option<usize>,
    slack_frames: Option<usize>,
    reclaim_cost_ns: Option<u64>,
    direct_reclaim: bool,
    intensity: u32,
    huge_batch: bool,
    markov: bool,
    fixed_offset: Option<f64>,
    scenario: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    volatile: bool,
    mem_nodes: usize,
    placement: PlacementKind,
    replication: usize,
    fault_script: Option<FaultScript>,
    imprecise_lru: bool,
    reclaim_window_ms: Option<u64>,
    remote_capacity: Option<usize>,
    timeline: Option<u64>,
    obs_level: Option<ObsLevel>,
    trace_out: Option<String>,
    metrics_json: Option<String>,
    timeline_out: Option<String>,
    prof_json: Option<String>,
    prof_folded: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: WorkloadKind::Kmeans,
            system: "hopp".to_string(),
            ratio: 0.5,
            footprint: 4_096,
            seed: 42,
            channels: 1,
            llc_kb: None,
            llc_hit_ns: None,
            hpd_threshold: None,
            rpt_kb: None,
            slack_frames: None,
            reclaim_cost_ns: None,
            direct_reclaim: false,
            intensity: 1,
            huge_batch: false,
            markov: false,
            fixed_offset: None,
            scenario: None,
            record_trace: None,
            replay_trace: None,
            volatile: false,
            mem_nodes: 1,
            placement: PlacementKind::default(),
            replication: 1,
            fault_script: None,
            imprecise_lru: false,
            reclaim_window_ms: None,
            remote_capacity: None,
            timeline: None,
            obs_level: None,
            trace_out: None,
            metrics_json: None,
            timeline_out: None,
            prof_json: None,
            prof_folded: None,
        }
    }
}

fn workload_by_name(name: &str) -> Option<WorkloadKind> {
    let exact = WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name) || slug(k.name()) == slug(name));
    if exact.is_some() {
        return exact;
    }
    // The paper's shorthand for the OMP variant.
    if slug(name) == "kmeans" {
        return Some(WorkloadKind::Kmeans);
    }
    // Fall back to a unique prefix ("quick" → "quicksort").
    let mut hits = WorkloadKind::ALL
        .into_iter()
        .filter(|k| slug(k.name()).starts_with(&slug(name)));
    let first = hits.next()?;
    hits.next().is_none().then_some(first)
}

fn slug(s: &str) -> String {
    s.to_ascii_lowercase().replace(['-', '_'], "")
}

fn usage() -> ! {
    eprintln!(
        "usage: hoppsim [options]\n\
         \n  --workload <name>    one of the 15 paper workloads (--list)\
         \n  --system <name>      hopp | fastswap | leap | vma | no-prefetch | depth-<N>\
         \n  --ratio <f>          local memory / footprint (default 0.5)\
         \n  --footprint <pages>  heap size in 4 KB pages (default 4096)\
         \n  --seed <n>           workload RNG seed (default 42)\
         \n  --channels <n>       interleaved memory channels (default 1)\
         \n  --llc-kb <n>         LLC capacity in KiB (default 2048)\
         \n  --llc-hit-ns <n>     LLC hit cost in ns (default 1)\
         \n  --hpd-threshold <n>  HPD hot-page threshold N (default 16)\
         \n  --rpt-kb <n>         RPT cache capacity in KiB (default 64)\
         \n  --slack-frames <n>   frame headroom beyond cgroup limits (default 512)\
         \n  --reclaim-cost-ns <n> per-page reclaim cost in ns (default 3000)\
         \n  --direct-reclaim     charge reclaim to the faulting path (pre-v5.8)\
         \n  --intensity <n>      pages per hot page (hopp only, default 1)\
         \n  --offset <i>         pin the prefetch offset (hopp only)\
         \n  --huge-batch         enable 2 MB batched prefetch (hopp only)\
         \n  --markov             use the Markov trainer (hopp only)\
         \n  --scenario <file>    run a scenario DSL file instead of --workload (docs/scenarios.md)\
         \n  --record-trace <file> capture the run's accesses as a .hst trace, then run normally\
         \n  --replay-trace <file> replay a .hst trace bit-identically (ignores --workload)\
         \n  --volatile           periodic 8x network congestion bursts\
         \n  --jitter <mode>      bursty | off (same as --volatile, default off)\
         \n  --mem-nodes <n>      memory nodes in the remote pool (default 1)\
         \n  --placement <p>      hash | rr | stream page placement (default hash)\
         \n  --replication <r>    replicas per page, 1..=nodes (default 1)\
         \n  --fault-script <s>   scripted node faults, e.g. \"5:0:slow:4,20:1:down\"\
         \n  --imprecise-lru      fault-order LRU (no accessed-bit scans)\
         \n  --reclaim-window <ms> trace-assisted reclaim hot window\
         \n  --remote-capacity <pages> cap the remote memory node\
         \n  --timeline <accesses> print fault counts per window of N accesses\
         \n  --obs-level <l>      off | counters | full (default counters)\
         \n  --trace-out <file>   write a Chrome/Perfetto trace (implies full)\
         \n  --metrics-json <file> write counters + latency percentiles as JSON\
         \n  --timeline-out <file> write timeline samples as CSV\
         \n  --prof-json <file>   write the host self-profile (time + allocs per span) as JSON\
         \n  --prof-folded <file> write the host self-profile as collapsed stacks (flamegraph input)\
         \n  --list               list workloads and exit\
         \n  --help               show this message"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload");
                args.workload = workload_by_name(&v).unwrap_or_else(|| {
                    eprintln!("unknown workload {v:?} (try --list)");
                    usage()
                });
            }
            "--system" => args.system = value("--system"),
            "--ratio" => args.ratio = value("--ratio").parse().unwrap_or_else(|_| usage()),
            "--footprint" => {
                args.footprint = value("--footprint").parse().unwrap_or_else(|_| usage());
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--channels" => args.channels = value("--channels").parse().unwrap_or_else(|_| usage()),
            "--llc-kb" => {
                args.llc_kb = Some(value("--llc-kb").parse().unwrap_or_else(|_| usage()));
            }
            "--llc-hit-ns" => {
                args.llc_hit_ns = Some(value("--llc-hit-ns").parse().unwrap_or_else(|_| usage()));
            }
            "--hpd-threshold" => {
                args.hpd_threshold =
                    Some(value("--hpd-threshold").parse().unwrap_or_else(|_| usage()));
            }
            "--rpt-kb" => args.rpt_kb = Some(value("--rpt-kb").parse().unwrap_or_else(|_| usage())),
            "--slack-frames" => {
                args.slack_frames =
                    Some(value("--slack-frames").parse().unwrap_or_else(|_| usage()));
            }
            "--reclaim-cost-ns" => {
                args.reclaim_cost_ns = Some(
                    value("--reclaim-cost-ns")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--direct-reclaim" => args.direct_reclaim = true,
            "--intensity" => {
                args.intensity = value("--intensity").parse().unwrap_or_else(|_| usage());
            }
            "--offset" => {
                args.fixed_offset = Some(value("--offset").parse().unwrap_or_else(|_| usage()));
            }
            "--huge-batch" => args.huge_batch = true,
            "--markov" => args.markov = true,
            "--scenario" => args.scenario = Some(value("--scenario")),
            "--record-trace" => args.record_trace = Some(value("--record-trace")),
            "--replay-trace" => args.replay_trace = Some(value("--replay-trace")),
            "--volatile" => args.volatile = true,
            "--jitter" => {
                let v = value("--jitter");
                args.volatile = match v.as_str() {
                    "bursty" => true,
                    "off" => false,
                    _ => {
                        eprintln!("unknown jitter mode {v:?} (bursty | off)");
                        usage();
                    }
                };
            }
            "--mem-nodes" => {
                args.mem_nodes = value("--mem-nodes").parse().unwrap_or_else(|_| usage());
            }
            "--placement" => {
                let v = value("--placement");
                args.placement = PlacementKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown placement {v:?} (hash | rr | stream)");
                    usage()
                });
            }
            "--replication" => {
                args.replication = value("--replication").parse().unwrap_or_else(|_| usage());
            }
            "--fault-script" => {
                let v = value("--fault-script");
                args.fault_script = Some(FaultScript::parse(&v).unwrap_or_else(|e| {
                    eprintln!("bad fault script: {e}");
                    usage()
                }));
            }
            "--imprecise-lru" => args.imprecise_lru = true,
            "--reclaim-window" => {
                args.reclaim_window_ms = Some(
                    value("--reclaim-window")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--remote-capacity" => {
                args.remote_capacity = Some(
                    value("--remote-capacity")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--timeline" => {
                args.timeline = Some(value("--timeline").parse().unwrap_or_else(|_| usage()));
            }
            "--obs-level" => {
                let v = value("--obs-level");
                args.obs_level = Some(ObsLevel::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown obs level {v:?} (off | counters | full)");
                    usage()
                }));
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics-json" => args.metrics_json = Some(value("--metrics-json")),
            "--timeline-out" => args.timeline_out = Some(value("--timeline-out")),
            "--prof-json" => args.prof_json = Some(value("--prof-json")),
            "--prof-folded" => args.prof_folded = Some(value("--prof-folded")),
            "--list" => {
                println!("{:<13} {:>6} {:>5}  model", "workload", "GB", "cores");
                for k in WorkloadKind::ALL {
                    println!(
                        "{:<13} {:>6} {:>5}  {}",
                        k.name(),
                        k.paper_footprint_gb(),
                        k.paper_cores(),
                        k.description()
                    );
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

fn system_of(args: &Args) -> SystemConfig {
    if let Some(depth) = args.system.strip_prefix("depth-") {
        let n: usize = depth.parse().unwrap_or_else(|_| usage());
        return SystemConfig::Baseline(BaselineKind::DepthN(n));
    }
    match args.system.as_str() {
        "fastswap" => SystemConfig::Baseline(BaselineKind::Fastswap),
        "leap" => SystemConfig::Baseline(BaselineKind::Leap),
        "vma" => SystemConfig::Baseline(BaselineKind::Vma),
        "no-prefetch" | "none" => SystemConfig::Baseline(BaselineKind::NoPrefetch),
        "hopp" => {
            let policy = PolicyConfig {
                intensity: args.intensity,
                fixed_offset: args.fixed_offset,
                huge_batch: args.huge_batch.then(HugeBatchConfig::default),
                ..PolicyConfig::default()
            };
            let trainer = if args.markov {
                TrainerKind::Markov(MarkovConfig::default())
            } else {
                TrainerKind::ThreeTier
            };
            SystemConfig::hopp_with(HoppConfig {
                policy,
                trainer,
                ..HoppConfig::default()
            })
        }
        other => {
            eprintln!("unknown system {other:?}");
            usage();
        }
    }
}

/// A fatal run error (lost page, exhausted pool) ends the CLI with the
/// error's full context on stderr and a non-zero exit code. Takes the
/// error by value to slot into `unwrap_or_else` directly.
#[allow(clippy::needless_pass_by_value)]
fn fail_run(e: hopp_types::Error) -> SimReport {
    eprintln!("run failed: {e}");
    std::process::exit(1);
}

fn print_report(args: &Args, label: &str, local_ns: f64, r: &SimReport) {
    let normalized = local_ns / r.completion.as_nanos() as f64;
    println!("workload          {label}");
    println!(
        "system            {} ({:.0}% local)",
        r.system,
        args.ratio * 100.0
    );
    println!("completion        {}", r.completion);
    println!("normalized perf   {normalized:.3}");
    let c = &r.counters;
    println!(
        "faults            {} major, {} prefetch-hit, {} first-touch, {} in-flight waits",
        c.major_faults, c.minor_faults, c.first_touches, c.inflight_waits
    );
    println!(
        "prefetching       accuracy {:.1}%  coverage {:.1}%  (fault-path {:.1}% + hopp-injected {:.1}%)",
        r.accuracy() * 100.0,
        r.coverage() * 100.0,
        r.coverage_swapcache() * 100.0,
        r.coverage_injected() * 100.0
    );
    println!(
        "network           {} reads, {} writebacks, {} MB moved",
        r.rdma.reads,
        r.rdma.writes,
        r.rdma.bytes / (1024 * 1024)
    );
    if let Some(f) = &r.fabric {
        println!(
            "memory pool       {} nodes, {} placement, replication {}, {} failovers, {} failed writes",
            f.nodes.len(),
            f.placement,
            f.replication,
            f.failovers,
            f.failed_writes
        );
        for n in &f.nodes {
            println!(
                "  {}           {} reads, {} writes, {} placed, {} retries, {} timeouts{}",
                n.node,
                n.link.reads,
                n.link.writes,
                n.placed,
                n.retries,
                n.timeouts,
                if n.lost { ", LOST" } else { "" }
            );
        }
    }
    println!(
        "hardware          {} hot pages ({:.2}% of misses), RPT hit rate {:.1}%, HPD bw {:.3}%",
        r.hpd.hot_pages,
        r.hpd.hot_ratio() * 100.0,
        r.rpt.hit_rate() * 100.0,
        r.ledger.hpd_overhead_percent()
    );
    if let Some(h) = &r.hopp {
        println!(
            "hopp data path    {} injected, {} DRAM-hits, mean timeliness {}",
            h.prefetched, h.prefetch_hits, h.mean_timeliness
        );
    }
    if let Some(t) = &r.tier_stats {
        println!(
            "tier mix          SSP {}  LSP {}  RSP {}  unclassified {}",
            t.simple, t.ladder, t.ripple, t.unclassified
        );
    }
    if r.obs.level.histograms() {
        let l = &r.obs.latency;
        let fmt = |s: &hopp_obs::HistogramSummary| {
            format!(
                "p50 {} p99 {} max {} ({} samples)",
                hopp_types::Nanos::from_nanos(s.p50),
                hopp_types::Nanos::from_nanos(s.p99),
                hopp_types::Nanos::from_nanos(s.max),
                s.count
            )
        };
        println!("major-fault lat   {}", fmt(&l.major_fault));
        println!("timeliness        {}", fmt(&l.timeliness));
        println!("inflight wait     {}", fmt(&l.inflight_wait));
        println!("rdma read         {}", fmt(&l.rdma_read));
        if l.rdma_write.count > 0 {
            println!("rdma write        {}", fmt(&l.rdma_write));
        }
    }
    if !r.timeline.is_empty() {
        println!("\ntimeline (per-window major faults / prefetch-hits):");
        let mut prev = (0u64, 0u64);
        for (i, s) in r.timeline.iter().enumerate() {
            println!(
                "  w{:<3} @{:<12} major {:<6} p-hit {:<6}",
                i + 1,
                format!("{}", s.at),
                s.major_faults - prev.0,
                s.minor_faults - prev.1,
            );
            prev = (s.major_faults, s.minor_faults);
        }
    }
}

/// True when the run should carry the host self-profiler.
fn profiling(args: &Args) -> bool {
    args.prof_json.is_some() || args.prof_folded.is_some()
}

/// Arms the profiler for the measured run (a no-op when no `--prof-*`
/// flag was given). Span events — needed only to merge host spans onto
/// the Chrome trace — are retained only when a trace is requested.
fn prof_begin(args: &Args, workload: &str) {
    if profiling(args) {
        hopp_prof::enable(args.trace_out.is_some());
        hopp_prof::set_key(workload, &args.system, "run");
    }
}

/// Writes the side outputs (`--trace-out`, `--metrics-json`,
/// `--timeline-out`, `--prof-json`, `--prof-folded`) after a run.
fn write_outputs(args: &Args, r: &SimReport, prof: Option<&hopp_prof::ProfReport>) {
    let write = |path: &str, contents: String, what: &str| {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("writing {what} to {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.trace_out {
        // Host profiler spans ride along as a second process ("host")
        // next to the simulated-time tracks.
        let extra = prof.map(hopp_prof::ProfReport::chrome_trace_fragment);
        let trace =
            events_to_chrome_trace_with_extra(&r.obs.events, extra.as_deref().unwrap_or(""));
        write(path, trace, "trace");
        println!(
            "\ntrace             {} events -> {path} ({} dropped; open in Perfetto)",
            r.obs.events.len(),
            r.obs.dropped_events
        );
    }
    if let Some(path) = &args.metrics_json {
        write(path, r.metrics_json(), "metrics");
        println!("metrics           -> {path}");
    }
    if let Some(path) = &args.timeline_out {
        write(path, r.timeline_csv(), "timeline");
        println!("timeline          {} samples -> {path}", r.timeline.len());
    }
    if let Some(p) = prof {
        if let Some(path) = &args.prof_json {
            write(path, p.to_json(), "profile");
            println!(
                "profile           {} spans, {} of host time -> {path}",
                p.nodes.len(),
                hopp_types::Nanos::from_nanos(p.attributed_ns())
            );
        }
        if let Some(path) = &args.prof_folded {
            write(path, p.to_folded(), "folded profile");
            println!("folded profile    -> {path} (feed to flamegraph.pl / inferno)");
        }
    }
}

use hopp_sim::runner::SOLO_PID;

/// Builds a fresh copy of the run's access stream (catalogue workload
/// or `--scenario`); streams are deterministic, so every instance
/// yields the same sequence.
fn build_stream(args: &Args, scenario: Option<&Scenario>, footprint: u64) -> Box<dyn AccessStream> {
    match scenario {
        Some(s) => s.spec.build(&s.name, SOLO_PID, footprint, args.seed),
        None => args.workload.build(SOLO_PID, args.footprint, args.seed),
    }
}

fn main() {
    let args = parse_args();

    let scenario = args.scenario.as_ref().map(|p| {
        Scenario::from_file(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    });
    let source_footprint = scenario
        .as_ref()
        .and_then(|s| s.spec.footprint)
        .unwrap_or(args.footprint);

    let system = system_of(&args);
    // --trace-out needs the event stream: upgrade to `full` unless the
    // user explicitly picked a level that already records events.
    let mut obs_level = args.obs_level.unwrap_or_default();
    if args.trace_out.is_some() && !obs_level.events() {
        obs_level = ObsLevel::Full;
    }
    // --timeline-out needs samples: default to one per 1000 accesses.
    let timeline_every = match args.timeline {
        Some(n) => n,
        None if args.timeline_out.is_some() => 1_000,
        None => 0,
    };
    let mut config = SimConfig {
        channels: args.channels,
        rdma: if args.volatile {
            hopp_net::RdmaConfig::volatile()
        } else {
            hopp_net::RdmaConfig::default()
        },
        fabric: FabricConfig {
            nodes: args.mem_nodes,
            placement: args.placement,
            replication: args.replication,
            ..FabricConfig::default()
        },
        precise_lru: !args.imprecise_lru,
        trace_assisted_reclaim: args.reclaim_window_ms.map(hopp_types::Nanos::from_millis),
        remote_capacity_pages: args.remote_capacity,
        timeline_every,
        obs_level,
        reclaim_in_advance: !args.direct_reclaim,
        ..SimConfig::with_system(system)
    };
    if let Some(kb) = args.llc_kb {
        config.llc.capacity_bytes = kb * 1024;
    }
    if let Some(ns) = args.llc_hit_ns {
        config.llc_hit = hopp_types::Nanos::from_nanos(ns);
    }
    if let Some(n) = args.hpd_threshold {
        config.hpd = hopp_hw::HpdConfig::with_threshold(n);
    }
    if let Some(kb) = args.rpt_kb {
        config.rpt = hopp_hw::RptCacheConfig::with_kib(kb);
    }
    if let Some(n) = args.slack_frames {
        config.slack_frames = n;
    }
    if let Some(ns) = args.reclaim_cost_ns {
        config.latency.reclaim_per_page = hopp_types::Nanos::from_nanos(ns);
    }

    // --replay-trace: run a recorded .hst bit-identically. The header
    // carries the recorded pid/footprint, so the cgroup-limit math and
    // the all-local normalization run match the recording session and
    // the metrics JSON comes out byte-for-byte equal.
    if let Some(path) = &args.replay_trace {
        let load = || {
            hst::read_file(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("replay-trace failed: {e}");
                std::process::exit(1);
            })
        };
        let trace = load();
        let header = trace.header.clone();
        println!(
            "replaying {} accesses ({} recorded from {} at {} pages, seed {})\n",
            trace.accesses.len(),
            path,
            header.source,
            header.footprint_pages,
            header.seed
        );
        prof_begin(&args, "replay-trace");
        let report = run_stream_with(
            config,
            header.pid,
            Box::new(trace.into_stream()),
            header.footprint_pages,
            args.ratio,
        )
        .unwrap_or_else(fail_run);
        let prof = hopp_prof::disable();
        let local = run_stream_with(
            SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch)),
            header.pid,
            Box::new(load().into_stream()),
            header.footprint_pages,
            1.25,
        )
        .unwrap_or_else(fail_run);
        let label = format!(
            "replay of {path} ({}, {} pages, seed {})",
            header.source, header.footprint_pages, header.seed
        );
        print_report(&args, &label, local.completion.as_nanos() as f64, &report);
        write_outputs(&args, &report, prof.as_ref());
        return;
    }

    let (label, source_name, footprint) = match &scenario {
        Some(s) => (
            format!(
                "{} (scenario, {} pages, seed {})",
                s.name, source_footprint, args.seed
            ),
            s.name.clone(),
            source_footprint,
        ),
        None => (
            format!(
                "{} ({} pages, seed {})",
                args.workload.name(),
                args.footprint,
                args.seed
            ),
            args.workload.name().to_string(),
            args.footprint,
        ),
    };

    // --record-trace: capture a fresh copy of the access stream to disk,
    // then fall through to the normal run. Streams are deterministic, so
    // draining a second instance records exactly what the run consumes.
    if let Some(path) = &args.record_trace {
        let header = HstHeader {
            pid: SOLO_PID,
            footprint_pages: footprint,
            seed: args.seed,
            source: source_name.clone(),
        };
        let mut stream = build_stream(&args, scenario.as_ref(), footprint);
        let n = hst::record_file(Path::new(path), &header, &mut *stream).unwrap_or_else(|e| {
            eprintln!("record-trace failed: {e}");
            std::process::exit(1);
        });
        println!("recorded {n} accesses to {path} (.hst)\n");
    }

    let local = run_stream_with(
        SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch)),
        SOLO_PID,
        build_stream(&args, scenario.as_ref(), footprint),
        footprint,
        1.25,
    )
    .unwrap_or_else(fail_run);
    // Profile only the measured run, not the all-local normalization run.
    prof_begin(&args, &source_name);
    let report = match (&scenario, &args.fault_script) {
        (None, Some(script)) => run_workload_with_faults(
            config,
            args.workload,
            args.footprint,
            args.seed,
            args.ratio,
            script,
        ),
        (None, None) => {
            run_workload_with(config, args.workload, args.footprint, args.seed, args.ratio)
        }
        (Some(_), script) => {
            if script.is_some() {
                eprintln!("--fault-script is not supported with --scenario");
                std::process::exit(2);
            }
            run_stream_with(
                config,
                SOLO_PID,
                build_stream(&args, scenario.as_ref(), footprint),
                footprint,
                args.ratio,
            )
        }
    }
    .unwrap_or_else(fail_run);
    let prof = hopp_prof::disable();
    print_report(&args, &label, local.completion.as_nanos() as f64, &report);
    write_outputs(&args, &report, prof.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_resolve_with_any_casing() {
        assert_eq!(workload_by_name("kmeans-omp"), Some(WorkloadKind::Kmeans));
        assert_eq!(workload_by_name("KMEANS_OMP"), Some(WorkloadKind::Kmeans));
        assert_eq!(workload_by_name("npb-mg"), Some(WorkloadKind::NpbMg));
        assert_eq!(workload_by_name("npbmg"), Some(WorkloadKind::NpbMg));
        assert_eq!(workload_by_name("GraphX-PR"), Some(WorkloadKind::GraphPr));
        assert_eq!(workload_by_name("nope"), None);
    }

    #[test]
    fn unique_prefixes_resolve_ambiguous_ones_do_not() {
        assert_eq!(workload_by_name("kmeans"), Some(WorkloadKind::Kmeans));
        // "npb" prefixes several NPB workloads: ambiguous.
        assert_eq!(workload_by_name("npb"), None);
    }

    #[test]
    fn every_catalogue_name_resolves_to_itself() {
        for k in WorkloadKind::ALL {
            assert_eq!(workload_by_name(k.name()), Some(k), "{}", k.name());
        }
    }

    #[test]
    fn system_parsing_covers_depth_variants() {
        let mut args = Args {
            system: "depth-16".to_string(),
            ..Args::default()
        };
        assert!(matches!(
            system_of(&args),
            SystemConfig::Baseline(BaselineKind::DepthN(16))
        ));
        args.system = "fastswap".to_string();
        assert!(matches!(
            system_of(&args),
            SystemConfig::Baseline(BaselineKind::Fastswap)
        ));
        args.system = "hopp".to_string();
        assert!(matches!(system_of(&args), SystemConfig::Hopp { .. }));
    }
}
