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

use std::io::{self, Write};
use std::path::Path;

use hopp_core::policy::HugeBatchConfig;
use hopp_core::{HoppConfig, MarkovConfig, TrainerKind};
use hopp_obs::{events_to_chrome_trace_with_extra, ObsLevel};
use hopp_scn::{hst, HstHeader, HstTrace, Scenario, WorkloadSource};
use hopp_sim::runner::SOLO_PID;
use hopp_sim::{
    solo_simulator, BaselineKind, FaultScript, PlacementKind, SimConfig, SimReport, SystemConfig,
};
use hopp_trace::AccessStream;
use hopp_types::Nanos;
use hopp_workloads::{WorkloadKind, MIN_FOOTPRINT_PAGES};

/// Count heap allocations per thread so `--prof-json` spans can report
/// allocation churn alongside wall time (allocators are per-binary).
#[global_allocator]
static ALLOC: hopp_prof::alloc::CountingAlloc = hopp_prof::alloc::CountingAlloc;

/// A parsed command line: the simulated machine plus the harness
/// settings that are not part of it.
#[derive(Debug)]
struct Cli {
    /// The machine and system under test of the measured run.
    config: SimConfig,
    /// HoPP's software knobs, applied once parsing ends if `--system`
    /// picked HoPP, so flag order does not matter.
    hopp: HoppConfig,
    workload: WorkloadKind,
    ratio: f64,
    footprint: u64,
    seed: u64,
    scenario: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    fault_script: Option<FaultScript>,
    trace_out: Option<String>,
    metrics_json: Option<String>,
    timeline_out: Option<String>,
    prof_json: Option<String>,
    prof_folded: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            config: SimConfig::with_system(SystemConfig::hopp_default()),
            hopp: HoppConfig::default(),
            workload: WorkloadKind::Kmeans,
            ratio: 0.5,
            footprint: 4_096,
            seed: 42,
            scenario: None,
            record_trace: None,
            replay_trace: None,
            fault_script: None,
            trace_out: None,
            metrics_json: None,
            timeline_out: None,
            prof_json: None,
            prof_folded: None,
        }
    }
}

/// What the command line asks for.
#[derive(Debug)]
enum Request {
    Run(Box<Cli>),
    List,
    Help,
}

fn usage() -> ! {
    let d = Cli::default();
    let c = &d.config;
    eprintln!(
        "usage: hoppsim [options]\n\
         \n  --workload <name>    one of the 15 paper workloads (--list, default {})\
         \n  --system <name>      hopp | fastswap | leap | vma | no-prefetch | depth-<N> (default {})\
         \n  --ratio <f>          local memory / footprint, finite and > 0 (default {})\
         \n  --footprint <pages>  heap size in 4 KB pages, at least {} (default {})\
         \n  --seed <n>           workload RNG seed (default {})\
         \n  --channels <n>       interleaved memory channels (default {})\
         \n  --llc-kb <n>         LLC capacity in KiB (default {})\
         \n  --llc-hit-ns <n>     LLC hit cost in ns (default {})\
         \n  --hpd-threshold <n>  HPD hot-page threshold N (default {})\
         \n  --rpt-kb <n>         RPT cache capacity in KiB (default {})\
         \n  --slack-frames <n>   frame headroom beyond cgroup limits (default {})\
         \n  --reclaim-cost-ns <n> per-page reclaim cost in ns (default {})\
         \n  --direct-reclaim     charge reclaim to the faulting path (pre-v5.8)\
         \n  --intensity <n>      pages per hot page (hopp only, default {})\
         \n  --offset <i>         pin the prefetch offset (hopp only)\
         \n  --huge-batch         enable 2 MB batched prefetch (hopp only)\
         \n  --markov             use the Markov trainer (hopp only)\
         \n  --scenario <file>    run a scenario DSL file instead of --workload (docs/scenarios.md)\
         \n  --record-trace <file> capture the run's accesses as a .hst trace, then run normally\
         \n  --replay-trace <file> replay a .hst trace bit-identically (ignores --workload)\
         \n  --jitter <mode>      bursty | off: periodic 8x network congestion bursts (default {})\
         \n  --mem-nodes <n>      memory nodes in the remote pool (default {})\
         \n  --placement <p>      hash | rr | stream page placement (default {})\
         \n  --replication <r>    replicas per page, 1..=nodes (default {})\
         \n  --fault-script <s>   scripted node faults, e.g. \"5:0:slow:4,20:1:down\"\
         \n  --imprecise-lru      fault-order LRU (no accessed-bit scans)\
         \n  --reclaim-window <ms> trace-assisted reclaim hot window\
         \n  --remote-capacity <pages> cap the remote memory node\
         \n  --timeline <accesses> print fault counts per window of N accesses\
         \n  --obs-level <l>      off | counters | full (default {})\
         \n  --trace-out <file>   write a Chrome/Perfetto trace (implies full)\
         \n  --metrics-json <file> write counters + latency percentiles as JSON\
         \n  --timeline-out <file> write timeline samples as CSV\
         \n  --prof-json <file>   write the host self-profile (time + allocs per span) as JSON\
         \n  --prof-folded <file> write the host self-profile as collapsed stacks (flamegraph input)\
         \n  --list               list workloads and exit\
         \n  --help               show this message",
        d.workload.name(),
        c.system.name(),
        d.ratio,
        MIN_FOOTPRINT_PAGES,
        d.footprint,
        d.seed,
        c.channels,
        c.llc.capacity_bytes / 1024,
        c.llc_hit.as_nanos(),
        c.hpd.threshold,
        c.rpt.capacity_bytes / 1024,
        c.slack_frames,
        c.latency.reclaim_per_page.as_nanos(),
        d.hopp.policy.intensity,
        if c.rdma.jitter.is_some() { "bursty" } else { "off" },
        c.fabric.nodes,
        c.fabric.placement.name(),
        c.fabric.replication,
        c.obs_level.label(),
    );
    std::process::exit(2);
}

/// The next argument, as the value of `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("missing value for {flag}"))
}

/// The next argument, parsed as the value of `flag`.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(args, flag)?;
    v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
}

/// Parses the arguments (without the program name) straight into a
/// [`Cli`]. Every error is a message for the caller to print before
/// the usage text.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Request, String> {
    let mut cli = Cli::default();
    let c = &mut cli.config;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let it = &mut it;
        let flag = flag.as_str();
        match flag {
            "--workload" => {
                let v = value(it, flag)?;
                cli.workload = WorkloadKind::from_name(&v)
                    .ok_or_else(|| format!("unknown workload {v:?} (try --list)"))?;
            }
            "--system" => {
                let v = value(it, flag)?;
                c.system =
                    SystemConfig::from_name(&v).ok_or_else(|| format!("unknown system {v:?}"))?;
            }
            "--ratio" => {
                cli.ratio = number(it, flag)?;
                if !(cli.ratio.is_finite() && cli.ratio > 0.0) {
                    return Err(format!("--ratio must be finite and > 0, got {}", cli.ratio));
                }
            }
            "--footprint" => {
                cli.footprint = number(it, flag)?;
                if cli.footprint < MIN_FOOTPRINT_PAGES {
                    return Err(format!(
                        "--footprint must be at least {MIN_FOOTPRINT_PAGES} pages, got {}",
                        cli.footprint
                    ));
                }
            }
            "--seed" => cli.seed = number(it, flag)?,
            "--channels" => c.channels = number(it, flag)?,
            "--llc-kb" => c.llc.capacity_bytes = number::<usize>(it, flag)?.saturating_mul(1024),
            "--llc-hit-ns" => c.llc_hit = Nanos::from_nanos(number(it, flag)?),
            "--hpd-threshold" => c.hpd = hopp_hw::HpdConfig::with_threshold(number(it, flag)?),
            "--rpt-kb" => c.rpt = hopp_hw::RptCacheConfig::with_kib(number(it, flag)?),
            "--slack-frames" => c.slack_frames = number(it, flag)?,
            "--reclaim-cost-ns" => {
                c.latency.reclaim_per_page = Nanos::from_nanos(number(it, flag)?);
            }
            "--direct-reclaim" => c.reclaim_in_advance = false,
            "--intensity" => cli.hopp.policy.intensity = number(it, flag)?,
            "--offset" => cli.hopp.policy.fixed_offset = Some(number(it, flag)?),
            "--huge-batch" => cli.hopp.policy.huge_batch = Some(HugeBatchConfig::default()),
            "--markov" => cli.hopp.trainer = TrainerKind::Markov(MarkovConfig::default()),
            "--scenario" => cli.scenario = Some(value(it, flag)?),
            "--record-trace" => cli.record_trace = Some(value(it, flag)?),
            "--replay-trace" => cli.replay_trace = Some(value(it, flag)?),
            "--jitter" => {
                c.rdma = match value(it, flag)?.as_str() {
                    "bursty" => hopp_net::RdmaConfig::volatile(),
                    "off" => hopp_net::RdmaConfig::default(),
                    v => return Err(format!("unknown jitter mode {v:?} (bursty | off)")),
                };
            }
            "--mem-nodes" => c.fabric.nodes = number(it, flag)?,
            "--placement" => {
                let v = value(it, flag)?;
                c.fabric.placement = PlacementKind::parse(&v)
                    .ok_or_else(|| format!("unknown placement {v:?} (hash | rr | stream)"))?;
            }
            "--replication" => c.fabric.replication = number(it, flag)?,
            "--fault-script" => {
                let script = FaultScript::parse(&value(it, flag)?)
                    .map_err(|e| format!("bad fault script: {e}"))?;
                cli.fault_script = Some(script);
            }
            "--imprecise-lru" => c.precise_lru = false,
            "--reclaim-window" => {
                c.trace_assisted_reclaim = Some(Nanos::from_millis(number(it, flag)?));
            }
            "--remote-capacity" => c.remote_capacity_pages = Some(number(it, flag)?),
            "--timeline" => c.timeline_every = number(it, flag)?,
            "--obs-level" => {
                let v = value(it, flag)?;
                c.obs_level = ObsLevel::parse(&v)
                    .ok_or_else(|| format!("unknown obs level {v:?} (off | counters | full)"))?;
            }
            "--trace-out" => cli.trace_out = Some(value(it, flag)?),
            "--metrics-json" => cli.metrics_json = Some(value(it, flag)?),
            "--timeline-out" => cli.timeline_out = Some(value(it, flag)?),
            "--prof-json" => cli.prof_json = Some(value(it, flag)?),
            "--prof-folded" => cli.prof_folded = Some(value(it, flag)?),
            "--list" => return Ok(Request::List),
            "--help" | "-h" => return Ok(Request::Help),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let SystemConfig::Hopp { config, .. } = &mut c.system {
        *config = cli.hopp;
    }
    // --trace-out needs the event stream: upgrade to `full` unless the
    // chosen level already records events.
    if cli.trace_out.is_some() && !c.obs_level.events() {
        c.obs_level = ObsLevel::Full;
    }
    // --timeline-out needs samples: default to one per 1000 accesses.
    if cli.timeline_out.is_some() && c.timeline_every == 0 {
        c.timeline_every = 1_000;
    }
    Ok(Request::Run(Box::new(cli)))
}

fn list_workloads(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{:<13} {:>6} {:>5}  model", "workload", "GB", "cores")?;
    for k in WorkloadKind::ALL {
        writeln!(
            out,
            "{:<13} {:>6} {:>5}  {}",
            k.name(),
            k.paper_footprint_gb(),
            k.paper_cores(),
            k.description()
        )?;
    }
    Ok(())
}

/// `println!` through [`say`]: a closed stdout drops the line quietly.
macro_rules! sayln {
    ($($arg:tt)*) => {
        say(|out| writeln!(out, $($arg)*))
    };
}

/// Writes to stdout through one lock. When the reader has closed the
/// pipe (`hoppsim … | head -1`), the text is dropped quietly and the run
/// goes on, side outputs included; any other write error ends the CLI
/// with exit code 1.
fn say(print: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let mut out = io::stdout().lock();
    match print(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("writing to stdout: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

/// A fatal run error ends the CLI with the error's full context on
/// stderr: exit code 2 for an input the model cannot take (a page beyond
/// the RPT's VPN field), 1 for a run that went wrong (lost page,
/// exhausted pool). Takes the error by value to slot into
/// `unwrap_or_else` directly.
#[allow(clippy::needless_pass_by_value)]
fn fail_run<T>(e: hopp_types::Error) -> T {
    eprintln!("run failed: {e}");
    let code = match e {
        hopp_types::Error::VpnOutOfRange { .. } => 2,
        _ => 1,
    };
    std::process::exit(code);
}

fn print_report(
    out: &mut dyn Write,
    ratio: f64,
    label: &str,
    local_ns: f64,
    r: &SimReport,
) -> io::Result<()> {
    let normalized = local_ns / r.completion.as_nanos() as f64;
    writeln!(out, "workload          {label}")?;
    writeln!(
        out,
        "system            {} ({:.0}% local)",
        r.system,
        ratio * 100.0
    )?;
    writeln!(out, "completion        {}", r.completion)?;
    writeln!(out, "normalized perf   {normalized:.3}")?;
    let c = &r.counters;
    writeln!(
        out,
        "faults            {} major, {} prefetch-hit, {} first-touch, {} in-flight waits",
        c.major_faults, c.minor_faults, c.first_touches, c.inflight_waits
    )?;
    writeln!(
        out,
        "prefetching       accuracy {:.1}%  coverage {:.1}%  (fault-path {:.1}% + hopp-injected {:.1}%)",
        r.accuracy() * 100.0,
        r.coverage() * 100.0,
        r.coverage_swapcache() * 100.0,
        r.coverage_injected() * 100.0
    )?;
    writeln!(
        out,
        "network           {} reads, {} writebacks, {} MB moved",
        r.rdma.reads,
        r.rdma.writes,
        r.rdma.bytes / (1024 * 1024)
    )?;
    if let Some(f) = &r.fabric {
        writeln!(
            out,
            "memory pool       {} nodes, {} placement, replication {}, {} failovers, {} failed writes",
            f.nodes.len(),
            f.placement,
            f.replication,
            f.failovers,
            f.failed_writes
        )?;
        for n in &f.nodes {
            writeln!(
                out,
                "  {}           {} reads, {} writes, {} placed, {} retries, {} timeouts{}",
                n.node,
                n.link.reads,
                n.link.writes,
                n.placed,
                n.retries,
                n.timeouts,
                if n.lost { ", LOST" } else { "" }
            )?;
        }
    }
    writeln!(
        out,
        "hardware          {} hot pages ({:.2}% of misses), RPT hit rate {:.1}%, HPD bw {:.3}%",
        r.hpd.hot_pages,
        r.hpd.hot_ratio() * 100.0,
        r.rpt.hit_rate() * 100.0,
        r.ledger.hpd_overhead_percent()
    )?;
    if let Some(h) = &r.hopp {
        writeln!(
            out,
            "hopp data path    {} injected, {} DRAM-hits, mean timeliness {}",
            h.prefetched, h.prefetch_hits, h.mean_timeliness
        )?;
    }
    if let Some(t) = &r.tier_stats {
        writeln!(
            out,
            "tier mix          SSP {}  LSP {}  RSP {}  unclassified {}",
            t.simple, t.ladder, t.ripple, t.unclassified
        )?;
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
        writeln!(out, "major-fault lat   {}", fmt(&l.major_fault))?;
        writeln!(out, "timeliness        {}", fmt(&l.timeliness))?;
        writeln!(out, "inflight wait     {}", fmt(&l.inflight_wait))?;
        writeln!(out, "rdma read         {}", fmt(&l.rdma_read))?;
        if l.rdma_write.count > 0 {
            writeln!(out, "rdma write        {}", fmt(&l.rdma_write))?;
        }
    }
    if !r.timeline.is_empty() {
        writeln!(out, "\ntimeline (per-window major faults / prefetch-hits):")?;
        let mut prev = (0u64, 0u64);
        for (i, s) in r.timeline.iter().enumerate() {
            writeln!(
                out,
                "  w{:<3} @{:<12} major {:<6} p-hit {:<6}",
                i + 1,
                format!("{}", s.at),
                s.major_faults - prev.0,
                s.minor_faults - prev.1,
            )?;
            prev = (s.major_faults, s.minor_faults);
        }
    }
    Ok(())
}

/// Arms the profiler for the measured run (a no-op when no `--prof-*`
/// flag was given). Span events — needed only to merge host spans onto
/// the Chrome trace — are retained only when a trace is requested.
fn prof_begin(cli: &Cli, workload: &str) {
    if cli.prof_json.is_some() || cli.prof_folded.is_some() {
        hopp_prof::enable(cli.trace_out.is_some());
        hopp_prof::set_key(workload, cli.config.system.name(), "run");
    }
}

/// Writes the side outputs (`--trace-out`, `--metrics-json`,
/// `--timeline-out`, `--prof-json`, `--prof-folded`) after a run.
fn write_outputs(cli: &Cli, r: &SimReport, prof: Option<&hopp_prof::ProfReport>) {
    let write = |path: &str, contents: String, what: &str| {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("writing {what} to {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &cli.trace_out {
        // Host profiler spans ride along as a second process ("host")
        // next to the simulated-time tracks.
        let extra = prof.map(hopp_prof::ProfReport::chrome_trace_fragment);
        let trace =
            events_to_chrome_trace_with_extra(&r.obs.events, extra.as_deref().unwrap_or(""));
        write(path, trace, "trace");
        sayln!(
            "\ntrace             {} events -> {path} ({} dropped; open in Perfetto)",
            r.obs.events.len(),
            r.obs.dropped_events
        );
    }
    if let Some(path) = &cli.metrics_json {
        write(path, r.metrics_json(), "metrics");
        sayln!("metrics           -> {path}");
    }
    if let Some(path) = &cli.timeline_out {
        write(path, r.timeline_csv(), "timeline");
        sayln!("timeline          {} samples -> {path}", r.timeline.len());
    }
    if let Some(p) = prof {
        if let Some(path) = &cli.prof_json {
            write(path, p.to_json(), "profile");
            sayln!(
                "profile           {} spans, {} of host time -> {path}",
                p.nodes.len(),
                hopp_types::Nanos::from_nanos(p.attributed_ns())
            );
        }
        if let Some(path) = &cli.prof_folded {
            write(path, p.to_folded(), "folded profile");
            sayln!("folded profile    -> {path} (feed to flamegraph.pl / inferno)");
        }
    }
}

/// Where the run's accesses come from: a catalogue workload or a
/// scenario, or a recorded `.hst` trace. Every stream built from one
/// source yields the same accesses.
enum Accesses {
    Live(WorkloadSource),
    Replay(HstTrace),
}

impl Accesses {
    /// Opens the source the flags select: `--replay-trace`, then
    /// `--scenario`, then `--workload`. Returns it with the header that
    /// describes it (the one `--record-trace` writes) and the report's
    /// workload label.
    fn open(cli: &Cli) -> (Accesses, HstHeader, String) {
        if let Some(path) = &cli.replay_trace {
            // A malformed or unreadable trace is bad input, like a bad
            // `--scenario`: exit code 2.
            let trace = hst::read_file(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("replay-trace failed: {e}");
                std::process::exit(2);
            });
            let h = trace.header.clone();
            sayln!(
                "replaying {} accesses ({} recorded from {} at {} pages, seed {})\n",
                trace.accesses.len(),
                path,
                h.source,
                h.footprint_pages,
                h.seed
            );
            let label = format!(
                "replay of {path} ({}, {} pages, seed {})",
                h.source, h.footprint_pages, h.seed
            );
            return (Accesses::Replay(trace), h, label);
        }
        let source = match &cli.scenario {
            Some(p) => {
                WorkloadSource::Scenario(Scenario::from_file(Path::new(p)).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }))
            }
            None => WorkloadSource::Catalogue(cli.workload),
        };
        let h = HstHeader {
            pid: SOLO_PID,
            footprint_pages: source.footprint(cli.footprint, cli.footprint),
            seed: cli.seed,
            source: source.name().to_string(),
        };
        let kind = if cli.scenario.is_some() {
            "scenario, "
        } else {
            ""
        };
        let label = format!(
            "{} ({kind}{} pages, seed {})",
            h.source, h.footprint_pages, h.seed
        );
        (Accesses::Live(source), h, label)
    }

    /// A fresh stream of the source's accesses.
    fn stream(&self, h: &HstHeader) -> Box<dyn AccessStream> {
        match self {
            Accesses::Live(source) => source.build(h.pid, h.footprint_pages, h.seed),
            Accesses::Replay(trace) => Box::new(trace.clone().into_stream()),
        }
    }
}

/// One solo run of the §VI-A protocol, with the fault script attached.
fn run(
    config: SimConfig,
    accesses: &Accesses,
    h: &HstHeader,
    ratio: f64,
    faults: Option<&FaultScript>,
) -> SimReport {
    let mut sim = solo_simulator(config, h.pid, accesses.stream(h), h.footprint_pages, ratio)
        .unwrap_or_else(fail_run);
    if let Some(script) = faults {
        sim.set_fault_script(script).unwrap_or_else(fail_run);
    }
    sim.run().unwrap_or_else(fail_run)
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(Request::Run(cli)) => *cli,
        Ok(Request::List) => return say(list_workloads),
        Ok(Request::Help) => usage(),
        Err(msg) => {
            eprintln!("{msg}");
            usage()
        }
    };
    let (accesses, header, label) = Accesses::open(&cli);

    // --record-trace: capture a fresh copy of the access stream, then
    // run normally. Streams are deterministic, so the recording holds
    // exactly what the runs consume.
    if let Some(path) = &cli.record_trace {
        let mut stream = accesses.stream(&header);
        let n = hst::record_file(Path::new(path), &header, &mut *stream).unwrap_or_else(|e| {
            eprintln!("record-trace failed: {e}");
            std::process::exit(1);
        });
        sayln!("recorded {n} accesses to {path} (.hst)\n");
    }

    // The all-local normalization run, then the measured run; only the
    // measured run is profiled and sees the fault script.
    let local_config = SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch));
    let local = run(local_config, &accesses, &header, 1.25, None);
    prof_begin(&cli, &header.source);
    let report = run(
        cli.config,
        &accesses,
        &header,
        cli.ratio,
        cli.fault_script.as_ref(),
    );
    let prof = hopp_prof::disable();
    say(|out| {
        print_report(
            out,
            cli.ratio,
            &label,
            local.completion.as_nanos() as f64,
            &report,
        )
    });
    write_outputs(&cli, &report, prof.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Request, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn parse_cli(args: &[&str]) -> Cli {
        match parse(args) {
            Ok(Request::Run(cli)) => *cli,
            other => panic!("{args:?}: want a run, got {other:?}"),
        }
    }

    #[test]
    fn bad_ratios_missing_values_and_unknown_flags_are_errors() {
        for args in [
            &["--ratio", "0"][..],
            &["--ratio", "-1"],
            &["--ratio", "NaN"],
            &["--ratio", "inf"],
            &["--ratio", "half"],
            &["--ratio"],
            &["--footprint"],
            &["--footprint", "0"],
            &["--footprint", "255"],
            &["--volatile"],
            &["--system", "depth-x"],
            &["--workload", "npb"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
        assert_eq!(
            parse(&["--ratio"]).unwrap_err(),
            "missing value for --ratio"
        );
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag --bogus");
        assert_eq!(parse_cli(&["--ratio", "0.25"]).ratio, 0.25);
        assert_eq!(
            parse(&["--footprint", "255"]).unwrap_err(),
            "--footprint must be at least 256 pages, got 255"
        );
        assert_eq!(parse_cli(&["--footprint", "256"]).footprint, 256);
    }

    #[test]
    fn flags_fill_one_sim_config_in_any_order() {
        let flags = [
            &["--intensity", "3"][..],
            &["--system", "hopp"],
            &["--hpd-threshold", "4"],
            &["--jitter", "bursty"],
            &["--mem-nodes", "2"],
            &["--trace-out", "t.json"],
        ];
        let forward: Vec<&str> = flags.iter().flat_map(|f| f.iter().copied()).collect();
        let backward: Vec<&str> = flags.iter().rev().flat_map(|f| f.iter().copied()).collect();
        let (a, b) = (parse_cli(&forward), parse_cli(&backward));
        assert_eq!(a.config, b.config);
        let SystemConfig::Hopp { config, .. } = a.config.system else {
            panic!("--system hopp picks HoPP");
        };
        assert_eq!(config.policy.intensity, 3);
        assert_eq!(a.config.hpd.threshold, 4);
        assert!(a.config.rdma.jitter.is_some());
        assert_eq!(a.config.fabric.nodes, 2);
        assert_eq!(
            a.config.obs_level,
            ObsLevel::Full,
            "--trace-out needs events"
        );
    }

    #[test]
    fn defaults_are_the_paper_machine_under_hopp() {
        let cli = parse_cli(&[]);
        assert_eq!(
            cli.config,
            SimConfig::with_system(SystemConfig::hopp_default())
        );
        assert_eq!(cli.config.hpd.threshold, 8, "the paper's N");
        let depth = parse_cli(&["--system", "depth-16", "--markov"]);
        assert_eq!(
            depth.config.system,
            SystemConfig::Baseline(BaselineKind::DepthN(16))
        );
    }
}
