//! `hopp-benchmark`: the repository benchmark for the HoPP simulator.
//!
//! It runs the four workloads of [`workloads::Workload`] in one
//! single-threaded process, as a closed batch loop of cold runs, and
//! prints one `workload metric value unit (n=samples)` line per metric,
//! then a one-line JSON summary. See `benchmark/README.md` for the
//! metrics, the workloads and the run protocol.

mod alloc;
mod check;
mod metrics;
mod replay;
mod stats;
mod workloads;

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use hopp::prof::alloc::thread_allocs;
use hopp::sim::{SimConfig, SimReport, Simulator};
use hopp::trace::{AccessStream, Interleaver};

use metrics::{Table, END_TO_END, PER_LAYER, SPAN_LABELS};
use workloads::{HstFile, Source, StepClock, Workload};

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

const USAGE: &str = "usage: hopp-benchmark [--seed N] [--rounds N] [--seconds S] \
[--workload a,b] [--trace 0|1] [--out FILE] [--quick]

  --seed N         workload seed (default 42)
  --rounds N       at least N rounds of every workload (default 9, --quick 3)
  --seconds S      keep running rounds until S seconds have passed
  --workload a,b   run only these workloads (alias: --only); one of
                   quicksort-hopp, quicksort-fastswap, pagerank-hst-hopp,
                   tenants-rw-hopp
  --trace 0|1      0: rounds only, summary holds the end-to-end metrics;
                   1: rounds, layer replay and traced run, summary holds
                   the per-layer metrics (default: everything, both)
  --out FILE       also write every result, with direction and sample
                   count, as JSON
  --quick          8,192-page footprint, 3 rounds, 1 replay pass";

/// Which metrics a run produces and the summary line carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scope {
    EndToEnd,
    PerLayer,
    All,
}

#[derive(Debug)]
struct Options {
    seed: u64,
    rounds: usize,
    seconds: f64,
    workloads: Vec<Workload>,
    out: Option<PathBuf>,
    footprint: u64,
    passes: usize,
    scope: Scope,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut seed = 42;
    let mut rounds = None;
    let mut seconds = 0.0;
    let mut workloads = Workload::ALL.to_vec();
    let mut out = None;
    let mut quick = false;
    let mut scope = Scope::All;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--seed" => seed = number(value()?)?,
            "--rounds" => {
                rounds = Some(usize::try_from(number(value()?)?).map_err(|e| e.to_string())?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: not a duration: {v}"))?;
            }
            "--workload" | "--only" => {
                workloads = value()?
                    .split(',')
                    .map(|n| Workload::by_name(n).ok_or(format!("unknown workload {n}")))
                    .collect::<Result<_, _>>()?;
            }
            "--trace" => {
                scope = match value()?.as_str() {
                    "0" => Scope::EndToEnd,
                    "1" => Scope::PerLayer,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let rounds = rounds.unwrap_or(if quick { 3 } else { 9 });
    if rounds == 0 {
        return Err("--rounds must be at least 1".to_string());
    }
    Ok(Options {
        seed,
        rounds,
        seconds,
        workloads,
        out,
        footprint: if quick { 8_192 } else { 65_536 },
        passes: if quick { 1 } else { 3 },
        scope,
    })
}

/// Accesses per timed window of a round.
const WINDOW: u64 = 1_024;

/// Room reserved for window stamps, in accesses (the largest workload
/// makes 786,432).
const MAX_ACCESSES: u64 = 1 << 22;

/// One successful round.
struct Round {
    setup_s: f64,
    run_s: f64,
    /// Host ns from the start of `run` to the first window stamp, then
    /// of each window of [`WINDOW`] accesses, then to the end of `run`.
    windows_ns: Vec<u64>,
    accesses: u64,
    allocs: u64,
    peak_bytes: u64,
}

/// The composite fastest run time: every round simulates exactly the
/// same work, so window `k` is the same accesses in every round; summing
/// each window's fastest time over the rounds filters host noise that
/// strikes part of a round. `None` without rounds, or if the rounds
/// were cut into different windows.
fn fastest_windows_ns(rounds: &[Round]) -> Option<u64> {
    let len = rounds.first()?.windows_ns.len();
    if rounds.iter().any(|r| r.windows_ns.len() != len) {
        return None;
    }
    (0..len)
        .map(|k| rounds.iter().map(|r| r.windows_ns[k]).min())
        .sum()
}

/// Everything the benchmark knows about one workload.
struct Bench {
    workload: Workload,
    /// `.hst` recordings the rounds replay (empty for generated inputs).
    hst: Vec<HstFile>,
    rounds: Vec<Round>,
    /// The first passing run's report and its digest.
    first: Option<(SimReport, u64)>,
    attempted: u64,
    failed: u64,
    table: Table,
}

impl Bench {
    fn source(&self) -> Source<'_> {
        if self.workload.via_hst() {
            Source::Hst(&self.hst)
        } else {
            Source::Generate
        }
    }

    fn fail(&mut self, what: &str, reasons: &[String]) {
        self.failed += 1;
        for reason in reasons {
            println!("FAILED {} {what}: {reason}", self.workload.name());
        }
    }

    /// Checks a finished run, counting it as failed unless it passed;
    /// returns the report of a passing run.
    fn check(
        &mut self,
        what: &str,
        result: hopp::types::Result<SimReport>,
        handed_out: u64,
    ) -> Option<SimReport> {
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(what, &[format!("run returned an error: {e}")]);
                return None;
            }
        };
        let expected = self.first.as_ref().map(|(_, d)| *d);
        let reasons = check::check_run(self.workload, &report, handed_out, expected);
        if !reasons.is_empty() {
            self.fail(what, &reasons);
            return None;
        }
        if self.first.is_none() {
            let d = check::digest(&report);
            self.first = Some((report.clone(), d));
        }
        Some(report)
    }

    /// Sets up (input and simulator) and runs one cold round.
    fn round(&mut self, opts: &Options, index: usize) {
        self.attempted += 1;
        let what = format!("round {index}");
        let handed_out = Rc::new(Cell::new(0));
        let clock = StepClock::new(WINDOW, MAX_ACCESSES);
        let started = Instant::now();
        let sim = workloads::streams(
            self.workload,
            &self.source(),
            opts.footprint,
            opts.seed,
            &handed_out,
            Some(&clock),
        )
        .and_then(|apps| {
            Simulator::new(
                SimConfig::with_system(self.workload.system()),
                workloads::app_specs(apps, opts.footprint),
            )
            .map_err(|e| e.to_string())
        });
        let setup_s = started.elapsed().as_secs_f64();
        let sim = match sim {
            Ok(sim) => sim,
            Err(e) => return self.fail(&what, &[format!("set-up failed: {e}")]),
        };
        let allocs_before = thread_allocs();
        alloc::start_window();
        let run_start = clock.now_ns();
        let result = std::hint::black_box(sim.run());
        let run_end = clock.now_ns();
        let allocs = thread_allocs() - allocs_before;
        let peak_bytes = alloc::window_peak_bytes();
        if let Some(report) = self.check(&what, result, handed_out.get()) {
            let mut marks = vec![run_start];
            marks.extend(clock.stamps());
            marks.push(run_end);
            self.rounds.push(Round {
                setup_s,
                run_s: (run_end - run_start) as f64 / 1e9,
                windows_ns: marks.windows(2).map(|w| w[1] - w[0]).collect(),
                accesses: report.counters.accesses,
                allocs,
                peak_bytes,
            });
        }
    }

    /// The end-to-end metrics and the report-derived per-layer counters.
    fn summarise_rounds(&mut self) {
        let n = self.rounds.len();
        let per_round = |f: &dyn Fn(&Round) -> f64| self.rounds.iter().map(f).collect::<Vec<f64>>();
        let run_s = per_round(&|r| r.run_s);
        let fastest_s = fastest_windows_ns(&self.rounds).map(|ns| ns as f64 / 1e9);
        let accesses = self.rounds.first().map_or(0, |r| r.accesses) as f64;
        let t = &mut self.table;
        t.set("accesses_per_s", fastest_s.map(|s| accesses / s), n);
        t.set("setup_s", stats::median(&per_round(&|r| r.setup_s)), n);
        t.set(
            "peak_heap_mib",
            stats::median(&per_round(&|r| r.peak_bytes as f64 / (1u64 << 20) as f64)),
            n,
        );
        t.set(
            "allocs_per_access",
            stats::median(&per_round(&|r| r.allocs as f64 / r.accesses as f64)),
            n,
        );
        t.set("sim.round_s_p50", stats::median(&run_s), n);
        t.set("sim.round_s_iqr_pct", stats::iqr_pct(&run_s), n);
        let Some((r, _)) = &self.first else {
            return;
        };
        let accesses = r.counters.accesses as f64;
        let per_kaccess = |count: u64| Some(count as f64 * 1_000.0 / accesses);
        t.set("sim_completion_ms", Some(r.completion.as_millis_f64()), 1);
        t.set("coverage_pct", Some(r.coverage() * 100.0), 1);
        t.set("accuracy_pct", Some(r.accuracy() * 100.0), 1);
        t.set("llc.hit_pct", Some(r.llc.hit_rate() * 100.0), 1);
        t.set("hw.hot_pages_per_kaccess", per_kaccess(r.hpd.hot_pages), 1);
        t.set("hw.rpt_hit_pct", Some(r.rpt.hit_rate() * 100.0), 1);
        t.set(
            "core.prefetches_per_kaccess",
            per_kaccess(r.counters.hopp_prefetches),
            1,
        );
        t.set(
            "kernel.major_faults_per_kaccess",
            per_kaccess(r.counters.major_faults),
            1,
        );
        t.set(
            "kernel.reclaims_per_kaccess",
            per_kaccess(r.counters.reclaimed),
            1,
        );
        t.set(
            "fabric.writebacks_per_kaccess",
            per_kaccess(r.counters.writebacks),
            1,
        );
        let ops = r.rdma.reads + r.rdma.writes;
        t.set(
            "net.queue_ns_per_op",
            (ops > 0).then(|| r.rdma.queueing.as_nanos() as f64 / ops as f64),
            1,
        );
    }

    /// The layer replay: `opts.passes` passes over the workload's stream.
    fn replay(&mut self, opts: &Options) {
        let expected = self.first.as_ref().map(|(r, _)| r.counters.accesses);
        let mut passes = Vec::new();
        for pass in 0..opts.passes {
            self.attempted += 1;
            let what = format!("replay pass {pass}");
            let handed_out = Rc::new(Cell::new(0));
            let result = workloads::streams(
                self.workload,
                &self.source(),
                opts.footprint,
                opts.seed,
                &handed_out,
                None,
            )
            .and_then(|apps| {
                // Round-robin at access granularity, the order in which
                // `Simulator::run` consumes several apps.
                let mut stream =
                    Interleaver::round_robin(apps.into_iter().map(|(_, s)| s).collect());
                replay::run_pass(
                    &mut stream as &mut dyn AccessStream,
                    self.workload.system(),
                    workloads::limit_pages(opts.footprint),
                )
            });
            match result {
                Ok(p) if expected.is_some_and(|e| e != p.accesses) => self.fail(
                    &what,
                    &[format!(
                        "replayed {} accesses, the simulator ran {expected:?}",
                        p.accesses
                    )],
                ),
                Ok(p) => passes.push(p),
                Err(e) => self.fail(&what, &[e]),
            }
        }
        let Some(first) = passes.first() else {
            return;
        };
        let n = passes.len();
        let t = &mut self.table;
        for (i, stage) in replay::STAGES.iter().enumerate() {
            let per_call: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.stages[i].ns_per_call())
                .collect();
            let name = metrics::lookup(&format!("{stage}.ns"))
                .expect("every stage is declared")
                .name;
            t.set(name, stats::median(&per_call), n);
        }
        let ratio =
            |num: u64, den: u64, scale: f64| (den > 0).then(|| num as f64 * scale / den as f64);
        let p = first;
        t.set("trace.lines_per_access", ratio(p.lines, p.accesses, 1.0), 1);
        t.set("llc.miss_pct", ratio(p.misses, p.lines, 100.0), 1);
        t.set("hw.hot_per_kmiss", ratio(p.hot_pages, p.misses, 1_000.0), 1);
        t.set(
            "core.orders_per_hot_page",
            ratio(p.orders, p.hot_pages, 1.0),
            1,
        );
        t.set(
            "core.allocs_per_hot_page",
            ratio(p.core_allocs, p.hot_pages, 1.0),
            1,
        );
        t.set(
            "kernel.evictions_per_kaccess",
            ratio(p.evictions, p.accesses, 1_000.0),
            1,
        );
        t.set(
            "baselines.requests_per_fault",
            ratio(p.requests, p.major_faults, 1.0),
            1,
        );
        t.set(
            "scn.bytes_per_access",
            ratio(p.hst_bytes, p.accesses, 1.0),
            1,
        );
    }

    /// One more run with the profiler armed and every step stamped.
    fn traced(&mut self, opts: &Options) {
        self.attempted += 1;
        let what = "traced run";
        let expected = self.first.as_ref().map_or(0, |(r, _)| r.counters.accesses);
        let clock = StepClock::new(1, expected);
        let handed_out = Rc::new(Cell::new(0));
        // Generated directly, even where rounds replay `.hst`: the digest
        // check then also proves the replay reproduces the generator.
        let sim = workloads::streams(
            self.workload,
            &Source::Generate,
            opts.footprint,
            opts.seed,
            &handed_out,
            Some(&clock),
        )
        .and_then(|apps| {
            Simulator::new(
                SimConfig::with_system(self.workload.system()),
                workloads::app_specs(apps, opts.footprint),
            )
            .map_err(|e| e.to_string())
        });
        let sim = match sim {
            Ok(sim) => sim,
            Err(e) => return self.fail(what, &[format!("set-up failed: {e}")]),
        };
        hopp::prof::enable(false);
        hopp::prof::set_key(
            self.workload.name(),
            self.workload.system().name(),
            "traced",
        );
        let started = Instant::now();
        let result = sim.run();
        let wall_s = started.elapsed().as_secs_f64();
        let prof = hopp::prof::disable().unwrap_or_default();
        let Some(report) = self.check(what, result, handed_out.get()) else {
            return;
        };
        let samples = report.counters.accesses as usize;
        let accesses = report.counters.accesses as f64;
        let t = &mut self.table;
        for (label, prefix) in SPAN_LABELS {
            let (ns, allocs) = prof
                .nodes
                .iter()
                .filter(|n| n.label == *label)
                .fold((0u64, 0u64), |(ns, a), n| {
                    (ns + n.self_ns, a + n.self_allocs)
                });
            for (suffix, value) in [("ns", ns), ("allocs", allocs)] {
                if let Some(def) = metrics::lookup(&format!("{prefix}.{suffix}")) {
                    t.set(def.name, Some(value as f64 / accesses), samples);
                }
            }
        }
        let mut steps: Vec<f64> = clock
            .stamps()
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .collect();
        let n = steps.len();
        t.set("sim.step_ns_p50", stats::percentile(&mut steps, 0.5), n);
        t.set("sim.step_ns_p99", stats::percentile(&mut steps, 0.99), n);
        t.set("sim.step_ns_p999", stats::percentile(&mut steps, 0.999), n);
        let coverage = (prof.enabled_ns > 0)
            .then(|| prof.attributed_ns() as f64 * 100.0 / prof.enabled_ns as f64);
        t.set("span.coverage_pct", coverage, 1);
        let best_s = self
            .rounds
            .iter()
            .map(|r| r.run_s)
            .fold(f64::INFINITY, f64::min);
        t.set(
            "span.overhead_pct",
            Some((wall_s / best_s - 1.0) * 100.0),
            1,
        );
        if coverage.is_none_or(|c| c < 90.0) {
            let reason = format!("spans explain only {coverage:?}% of the traced run");
            self.fail(what, &[reason]);
        }
    }
}

fn hst_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    exe.parent()
        .map(PathBuf::from)
        .ok_or_else(|| "the benchmark binary has no parent directory".to_string())
}

fn prepare(workload: Workload, opts: &Options) -> Result<Bench, String> {
    let mut hst = Vec::new();
    if workload.via_hst() {
        let dir = hst_dir()?;
        for app in workload.apps() {
            hst.push(HstFile::record(&dir, *app, opts.footprint, opts.seed)?);
        }
    }
    Ok(Bench {
        workload,
        hst,
        rounds: Vec::new(),
        first: None,
        attempted: 0,
        failed: 0,
        table: Table::default(),
    })
}

fn print_table(bench: &Bench) {
    for (def, v) in bench
        .table
        .rows(END_TO_END)
        .chain(bench.table.rows(PER_LAYER))
    {
        println!(
            "{:<20} {:<34} {} {} (n={})",
            bench.workload.name(),
            def.name,
            v.value,
            def.unit,
            v.n
        );
    }
    println!(
        "{:<20} {} runs attempted, {} failed",
        bench.workload.name(),
        bench.attempted,
        bench.failed
    );
}

fn write_out(path: &Path, benches: &[Bench], opts: &Options) -> Result<(), String> {
    let mut o = format!(
        "{{\"seed\":{},\"footprint_pages\":{},\"workloads\":{{",
        opts.seed, opts.footprint
    );
    for (i, b) in benches.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "\"{}\":{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
            b.workload.name(),
            b.attempted,
            b.failed
        ));
        metrics::write_json_metrics(&mut o, &b.table, END_TO_END, "", true);
        metrics::write_json_metrics(&mut o, &b.table, PER_LAYER, "", true);
        o.push_str("}}");
    }
    o.push_str("}}\n");
    std::fs::write(path, o).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# hopp-benchmark seed {} footprint {} pages, at least {} rounds / {} s, {} replay passes",
        opts.seed, opts.footprint, opts.rounds, opts.seconds, opts.passes
    );
    let mut benches = Vec::new();
    for &w in &opts.workloads {
        match prepare(w, &opts) {
            Ok(b) => benches.push(b),
            Err(e) => {
                eprintln!("preparing {}: {e}", w.name());
                std::process::exit(1);
            }
        }
    }

    // Closed batch loop: one simulation at a time, every workload once a
    // round, the starting workload rotating so slow host drift hits all
    // workloads alike.
    let started = Instant::now();
    let mut round = 0;
    while round < opts.rounds || started.elapsed().as_secs_f64() < opts.seconds {
        for k in 0..benches.len() {
            let i = (round + k) % benches.len();
            benches[i].round(&opts, round);
        }
        round += 1;
    }
    for b in &mut benches {
        b.summarise_rounds();
        if opts.scope != Scope::EndToEnd {
            b.replay(&opts);
            b.traced(&opts);
        }
        print_table(b);
    }

    if let Some(path) = &opts.out {
        if let Err(e) = write_out(path, &benches, &opts) {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }

    let attempted: u64 = benches.iter().map(|b| b.attempted).sum();
    let failed: u64 = benches.iter().map(|b| b.failed).sum();
    let mut summary = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for b in &benches {
        let prefix = if benches.len() == 1 {
            String::new()
        } else {
            format!("{}.", b.workload.name())
        };
        if opts.scope != Scope::PerLayer {
            metrics::write_json_metrics(&mut summary, &b.table, END_TO_END, &prefix, false);
        }
        if opts.scope != Scope::EndToEnd {
            metrics::write_json_metrics(&mut summary, &b.table, PER_LAYER, &prefix, false);
        }
    }
    summary.push_str("}}");
    println!("{summary}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_report_is_counted_as_failed() {
        let args: Vec<String> = ["--quick", "--workload", "quicksort-fastswap"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse(&args).expect("valid flags");
        let mut bench = prepare(Workload::QuicksortFastswap, &opts).expect("prepared");
        bench.round(&opts, 0);
        assert_eq!(
            (bench.attempted, bench.failed, bench.rounds.len()),
            (1, 0, 1)
        );
        let (mut report, _) = bench.first.clone().expect("a passing round");
        let handed_out = report.counters.accesses;
        report.counters.minor_faults += 1;
        assert!(bench.check("tampered", Ok(report), handed_out).is_none());
        assert_eq!(bench.failed, 1);
    }
}
