//! Regenerates every table and figure of the HoPP paper.
//!
//! ```text
//! cargo run --release -p hopp-bench --bin experiments -- all
//! cargo run --release -p hopp-bench --bin experiments -- fig9 fig22
//! cargo run --release -p hopp-bench --bin experiments -- --quick --threads 4 all
//! cargo run --release -p hopp-bench --bin experiments -- sweep --quick --threads 4
//! ```
//!
//! Sections come from the registry (`hopp_bench::registry`). Each
//! selected generator runs once on the hopp-lab pool (`--threads N`,
//! default 1) and the sections print in selection order, so output is
//! byte-identical at any thread count. The `sweep` subcommand runs a
//! (workload × system × seed) grid with per-cell disk caching — see
//! `docs/testing.md`.

use hopp_bench::experiments as ex;
use hopp_bench::registry::{section_names, Ctx, Experiment, Mode, EXPERIMENTS};
use hopp_bench::{lab, Scale};
use hopp_scn::{Scenario, WorkloadSource};
use hopp_sim::SystemConfig;
use hopp_workloads::WorkloadKind;

fn usage() {
    eprintln!(
        "usage: experiments [--quick] [--json] [--chart] [--threads N] [--full] [--seed N] \
         [--footprint N] [--scenarios DIR|FILE] <all|sweep|{}> ...",
        section_names().join("|")
    );
}

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut flag = |name: &str| {
        let set = args.iter().any(|a| a == name);
        args.retain(|a| a != name);
        set
    };
    let quick = flag("--quick");
    let mode = Mode {
        json: flag("--json"),
        chart: flag("--chart"),
    };
    let full = flag("--full");
    let mut scale = if quick {
        Scale::quick()
    } else {
        Scale::default()
    };
    let mut threads: usize = 1;
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if (args[i] == "--seed" || args[i] == "--footprint") && i + 1 < args.len() {
            if let Ok(v) = args[i + 1].parse::<u64>() {
                if args[i] == "--seed" {
                    scale.seed = v;
                } else {
                    scale.footprint = v;
                    scale.spark_footprint = v;
                }
                args.drain(i..=i + 1);
                continue;
            }
        }
        if args[i] == "--threads" && i + 1 < args.len() {
            if let Ok(v) = args[i + 1].parse::<usize>() {
                threads = v.max(1);
                args.drain(i..=i + 1);
                continue;
            }
        }
        if args[i] == "--scenarios" && i + 1 < args.len() {
            match load_scenarios(&args[i + 1]) {
                Ok(loaded) => scenarios.extend(loaded),
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
            args.drain(i..=i + 1);
            continue;
        }
        i += 1;
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return sweep_main(&args[1..], &scale, threads, full, &scenarios);
    }
    if args.is_empty() {
        usage();
        return 2;
    }
    let all = section_names();
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        all.clone()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = selected.iter().find(|name| !all.contains(name)) {
        eprintln!("unknown experiment: {unknown}");
        usage();
        return 2;
    }
    // The quality workload axis: the tracked 4-workload default, the
    // full 15-workload catalogue behind `--full`, plus any
    // `--scenarios` entries in both cases.
    let axis = workload_axis(full, ex::default_bench_workloads(), &scenarios);
    let ctx = Ctx {
        scale: &scale,
        axis: &axis,
    };
    // Each registry entry with a selected section runs once on the lab
    // pool; sections then print in selection order, so `--threads N`
    // output is byte-identical to `--threads 1`.
    let jobs: Vec<&dyn Experiment> = EXPERIMENTS
        .iter()
        .copied()
        .filter(|e| e.names().iter().any(|n| selected.contains(n)))
        .collect();
    let outputs = lab::run_indexed(threads, jobs.len(), |j| jobs[j].render(&ctx, mode));
    let mut failed = 0;
    for name in &selected {
        let (output, _) = outputs
            .iter()
            .zip(&jobs)
            .find(|(_, e)| e.names().contains(name))
            .expect("every selected section has a job");
        match output {
            Ok(sections) => {
                let (_, text) = sections.iter().find(|(n, _)| n == name).expect("rendered");
                print!("{text}");
            }
            Err(e) => {
                eprintln!("experiment {name} failed: {e}");
                failed += 1;
            }
        }
    }
    i32::from(failed > 0)
}

/// Loads scenarios from a `--scenarios` argument: every `*.toml` in a
/// directory (sorted by filename), or one file.
fn load_scenarios(path: &str) -> std::result::Result<Vec<Scenario>, hopp_scn::ScnError> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        hopp_scn::load_dir(p)
    } else {
        Scenario::from_file(p).map(|s| vec![s])
    }
}

/// A workload axis: `default`, or the whole 15-workload catalogue
/// behind `--full`, plus any `--scenarios` entries either way.
fn workload_axis(
    full: bool,
    default: Vec<WorkloadSource>,
    scenarios: &[Scenario],
) -> Vec<WorkloadSource> {
    if full {
        return ex::full_bench_workloads(scenarios);
    }
    let mut axis = default;
    axis.extend(scenarios.iter().cloned().map(WorkloadSource::Scenario));
    axis
}

/// Runs the `sweep` subcommand: a (workload × system × seed) grid on
/// the lab pool with per-cell disk caching.
fn sweep_main(
    args: &[String],
    scale: &Scale,
    threads: usize,
    full: bool,
    scenarios: &[Scenario],
) -> i32 {
    let mut spec = lab::SweepSpec::quick();
    spec.footprint = scale.footprint;
    spec.spark_footprint = scale.spark_footprint;
    spec.threads = threads;
    spec.cache_dir = Some(std::path::PathBuf::from("target/lab-cache"));
    let mut out_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let (flag, value) = (args[i].as_str(), args.get(i + 1));
        let mut took_value = true;
        match (flag, value) {
            ("--no-cache", _) => {
                spec.cache_dir = None;
                took_value = false;
            }
            ("--workloads", Some(list)) => {
                let kinds: std::result::Result<Vec<_>, &str> = list
                    .split(',')
                    .map(|n| WorkloadKind::from_name(n).ok_or(n))
                    .collect();
                match kinds {
                    Ok(kinds) => {
                        spec.workloads = kinds.into_iter().map(WorkloadSource::Catalogue).collect();
                    }
                    Err(name) => {
                        eprintln!("unknown workload: {name}");
                        return 2;
                    }
                }
            }
            ("--systems", Some(list)) => {
                let systems: std::result::Result<Vec<_>, &str> = list
                    .split(',')
                    .map(|n| Ok((n.to_string(), SystemConfig::from_name(n).ok_or(n)?)))
                    .collect();
                match systems {
                    Ok(systems) => spec.systems = systems,
                    Err(name) => {
                        eprintln!("unknown system: {name}");
                        return 2;
                    }
                }
            }
            ("--seeds", Some(list)) => {
                let seeds: std::result::Result<Vec<u64>, _> =
                    list.split(',').map(str::parse).collect();
                match seeds {
                    Ok(seeds) if !seeds.is_empty() => spec.seeds = seeds,
                    _ => {
                        eprintln!("--seeds wants a comma-separated list of integers");
                        return 2;
                    }
                }
            }
            ("--ratio", Some(v)) => match v.parse::<f64>() {
                Ok(ratio) if ratio > 0.0 && ratio <= 1.0 => spec.ratio = ratio,
                _ => {
                    eprintln!("--ratio wants a fraction in (0, 1]");
                    return 2;
                }
            },
            ("--cache-dir", Some(dir)) => {
                spec.cache_dir = Some(std::path::PathBuf::from(dir));
            }
            ("--out", Some(path)) => out_path = Some(path.clone()),
            ("--trace-out", Some(path)) => trace_out = Some(path.clone()),
            _ => {
                eprintln!(
                    "usage: experiments sweep [--quick] [--threads N] [--full] [--workloads a,b] \
                     [--scenarios DIR|FILE] [--systems a,b] [--seeds 1,2] [--ratio F] \
                     [--cache-dir DIR] [--no-cache] [--out FILE] [--trace-out FILE]"
                );
                return 2;
            }
        }
        i += if took_value { 2 } else { 1 };
    }
    spec.workloads = workload_axis(full, std::mem::take(&mut spec.workloads), scenarios);
    let started = std::time::Instant::now();
    let outcome = match lab::run_sweep(&spec) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return 1;
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    // Wall-clock and cache status go to stderr only: the artifact must
    // stay byte-identical across thread counts and cold/warm runs.
    eprintln!(
        "sweep: {} cell(s) ({} run, {} cached, {} failed) in {:.0} ms across {} thread(s)",
        outcome.cells_run + outcome.cells_cached + outcome.cells_failed,
        outcome.cells_run,
        outcome.cells_cached,
        outcome.cells_failed,
        wall_ms,
        spec.threads
    );
    if let Some(path) = &trace_out {
        let trace = hopp_obs::events_to_chrome_trace(&outcome.events);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("failed to write {path}: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
    }
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &outcome.json) {
                eprintln!("failed to write {path}: {e}");
                return 1;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{}", outcome.json),
    }
    i32::from(outcome.cells_failed > 0)
}
