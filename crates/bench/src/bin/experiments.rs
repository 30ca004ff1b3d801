//! Regenerates every table and figure of the HoPP paper.
//!
//! ```text
//! cargo run --release -p hopp-bench --bin experiments -- all
//! cargo run --release -p hopp-bench --bin experiments -- fig9 fig22
//! cargo run --release -p hopp-bench --bin experiments -- --quick --threads 4 all
//! cargo run --release -p hopp-bench --bin experiments -- sweep --quick --threads 4
//! ```
//!
//! Experiments run through the hopp-lab pool (`--threads N`, default
//! 1): each experiment renders into its own buffer and the buffers are
//! printed in selection order, so output is byte-identical at any
//! thread count. The `sweep` subcommand runs a (workload × system ×
//! seed) grid with per-cell disk caching — see `docs/testing.md`.

use std::sync::atomic::{AtomicBool, Ordering};

use hopp_bench::experiments as ex;
use hopp_bench::format::{bar_chart, frac, pct, render_json, render_table};
use hopp_bench::{lab, Scale};
use hopp_scn::{Scenario, WorkloadSource};
use hopp_types::Result;

/// `--json`: emit machine-readable rows instead of aligned tables.
static JSON_MODE: AtomicBool = AtomicBool::new(false);
/// `--chart`: append ASCII bar charts to the key comparison figures.
static CHART_MODE: AtomicBool = AtomicBool::new(false);

/// Renders a table or JSON depending on the output mode.
fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    if JSON_MODE.load(Ordering::Relaxed) {
        render_json(header, rows)
    } else {
        render_table(header, rows)
    }
}

const ALL: [&str; 31] = [
    "quality",
    "table2",
    "table3",
    "table5",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "motivate",
    "intensity",
    "channels",
    "hugepage",
    "markov",
    "reclaim",
    "sensitivity",
    "scale",
    "warmup",
    "leapwin",
    "latency",
    "fabric",
    "faults",
];

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    if args.iter().any(|a| a == "--json") {
        JSON_MODE.store(true, Ordering::Relaxed);
        args.retain(|a| a != "--json");
    }
    if args.iter().any(|a| a == "--chart") {
        CHART_MODE.store(true, Ordering::Relaxed);
        args.retain(|a| a != "--chart");
    }
    let full = args.iter().any(|a| a == "--full");
    args.retain(|a| a != "--full");
    let mut overrides: Vec<(String, u64)> = Vec::new();
    let mut threads: usize = 1;
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if (args[i] == "--seed" || args[i] == "--footprint") && i + 1 < args.len() {
            if let Ok(v) = args[i + 1].parse::<u64>() {
                overrides.push((args[i].clone(), v));
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
    let mut scale = if quick {
        Scale::quick()
    } else {
        Scale::default()
    };
    for (flag, v) in &overrides {
        match flag.as_str() {
            "--seed" => scale.seed = *v,
            "--footprint" => {
                scale.footprint = *v;
                scale.spark_footprint = *v;
            }
            _ => unreachable!(),
        }
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return sweep_main(&args[1..], &scale, threads, full, scenarios);
    }
    if args.is_empty() {
        eprintln!("usage: experiments [--quick] [--json] [--threads N] [--full] [--scenarios DIR|FILE] <all|sweep|quality|table2..table5|fig9..fig22|motivate|intensity|channels|hugepage|markov|reclaim|sensitivity|hwcost> ...");
        return 2;
    }
    // The quality workload axis: the tracked 4-workload
    // default, the full 15-workload catalogue behind `--full`, plus any
    // `--scenarios` entries in both cases.
    let axis = bench_axis(full, &scenarios);
    let selected: Vec<String> = if args.iter().any(|a| a == "all") {
        let mut v: Vec<String> = ALL.iter().map(|s| s.to_string()).collect();
        v.push("hwcost".to_string());
        v
    } else {
        args
    };
    // Every experiment renders into its own buffer on the lab pool;
    // buffers print in selection order, so `--threads N` output is
    // byte-identical to `--threads 1`.
    let outputs = lab::run_indexed(threads, selected.len(), |i| {
        run(&selected[i], &scale, &axis)
    });
    let mut failed = 0;
    for (name, output) in selected.iter().zip(outputs) {
        match output {
            Ok(text) => print!("{text}"),
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

/// The quality workload axis for one invocation.
fn bench_axis(full: bool, scenarios: &[Scenario]) -> Vec<WorkloadSource> {
    if full {
        ex::full_bench_workloads(scenarios)
    } else {
        let mut axis = ex::default_bench_workloads();
        axis.extend(scenarios.iter().cloned().map(WorkloadSource::Scenario));
        axis
    }
}

/// Runs the `sweep` subcommand: a (workload × system × seed) grid on
/// the lab pool with per-cell disk caching.
fn sweep_main(
    args: &[String],
    scale: &Scale,
    threads: usize,
    full: bool,
    scenarios: Vec<Scenario>,
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
                let mut workloads = Vec::new();
                for name in list.split(',') {
                    match lab::workload_by_name(name) {
                        Some(kind) => workloads.push(WorkloadSource::Catalogue(kind)),
                        None => {
                            eprintln!("unknown workload: {name}");
                            return 2;
                        }
                    }
                }
                spec.workloads = workloads;
            }
            ("--systems", Some(list)) => {
                let mut systems = Vec::new();
                for name in list.split(',') {
                    match lab::system_by_name(name) {
                        Some(system) => systems.push((name.to_string(), system)),
                        None => {
                            eprintln!("unknown system: {name}");
                            return 2;
                        }
                    }
                }
                spec.systems = systems;
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
    if full {
        spec.workloads = hopp_workloads::WorkloadKind::ALL
            .into_iter()
            .map(WorkloadSource::Catalogue)
            .collect();
    }
    spec.workloads
        .extend(scenarios.into_iter().map(WorkloadSource::Scenario));
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

fn run(name: &str, scale: &Scale, axis: &[WorkloadSource]) -> Result<String> {
    match name {
        "table2" => table2(scale),
        "table3" => table3(scale),
        "table5" => table5(scale),
        "fig9" | "fig10" | "fig11" => fig9_to_11(scale, name),
        "fig12" | "fig13" | "fig14" => fig12_to_14(scale, name),
        "fig15" => fig15(scale),
        "fig16" | "fig17" => fig16_17(scale, name),
        "fig18" | "fig19" | "fig20" => fig18_20(scale, name),
        "fig21" => fig21(scale),
        "fig22" => fig22(scale),
        "motivate" => motivate(scale),
        "intensity" => intensity(scale),
        "channels" => channels(scale),
        "hugepage" => hugepage(scale),
        "markov" => markov(scale),
        "reclaim" => reclaim(scale),
        "sensitivity" => sensitivity(scale),
        "scale" => scale_robustness(),
        "warmup" => warmup(scale),
        "leapwin" => leapwin(scale),
        "latency" => latency(scale),
        "fabric" => fabric(scale),
        "faults" => faults(scale),
        "quality" => quality(scale, axis),
        "hwcost" => Ok(hwcost()),
        other => {
            eprintln!("unknown experiment: {other}");
            Ok(String::new())
        }
    }
}

fn table2(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Table II — hot pages identified / memory accesses (%), by HPD threshold N\n\n",
    );
    let data = ex::table2(scale)?;
    let ns: Vec<String> = data[0].1.iter().map(|(n, _)| format!("N={n}")).collect();
    let mut header: Vec<&str> = vec!["workload"];
    header.extend(ns.iter().map(|s| s.as_str()));
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|(kind, series)| {
            let mut row = vec![kind.name().to_string()];
            row.extend(series.iter().map(|(_, v)| format!("{v:.2}%")));
            row
        })
        .collect();
    out.push_str(&render(&header, &rows));
    Ok(out)
}

fn table3(scale: &Scale) -> Result<String> {
    let mut out = String::from("\n## Table III — RPT cache hit rate by capacity\n\n");
    let data = ex::table3(scale)?;
    let sizes: Vec<String> = data[0].1.iter().map(|(k, _)| format!("{k}KB")).collect();
    let mut header: Vec<&str> = vec!["workload"];
    header.extend(sizes.iter().map(|s| s.as_str()));
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|(kind, series)| {
            let mut row = vec![kind.name().to_string()];
            row.extend(series.iter().map(|(_, v)| frac(*v)));
            row
        })
        .collect();
    out.push_str(&render(&header, &rows));
    Ok(out)
}

fn table5(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Table V — DRAM bandwidth overhead of HPD writes and RPT queries (%)\n\n",
    );
    let rows: Vec<Vec<String>> = ex::table5(scale)?
        .into_iter()
        .map(|(kind, hpd, rpt)| {
            vec![
                kind.name().to_string(),
                format!("{hpd:.4}%"),
                format!("{rpt:.5}%"),
            ]
        })
        .collect();
    out.push_str(&render(&["workload", "HPD", "RPT"], &rows));
    Ok(out)
}

fn fig9_to_11(scale: &Scale, which: &str) -> Result<String> {
    let (half, quarter) = ex::fig9_matrix(scale)?;
    let mut out = String::new();
    match which {
        "fig9" => {
            out.push_str("\n## Fig 9 — normalized performance, non-JVM workloads\n\n");
            let header = ["workload", "FS@50%", "HoPP@50%", "FS@25%", "HoPP@25%"];
            let rows: Vec<Vec<String>> = half
                .iter()
                .zip(&quarter)
                .map(|(h, q)| {
                    vec![
                        h.workload.name().to_string(),
                        frac(h.normalized(&h.fastswap)),
                        frac(h.normalized(&h.hopp)),
                        frac(q.normalized(&q.fastswap)),
                        frac(q.normalized(&q.hopp)),
                    ]
                })
                .collect();
            out.push_str(&render(&header, &rows));
            let avg = |f: &dyn Fn(&ex::PerfRecord) -> f64, v: &[ex::PerfRecord]| {
                v.iter().map(f).sum::<f64>() / v.len() as f64
            };
            out.push_str(&format!(
                "avg@50%: fastswap {} hopp {} | avg@25%: fastswap {} hopp {}\n",
                frac(avg(&|r| r.normalized(&r.fastswap), &half)),
                frac(avg(&|r| r.normalized(&r.hopp), &half)),
                frac(avg(&|r| r.normalized(&r.fastswap), &quarter)),
                frac(avg(&|r| r.normalized(&r.hopp), &quarter)),
            ));
            if CHART_MODE.load(Ordering::Relaxed) {
                let mut items = Vec::new();
                for r in &half {
                    items.push((
                        format!("{} (FS)", r.workload.name()),
                        r.normalized(&r.fastswap),
                    ));
                    items.push((
                        format!("{} (HoPP)", r.workload.name()),
                        r.normalized(&r.hopp),
                    ));
                }
                out.push_str(&format!(
                    "\nnormalized performance @50% local:\n{}\n",
                    bar_chart(&items, 40)
                ));
            }
        }
        "fig10" => {
            out.push_str("\n## Fig 10 — prefetch accuracy, non-JVM workloads (50% local)\n\n");
            let rows: Vec<Vec<String>> = half
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.fastswap.accuracy()),
                        pct(r.hopp.accuracy()),
                    ]
                })
                .collect();
            out.push_str(&render(&["workload", "Fastswap", "HoPP"], &rows));
        }
        _ => {
            out.push_str("\n## Fig 11 — prefetch coverage, non-JVM workloads (50% local)\n\n");
            let header = [
                "workload",
                "Fastswap",
                "HoPP total",
                "HoPP swapcache",
                "HoPP DRAM-hit",
            ];
            let rows: Vec<Vec<String>> = half
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.fastswap.coverage()),
                        pct(r.hopp.coverage()),
                        pct(r.hopp.coverage_swapcache()),
                        pct(r.hopp.coverage_injected()),
                    ]
                })
                .collect();
            out.push_str(&render(&header, &rows));
        }
    }
    Ok(out)
}

fn fig12_to_14(scale: &Scale, which: &str) -> Result<String> {
    let recs = ex::fig12_matrix(scale)?;
    let mut out = String::new();
    match which {
        "fig12" => {
            out.push_str("\n## Fig 12 — normalized performance, Spark workloads (1/3 local)\n\n");
            let rows: Vec<Vec<String>> = recs
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        frac(r.normalized(&r.fastswap)),
                        frac(r.normalized(&r.hopp)),
                    ]
                })
                .collect();
            out.push_str(&render(&["workload", "Fastswap", "HoPP"], &rows));
        }
        "fig13" => {
            out.push_str("\n## Fig 13 — prefetch accuracy, Spark workloads\n\n");
            let rows: Vec<Vec<String>> = recs
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.fastswap.accuracy()),
                        pct(r.hopp.accuracy()),
                    ]
                })
                .collect();
            out.push_str(&render(&["workload", "Fastswap", "HoPP"], &rows));
        }
        _ => {
            out.push_str("\n## Fig 14 — prefetch coverage, Spark workloads\n\n");
            let rows: Vec<Vec<String>> = recs
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.fastswap.coverage()),
                        pct(r.hopp.coverage()),
                    ]
                })
                .collect();
            out.push_str(&render(&["workload", "Fastswap", "HoPP"], &rows));
        }
    }
    Ok(out)
}

fn fig15(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Fig 15 — per-app speedup (CT_fastswap/CT_hopp) when co-running\n\n");
    let mut rows = Vec::new();
    for (pair, speedups) in ex::fig15(scale)? {
        for (kind, s) in speedups {
            rows.push(vec![
                pair.clone(),
                kind.name().to_string(),
                format!("{s:.2}x"),
            ]);
        }
    }
    out.push_str(&render(&["pair", "app", "speedup"], &rows));
    Ok(out)
}

fn fig16_17(scale: &Scale, which: &str) -> Result<String> {
    let data = ex::fig16_17(scale)?;
    let mut out = String::new();
    if which == "fig16" {
        out.push_str(
            "\n## Fig 16 — normalized performance: Depth-N vs Fastswap vs HoPP (50% local)\n\n",
        );
        let header = ["workload", "Depth-16", "Depth-32", "Fastswap", "HoPP"];
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|row| {
                let mut cells = vec![row.workload.name().to_string()];
                cells.extend(row.systems.iter().map(|(_, np, _)| frac(*np)));
                cells
            })
            .collect();
        out.push_str(&render(&header, &rows));
    } else {
        out.push_str(
            "\n## Fig 17 — remote accesses normalized to Fastswap-without-prefetching\n\n",
        );
        let header = ["workload", "Depth-16", "Depth-32", "Fastswap", "HoPP"];
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|row| {
                let mut cells = vec![row.workload.name().to_string()];
                cells.extend(row.systems.iter().map(|(_, _, rr)| frac(*rr)));
                cells
            })
            .collect();
        out.push_str(&render(&header, &rows));
    }
    Ok(out)
}

fn fig18_20(scale: &Scale, which: &str) -> Result<String> {
    let data = ex::fig18_20(scale)?;
    let mut out = String::new();
    match which {
        "fig18" => {
            out.push_str("\n## Fig 18 — speedup over Fastswap as tiers are added\n\n");
            let header = ["workload", "SSP", "SSP+LSP", "SSP+LSP+RSP"];
            let rows: Vec<Vec<String>> = data
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.speedup[0]),
                        pct(r.speedup[1]),
                        pct(r.speedup[2]),
                    ]
                })
                .collect();
            out.push_str(&render(&header, &rows));
        }
        "fig19" => {
            out.push_str("\n## Fig 19 — per-tier prefetch accuracy (full system)\n\n");
            let header = ["workload", "SSP", "LSP", "RSP"];
            let rows: Vec<Vec<String>> = data
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.tier_accuracy[0]),
                        pct(r.tier_accuracy[1]),
                        pct(r.tier_accuracy[2]),
                    ]
                })
                .collect();
            out.push_str(&render(&header, &rows));
        }
        _ => {
            out.push_str("\n## Fig 20 — coverage contributed by each tier (full system)\n\n");
            let header = ["workload", "SSP", "LSP", "RSP"];
            let rows: Vec<Vec<String>> = data
                .iter()
                .map(|r| {
                    vec![
                        r.workload.name().to_string(),
                        pct(r.tier_coverage[0]),
                        pct(r.tier_coverage[1]),
                        pct(r.tier_coverage[2]),
                    ]
                })
                .collect();
            out.push_str(&render(&header, &rows));
        }
    }
    Ok(out)
}

fn fig21(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Fig 21 — normalized performance vs (accuracy, coverage), 50% local\n\n");
    let rows: Vec<Vec<String>> = ex::fig21(scale)?
        .into_iter()
        .map(|p| {
            vec![
                p.workload.name().to_string(),
                p.system.to_string(),
                frac(p.accuracy),
                frac(p.coverage),
                frac(p.normalized),
            ]
        })
        .collect();
    out.push_str(&render(
        &["workload", "system", "accuracy", "coverage", "norm-perf"],
        &rows,
    ));
    Ok(out)
}

fn fig22(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Fig 22 — technique ablation on the §VI-E microbenchmark (speedup vs Fastswap)\n\n",
    );
    let ablation = ex::fig22(scale)?;
    let rows: Vec<Vec<String>> = ablation
        .iter()
        .map(|(name, s)| vec![name.to_string(), pct(*s)])
        .collect();
    out.push_str(&render(&["system", "speedup"], &rows));
    if CHART_MODE.load(Ordering::Relaxed) {
        let items: Vec<(String, f64)> = ablation.iter().map(|(n, s)| (n.to_string(), *s)).collect();
        out.push_str(&format!("\n{}\n", bar_chart(&items, 30)));
    }
    out.push_str("\nwith periodic 8x latency bursts (§III-E's volatility):\n\n");
    let rows: Vec<Vec<String>> = ex::fig22_volatile(scale)?
        .into_iter()
        .map(|(name, s)| vec![name.to_string(), pct(s)])
        .collect();
    out.push_str(&render(
        &["system", "speedup vs Fastswap (volatile)"],
        &rows,
    ));
    Ok(out)
}

fn motivate(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## §II-B study — Leap vs full-trace majority prefetching (SSP-only HoPP)\n\n",
    );
    let rows: Vec<Vec<String>> = ex::motivate(scale)?
        .into_iter()
        .map(|(kind, leap, full)| {
            vec![
                kind.name().to_string(),
                pct(leap[0]),
                pct(leap[1]),
                pct(full[0]),
                pct(full[1]),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "workload",
            "Leap acc",
            "Leap cov",
            "full-trace acc",
            "full-trace cov",
        ],
        &rows,
    ));
    Ok(out)
}

fn intensity(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Extension — prefetch-intensity sweep (§III-E knob; 50% local)\n\n");
    let mut rows = Vec::new();
    for (kind, series) in ex::intensity_sweep(scale)? {
        for (intensity, np, cov_sc, cov_inj) in series {
            rows.push(vec![
                kind.name().to_string(),
                intensity.to_string(),
                frac(np),
                pct(cov_sc),
                pct(cov_inj),
            ]);
        }
    }
    out.push_str(&render(
        &[
            "workload",
            "intensity",
            "norm-perf",
            "cov swapcache",
            "cov DRAM-hit",
        ],
        &rows,
    ));
    Ok(out)
}

fn channels(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Extension — interleaved memory channels (§III-B; per-channel N = 8/channels)\n\n",
    );
    let mut rows = Vec::new();
    for (kind, series) in ex::channels_sweep(scale)? {
        for (ch, ratio, cov, np) in series {
            rows.push(vec![
                kind.name().to_string(),
                ch.to_string(),
                format!("{ratio:.2}%"),
                pct(cov),
                frac(np),
            ]);
        }
    }
    out.push_str(&render(
        &["workload", "channels", "hot ratio", "coverage", "norm-perf"],
        &rows,
    ));
    Ok(out)
}

fn hugepage(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Extension — huge-page batched prefetch (§IV; 512 pages per request)\n\n",
    );
    let rows: Vec<Vec<String>> = ex::hugepage_study(scale)?
        .into_iter()
        .map(|(kind, batching, np, reads, pages)| {
            vec![
                kind.name().to_string(),
                if batching {
                    "2MB batches"
                } else {
                    "page-by-page"
                }
                .to_string(),
                frac(np),
                reads.to_string(),
                pages.to_string(),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "workload",
            "mode",
            "norm-perf",
            "rdma requests",
            "pages moved",
        ],
        &rows,
    ));
    Ok(out)
}

fn markov(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Extension — Markov trainer vs adaptive three-tier (§III-D design space)\n\n",
    );
    let mut rows = Vec::new();
    for (kind, series) in ex::markov_study(scale)? {
        for (name, acc, cov, np) in series {
            rows.push(vec![
                kind.name().to_string(),
                name.to_string(),
                pct(acc),
                pct(cov),
                frac(np),
            ]);
        }
    }
    out.push_str(&render(
        &["workload", "trainer", "accuracy", "coverage", "norm-perf"],
        &rows,
    ));
    Ok(out)
}

fn reclaim(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## Extension — trace-assisted reclaim (§IV; hot pages get a second chance)\n\n",
    );
    let mut rows = Vec::new();
    for (kind, series) in ex::reclaim_study(scale)? {
        for (window, majors, np) in series {
            rows.push(vec![
                kind.name().to_string(),
                window.to_string(),
                majors.to_string(),
                frac(np),
            ]);
        }
    }
    out.push_str(&render(
        &["workload", "hot window", "major faults", "norm-perf"],
        &rows,
    ));
    Ok(out)
}

fn sensitivity(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Extension — STT sensitivity: history L x clustering distance\n\n");
    let mut rows = Vec::new();
    for (kind, series) in ex::stt_sensitivity(scale)? {
        for (l, delta, cov, acc) in series {
            rows.push(vec![
                kind.name().to_string(),
                l.to_string(),
                delta.to_string(),
                pct(cov),
                pct(acc),
            ]);
        }
    }
    out.push_str(&render(
        &["workload", "L", "delta", "coverage", "accuracy"],
        &rows,
    ));
    Ok(out)
}

fn scale_robustness() -> Result<String> {
    let mut out = String::from("\n## Extension — scale robustness of the headline comparison\n\n");
    let rows: Vec<Vec<String>> = ex::scale_robustness()?
        .into_iter()
        .map(|(fp, seed, kind, fs, hp)| {
            vec![
                fp.to_string(),
                seed.to_string(),
                kind.name().to_string(),
                frac(fs),
                frac(hp),
                frac(hp / fs),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "footprint",
            "seed",
            "workload",
            "fastswap",
            "hopp",
            "hopp/fastswap",
        ],
        &rows,
    ));
    Ok(out)
}

fn warmup(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Extension — warmup: major faults per run window (§VI-E dynamics)\n\n");
    let data = ex::warmup(scale)?;
    let windows = data[0].1.len();
    let labels: Vec<String> = (1..=windows).map(|w| format!("w{w}")).collect();
    let mut header: Vec<&str> = vec!["system"];
    header.extend(labels.iter().map(|s| s.as_str()));
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|(name, w)| {
            let mut row = vec![name.to_string()];
            row.extend(w.iter().map(|v| v.to_string()));
            row
        })
        .collect();
    out.push_str(&render(&header, &rows));
    Ok(out)
}

fn leapwin(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Extension — Leap's adaptive prefetch window vs fixed depth\n\n");
    let rows: Vec<Vec<String>> = ex::leap_window(scale)?
        .into_iter()
        .map(|(kind, cf, ca, nf, na)| {
            vec![
                kind.name().to_string(),
                pct(cf),
                pct(ca),
                frac(nf),
                frac(na),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "workload",
            "fixed cov",
            "adaptive cov",
            "fixed perf",
            "adaptive perf",
        ],
        &rows,
    ));
    Ok(out)
}

fn latency(scale: &Scale) -> Result<String> {
    let mut out =
        String::from("\n## Observability — latency distributions (kmeans, 50% local)\n\n");
    for (system, summaries) in ex::latency_study(scale)? {
        out.push_str(&format!("### {system}\n\n"));
        out.push_str(&hopp_bench::format::latency_table(&summaries));
        out.push('\n');
    }
    Ok(out)
}

fn fabric(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## hopp-fabric — node-count sweep (kmeans, HoPP intensity 4, 25% local)\n\n",
    );
    let rows: Vec<Vec<String>> = ex::fabric_sweep(scale)?
        .into_iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.placement.to_string(),
                frac(r.normalized),
                format!("{}", r.major_p99),
                format!("{}", r.queueing),
                r.reads.to_string(),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "nodes",
            "placement",
            "norm perf",
            "major p99",
            "queueing",
            "reads",
        ],
        &rows,
    ));
    Ok(out)
}

fn faults(scale: &Scale) -> Result<String> {
    let mut out = String::from(
        "\n## hopp-fabric — fault injection (kmeans, 4 nodes, replication 2, 50% local)\n\n",
    );
    let rows: Vec<Vec<String>> = ex::fault_study(scale)?
        .into_iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.system.to_string(),
                frac(r.normalized),
                format!("{}", r.major_p99),
                r.failovers.to_string(),
                r.retries.to_string(),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "scenario",
            "system",
            "norm perf",
            "major p99",
            "failovers",
            "retries",
        ],
        &rows,
    ));
    Ok(out)
}

fn quality(scale: &Scale, axis: &[WorkloadSource]) -> Result<String> {
    let mut out = String::from(
        "\n## Quality — prefetch coverage/accuracy/pollution scoreboard (50% local)\n\n",
    );
    let rows = ex::quality_over(scale, axis)?;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.system.to_string(),
                format!("{:.2}", r.coverage_pct),
                format!("{:.2}", r.accuracy_pct),
                format!("{:.2}", r.pollution_pct),
                format!("{}", hopp_types::Nanos::from_nanos(r.mean_timeliness_ns)),
            ]
        })
        .collect();
    out.push_str(&render(
        &[
            "workload",
            "system",
            "coverage%",
            "accuracy%",
            "pollution%",
            "timeliness",
        ],
        &cells,
    ));
    // Tracked at the repo root and diffed by `cargo xtask gate`; fully
    // deterministic, so any change is a real change.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quality.json");
    let json = ex::quality_json(scale, &rows);
    match std::fs::write(path, &json) {
        Ok(()) => out.push_str(&format!("\nwrote {path}\n")),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
    Ok(out)
}

fn hwcost() -> String {
    let mut out = String::from("\n## §VI-F — hardware cost (CACTI 3.0, 22nm)\n\n");
    let rows: Vec<Vec<String>> = ex::hwcost()
        .into_iter()
        .map(|(name, area, power)| vec![name, format!("{area:.6} mm^2"), format!("{power:.4} mW")])
        .collect();
    out.push_str(&render(&["module", "area", "static power"], &rows));
    out
}
