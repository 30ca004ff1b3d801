//! `cargo xtask` — repo-local task runner.
//!
//! Two tasks today, invoked through the alias in `.cargo/config.toml`:
//!
//! ```text
//! cargo xtask check [--sarif <path>] [--waivers] [--update-baseline]
//! cargo xtask gate [--update]            # BENCH_quality.json regression gate
//! ```
//!
//! `check` runs the `hopp-check` static-analysis pass over the whole
//! workspace (see `docs/static-analysis.md`). When `check-baseline.json`
//! exists at the workspace root, the run is judged against that ratchet
//! (new findings fail; fixed findings fail until `--update-baseline`
//! records the smaller debt) instead of requiring zero findings
//! outright. `--sarif <path>` additionally writes the findings as a
//! SARIF 2.1.0 artifact for code-scanning upload, and `--waivers`
//! prints the per-rule waiver/budget table with stale waivers marked.
//!
//! `gate` re-runs the quality experiment at the scale recorded in the
//! committed `BENCH_quality.json` baseline and fails on per-row
//! regressions (see `docs/observability.md`); `--update` rewrites the
//! baseline from a fresh run. Host throughput is measured by the
//! repository benchmark (`benchmark/`), not here.
//!
//! Exits 0 when clean/passing, 1 on findings or gate breaches, 2 on
//! usage or IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let task = args.next().unwrap_or_else(|| "check".to_string());
    match task.as_str() {
        "check" => run_check(&args.collect::<Vec<_>>()),
        "gate" => run_gate(&args.collect::<Vec<_>>()),
        "--help" | "-h" | "help" => {
            eprintln!(
                "usage: cargo xtask [check [--sarif <path>] [--waivers] [--update-baseline] \
                 | gate [--update]]\n\n  \
                 check   run the hopp-check static-analysis pass (default); when\n          \
                 check-baseline.json exists the run is judged against that ratchet\n          \
                 (--sarif writes a SARIF 2.1.0 artifact, --waivers prints the\n          \
                 waiver/budget table, --update-baseline rewrites the ratchet)\n  \
                 gate    diff a fresh quality run against the committed BENCH_quality.json\n          \
                 (--update rewrites the baseline)"
            );
            ExitCode::from(2)
        }
        other => {
            eprintln!("unknown xtask `{other}` (try `cargo xtask check` or `cargo xtask gate`)");
            ExitCode::from(2)
        }
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut sarif_path: Option<PathBuf> = None;
    let mut waivers = false;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sarif" => match it.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--sarif needs a path");
                    return ExitCode::from(2);
                }
            },
            "--waivers" => waivers = true,
            "--update-baseline" => update_baseline = true,
            bad => {
                eprintln!(
                    "unknown check flag `{bad}` (--sarif <path> | --waivers | --update-baseline)"
                );
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    let report = match hopp_check::run(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("hopp-check failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    if waivers {
        print!("{}", report.render_waivers());
    }
    // The SARIF artifact is written even when the run fails — CI uploads
    // it precisely so the findings annotate the PR.
    if let Some(path) = &sarif_path {
        if let Err(e) = std::fs::write(path, hopp_check::sarif::to_sarif(&report)) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("hopp-check: SARIF written to {}", path.display());
    }

    let baseline_path = root.join("check-baseline.json");
    if update_baseline {
        let base = hopp_check::baseline::Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&baseline_path, base.render()) {
            eprintln!("writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "hopp-check: baseline updated ({} finding(s), {} waiver(s))",
            report.findings.len(),
            report.waiver_budget()
        );
        return ExitCode::SUCCESS;
    }
    match std::fs::read_to_string(&baseline_path) {
        Ok(src) => {
            // Ratchet mode: the committed baseline decides pass/fail.
            let base = match hopp_check::baseline::Baseline::parse(&src) {
                Ok(base) => base,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let breaches = base.diff(&report);
            if breaches.is_empty() {
                eprintln!("hopp-check: baseline ratchet holds");
                ExitCode::SUCCESS
            } else {
                for b in &breaches {
                    eprintln!("hopp-check baseline: {b}");
                }
                ExitCode::from(1)
            }
        }
        Err(_) => {
            // No baseline committed: plain zero-findings gate.
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

fn run_gate(args: &[String]) -> ExitCode {
    let update = args.iter().any(|a| a == "--update");
    if let Some(bad) = args.iter().find(|a| *a != "--update") {
        eprintln!("unknown gate flag `{bad}` (--update)");
        return ExitCode::from(2);
    }
    match hopp_bench::gate::run_gate(&workspace_root(), update) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            if outcome.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("gate failed: {e}");
            ExitCode::from(2)
        }
    }
}
