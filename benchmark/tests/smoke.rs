//! Smoke test: a `--quick` run prints every metric `BENCHMARK.json`
//! declares, for every workload, and its summary line passes.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "quicksort-hopp",
    "quicksort-fastswap",
    "pagerank-hst-hopp",
    "tenants-rw-hopp",
];

/// The metric names of one list (`end_to_end` or `per_layer`) in the
/// repository's `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let end = start + text[start..].find(']').expect("list closes");
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

fn run(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hopp-benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    let summary = stdout.lines().last().expect("a summary line").to_string();
    assert!(
        summary.starts_with("{\"correct\":true,") && summary.contains("\"failed\":0,"),
        "{summary}"
    );
    (stdout, summary)
}

fn has_metric(summary: &str, key: &str) -> bool {
    summary.contains(&format!("\"{key}\":{{\"value\":"))
}

#[test]
fn a_quick_run_reports_every_declared_metric_for_every_workload() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 7);
    let (stdout, summary) = run(&["--quick", "--seed", "7"]);
    for w in WORKLOADS {
        for name in end_to_end.iter().chain(&per_layer) {
            let printed = stdout.lines().any(|l| {
                let mut f = l.split_whitespace();
                f.next() == Some(w) && f.next() == Some(name.as_str())
            });
            assert!(printed, "{w} {name} not printed");
            assert!(
                has_metric(&summary, &format!("{w}.{name}")),
                "{w}.{name} not in summary"
            );
        }
    }
}

#[test]
fn a_single_workload_summary_holds_exactly_the_chosen_list() {
    let (_, summary) = run(&[
        "--quick",
        "--workload",
        "quicksort-fastswap",
        "--trace",
        "0",
        "--rounds",
        "2",
    ]);
    for name in declared("end_to_end") {
        assert!(has_metric(&summary, &name), "{name} missing");
    }
    assert_eq!(
        summary.matches("\"value\":").count(),
        declared("end_to_end").len()
    );
}

#[test]
fn bad_flags_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_hopp-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
