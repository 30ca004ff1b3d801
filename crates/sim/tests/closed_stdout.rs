//! `hoppsim` must not panic when the reader of its stdout goes away
//! early, as in `hoppsim --workload quicksort | head -1`: the text is
//! dropped, and the run and its side outputs go on.

use std::process::{Command, Output, Stdio};

/// Runs `hoppsim` with `args` and its stdout pipe closed before the
/// child writes a byte, so every write to it fails with a broken pipe.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hoppsim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hoppsim starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("hoppsim exits")
}

fn assert_quiet(args: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    assert!(out.status.success(), "{args:?} exited with {}", out.status);
}

#[test]
fn a_closed_stdout_drops_the_report_but_not_the_side_outputs() {
    let metrics = format!("{}/closed_stdout_metrics.json", env!("CARGO_TARGET_TMPDIR"));
    // A stale file from an earlier run must not pass for this run's output.
    let _ = std::fs::remove_file(&metrics);
    let args = [
        "--workload",
        "quicksort",
        "--footprint",
        "256",
        "--metrics-json",
        &metrics,
    ];
    let out = run_with_closed_stdout(&args);
    assert_quiet(&args, &out);
    let json = std::fs::read_to_string(&metrics).expect("metrics JSON written");
    assert!(json.starts_with('{'), "{json}");
}

#[test]
fn a_closed_stdout_ends_the_workload_list_quietly() {
    let out = run_with_closed_stdout(&["--list"]);
    assert_quiet(&["--list"], &out);
}
