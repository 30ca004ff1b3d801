//! Fixture tests: each checker rule fires on a seeded violation with an
//! exact `file:line`, and waivers behave as documented — one finding per
//! waiver, reasons mandatory, stale waivers flagged.
//!
//! Each fixture under `tests/fixtures/` is a miniature fake workspace
//! (`crates/*/src`, `crates/sim/src/bin`, `docs/`) handed to
//! [`hopp_check::run`] as its root. The `.rs` files inside are never
//! compiled and never scanned by the real workspace check (which skips
//! `tests/` trees), so they can carry deliberate violations.

use std::path::PathBuf;

use hopp_check::{CheckReport, Finding, Rule};

fn check(fixture: &str) -> CheckReport {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    hopp_check::run(&root).expect("fixture workspace is readable")
}

fn brief(f: &Finding) -> (Rule, &str, usize) {
    (f.rule, f.file.as_str(), f.line)
}

#[test]
fn seeded_violations_fire_once_each_with_file_and_line() {
    let report = check("seeded");
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            (Rule::Determinism, "crates/hw/src/lib.rs", 3),
            (Rule::PanicPolicy, "crates/kernel/src/lib.rs", 5),
            (Rule::UnitHygiene, "crates/mem/src/lib.rs", 7),
            (Rule::ConfigDrift, "crates/sim/src/config.rs", 8),
        ],
        "one finding per rule, at the seeded file:line\n{}",
        report.render()
    );
    assert_eq!(report.files_checked, 5);
    assert_eq!(report.waiver_budget(), 0);

    // Findings render as `file:line: [rule] message` so editors can jump.
    let shown = report.findings[0].to_string();
    assert!(
        shown.starts_with("crates/hw/src/lib.rs:3: [determinism] "),
        "unexpected rendering: {shown}"
    );
    assert!(shown.contains("HashMap"), "names the offender: {shown}");

    // The `#[cfg(test)]` HashMap in the same file stays exempt: line 3
    // is the only determinism finding.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Determinism)
            .count(),
        1
    );
}

#[test]
fn seeded_config_drift_points_at_the_undocumented_field() {
    let report = check("seeded");
    let drift: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::ConfigDrift)
        .collect();
    assert_eq!(drift.len(), 1);
    assert!(
        drift[0].message.contains("ghost"),
        "names the field: {}",
        drift[0].message
    );
}

#[test]
fn reasoned_waivers_suppress_exactly_their_findings() {
    let report = check("waived");
    assert!(
        report.is_clean(),
        "every seeded violation is waived\n{}",
        report.render()
    );
    // Trailing waivers (hw x2, mem x1) and a standalone waiver (kernel)
    // each spent exactly one budget entry under their rule.
    assert_eq!(report.waived.get("determinism"), Some(&2));
    assert_eq!(report.waived.get("panic-policy"), Some(&1));
    assert_eq!(report.waived.get("unit-hygiene"), Some(&1));
    assert_eq!(report.waiver_budget(), 4);
    assert_eq!(report.files_checked, 5);
}

#[test]
fn one_waiver_covers_one_line_not_a_region() {
    let report = check("double");
    // Two consecutive unwraps, one waiver: the first is suppressed, the
    // second still fires.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::PanicPolicy, "crates/kernel/src/lib.rs", 7)],
        "{}",
        report.render()
    );
    assert_eq!(report.waived.get("panic-policy"), Some(&1));
}

#[test]
fn stale_and_reasonless_waivers_are_findings() {
    let report = check("stale");
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            // The waiver with nothing to waive, reported at its own line.
            (Rule::Determinism, "crates/core/src/lib.rs", 3),
            // The reason-less waiver, also at its own line ...
            (Rule::PanicPolicy, "crates/core/src/lib.rs", 10),
            // ... which therefore does NOT suppress the unwrap below it.
            (Rule::PanicPolicy, "crates/core/src/lib.rs", 11),
        ],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("unused waiver"),
        "{}",
        report.findings[0].message
    );
    assert!(
        report.findings[0].message.contains("line 4"),
        "says which line it targeted: {}",
        report.findings[0].message
    );
    assert!(
        report.findings[1].message.contains("no reason"),
        "{}",
        report.findings[1].message
    );
    assert_eq!(report.waiver_budget(), 0, "nothing legitimate was waived");
}

#[test]
fn deterministic_collections_pass_where_hashmap_fires() {
    let report = check("dsaware");
    // The `mem` crate is sim-critical, yet its use of `BTreeMap`, a
    // `Vec` and a page map produces nothing; the `HashMap` twin fires
    // at each use site with a steer that names the deterministic
    // replacement.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            (Rule::Determinism, "crates/kernel/src/lib.rs", 3),
            (Rule::Determinism, "crates/kernel/src/lib.rs", 7),
        ],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("`BTreeMap`"),
        "steer recommends the deterministic map: {}",
        report.findings[0].message
    );
    assert_eq!(report.files_checked, 4);
}

#[test]
fn thread_policy_spares_only_the_lab_pool() {
    let report = check("labthread");
    // `crates/bench/src/lab.rs` uses both `thread::scope` and
    // `thread::spawn` and is spared (the sanctioned pool); the same
    // `thread::spawn` in the obs harness crate — exempt from the full
    // sim-critical determinism rule — still fires the workspace-wide
    // thread policy.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::Determinism, "crates/obs/src/lib.rs", 4)],
        "ad-hoc spawn flagged, lab pool spared\n{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("lab::run_indexed"),
        "steer names the sanctioned pool: {}",
        report.findings[0].message
    );
    assert_eq!(report.files_checked, 4);
    assert_eq!(report.waiver_budget(), 0);
}

#[test]
fn scenario_engine_is_sim_critical() {
    let report = check("scncritical");
    // `crates/scenario` parses user-written TOML and binary traces in
    // the simulated clock domain, so it sits on the sim-critical list:
    // its `.unwrap()` fires the panic policy, while the byte-identical
    // twin in the `obs` harness crate stays exempt.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::PanicPolicy, "crates/scenario/src/lib.rs", 5)],
        "scenario unwrap fires once, harness twin spared\n{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("typed error"),
        "steers toward typed errors: {}",
        report.findings[0].message
    );
    assert_eq!(report.files_checked, 4);
    assert_eq!(report.waiver_budget(), 0);
}

#[test]
fn prof_spans_pass_where_raw_host_clock_reads_fire() {
    let report = check("profclock");
    // The `hopp_prof::span("kernel/reclaim")` guard on line 5 is the
    // sanctioned host-timing probe and produces nothing; the raw
    // `Instant::now()` / `host_now_ns()` reads right below it each fire.
    // The CLI fixture ships a `usage()` that forgot `--prof-folded`, so
    // the usage-drift sub-check points at that arm.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            (Rule::Determinism, "crates/kernel/src/lib.rs", 6),
            (Rule::Determinism, "crates/kernel/src/lib.rs", 7),
            (Rule::ConfigDrift, "crates/sim/src/bin/hoppsim.rs", 19),
        ],
        "span guard spared, raw reads and the undocumented flag flagged\n{}",
        report.render()
    );
    assert!(
        report.findings[1].message.contains("hopp_prof::span"),
        "steer names the sanctioned probe: {}",
        report.findings[1].message
    );
    assert!(
        report.findings[2].message.contains("--prof-folded")
            && report.findings[2].message.contains("usage()"),
        "names the flag and the missing surface: {}",
        report.findings[2].message
    );
    assert_eq!(report.files_checked, 3);
    assert_eq!(report.waiver_budget(), 0);
}

#[test]
fn taint_flow_catches_laundering_the_identifier_ban_cannot_see() {
    let report = check("taintflow");
    // Lines 6 and 11 read `Instant::now()` directly — the v1 identifier
    // ban sees those. Lines 7, 13 and 14 are where the *value* escapes:
    // a tainted function return, a one-hop field sink, and a call-sink
    // through that tainted function.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![
            (Rule::Determinism, "crates/hw/src/lib.rs", 6),
            (Rule::DeterminismTaint, "crates/hw/src/lib.rs", 7),
            (Rule::Determinism, "crates/hw/src/lib.rs", 11),
            (Rule::DeterminismTaint, "crates/hw/src/lib.rs", 13),
            (Rule::DeterminismTaint, "crates/hw/src/lib.rs", 14),
        ],
        "{}",
        report.render()
    );
    // The sink lines carry NO banned identifier — a per-line lexer has
    // nothing to match there. Only the dataflow walk reaches them.
    let src = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/taintflow/crates/hw/src/lib.rs"),
    )
    .expect("fixture readable");
    for sink in [13, 14] {
        let line = src.lines().nth(sink - 1).expect("sink line exists");
        for banned in ["Instant", "SystemTime", "host_now_ns", "rand", "env::var"] {
            assert!(
                !line.contains(banned),
                "line {sink} must be invisible to the identifier ban: {line}"
            );
        }
    }
    // Messages trace the flow back to its origin line.
    assert!(
        report.findings[3].message.contains("`Instant` (line 11)"),
        "sink names its origin: {}",
        report.findings[3].message
    );
    assert!(
        report.findings[1].message.contains("host_probe"),
        "return finding names the function: {}",
        report.findings[1].message
    );
    assert_eq!(report.files_checked, 3);
}

#[test]
fn ordering_sensitivity_fires_on_hash_iteration_with_escaping_writes() {
    let report = check("orderflow");
    // One finding, at the first loop's `for` header: it iterates a
    // `HashMap` and appends to a string that outlives the loop. The
    // `BTreeMap` twin and the loop-local-only `HashMap` loop are spared.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::OrderingSensitivity, "crates/obs/src/lib.rs", 6)],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("`BTreeMap`/`BTreeSet`")
            && report.findings[0].message.contains("`index`"),
        "steer names the binding and the fix: {}",
        report.findings[0].message
    );
    // obs is a harness crate: no blanket-HashMap determinism finding.
    assert!(report.findings.iter().all(|f| f.rule != Rule::Determinism));
    assert_eq!(report.files_checked, 3);
}

#[test]
fn unsafe_audit_requires_an_adjacent_safety_comment() {
    let report = check("unsafeaudit");
    // The justified block on line 5 passes; the bare one on line 9 fires.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::UnsafeAudit, "crates/prof/src/lib.rs", 9)],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("SAFETY:"),
        "{}",
        report.findings[0].message
    );
    assert_eq!(report.files_checked, 3);
}

#[test]
fn unclassified_crates_are_config_drift() {
    let report = check("driftcrate");
    // `crates/mystery` exists on disk but neither SIM_CRITICAL_CRATES
    // nor HARNESS_CRATES names it, so it would silently skip the
    // sim-critical analyses; the classification check refuses that.
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    assert_eq!(
        got,
        vec![(Rule::ConfigDrift, "crates/mystery", 1)],
        "{}",
        report.render()
    );
    assert!(
        report.findings[0].message.contains("SIM_CRITICAL_CRATES")
            && report.findings[0].message.contains("HARNESS_CRATES"),
        "names both lists: {}",
        report.findings[0].message
    );
    assert_eq!(report.files_checked, 3);
}

#[test]
fn the_real_workspace_crate_list_is_fully_classified() {
    // The classification lists in rules.rs are asserted against the
    // actual `crates/` members at check time; this pins the inverse —
    // every list entry corresponds to a real directory — against the
    // real workspace this test runs in.
    let ws = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("crates/check sits two levels below the workspace root");
    for name in hopp_check::SIM_CRITICAL_CRATES
        .iter()
        .chain(hopp_check::HARNESS_CRATES.iter())
    {
        assert!(
            ws.join("crates").join(name).is_dir(),
            "`{name}` is classified but crates/{name} does not exist"
        );
    }
}

#[test]
fn missing_config_surfaces_are_reported_not_fatal() {
    // A root with no crates/ directory at all is an IO error ...
    let bogus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/does-not-exist");
    assert!(hopp_check::run(&bogus).is_err());
}
