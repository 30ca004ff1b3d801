//! Determinism regression tests (ISSUE 4, satellite 4).
//!
//! Two guarantees are pinned here:
//!
//! 1. *Replay determinism*: two [`hopp_sim::run_workload_with`] calls
//!    with identical config + seed produce byte-identical serialized
//!    [`hopp_sim::SimReport`]s (`metrics_json`).
//! 2. *Migration safety*: a fixed-seed small-scale report matches a
//!    golden file committed **before** the `hopp-ds` data-structure
//!    migration, proving the `BTreeMap` → `DetMap`/`PageMap`/`Lru`
//!    swap is behaviour-preserving, not just "still deterministic".
//!
//! 3. *Multi-channel pinning*: a fixed-seed Quicksort run with three
//!    interleaved memory channels matches its own golden file, so the
//!    per-channel HPD split (a channel count that does not divide the
//!    64 lines of a page) cannot drift unnoticed.
//!
//! 4. *Baseline pinning*: fixed-seed GraphX-PR runs under Fastswap and
//!    Depth-16 match their golden files. Fastswap's prefetches are hit
//!    through minor faults and Depth-16's through DRAM hits, and some
//!    of Depth-16's are wasted, so the two pin the baseline's half of
//!    the prefetch metrics.
//!
//! 5. *Frame-list pinning*: two HoPP tenants under trace-assisted
//!    reclaim, each held below a quarter of its footprint, and a
//!    Fastswap run at 25% local share one golden file. Together they
//!    move frames between the swapcache list and the process lists
//!    under pressure, rotate hot pages on second chances and fill the
//!    timeliness histogram, so the charge, residency and swapcache
//!    bookkeeping cannot drift unnoticed.
//!
//! To regenerate the goldens after an *intentional* behaviour change,
//! run `HOPP_BLESS=1 cargo test --test determinism` and commit the
//! updated files with an explanation.

use hopp_sim::{run_workload_with, AppSpec, BaselineKind, SimConfig, Simulator, SystemConfig};
use hopp_types::{Nanos, Pid};
use hopp_workloads::WorkloadKind;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/kmeans_hopp_small.json"
);

const GOLDEN_CHANNELS3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/quicksort_hopp_channels3_small.json"
);

const GOLDEN_FASTSWAP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/graphx_pr_fastswap_small.json"
);

const GOLDEN_DEPTH16: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/graphx_pr_depth16_small.json"
);

const GOLDEN_LISTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/frame_lists_small.json"
);

fn small_hopp_report() -> String {
    let config = SimConfig::with_system(SystemConfig::hopp_default());
    run_workload_with(config, WorkloadKind::Kmeans, 2_048, 7, 0.5)
        .expect("small hopp run")
        .metrics_json()
}

#[test]
fn identical_config_and_seed_reports_are_byte_identical() {
    let a = small_hopp_report();
    let b = small_hopp_report();
    assert_eq!(a, b, "same config + seed must replay byte-identically");
}

fn small_baseline_report(kind: BaselineKind) -> String {
    let config = SimConfig::with_system(SystemConfig::Baseline(kind));
    run_workload_with(config, WorkloadKind::GraphPr, 1_024, 11, 0.5)
        .expect("small baseline run")
        .metrics_json()
}

fn three_channel_hopp_report() -> String {
    let config = SimConfig {
        channels: 3,
        ..SimConfig::with_system(SystemConfig::hopp_default())
    };
    run_workload_with(config, WorkloadKind::Quicksort, 2_048, 7, 0.5)
        .expect("small three-channel hopp run")
        .metrics_json()
}

/// Two HoPP tenants with trace-assisted reclaim, each limited to 240
/// of its 1,024 pages, then GraphX-PR under Fastswap at 25% local.
fn frame_list_reports() -> String {
    let config = SimConfig {
        trace_assisted_reclaim: Some(Nanos::from_millis(2)),
        ..SimConfig::with_system(SystemConfig::hopp_default())
    };
    let tenant = |pid: u16, kind: WorkloadKind, seed: u64| AppSpec {
        pid: Pid::new(pid),
        stream: kind.build(Pid::new(pid), 1_024, seed),
        limit_pages: 240,
    };
    let apps = vec![
        tenant(1, WorkloadKind::Kmeans, 42),
        tenant(2, WorkloadKind::NpbIs, 43),
    ];
    let tenants = Simulator::new(config, apps)
        .expect("valid tenants")
        .run()
        .expect("two-tenant run")
        .metrics_json();
    let config = SimConfig::with_system(SystemConfig::Baseline(BaselineKind::Fastswap));
    let fastswap = run_workload_with(config, WorkloadKind::GraphPr, 2_048, 11, 0.25)
        .expect("fastswap run")
        .metrics_json();
    format!("{tenants}\n{fastswap}")
}

/// Compares `got` with the golden file at `path`, or rewrites the file
/// when `HOPP_BLESS` is set.
fn check_golden(path: &str, got: &str) {
    if std::env::var_os("HOPP_BLESS").is_some() {
        std::fs::write(path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file (bless with HOPP_BLESS=1)");
    assert_eq!(
        got, want,
        "fixed-seed report drifted from the golden {path}; \
         if the behaviour change is intentional, re-bless with HOPP_BLESS=1"
    );
}

#[test]
fn small_scale_report_matches_pre_migration_golden() {
    check_golden(GOLDEN, &small_hopp_report());
}

#[test]
fn three_channel_report_matches_golden() {
    check_golden(GOLDEN_CHANNELS3, &three_channel_hopp_report());
}

#[test]
fn fastswap_report_matches_golden() {
    check_golden(
        GOLDEN_FASTSWAP,
        &small_baseline_report(BaselineKind::Fastswap),
    );
}

#[test]
fn depth16_report_matches_golden() {
    check_golden(
        GOLDEN_DEPTH16,
        &small_baseline_report(BaselineKind::DepthN(16)),
    );
}

#[test]
fn frame_list_reports_match_golden() {
    check_golden(GOLDEN_LISTS, &frame_list_reports());
}
