//! End-to-end checks of the host self-profiler (`hopp-prof`) against a
//! real simulated run: attribution quality when enabled, and behavioural
//! invariance of the simulation itself when toggled.

use hopp::hw::RptCacheConfig;
use hopp::obs::events_to_chrome_trace;
use hopp::prof::{self, SpanId};
use hopp::sim::{run_workload, run_workload_with, SimConfig, SimReport, SystemConfig};
use hopp::types::Result;
use hopp::workloads::WorkloadKind;

fn hopp_run() -> Result<SimReport> {
    run_workload(
        WorkloadKind::Kmeans,
        2_048,
        42,
        SystemConfig::hopp_default(),
        0.5,
    )
}

/// The acceptance bar from the observability PR: with profiling on, at
/// least 90% of the hopp-system run's wall time must land in named
/// component spans below the `sim/run` root — i.e. the root's self time
/// (the part no component claimed) stays under 10%.
#[test]
fn profiler_attributes_most_host_time_to_component_spans() {
    let (result, report) = prof::profile("kmeans", "hopp", "run", false, hopp_run);
    result.expect("hopp run failed");
    let run = report.node("sim/run").expect("no sim/run span");
    assert!(run.count >= 1);
    assert!(run.total_ns > 0, "sim/run measured no time");
    assert!(
        run.self_ns * 10 <= run.total_ns,
        "only {} of {} ns attributed below sim/run ({} ns unattributed self time)",
        run.total_ns - run.self_ns,
        run.total_ns,
        run.self_ns
    );
    // The big component families all showed up.
    for path in [
        "sim/run;sim/step",
        "sim/run;sim/step;sim/drain",
        "sim/run;trace/stream",
    ] {
        assert!(report.node(path).is_some(), "missing span {path}");
    }
    assert!(
        report.nodes.iter().any(|n| n.label == "kernel/reclaim"),
        "no kernel/reclaim span in a 50%-local run"
    );
    assert!(
        report.nodes.iter().any(|n| n.label == "core/train"),
        "no core/train span in a hopp run"
    );
}

/// Toggling the profiler must never change simulated behaviour: the
/// spans only read the host clock, the simulator never reads it back.
#[test]
fn profiling_never_changes_simulated_behaviour() {
    let plain = hopp_run().expect("hopp run failed");
    let (profiled, report) = prof::profile("kmeans", "hopp", "run", true, hopp_run);
    let profiled = profiled.expect("hopp run failed");
    assert!(report.attributed_ns() > 0);
    assert_eq!(plain.completion, profiled.completion);
    assert_eq!(plain.metrics_json(), profiled.metrics_json());
}

/// Every declared span is opened by a real run: a variant no code path
/// enters is a span no report can show. The Kmeans run above plus an
/// event export reach all but the RPT walk, which Kmeans never needs
/// (its hot pages all hit the RPT cache, even a 1 KiB one); GraphX-PR
/// with a 1 KiB RPT cache misses it.
#[test]
fn every_declared_span_is_entered() {
    let small_rpt = SimConfig {
        rpt: RptCacheConfig::with_kib(1),
        ..SimConfig::with_system(SystemConfig::hopp_default())
    };
    let ((), report) = prof::profile("kmeans", "hopp", "run", false, || {
        let r = hopp_run().expect("hopp run failed");
        events_to_chrome_trace(&r.obs.events);
        run_workload_with(small_rpt, WorkloadKind::GraphPr, 2_048, 42, 0.5)
            .expect("GraphX-PR run failed");
    });
    let missing: Vec<&str> = SpanId::ALL
        .iter()
        .map(|id| id.label())
        .filter(|label| report.nodes.iter().all(|n| n.label != *label))
        .collect();
    assert!(
        missing.is_empty(),
        "declared spans never entered: {missing:?}"
    );
}
