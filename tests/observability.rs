//! End-to-end observability guarantees: determinism of the exported
//! traces, structural validity of the Chrome trace, and the promise
//! that turning observability off (or on) never changes the simulation.

use hopp::obs::{events_to_chrome_trace, ObsLevel};
use hopp::sim::{run_workload_with, SimConfig, SimReport, SystemConfig};
use hopp::workloads::WorkloadKind;
use json::Value;

fn run_at(level: ObsLevel) -> SimReport {
    let config = SimConfig {
        obs_level: level,
        ..SimConfig::with_system(SystemConfig::hopp_default())
    };
    run_workload_with(config, WorkloadKind::Kmeans, 1_024, 42, 0.5).expect("obs run")
}

#[test]
fn same_seed_full_runs_export_byte_identical_chrome_traces() {
    let a = run_at(ObsLevel::Full);
    let b = run_at(ObsLevel::Full);
    assert!(!a.obs.events.is_empty(), "a full run records events");
    assert_eq!(
        a.obs.events, b.obs.events,
        "same seed + config must trace identically"
    );
    let ta = events_to_chrome_trace(&a.obs.events);
    assert_eq!(ta, events_to_chrome_trace(&b.obs.events));
    // Every event entry carries its name, track and timestamps.
    let value = json::parse(&ta).expect("trace parses as JSON");
    let entries = value
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents is an array");
    let events: Vec<&Value> = entries
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
        .collect();
    assert_eq!(events.len(), a.obs.events.len());
    for e in events {
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("tid").and_then(Value::as_u64).is_some());
        assert!(e.get("ts").and_then(Value::as_f64).is_some());
        let args = e.get("args").expect("args object");
        assert!(args.get("ts_ns").and_then(Value::as_u64).is_some());
    }
}

#[test]
fn obs_level_leaves_the_simulation_bit_identical() {
    let off = run_at(ObsLevel::Off);
    let counters = run_at(ObsLevel::Counters);
    let full = run_at(ObsLevel::Full);
    for r in [&counters, &full] {
        assert_eq!(off.counters, r.counters);
        assert_eq!(off.completion, r.completion);
        assert_eq!(off.rdma, r.rdma);
        assert_eq!(off.hpd, r.hpd);
    }
    // And the off path really collects nothing.
    assert_eq!(off.obs.latency.major_fault.count, 0);
    assert!(off.obs.events.is_empty());
    assert!(full.obs.latency.timeliness.count > 0);
}

#[test]
fn chrome_trace_is_valid_json_with_monotonic_ts_per_track() {
    let r = run_at(ObsLevel::Full);
    let trace = events_to_chrome_trace(&r.obs.events);
    let value = json::parse(&trace).expect("trace parses as JSON");
    assert_eq!(
        value.get("displayTimeUnit").and_then(Value::as_str),
        Some("ns")
    );
    let events = value
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents is an array");
    assert!(!events.is_empty());
    let mut last_ts: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    for e in events {
        let num = |k: &str| e.get(k).and_then(Value::as_f64);
        let ph = e.get("ph").and_then(Value::as_str).expect("ph is a string");
        if ph == "M" {
            continue; // thread-name metadata carries no ts
        }
        let track = (
            e.get("pid")
                .and_then(Value::as_u64)
                .expect("pid is an integer"),
            e.get("tid")
                .and_then(Value::as_u64)
                .expect("tid is an integer"),
        );
        let ts = num("ts").expect("ts is a number");
        if let Some(prev) = last_ts.get(&track) {
            assert!(
                ts >= *prev,
                "ts went backwards on track {track:?}: {prev} -> {ts}"
            );
        }
        last_ts.insert(track, ts);
        if ph == "X" {
            assert!(
                num("dur").is_some_and(|d| d >= 0.0),
                "complete slices carry a non-negative dur"
            );
        }
    }
    assert!(last_ts.len() > 1, "more than one component track is live");
}

/// The exporters are checked with the workspace's shared JSON reader.
mod json {
    pub use hopp::types::json::{parse, Value};

    #[test]
    fn mini_parser_handles_the_shapes_the_exporter_emits() {
        let v = parse("{\"a\":[1, 2.5], \"b\":\"x\", \"c\":true}").unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!((a[0].as_f64(), a[1].as_f64()), (Some(1.0), Some(2.5)));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Value::as_bool), Some(true));
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2] junk").is_err());
    }
}

#[test]
fn metrics_json_parses_and_carries_percentiles() {
    let r = run_at(ObsLevel::Counters);
    let m = json::parse(&r.metrics_json()).expect("metrics JSON parses");
    assert!(m.get("system").and_then(Value::as_str).is_some());
    assert!(m.get("counters").and_then(Value::as_obj).is_some());
    let latency = m.get("latency").expect("latency object");
    for key in [
        "major_fault",
        "prefetch_timeliness",
        "inflight_wait",
        "rdma_read",
        "rdma_write",
    ] {
        for field in ["count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            assert!(
                latency.get(key).and_then(|h| h.get(field)).is_some(),
                "latency.{key}.{field} present"
            );
        }
    }
}
