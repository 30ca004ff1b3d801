//! Round-trip tests for the hand-rolled Chrome-trace exporter and a
//! property test pinning `Histogram::quantile` to an exact sorted-vector
//! reference.
//!
//! The exporter renders JSON by hand (the build is offline, no serde),
//! so nothing in the unit tests proves the output *parses*. Here the
//! workspace's JSON reader (`hopp_types::json`, which keeps object keys
//! in document order) reads every trace entry back and checks the values
//! and the key order against the events that produced them — key order
//! is part of the determinism contract (byte-stable output diffs
//! cleanly between runs).

use hopp_obs::{events_to_chrome_trace, Event, TimedEvent};
use hopp_types::json::{self, Value};
use hopp_types::rng::SplitMix64;
use hopp_types::{Nanos, Pid, Ppn, Vpn};

/// The members of an object, in document order. Panics on anything
/// else: a malformed entry *is* the test failure.
fn members(value: &Value) -> &[(String, Value)] {
    match value {
        Value::Obj(members) => members,
        other => panic!("not an object: {other:?}"),
    }
}

fn has(members: &[(String, Value)], key: &str, value: &str) -> bool {
    members
        .iter()
        .any(|(k, v)| k == key && json::parse(value).as_ref() == Ok(v))
}

fn keys(members: &[(String, Value)]) -> Vec<&str> {
    members.iter().map(|(k, _)| k.as_str()).collect()
}

fn assert_distinct(keys: &[&str]) {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), keys.len(), "duplicate key in {keys:?}");
}

/// Parses a Chrome trace into its thread-name metadata entries and its
/// event entries, each in document order.
fn trace_entries(trace: &str) -> (Vec<Value>, Vec<Value>) {
    let Ok(value) = json::parse(trace) else {
        panic!("trace does not parse: {trace}");
    };
    let entries = value
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents is an array");
    entries
        .iter()
        .cloned()
        .partition(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
}

fn sample_events() -> Vec<TimedEvent> {
    vec![
        TimedEvent {
            at: Nanos::from_nanos(100),
            event: Event::HpdHot { ppn: Ppn::new(7) },
        },
        TimedEvent {
            at: Nanos::from_nanos(250),
            event: Event::RptMiss {
                ppn: Ppn::new(7),
                resolved: true,
            },
        },
        TimedEvent {
            at: Nanos::from_nanos(999),
            event: Event::MinorFault {
                pid: Pid::new(3),
                vpn: Vpn::new(41),
            },
        },
        TimedEvent {
            at: Nanos::from_nanos(5_000),
            event: Event::MajorFault {
                pid: Pid::new(3),
                vpn: Vpn::new(42),
                latency: Nanos::from_nanos(1_500),
            },
        },
    ]
}

#[test]
fn chrome_trace_round_trips_with_deterministic_key_order() {
    let events = sample_events();
    let out = events_to_chrome_trace(&events);
    let (meta, entries) = trace_entries(&out);
    let track = |tid: u64| {
        meta.iter()
            .find(|m| m.get("tid").and_then(Value::as_u64) == Some(tid))
            .and_then(|m| m.get("args")?.get("name")?.as_str())
    };
    // The sample is in start order, so the exporter's sort keeps it.
    assert_eq!(entries.len(), events.len());
    for (entry, e) in entries.iter().zip(&events) {
        let pairs = members(entry);
        // Key order is fixed: the envelope first, args last.
        let top = keys(pairs);
        assert_eq!(&top[..5], ["name", "pid", "tid", "ts", "ph"], "{entry:?}");
        assert_eq!(top.last(), Some(&"args"), "{entry:?}");
        assert_distinct(&top);
        let args = keys(members(entry.get("args").expect("args")));
        assert_eq!(args[0], "ts_ns", "{entry:?}");
        assert_distinct(&args);
        // The values parse back to what produced them.
        let ts_ns = entry.get("args").and_then(|a| a.get("ts_ns"));
        assert_eq!(ts_ns.and_then(Value::as_u64), Some(e.at.as_nanos()));
        let tid = entry.get("tid").and_then(Value::as_u64).expect("tid");
        assert_eq!(track(tid), Some(e.event.component().label()));
        assert_eq!(
            entry.get("name").and_then(Value::as_str),
            Some(e.event.name())
        );
    }
    // Same input, same bytes — the other half of the contract.
    assert_eq!(out, events_to_chrome_trace(&events));
}

#[test]
fn chrome_trace_args_carry_the_event_payload() {
    let (_, entries) = trace_entries(&events_to_chrome_trace(&sample_events()));
    let args = |i: usize| members(entries[i].get("args").expect("args"));
    assert!(has(args(0), "ppn", "7"));
    assert!(has(args(1), "resolved", "true"));
    assert!(has(args(3), "latency_ns", "1500"));
}

/// Exact reference for `Histogram::quantile`: the rank-th smallest
/// sample's octave upper bound, clamped to the exact max — computed
/// from the sorted sample vector instead of bucket counters.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let x = sorted[(rank - 1) as usize];
    let upper = if x == 0 {
        0
    } else {
        let bits = 64 - x.leading_zeros();
        (1u64 << bits) - 1
    };
    upper.min(*sorted.last().expect("non-empty"))
}

#[test]
fn quantile_matches_sorted_vector_reference_across_bucket_boundaries() {
    let mut rng = SplitMix64::seed_from_u64(0xb0c);
    let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
    for round in 0..200 {
        let len = rng.gen_range(1..65) as usize;
        let mut samples = Vec::with_capacity(len);
        for _ in 0..len {
            // Mix octave-boundary values (2^k - 1, 2^k, 2^k + 1) with
            // uniform draws; boundaries are where bucket placement and
            // the rank scan can disagree by one.
            let v = match rng.gen_range(0..4) {
                0 => {
                    let k = rng.gen_range(0..62);
                    (1u64 << k).saturating_sub(1)
                }
                1 => 1u64 << rng.gen_range(0..62),
                2 => (1u64 << rng.gen_range(0..62)) + 1,
                _ => rng.gen_range(0..1 << 40),
            };
            samples.push(v);
        }
        let mut hist = hopp_obs::Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        for &q in &qs {
            let got = hist.quantile(q);
            let want = reference_quantile(&samples, q);
            assert_eq!(
                got, want,
                "round {round}: q={q} over {samples:?} (got {got}, want {want})"
            );
            // The octave guarantee itself: never below the true
            // quantile, less than one power of two above it.
            let n = samples.len() as u64;
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let exact = samples[(rank - 1) as usize];
            assert!(got >= exact, "round {round}: {got} < exact {exact}");
            assert!(
                got < exact.saturating_mul(2).max(1) || got == 0,
                "round {round}: {got} more than an octave above {exact}"
            );
        }
        // A random q exercises ranks the fixed grid misses.
        let q = rng.next_f64();
        assert_eq!(hist.quantile(q), reference_quantile(&samples, q));
    }
}
