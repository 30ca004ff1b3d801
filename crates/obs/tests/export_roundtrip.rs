//! Round-trip tests for the hand-rolled exporters and a property test
//! pinning `Histogram::quantile` to an exact sorted-vector reference.
//!
//! The exporters render JSON by hand (the build is offline, no serde),
//! so nothing in the unit tests proves the output *parses*. Here the
//! workspace's JSON reader (`hopp_types::json`, which keeps object keys
//! in document order) reads every JSONL line back and checks the values
//! and the key order against the events that produced them — key order
//! is part of the determinism contract (byte-stable output diffs
//! cleanly between runs).

use hopp_obs::{events_to_jsonl, Event, TimedEvent};
use hopp_types::json::{self, Value};
use hopp_types::rng::SplitMix64;
use hopp_types::{Nanos, Pid, Ppn, Vpn};

/// Parses one JSONL line, which must be an object, into its members in
/// document order. Panics on malformed input: a parse failure *is* the
/// test failure.
fn members(line: &str) -> Vec<(String, Value)> {
    match json::parse(line) {
        Ok(Value::Obj(members)) => members,
        other => panic!("not an object ({other:?}): {line}"),
    }
}

fn has(members: &[(String, Value)], key: &str, value: &str) -> bool {
    members
        .iter()
        .any(|(k, v)| k == key && json::parse(value).as_ref() == Ok(v))
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
fn jsonl_round_trips_with_deterministic_key_order() {
    let events = sample_events();
    let out = events_to_jsonl(&events);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, e) in lines.iter().zip(&events) {
        let pairs = members(line);
        // Key order is fixed: the envelope triple first, args after.
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(&keys[..3], ["ts", "component", "event"], "line: {line}");
        // No key appears twice.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate key in: {line}");
        // The values parse back to what produced them.
        assert_eq!(pairs[0].1.as_u64(), Some(e.at.as_nanos()));
        assert_eq!(pairs[1].1.as_str(), Some(e.event.component().label()));
        assert_eq!(pairs[2].1.as_str(), Some(e.event.name()));
    }
    // Same input, same bytes — the other half of the contract.
    assert_eq!(out, events_to_jsonl(&events));
}

#[test]
fn jsonl_args_carry_the_event_payload() {
    let out = events_to_jsonl(&sample_events());
    let lines: Vec<&str> = out.lines().collect();
    assert!(has(&members(lines[0]), "ppn", "7"));
    assert!(has(&members(lines[1]), "resolved", "true"));
    assert!(has(&members(lines[3]), "latency_ns", "1500"));
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
