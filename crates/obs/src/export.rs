//! The trace exporter: Chrome trace-event JSON.
//!
//! The trace is rendered by hand (the build environment has no
//! crates.io access for `serde`); every value written is numeric,
//! boolean or a static identifier, so the JSON stays trivially valid
//! and — important for the determinism guarantee — byte-stable across
//! runs with the same seed.

use std::fmt::Write as _;

use crate::event::{Component, TimedEvent};

/// Renders events as a Chrome trace-event file (JSON object format),
/// openable in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// * One process ("hoppsim"), one thread per [`Component`], named via
///   `thread_name` metadata.
/// * Interval events ([`crate::Event::duration`]) become complete
///   (`"ph":"X"`) slices starting at `at - duration`; the rest are
///   instants (`"ph":"i"`).
/// * `ts`/`dur` are microseconds with nanosecond precision (Chrome's
///   unit), written as fixed 3-decimal strings so output is byte-stable.
/// * All non-metadata entries are sorted by start time, so `ts` is
///   globally (hence per-track) non-decreasing even though interval
///   events are *recorded* at their end.
pub fn events_to_chrome_trace(events: &[TimedEvent]) -> String {
    events_to_chrome_trace_with_extra(events, "")
}

/// [`events_to_chrome_trace`] with a pre-rendered fragment of extra
/// trace entries spliced in before the closing bracket — the hook the
/// harness uses to merge host-side profiler spans
/// (`hopp_prof::ProfReport::chrome_trace_fragment`) onto the simulated
/// timeline as a second process.
///
/// `extra` must be either empty or a comma-separated sequence of JSON
/// trace-event objects *without* leading/trailing separators.
pub fn events_to_chrome_trace_with_extra(events: &[TimedEvent], extra: &str) -> String {
    let _prof = hopp_prof::span(hopp_prof::SpanId::ObsExport);
    // (start_ns, dur_ns, event) — sort by start for monotonic ts.
    let mut slices: Vec<(u64, u64, &TimedEvent)> = events
        .iter()
        .map(|e| match e.event.duration() {
            Some(d) => (
                e.at.as_nanos().saturating_sub(d.as_nanos()),
                d.as_nanos(),
                e,
            ),
            None => (e.at.as_nanos(), 0, e),
        })
        .collect();
    slices.sort_by_key(|&(start, _, _)| start);

    let mut out = String::with_capacity(events.len() * 160 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for c in Component::ALL {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            c.tid(),
            c.label()
        );
    }
    for (start_ns, dur_ns, e) in slices {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":",
            e.event.name(),
            e.event.component().tid()
        );
        write_us(&mut out, start_ns);
        if e.event.duration().is_some() {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            write_us(&mut out, dur_ns);
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{\"ts_ns\":");
        let _ = write!(out, "{}", e.at.as_nanos());
        e.event.write_args_json(&mut out);
        out.push_str("}}");
    }
    if !extra.is_empty() {
        push_sep(&mut out, &mut first);
        out.push_str(extra);
    }
    out.push_str("]}");
    out
}

/// Writes `ns` as microseconds with exactly 3 decimals (ns precision).
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use hopp_types::json::{self, Value};
    use hopp_types::{Nanos, Pid, Vpn};

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                at: Nanos::from_nanos(5_000),
                // Interval event recorded at its end; starts at 2000 ns.
                event: Event::MajorFault {
                    pid: Pid::new(1),
                    vpn: Vpn::new(7),
                    latency: Nanos::from_nanos(3_000),
                },
            },
            TimedEvent {
                at: Nanos::from_nanos(1_000),
                event: Event::MinorFault {
                    pid: Pid::new(1),
                    vpn: Vpn::new(8),
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_has_one_entry_per_event() {
        let trace = json::parse(&events_to_chrome_trace(&sample_events())).unwrap();
        let entries = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        let events: Vec<&Value> = entries
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
            .collect();
        assert_eq!(events.len(), 2);
        let major = events[1];
        assert_eq!(
            major.get("name").and_then(Value::as_str),
            Some("major_fault")
        );
        let ts_ns = major.get("args").and_then(|a| a.get("ts_ns"));
        assert_eq!(ts_ns.and_then(Value::as_u64), Some(5000));
        let kernel = u64::from(Component::Kernel.tid());
        for e in events {
            assert_eq!(e.get("tid").and_then(Value::as_u64), Some(kernel));
        }
    }

    #[test]
    fn chrome_trace_sorts_by_start_time() {
        let out = events_to_chrome_trace(&sample_events());
        // The minor fault (instant at 1000 ns = ts 1.000) must come
        // before the major fault slice (starts 2000 ns = ts 2.000),
        // even though the major fault was recorded first.
        let minor = out.find("\"minor_fault\"").unwrap();
        let major = out.find("\"major_fault\"").unwrap();
        assert!(minor < major);
        assert!(out.contains("\"ts\":1.000"));
        assert!(out.contains("\"ts\":2.000,\"ph\":\"X\",\"dur\":3.000"));
    }

    #[test]
    fn chrome_trace_names_every_track() {
        let out = events_to_chrome_trace(&[]);
        for c in Component::ALL {
            assert!(out.contains(&format!("\"name\":\"{}\"", c.label())));
        }
        assert!(out.starts_with('{') && out.ends_with('}'));
    }

    #[test]
    fn exports_are_deterministic() {
        let events = sample_events();
        assert_eq!(
            events_to_chrome_trace(&events),
            events_to_chrome_trace(&events)
        );
    }
}
