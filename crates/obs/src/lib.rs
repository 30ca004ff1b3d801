#![warn(missing_docs)]
//! Observability for the HoPP simulation stack.
//!
//! The paper's own methodology is built on *seeing* the memory system:
//! HMTT snoops the DIMM bus for the full access stream, and the
//! evaluation hinges on accuracy/coverage/timeliness *distributions*,
//! not means. This crate gives the reproduction the same visibility:
//!
//! * a typed [`Event`] stream covering the whole pipeline (HPD hot-page
//!   emission, RPT cache traffic, STT stream life cycle, tier
//!   decisions, the prefetch issue→arrival→hit/waste life cycle, fault
//!   classification, reclaim, RDMA ops), each stamped with simulated
//!   [`Nanos`](hopp_types::Nanos);
//! * log₂-bucketed [`Histogram`]s with p50/p90/p99/max summaries for
//!   the latency-shaped quantities (major-fault latency, prefetch
//!   timeliness, inflight waits, RDMA op latency);
//! * exporters: a JSONL event dump and a Chrome trace-event file
//!   openable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
//!   with one track per component.
//!
//! Everything routes through the [`Recorder`] trait. Instrumented code
//! takes `&mut dyn Recorder`; when observability is off the caller
//! passes a [`NopRecorder`] (or [`ObsRecorder::Off`]) whose `record` is
//! an empty inlineable body, so the off path costs one virtual call
//! with no allocation, no branch on event content, and — critically for
//! a deterministic simulator — no influence on control flow.
//!
//! # Example
//!
//! ```
//! use hopp_obs::{Event, ObsRecorder, Recorder, TraceSink};
//! use hopp_types::{Nanos, Pid, Vpn};
//!
//! let mut rec = ObsRecorder::Sink(TraceSink::new(1024));
//! rec.record(Nanos::from_micros(3), Event::MinorFault {
//!     pid: Pid::new(1),
//!     vpn: Vpn::new(42),
//! });
//! let events = rec.into_events();
//! assert_eq!(events.len(), 1);
//! let jsonl = hopp_obs::export::events_to_jsonl(&events);
//! assert!(jsonl.contains("\"event\":\"minor_fault\""));
//! ```

pub mod event;
pub mod export;
pub mod hist;
pub mod recorder;

pub use event::{Component, Event, TierKind, TimedEvent};
pub use export::{events_to_chrome_trace, events_to_chrome_trace_with_extra, events_to_jsonl};
pub use hist::{
    Histogram, HistogramSummary, LatencyHistograms, LatencySummaries, NodeHistograms,
    NodeLatencySummary,
};
pub use recorder::{NopRecorder, ObsLevel, ObsRecorder, Recorder, TraceSink};
