//! Event recorders: the `dyn`-dispatch seam between instrumented code
//! and whatever (if anything) is collecting events.

use std::collections::VecDeque;

use hopp_types::Nanos;

use crate::event::{Event, TimedEvent};

/// How much observability a run collects.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ObsLevel {
    /// Nothing: no events, no histograms. The provably-free path.
    Off,
    /// Latency histograms only (the default): percentile summaries in
    /// the report, no per-event stream.
    #[default]
    Counters,
    /// Histograms plus the full typed event stream.
    Full,
}

impl ObsLevel {
    /// Parses the `--obs-level` flag values.
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "counters" => Some(ObsLevel::Counters),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// Stable label (inverse of [`ObsLevel::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Full => "full",
        }
    }

    /// Whether histograms are recorded at this level.
    pub fn histograms(self) -> bool {
        !matches!(self, ObsLevel::Off)
    }

    /// Whether the event stream is recorded at this level.
    pub fn events(self) -> bool {
        matches!(self, ObsLevel::Full)
    }
}

/// The recording seam. Instrumented components take `&mut dyn Recorder`
/// and call [`Recorder::record`] unconditionally; the recorder decides
/// whether anything is kept. Events must never influence the caller's
/// control flow — that keeps the simulation bit-identical across
/// observability levels.
pub trait Recorder {
    /// Records `event` as having happened at simulated time `at`.
    fn record(&mut self, at: Nanos, event: Event);

    /// True if recorded events are actually kept. Components may use
    /// this to skip *constructing* expensive events, never to change
    /// simulation behaviour.
    fn is_enabled(&self) -> bool {
        false
    }
}

/// The recorder that keeps nothing. This is what the off path
/// dispatches to: an empty inlineable `record` body.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopRecorder;

impl Recorder for NopRecorder {
    #[inline]
    fn record(&mut self, _at: Nanos, _event: Event) {}
}

/// A bounded in-memory event buffer. When full, the *oldest* events are
/// dropped (the end of a run is usually the interesting part) and the
/// drop is counted, so exports can say exactly what is missing.
#[derive(Clone, Debug)]
pub struct TraceSink {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
}

/// Default event capacity (~24 MB of `TimedEvent` at 48 B each).
pub const DEFAULT_SINK_CAPACITY: usize = 1 << 19;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(DEFAULT_SINK_CAPACITY)
    }
}

impl TraceSink {
    /// Creates a sink holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace sink needs room for at least 1 event");
        TraceSink {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the sink into a `Vec`, oldest first.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.events.into()
    }
}

impl Recorder for TraceSink {
    fn record(&mut self, at: Nanos, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TimedEvent { at, event });
    }

    fn is_enabled(&self) -> bool {
        true
    }
}

/// The simulator's concrete recorder: either off (free) or a sink.
///
/// Stored by value so the hot path is an enum match rather than a heap
/// indirection; instrumented callees still only see `&mut dyn Recorder`.
#[derive(Clone, Debug, Default)]
pub enum ObsRecorder {
    /// Record nothing.
    #[default]
    Off,
    /// Record into a ring buffer.
    Sink(TraceSink),
}

impl ObsRecorder {
    /// Builds the recorder for an observability level.
    pub fn for_level(level: ObsLevel) -> Self {
        if level.events() {
            ObsRecorder::Sink(TraceSink::default())
        } else {
            ObsRecorder::Off
        }
    }

    /// Consumes the recorder, returning its events (empty when off).
    pub fn into_events(self) -> Vec<TimedEvent> {
        match self {
            ObsRecorder::Off => Vec::new(),
            ObsRecorder::Sink(s) => s.into_events(),
        }
    }

    /// Events dropped by the ring buffer.
    pub fn dropped(&self) -> u64 {
        match self {
            ObsRecorder::Off => 0,
            ObsRecorder::Sink(s) => s.dropped(),
        }
    }
}

impl Recorder for ObsRecorder {
    #[inline]
    fn record(&mut self, at: Nanos, event: Event) {
        if let ObsRecorder::Sink(s) = self {
            s.record(at, event);
        }
    }

    fn is_enabled(&self) -> bool {
        matches!(self, ObsRecorder::Sink(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_types::{Pid, Vpn};

    fn ev(v: u64) -> Event {
        Event::MinorFault {
            pid: Pid::new(1),
            vpn: Vpn::new(v),
        }
    }

    #[test]
    fn nop_recorder_is_disabled_and_keeps_nothing() {
        let mut r = NopRecorder;
        assert!(!r.is_enabled());
        r.record(Nanos::ZERO, ev(1)); // must not panic, must not keep
    }

    #[test]
    fn sink_keeps_events_in_order() {
        let mut s = TraceSink::new(16);
        for v in 0..5u64 {
            s.record(Nanos::from_nanos(v), ev(v));
        }
        let got = s.into_events();
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.at, Nanos::from_nanos(i as u64));
        }
    }

    #[test]
    fn sink_drops_oldest_when_full() {
        let mut s = TraceSink::new(3);
        for v in 0..5u64 {
            s.record(Nanos::from_nanos(v), ev(v));
        }
        assert_eq!(s.dropped(), 2);
        let got = s.into_events();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].at, Nanos::from_nanos(2), "oldest were dropped");
    }

    #[test]
    fn obs_recorder_off_is_free_and_empty() {
        let mut r = ObsRecorder::Off;
        r.record(Nanos::ZERO, ev(1));
        assert!(!r.is_enabled());
        assert!(r.into_events().is_empty());
    }

    #[test]
    fn levels_parse_and_roundtrip() {
        for l in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Full] {
            assert_eq!(ObsLevel::parse(l.label()), Some(l));
        }
        assert_eq!(ObsLevel::parse("bogus"), None);
        assert!(!ObsLevel::Off.histograms());
        assert!(ObsLevel::Counters.histograms());
        assert!(!ObsLevel::Counters.events());
        assert!(ObsLevel::Full.events());
    }
}
