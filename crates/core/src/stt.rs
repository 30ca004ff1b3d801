//! The Stream Training Table (STT) — §III-D(1) of the paper.
//!
//! The STT groups the hot-page stream into candidate page streams. It
//! has 64 entries managed LRU; each entry holds a PID, the last `L`
//! VPNs received for that stream (`VPN_history`) and the `L-1` strides
//! between them (`stride_history`). A new hot page joins an existing
//! entry when the PID matches and its VPN is within `Δ_stream` pages of
//! the entry's most recent VPN (*page clustering* — streams live in
//! separate address subspaces). Once an entry's history is full, every
//! further hot page yields a [`StreamWindow`] for the prefetch
//! algorithms to analyse.
//!
//! Like the hardware table it models, the STT has a fixed size: every
//! per-entry field is one array allocated at construction, and the
//! histories are two flat buffers of `2L` values per entry. A window
//! borrows its entry's slices, so training a hot page copies and
//! allocates nothing.
//!
//! # Matching over live entries
//!
//! Entries become live when [`StreamTrainingTable::observe`] recycles a
//! slot for a new stream and are never invalidated, so a table serving
//! a few streams holds a few live entries among its 64. A bitmask (one
//! `u64` per 64 entries) records them, and the match visits only its
//! set bits, in ascending slot order with the same strict-less rule a
//! scan of every slot applies: the same entry wins. Debug builds check
//! every match against that full-table scan.
//!
//! # Mirrored history rings
//!
//! Each entry's VPN and stride histories are rings of `L` positions
//! stored twice over: a value written at ring position `p` also lands
//! at `p + L`. The newest `L` values are then always the contiguous run
//! that ends at the mirror of the newest one, so sliding a full window
//! writes two values instead of shifting the history.

use hopp_obs::{Event, Recorder};
use hopp_types::{Error, HotPage, Nanos, Pid, Result, Vpn};

/// Identifies a stream across the lifetime of a run.
///
/// STT entries are recycled (LRU), so the slot index alone is
/// ambiguous; a generation counter disambiguates. Policy state
/// (prefetch offsets, timeliness) lives in the stream's slot, tagged
/// with its generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StreamId {
    pub(crate) slot: u16,
    pub(crate) generation: u32,
}

impl StreamId {
    /// The STT slot currently (or formerly) hosting the stream.
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// How many times the slot has been recycled before this stream.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// The stream as one integer: the slot in the low 16 bits, the
    /// generation above them.
    pub fn key(self) -> u64 {
        u64::from(self.slot) | u64::from(self.generation) << 16
    }

    /// The stream whose [`StreamId::key`] is `key`.
    pub fn from_key(key: u64) -> Self {
        StreamId {
            slot: key as u16,
            generation: (key >> 16) as u32,
        }
    }
}

/// STT parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SttConfig {
    /// Number of table entries (streams trackable at once). Default 64.
    pub entries: usize,
    /// History length `L`. Larger `L` is a stricter stream condition
    /// and more robust to interference. Default 16.
    pub history: usize,
    /// Page clustering distance `Δ_stream`. Default 64.
    pub delta_stream: u64,
}

impl Default for SttConfig {
    fn default() -> Self {
        SttConfig {
            entries: 64,
            history: 16,
            delta_stream: 64,
        }
    }
}

impl SttConfig {
    /// The most entries a table may have: one per 16-bit slot number.
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `entries` is 0 or above
    /// [`SttConfig::MAX_ENTRIES`] (a [`StreamId`] names its slot in 16
    /// bits), `history < 4` (the algorithms need at least a few strides)
    /// or `delta_stream == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.entries == 0 || self.entries > Self::MAX_ENTRIES {
            return Err(Error::InvalidConfig {
                what: "stt entries",
                constraint: "1..=65536",
            });
        }
        if self.history < 4 {
            return Err(Error::InvalidConfig {
                what: "stt history",
                constraint: "at least 4",
            });
        }
        if self.delta_stream == 0 {
            return Err(Error::InvalidConfig {
                what: "delta_stream",
                constraint: "at least 1",
            });
        }
        Ok(())
    }
}

/// A full training window: the state handed to the prefetch algorithms.
///
/// The window borrows the STT entry's history in place, so producing
/// one copies nothing. `vpn_history[L-1]` is the newest page (the
/// paper's `VPN_A`); `stride_history[i] = vpn_history[i+1] -
/// vpn_history[i]`, so `stride_history[L-2]` is the newest stride
/// (`stride_A`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamWindow<'a> {
    /// The stream's identity (for policy state).
    pub stream: StreamId,
    /// Owning process.
    pub pid: Pid,
    /// The last `L` VPNs, oldest first.
    pub vpn_history: &'a [Vpn],
    /// The `L-1` strides between consecutive VPNs.
    pub stride_history: &'a [i64],
    /// Arrival time of the newest hot page.
    pub at: Nanos,
}

impl StreamWindow<'_> {
    /// The newest page, `VPN_A`. Windows hold `L >= 4` pages
    /// ([`SttConfig::validate`]).
    pub fn vpn_a(&self) -> Vpn {
        self.vpn_history[self.vpn_history.len() - 1]
    }

    /// The newest stride, `stride_A`.
    pub fn stride_a(&self) -> i64 {
        self.stride_history[self.stride_history.len() - 1]
    }

    /// History length `L`.
    pub fn len(&self) -> usize {
        self.vpn_history.len()
    }

    /// Windows are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// STT activity counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SttStats {
    /// Hot pages consumed.
    pub observed: u64,
    /// Hot pages dropped as duplicates of a stream's newest page.
    pub deduped: u64,
    /// Entries recycled for a new stream.
    pub evictions: u64,
    /// Full windows produced.
    pub windows: u64,
}

/// The stream training table.
///
/// All state is allocated at construction and laid out per field, one
/// array element per entry: the match reads `pids` and `last` of the
/// live entries, and the histories live in two flat buffers of `2L`
/// values per entry, each a mirrored ring (module docs).
/// [`StreamWindow`]s borrow from the buffers, so
/// [`StreamTrainingTable::observe`] never allocates.
///
/// # Example
///
/// ```
/// use hopp_core::stt::{StreamTrainingTable, SttConfig};
/// use hopp_obs::NopRecorder;
/// use hopp_types::{HotPage, Nanos, PageFlags, Pid, Vpn};
///
/// let mut stt = StreamTrainingTable::new(SttConfig { history: 4, ..Default::default() })?;
/// let mut windows = 0;
/// for k in 0..6u64 {
///     let hot = HotPage { pid: Pid::new(1), vpn: Vpn::new(10 + k), flags: PageFlags::default(),
///                         at: Nanos::ZERO };
///     if stt.observe(&hot, &mut NopRecorder).is_some() { windows += 1; }
/// }
/// assert_eq!(windows, 3); // windows at the 4th, 5th and 6th page
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct StreamTrainingTable {
    config: SttConfig,
    /// Live entries: bit `i % 64` of word `i / 64` is set once slot `i`
    /// holds a stream, and never cleared.
    live: Vec<u64>,
    /// Owning process of each entry.
    pids: Vec<Pid>,
    /// Newest VPN of each entry (the clustering key).
    last: Vec<Vpn>,
    /// VPNs held by each entry, `1..=L`; 0 marks an entry never filled.
    lens: Vec<usize>,
    /// Ring position `0..L` of each entry's newest VPN and stride.
    heads: Vec<usize>,
    /// LRU stamp of each entry.
    lru: Vec<u64>,
    /// Times each slot has been recycled.
    generations: Vec<u32>,
    /// `entries × 2L` mirrored VPN rings.
    vpns: Vec<Vpn>,
    /// `entries × 2L` mirrored stride rings. The stride that ends at the
    /// VPN in ring position `p` sits in position `p`; position 0 of a
    /// fresh entry holds no stride until the ring wraps.
    strides: Vec<i64>,
    clock: u64,
    stats: SttStats,
}

impl StreamTrainingTable {
    /// Builds an empty table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid parameters.
    pub fn new(config: SttConfig) -> Result<Self> {
        config.validate()?;
        let n = config.entries;
        Ok(StreamTrainingTable {
            live: vec![0; n.div_ceil(64)],
            pids: vec![Pid::KERNEL; n],
            last: vec![Vpn::new(0); n],
            lens: vec![0; n],
            heads: vec![0; n],
            lru: vec![0; n],
            generations: vec![0; n],
            vpns: vec![Vpn::new(0); n * 2 * config.history],
            strides: vec![0; n * 2 * config.history],
            config,
            clock: 0,
            stats: SttStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> SttConfig {
        self.config
    }

    /// Feeds one hot page; returns a training window when the page
    /// extends a stream whose history is full. Records the stream
    /// lifecycle: [`Event::StreamUpdated`] when a hot page extends an
    /// existing stream, [`Event::StreamEvicted`] +
    /// [`Event::StreamCreated`] when a new one recycles a slot.
    pub fn observe(&mut self, hot: &HotPage, rec: &mut dyn Recorder) -> Option<StreamWindow<'_>> {
        self.clock += 1;
        self.stats.observed += 1;

        let best = self.best_match(hot);
        #[cfg(debug_assertions)]
        assert_eq!(
            best,
            self.full_scan_match(hot),
            "live-entry match disagrees with a full-table scan"
        );
        let Some((idx, dist)) = best else {
            self.recycle(hot, rec);
            return None;
        };
        self.lru[idx] = self.clock;
        if dist == 0 {
            // Repeated extraction of the same hot page — de-duplicated
            // in the training framework (§III-B).
            self.stats.deduped += 1;
            return None;
        }
        let l = self.config.history;
        let head = if self.heads[idx] + 1 == l {
            0
        } else {
            self.heads[idx] + 1
        };
        self.heads[idx] = head;
        let pos = idx * 2 * l + head;
        let stride = hot.vpn.stride_from(self.last[idx]);
        self.vpns[pos] = hot.vpn;
        self.vpns[pos + l] = hot.vpn;
        self.strides[pos] = stride;
        self.strides[pos + l] = stride;
        self.last[idx] = hot.vpn;
        let stream = StreamId {
            slot: idx as u16,
            generation: self.generations[idx],
        };
        if rec.is_enabled() {
            rec.record(
                hot.at,
                Event::StreamUpdated {
                    slot: stream.slot,
                    generation: stream.generation,
                    pid: hot.pid,
                    vpn: hot.vpn,
                },
            );
        }
        if self.lens[idx] < l {
            self.lens[idx] += 1;
            if self.lens[idx] < l {
                return None;
            }
        }
        self.stats.windows += 1;
        // The newest `L` VPNs end at the newest one's mirror, `pos + L`;
        // the newest `L - 1` strides end there too.
        Some(StreamWindow {
            stream,
            pid: hot.pid,
            vpn_history: &self.vpns[pos + 1..=pos + l],
            stride_history: &self.strides[pos + 2..=pos + l],
            at: hot.at,
        })
    }

    /// The entry `hot` joins and its distance: among the live entries of
    /// `hot`'s process whose newest VPN lies within `Δ_stream`, the
    /// closest, ties to the lowest slot. Taking the closest keeps two
    /// nearby streams from stealing each other's pages.
    fn best_match(&self, hot: &HotPage) -> Option<(usize, u64)> {
        let mut best = None;
        for (w, &word) in self.live.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                best = self.closer(w * 64 + bits.trailing_zeros() as usize, hot, best);
                bits &= bits - 1;
            }
        }
        best
    }

    /// [`Self::best_match`] by a scan of every slot, filled or not: the
    /// reference the live-entry match is checked against.
    #[cfg(debug_assertions)]
    fn full_scan_match(&self, hot: &HotPage) -> Option<(usize, u64)> {
        (0..self.lens.len())
            .filter(|&idx| self.lens[idx] > 0)
            .fold(None, |best, idx| self.closer(idx, hot, best))
    }

    /// The match rule for one entry, visited in ascending slot order:
    /// entry `idx` replaces `best` if it is `hot`'s process's, within
    /// `Δ_stream` and strictly closer.
    fn closer(
        &self,
        idx: usize,
        hot: &HotPage,
        best: Option<(usize, u64)>,
    ) -> Option<(usize, u64)> {
        if self.pids[idx] != hot.pid {
            return best;
        }
        let dist = self.last[idx].raw().abs_diff(hot.vpn.raw());
        if dist <= self.config.delta_stream && best.is_none_or(|(_, d)| dist < d) {
            Some((idx, dist))
        } else {
            best
        }
    }

    /// Starts a new stream at `hot`, recycling the first entry never
    /// filled or else the least recently used one.
    fn recycle(&mut self, hot: &HotPage, rec: &mut dyn Recorder) {
        let victim = self.victim();
        if self.lens[victim] > 0 {
            self.stats.evictions += 1;
            if rec.is_enabled() {
                rec.record(
                    hot.at,
                    Event::StreamEvicted {
                        slot: victim as u16,
                        generation: self.generations[victim],
                    },
                );
            }
            self.generations[victim] += 1;
        }
        self.live[victim / 64] |= 1 << (victim % 64);
        self.pids[victim] = hot.pid;
        self.last[victim] = hot.vpn;
        let l = self.config.history;
        self.vpns[victim * 2 * l] = hot.vpn;
        self.vpns[victim * 2 * l + l] = hot.vpn;
        self.heads[victim] = 0;
        self.lens[victim] = 1;
        self.lru[victim] = self.clock;
        if rec.is_enabled() {
            rec.record(
                hot.at,
                Event::StreamCreated {
                    slot: victim as u16,
                    generation: self.generations[victim],
                    pid: hot.pid,
                    vpn: hot.vpn,
                },
            );
        }
    }

    /// The slot a new stream takes: the lowest one not yet live, else
    /// the least recently used (stamps are unique, so there is no tie).
    fn victim(&self) -> usize {
        let n = self.lens.len();
        for (w, &word) in self.live.iter().enumerate() {
            if word != u64::MAX {
                // Past `n` only in the last word: then every slot is live.
                let idx = w * 64 + word.trailing_ones() as usize;
                if idx < n {
                    return idx;
                }
            }
        }
        let mut victim = 0;
        for idx in 1..n {
            if self.lru[idx] < self.lru[victim] {
                victim = idx;
            }
        }
        victim
    }

    /// Activity counters.
    pub fn stats(&self) -> SttStats {
        self.stats
    }

    /// Number of valid (in-training) entries.
    pub fn active_streams(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Owned histories for unit tests that build windows by hand.
#[cfg(test)]
pub(crate) mod test_support {
    use super::{StreamId, StreamWindow};
    use hopp_types::{Nanos, Pid, Vpn};

    /// A window's backing storage.
    pub(crate) struct OwnedWindow {
        pub(crate) stream: StreamId,
        pub(crate) vpns: Vec<Vpn>,
        pub(crate) strides: Vec<i64>,
    }

    impl OwnedWindow {
        /// The window over `vpns`, in slot 0, generation 0.
        pub(crate) fn from_vpns(vpns: &[u64]) -> Self {
            let vpns: Vec<Vpn> = vpns.iter().map(|&v| Vpn::new(v)).collect();
            let strides = vpns.windows(2).map(|w| w[1].stride_from(w[0])).collect();
            OwnedWindow {
                stream: StreamId {
                    slot: 0,
                    generation: 0,
                },
                vpns,
                strides,
            }
        }

        /// The same history attributed to `stream`.
        pub(crate) fn in_stream(mut self, stream: StreamId) -> Self {
            self.stream = stream;
            self
        }

        /// Borrows the window (pid 1, arriving at time zero).
        pub(crate) fn window(&self) -> StreamWindow<'_> {
            StreamWindow {
                stream: self.stream,
                pid: Pid::new(1),
                vpn_history: &self.vpns,
                stride_history: &self.strides,
                at: Nanos::ZERO,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_obs::NopRecorder;
    use hopp_types::PageFlags;

    fn hot(pid: u16, vpn: u64) -> HotPage {
        HotPage {
            pid: Pid::new(pid),
            vpn: Vpn::new(vpn),
            flags: PageFlags::default(),
            at: Nanos::ZERO,
        }
    }

    fn stt(history: usize) -> StreamTrainingTable {
        StreamTrainingTable::new(SttConfig {
            history,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn stream_keys_round_trip() {
        let id = StreamId {
            slot: 63,
            generation: u32::MAX,
        };
        assert_eq!(StreamId::from_key(id.key()), id);
        assert_eq!(id.key() & 0xFFFF, 63);
    }

    #[test]
    fn config_validation() {
        assert!(SttConfig {
            entries: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SttConfig {
            history: 3,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SttConfig {
            delta_stream: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SttConfig::default().validate().is_ok());
    }

    #[test]
    fn entries_are_bounded_by_the_slot_width() {
        // Slot 65,536 would alias slot 0 in a 16-bit `StreamId`.
        let validate = |entries| {
            SttConfig {
                entries,
                ..Default::default()
            }
            .validate()
        };
        assert_eq!(validate(SttConfig::MAX_ENTRIES), Ok(()));
        assert_eq!(
            validate(SttConfig::MAX_ENTRIES + 1),
            Err(Error::InvalidConfig {
                what: "stt entries",
                constraint: "1..=65536",
            })
        );
        assert!(StreamTrainingTable::new(SttConfig {
            entries: SttConfig::MAX_ENTRIES + 1,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn window_appears_when_history_fills() {
        let mut t = stt(4);
        assert!(t.observe(&hot(1, 10), &mut NopRecorder).is_none());
        assert!(t.observe(&hot(1, 12), &mut NopRecorder).is_none());
        assert!(t.observe(&hot(1, 14), &mut NopRecorder).is_none());
        let w = t.observe(&hot(1, 16), &mut NopRecorder).unwrap();
        assert_eq!(
            w.vpn_history,
            vec![Vpn::new(10), Vpn::new(12), Vpn::new(14), Vpn::new(16)]
        );
        assert_eq!(w.stride_history, vec![2, 2, 2]);
        assert_eq!(w.vpn_a(), Vpn::new(16));
        assert_eq!(w.stride_a(), 2);
    }

    #[test]
    fn window_slides_after_full() {
        let mut t = stt(4);
        for v in [10, 12, 14, 16] {
            t.observe(&hot(1, v), &mut NopRecorder);
        }
        let w = t.observe(&hot(1, 18), &mut NopRecorder).unwrap();
        assert_eq!(w.vpn_history[0], Vpn::new(12));
        assert_eq!(w.vpn_a(), Vpn::new(18));
        assert_eq!(t.stats().windows, 2);
    }

    #[test]
    fn pid_separates_streams() {
        let mut t = stt(4);
        // Two processes interleave the *same* VPNs; each gets its own
        // stream (the hot-page trace carries PIDs, §VI-B).
        for v in [10, 11, 12] {
            t.observe(&hot(1, v), &mut NopRecorder);
            t.observe(&hot(2, v), &mut NopRecorder);
        }
        assert_eq!(t.active_streams(), 2);
        assert!(t.observe(&hot(1, 13), &mut NopRecorder).is_some());
        assert!(t.observe(&hot(2, 13), &mut NopRecorder).is_some());
    }

    #[test]
    fn clustering_separates_address_subspaces() {
        let mut t = stt(4);
        // Two streams 1M pages apart, interleaved: page clustering keeps
        // them in separate entries (the Leap failure mode of §II-B).
        for k in 0..4u64 {
            t.observe(&hot(1, 1000 + k), &mut NopRecorder);
            t.observe(&hot(1, 2_000_000 + 2 * k), &mut NopRecorder);
        }
        assert_eq!(t.active_streams(), 2);
        let w = t.observe(&hot(1, 1004), &mut NopRecorder).unwrap();
        assert_eq!(w.stride_history, vec![1, 1, 1]);
    }

    #[test]
    fn duplicate_hot_pages_are_deduped() {
        let mut t = stt(4);
        t.observe(&hot(1, 10), &mut NopRecorder);
        assert!(t.observe(&hot(1, 10), &mut NopRecorder).is_none());
        assert_eq!(t.stats().deduped, 1);
        // The stream is not polluted by the duplicate.
        t.observe(&hot(1, 11), &mut NopRecorder);
        t.observe(&hot(1, 12), &mut NopRecorder);
        let w = t.observe(&hot(1, 13), &mut NopRecorder).unwrap();
        assert_eq!(w.stride_history, vec![1, 1, 1]);
    }

    #[test]
    fn closest_stream_wins_on_overlap() {
        let mut t = stt(4);
        // Stream A sits at 100; stream B starts at 200 (too far to join
        // A) and walks down towards it.
        t.observe(&hot(1, 100), &mut NopRecorder);
        for v in [200, 190, 180, 170] {
            t.observe(&hot(1, v), &mut NopRecorder);
        }
        assert_eq!(t.active_streams(), 2);
        // Page 150 is within Δ=64 of both streams (50 from A's 100,
        // 20 from B's 170): the closer stream B absorbs it.
        t.observe(&hot(1, 150), &mut NopRecorder);
        t.observe(&hot(1, 148), &mut NopRecorder);
        let w = t.observe(&hot(1, 146), &mut NopRecorder).unwrap();
        assert_eq!(w.vpn_history[0], Vpn::new(170));
        assert_eq!(t.active_streams(), 2, "stream A is untouched");
    }

    #[test]
    fn lru_eviction_bumps_generation() {
        let mut t = StreamTrainingTable::new(SttConfig {
            entries: 2,
            history: 4,
            delta_stream: 4,
        })
        .unwrap();
        t.observe(&hot(1, 0), &mut NopRecorder);
        t.observe(&hot(1, 1000), &mut NopRecorder);
        // A third far-away stream evicts the LRU entry (slot of page 0).
        t.observe(&hot(1, 2000), &mut NopRecorder);
        assert_eq!(t.stats().evictions, 1);
        // Complete the recycled stream: its id differs by generation.
        t.observe(&hot(1, 2001), &mut NopRecorder);
        t.observe(&hot(1, 2002), &mut NopRecorder);
        let w = t.observe(&hot(1, 2003), &mut NopRecorder).unwrap();
        assert_eq!(w.stream.slot(), 0);
        // Build a window in slot 0 again after another eviction cycle
        // and verify the generation moved on.
        let first_gen = w.stream;
        t.observe(&hot(1, 5000), &mut NopRecorder); // evicts slot 1 (page 1000 stream)
        t.observe(&hot(1, 7000), &mut NopRecorder); // evicts slot 0
        t.observe(&hot(1, 7001), &mut NopRecorder);
        t.observe(&hot(1, 7002), &mut NopRecorder);
        let w2 = t.observe(&hot(1, 7003), &mut NopRecorder).unwrap();
        assert_eq!(w2.stream.slot(), 0);
        assert_ne!(w2.stream, first_gen);
    }

    #[test]
    fn stream_lifecycle_is_recorded() {
        use hopp_obs::TraceSink;
        let mut sink = TraceSink::new(64);
        let mut t = StreamTrainingTable::new(SttConfig {
            entries: 2,
            history: 4,
            delta_stream: 4,
        })
        .unwrap();
        t.observe(&hot(1, 0), &mut sink); // created (slot 0)
        t.observe(&hot(1, 1), &mut sink); // updated
        t.observe(&hot(1, 1000), &mut sink); // created (slot 1)
        t.observe(&hot(1, 2000), &mut sink); // evicts + creates
        let names: Vec<&str> = sink.into_events().iter().map(|e| e.event.name()).collect();
        assert_eq!(
            names,
            [
                "stream_created",
                "stream_updated",
                "stream_created",
                "stream_evicted",
                "stream_created"
            ]
        );
    }

    #[test]
    fn negative_strides_are_tracked() {
        let mut t = stt(4);
        for v in [100, 97, 94] {
            t.observe(&hot(1, v), &mut NopRecorder);
        }
        let w = t.observe(&hot(1, 91), &mut NopRecorder).unwrap();
        assert_eq!(w.stride_history, vec![-3, -3, -3]);
    }
}
