//! Differential test of the stream training table against a full-scan
//! reference.
//!
//! `StreamTrainingTable` matches a hot page against its live entries
//! only (a bitmask of the slots ever filled) and keeps each history as a
//! mirrored ring, so a window is a borrowed slice with no shift. The
//! reference below is the straightforward table it replaced: every
//! match scans all slots, skipping unfilled ones, and a full history
//! slides by shifting its values down one place. Both are driven with
//! the same seeded hot-page streams and must agree, page by page, on
//! the window (stream id, pid, VPN and stride histories, arrival), on
//! every counter and on every recorded stream event.
//!
//! The streams cover strided, ladder and ripple patterns, interleaved
//! pids over the same pages, pages at exactly `Δ_stream` and one past
//! it, repeated pages, and mixes with more streams than entries, so
//! slots are recycled again and again. They run at `L` = 4, 5 and 16
//! and at 1, 64, 65 and 130 entries, so the live bitmask spans one,
//! two and three words and its last word is partly unused.

use hopp_core::stt::{StreamId, StreamTrainingTable, SttConfig, SttStats};
use hopp_obs::{Event, Recorder, TimedEvent, TraceSink};
use hopp_types::rng::SplitMix64;
use hopp_types::{HotPage, Nanos, PageFlags, Pid, Vpn};

/// A window the tables produce, owned so the two can be compared.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Window {
    stream: StreamId,
    pid: Pid,
    vpns: Vec<Vpn>,
    strides: Vec<i64>,
    at: Nanos,
}

/// The full-scan table with shifted histories.
struct RefStt {
    config: SttConfig,
    pids: Vec<Pid>,
    last: Vec<Vpn>,
    lens: Vec<usize>,
    lru: Vec<u64>,
    generations: Vec<u32>,
    vpns: Vec<Vec<Vpn>>,
    strides: Vec<Vec<i64>>,
    clock: u64,
    stats: SttStats,
}

impl RefStt {
    fn new(config: SttConfig) -> Self {
        let n = config.entries;
        RefStt {
            config,
            pids: vec![Pid::KERNEL; n],
            last: vec![Vpn::new(0); n],
            lens: vec![0; n],
            lru: vec![0; n],
            generations: vec![0; n],
            vpns: vec![Vec::new(); n],
            strides: vec![Vec::new(); n],
            clock: 0,
            stats: SttStats::default(),
        }
    }

    fn stream(&self, idx: usize) -> StreamId {
        StreamId::from_key(idx as u64 | u64::from(self.generations[idx]) << 16)
    }

    fn observe(&mut self, hot: &HotPage, rec: &mut dyn Recorder) -> Option<Window> {
        self.clock += 1;
        self.stats.observed += 1;
        let mut best: Option<(usize, u64)> = None;
        for idx in 0..self.config.entries {
            if self.lens[idx] == 0 || self.pids[idx] != hot.pid {
                continue;
            }
            let dist = self.last[idx].raw().abs_diff(hot.vpn.raw());
            if dist <= self.config.delta_stream && best.is_none_or(|(_, d)| dist < d) {
                best = Some((idx, dist));
            }
        }
        let Some((idx, dist)) = best else {
            self.recycle(hot, rec);
            return None;
        };
        self.lru[idx] = self.clock;
        if dist == 0 {
            self.stats.deduped += 1;
            return None;
        }
        let l = self.config.history;
        let stride = hot.vpn.stride_from(self.last[idx]);
        if self.lens[idx] == l {
            self.vpns[idx].remove(0);
            self.strides[idx].remove(0);
        } else {
            self.lens[idx] += 1;
        }
        self.vpns[idx].push(hot.vpn);
        self.strides[idx].push(stride);
        self.last[idx] = hot.vpn;
        let stream = self.stream(idx);
        rec.record(
            hot.at,
            Event::StreamUpdated {
                slot: stream.slot() as u16,
                generation: stream.generation(),
                pid: hot.pid,
                vpn: hot.vpn,
            },
        );
        if self.lens[idx] < l {
            return None;
        }
        self.stats.windows += 1;
        Some(Window {
            stream,
            pid: hot.pid,
            vpns: self.vpns[idx].clone(),
            strides: self.strides[idx].clone(),
            at: hot.at,
        })
    }

    fn recycle(&mut self, hot: &HotPage, rec: &mut dyn Recorder) {
        let key = |t: &Self, idx: usize| if t.lens[idx] == 0 { 0 } else { t.lru[idx] };
        let mut victim = 0;
        for idx in 1..self.config.entries {
            if key(self, idx) < key(self, victim) {
                victim = idx;
            }
        }
        if self.lens[victim] > 0 {
            self.stats.evictions += 1;
            rec.record(
                hot.at,
                Event::StreamEvicted {
                    slot: victim as u16,
                    generation: self.generations[victim],
                },
            );
            self.generations[victim] += 1;
        }
        self.pids[victim] = hot.pid;
        self.last[victim] = hot.vpn;
        self.vpns[victim] = vec![hot.vpn];
        self.strides[victim].clear();
        self.lens[victim] = 1;
        self.lru[victim] = self.clock;
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

fn hot(pid: u16, vpn: u64, at: u64) -> HotPage {
    HotPage {
        pid: Pid::new(pid),
        vpn: Vpn::new(vpn),
        flags: PageFlags::default(),
        at: Nanos::from_nanos(at),
    }
}

/// Feeds `pages` to both tables and compares them after every page.
/// Returns the table's counters.
fn compare(config: SttConfig, label: &str, pages: &[HotPage]) -> SttStats {
    let mut table = StreamTrainingTable::new(config).unwrap();
    let mut reference = RefStt::new(config);
    let mut sink = TraceSink::new(2 * pages.len() + 1);
    let mut ref_sink = TraceSink::new(2 * pages.len() + 1);
    for (k, page) in pages.iter().enumerate() {
        let got = table.observe(page, &mut sink).map(|w| Window {
            stream: w.stream,
            pid: w.pid,
            vpns: w.vpn_history.to_vec(),
            strides: w.stride_history.to_vec(),
            at: w.at,
        });
        let want = reference.observe(page, &mut ref_sink);
        assert_eq!(got, want, "{label} {config:?}: page {k} ({page:?})");
        assert_eq!(table.stats(), reference.stats, "{label}: page {k}");
        assert_eq!(sink.len(), ref_sink.len(), "{label}: page {k} events");
    }
    let events: Vec<TimedEvent> = sink.into_events();
    assert_eq!(events, ref_sink.into_events(), "{label} {config:?}: events");
    let live = reference.lens.iter().filter(|&&len| len > 0).count();
    assert_eq!(table.active_streams(), live, "{label}");
    table.stats()
}

/// Uniformly random pages over a few pids, clustered enough to match.
fn random_pages(rng: &mut SplitMix64, n: usize, span: u64) -> Vec<HotPage> {
    (0..n as u64)
        .map(|k| hot(1 + rng.gen_range(0..3) as u16, rng.gen_range(0..span), k))
        .collect()
}

/// `streams` interleaved strided streams in separate regions, strides
/// of both signs, with a random stream picked for each page.
fn stride_pages(rng: &mut SplitMix64, n: usize, streams: u64) -> Vec<HotPage> {
    let mut next: Vec<i64> = (0..streams).map(|s| 1_000_000 * (s as i64 + 1)).collect();
    (0..n as u64)
        .map(|k| {
            let s = rng.gen_range(0..streams);
            let stride = (s as i64 % 7 + 1) * if s.is_multiple_of(2) { 1 } else { -1 };
            next[s as usize] += stride;
            hot(1 + (s % 2) as u16, next[s as usize] as u64, k)
        })
        .collect()
}

/// Ladder streams: strides that alternate between two values, such as
/// +1, +9, +1, +9 (a row walk over a matrix).
fn ladder_pages(n: usize) -> Vec<HotPage> {
    let mut a = 500_000u64;
    let mut b = 900_000u64;
    (0..n as u64)
        .map(|k| {
            if k % 2 == 0 {
                a += if k % 4 == 0 { 1 } else { 9 };
                hot(1, a, k)
            } else {
                b += if k % 4 == 1 { 3 } else { 20 };
                hot(1, b, k)
            }
        })
        .collect()
}

/// A ripple: a forward unit stride with pages swapped in small groups.
fn ripple_pages(rng: &mut SplitMix64, n: usize) -> Vec<HotPage> {
    (0..n as u64)
        .map(|k| {
            let jitter = rng.gen_range(0..5) as i64 - 2;
            hot(1, (10_000 + k as i64 * 2 + jitter) as u64, k)
        })
        .collect()
}

/// Two pids walking the same pages, in lockstep and out of it.
fn interleaved_pid_pages(rng: &mut SplitMix64, n: usize) -> Vec<HotPage> {
    let mut vpn = [100u64, 100, 100];
    (0..n as u64)
        .map(|k| {
            let p = rng.gen_range(0..3) as usize;
            vpn[p] += 1 + rng.gen_range(0..3);
            hot(1 + p as u16, vpn[p], k)
        })
        .collect()
}

/// Pages exactly `Δ_stream` and `Δ_stream + 1` past a stream's newest
/// page, both ways, plus pages equidistant from two streams.
fn delta_edge_pages(rng: &mut SplitMix64, n: usize, delta: u64) -> Vec<HotPage> {
    let mut last = [1_000_000u64, 1_000_000 + 3 * delta];
    let mut pages = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let s = rng.gen_range(0..2) as usize;
        let step = match rng.gen_range(0..6) {
            0 => delta as i64,
            1 => -(delta as i64),
            2 => delta as i64 + 1,
            3 => -(delta as i64) - 1,
            4 => 0,
            _ => 1,
        };
        last[s] = (last[s] as i64 + step) as u64;
        pages.push(hot(1, last[s], k));
        if rng.gen_range(0..8) == 0 {
            // Halfway between the two streams' newest pages.
            pages.push(hot(1, last[0].midpoint(last[1]), k));
        }
    }
    pages
}

/// A stream whose pages each arrive two or three times in a row.
fn duplicate_pages(rng: &mut SplitMix64, n: usize) -> Vec<HotPage> {
    let mut pages = Vec::with_capacity(n);
    let mut vpn = 7_000u64;
    for k in 0..n as u64 {
        vpn += 1 + rng.gen_range(0..2);
        for _ in 0..1 + rng.gen_range(0..3) {
            pages.push(hot(1, vpn, k));
        }
    }
    pages
}

/// More streams than entries, round robin and far apart, with bursts on
/// one stream so some windows fill between recycles.
fn recycling_pages(rng: &mut SplitMix64, n: usize, streams: u64) -> Vec<HotPage> {
    let mut next: Vec<u64> = (0..streams).map(|s| s * 10_000_000).collect();
    let mut pages = Vec::with_capacity(n);
    let mut k = 0u64;
    while pages.len() < n {
        let s = rng.gen_range(0..streams) as usize;
        for _ in 0..1 + rng.gen_range(0..20) {
            next[s] += 1 + rng.gen_range(0..4);
            pages.push(hot(1 + (s % 3) as u16, next[s], k));
            k += 1;
        }
    }
    pages
}

/// Checks that a run reached windows, or recycled its one entry when
/// the interleaved streams of the mix leave it no run to fill.
fn assert_exercised(label: &str, config: SttConfig, stats: SttStats) {
    let one_entry_recycled = config.entries == 1 && stats.evictions > 0;
    assert!(
        stats.windows > 0 || one_entry_recycled,
        "{label} {config:?}: {stats:?}"
    );
}

const HISTORIES: [usize; 3] = [4, 5, 16];
const ENTRIES: [usize; 4] = [1, 64, 65, 130];

fn configs(delta_stream: u64) -> impl Iterator<Item = SttConfig> {
    HISTORIES.into_iter().flat_map(move |history| {
        ENTRIES.into_iter().map(move |entries| SttConfig {
            entries,
            history,
            delta_stream,
        })
    })
}

#[test]
fn random_streams_match_the_reference() {
    for (seed, config) in configs(64).enumerate() {
        let mut rng = SplitMix64::seed_from_u64(seed as u64);
        let pages = random_pages(&mut rng, 4_000, 2_000);
        let stats = compare(config, "random", &pages);
        assert_exercised("random", config, stats);
    }
}

#[test]
fn structured_streams_match_the_reference() {
    for (seed, config) in configs(64).enumerate() {
        let mut rng = SplitMix64::seed_from_u64(100 + seed as u64);
        let cases = [
            ("stride", stride_pages(&mut rng, 3_000, 12)),
            ("ladder", ladder_pages(2_000)),
            ("ripple", ripple_pages(&mut rng, 2_000)),
            ("pids", interleaved_pid_pages(&mut rng, 2_000)),
            ("duplicates", duplicate_pages(&mut rng, 1_500)),
        ];
        for (label, pages) in cases {
            let stats = compare(config, label, &pages);
            assert_exercised(label, config, stats);
        }
    }
}

#[test]
fn pages_at_the_clustering_edge_match_the_reference() {
    for delta in [4u64, 64] {
        for (seed, config) in configs(delta).enumerate() {
            let mut rng = SplitMix64::seed_from_u64(200 + seed as u64);
            let pages = delta_edge_pages(&mut rng, 3_000, delta);
            let stats = compare(config, "delta edge", &pages);
            assert!(stats.deduped > 0, "{config:?}: {stats:?}");
            assert_exercised("delta edge", config, stats);
        }
    }
}

#[test]
fn recycling_heavy_streams_match_the_reference() {
    for (seed, config) in configs(64).enumerate() {
        let mut rng = SplitMix64::seed_from_u64(300 + seed as u64);
        // Twice as many streams as entries, and at least a handful.
        let streams = (2 * config.entries as u64).max(5);
        let pages = recycling_pages(&mut rng, 6_000, streams);
        let stats = compare(config, "recycling", &pages);
        assert!(stats.evictions > 50, "{config:?}: {stats:?}");
    }
}
