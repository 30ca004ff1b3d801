//! Differential tests: the behavioural hardware models against plain
//! references driven with identical seeded streams.
//!
//! * The MC pipeline's page-granular path (`McPipeline::on_page_misses`,
//!   one HPD run per channel per page touch) against line-by-line loops
//!   over per-channel behavioural HPD tables, routed by line address,
//!   and against single-bit `on_page_misses` calls: identical hot
//!   `(line, ppn)` sequences, HPD counters, resolved hot pages and
//!   bandwidth ledgers, with and without eviction pressure.
//! * The behavioural RPT, which stores packed words, against a plain
//!   model of unpacked entries in per-set LRU lists, op by op: the same
//!   lookup resolutions and the same counters (hits, DRAM reads,
//!   writebacks). The streams reach the edges of the packed entry's
//!   fields (PID `u16::MAX`, VPN `2^40 − 1`).

use std::collections::BTreeMap;

use hopp_hw::hpd::{HotPageDetector, HpdConfig, HpdStats};
use hopp_hw::rpt::{
    PackedRptEntry, ReversePageTable, RptCacheConfig, RptEntry, RptStats, RPT_ENTRY_BYTES,
    RPT_VPN_BITS,
};
use hopp_hw::McPipeline;
use hopp_mem::PteListener;
use hopp_obs::NopRecorder;
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, HotPage, Nanos, PageFlags, Pid, Ppn, Vpn};

/// One op of the page-touch stream fed to the MC pipeline.
#[derive(Clone, Copy, Debug)]
enum PageOp {
    /// A page touch whose LLC misses are `misses` (bit `j`: line `j`).
    Touch {
        ppn: Ppn,
        misses: u64,
        kind: AccessKind,
    },
    /// The frame left DRAM.
    Reclaim(Ppn),
}

/// A pool of `per_set` distinct frames in each of the four HPD sets, so
/// the pages collide in every set; high PPN bits are random, which
/// varies the first line's channel for any channel count.
fn page_pool(rng: &mut SplitMix64, per_set: u64) -> Vec<Ppn> {
    let mut pool = Vec::new();
    for set in 0..4 {
        while pool.iter().filter(|p: &&Ppn| p.raw() % 4 == set).count() < per_set as usize {
            let ppn = Ppn::new(rng.gen_range(0..1 << 20) << 2 | set);
            if !pool.contains(&ppn) {
                pool.push(ppn);
            }
        }
    }
    pool
}

/// A seeded stream of page touches over `pool`: miss masks of every
/// shape (none, all 64 lines, dense and sparse prefixes), mostly reads,
/// with reclaims interleaved.
fn page_ops(rng: &mut SplitMix64, pool: &[Ppn], n: usize) -> Vec<PageOp> {
    (0..n)
        .map(|_| {
            let ppn = pool[rng.gen_range(0..pool.len() as u64) as usize];
            if rng.gen_range(0..16) == 0 {
                return PageOp::Reclaim(ppn);
            }
            let lines = rng.gen_range(1..65) as u32;
            let prefix = u64::MAX >> (64 - lines);
            let misses = match rng.gen_range(0..6) {
                0 => 0,
                1 => u64::MAX,
                2 => prefix,
                3 => rng.next_u64() & rng.next_u64() & prefix,
                _ => rng.next_u64() & prefix,
            };
            let kind = if rng.gen_range(0..5) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            PageOp::Touch { ppn, misses, kind }
        })
        .collect()
}

/// What one pipeline produced for a stream: the hot `(op, line, ppn)`
/// sequence and the pages resolved from it.
#[derive(PartialEq, Debug, Default)]
struct PipelineOut {
    hot: Vec<(usize, u32, Ppn)>,
    resolved: Vec<Option<HotPage>>,
}

/// A pipeline with `pool` mapped, except every fifth frame, so both the
/// resolved and the dropped hot-page paths run.
fn mapped_pipeline(threshold: u32, channels: usize, pool: &[Ppn]) -> McPipeline {
    let mut mc = McPipeline::with_channels(
        HpdConfig::with_threshold(threshold),
        RptCacheConfig::default(),
        channels,
    )
    .unwrap();
    for (i, &ppn) in pool.iter().enumerate() {
        if i % 5 != 0 {
            mc.pte_set(Pid::new(1 + i as u16 % 3), Vpn::new(0x1000 + i as u64), ppn);
        }
    }
    mc
}

/// Feeds `ops` through the page path: one `on_page_misses` per touch,
/// then `resolve_hot` for each fired line in line order.
fn run_page_path(mc: &mut McPipeline, ops: &[PageOp]) -> PipelineOut {
    let mut out = PipelineOut::default();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            PageOp::Touch { ppn, misses, kind } => {
                let mut fired = mc.on_page_misses(ppn, misses, kind);
                assert_eq!(fired & !misses, 0, "only missed lines can fire");
                while fired != 0 {
                    let line = fired.trailing_zeros();
                    fired &= fired - 1;
                    out.hot.push((i, line, ppn));
                    let now = Nanos::from_nanos((i * 64) as u64 + u64::from(line));
                    out.resolved
                        .push(mc.resolve_hot(ppn, now, &mut NopRecorder));
                }
            }
            PageOp::Reclaim(ppn) => mc.on_page_reclaimed(ppn),
        }
    }
    out
}

/// Feeds `ops` line by line: one single-bit `on_page_misses` call per
/// missed line, resolving each line that fires at once.
fn run_single_bits(mc: &mut McPipeline, ops: &[PageOp]) -> PipelineOut {
    let mut out = PipelineOut::default();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            PageOp::Touch { ppn, misses, kind } => {
                for line in (0..64).filter(|j| misses >> j & 1 == 1) {
                    if mc.on_page_misses(ppn, 1 << line, kind) != 0 {
                        out.hot.push((i, line, ppn));
                        let now = Nanos::from_nanos((i * 64) as u64 + u64::from(line));
                        out.resolved
                            .push(mc.resolve_hot(ppn, now, &mut NopRecorder));
                    }
                }
            }
            PageOp::Reclaim(ppn) => mc.on_page_reclaimed(ppn),
        }
    }
    out
}

/// Feeds `ops` line by line through one behavioural HPD table per
/// channel, built with the pipeline's per-channel threshold. Line `j` of
/// page `ppn` goes to the table of its address, `ppn.line(j) % channels`,
/// not by the pipeline's lane masks. Returns the hot `(op, line, ppn)`
/// sequence and the tables' merged counters.
fn run_hpd_lines(
    threshold: u32,
    channels: usize,
    ops: &[PageOp],
) -> (Vec<(usize, u32, Ppn)>, HpdStats) {
    let per_channel = HpdConfig::with_threshold((threshold / channels as u32).max(1));
    let mut hpds: Vec<_> = (0..channels)
        .map(|_| HotPageDetector::new(per_channel).unwrap())
        .collect();
    let mut hot = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            PageOp::Touch { ppn, misses, kind } => {
                for line in (0..64u8).filter(|j| misses >> j & 1 == 1) {
                    let channel = (ppn.line(line).raw() % channels as u64) as usize;
                    if let Some(p) = hpds[channel].on_miss(ppn.line(line), kind) {
                        hot.push((i, u32::from(line), p));
                    }
                }
            }
            PageOp::Reclaim(ppn) => hpds.iter_mut().for_each(|h| h.invalidate(ppn)),
        }
    }
    let mut stats = HpdStats::default();
    hpds.iter().for_each(|h| stats.merge(h.stats()));
    (hot, stats)
}

#[test]
fn page_path_matches_line_by_line_references() {
    for threshold in [1u32, 2, 8, 64] {
        for channels in [1usize, 2, 3, 4] {
            let seed = u64::from(threshold) * 16 + channels as u64;
            let mut rng = SplitMix64::seed_from_u64(seed);
            // 16 frames per set against 16 ways: the sets fill but never
            // evict.
            let pool = page_pool(&mut rng, 16);
            let ops = page_ops(&mut rng, &pool, 4_000);
            let mut page = mapped_pipeline(threshold, channels, &pool);
            let mut single = mapped_pipeline(threshold, channels, &pool);
            let got = run_page_path(&mut page, &ops);
            let want = run_single_bits(&mut single, &ops);
            let (lines, stats) = run_hpd_lines(threshold, channels, &ops);
            let cell = format!("threshold {threshold} channels {channels}");
            assert!(!got.hot.is_empty(), "{cell}: stream too cold");
            assert!(got.resolved.iter().any(Option::is_none), "{cell}");
            assert_eq!(got.hot, lines, "{cell}: vs behavioural line loop");
            assert_eq!(page.hpd_stats(), stats, "{cell}");
            assert_eq!(got, want, "{cell}: vs single bits");
            assert_eq!(page.ledger(), single.ledger(), "{cell}");
            assert_eq!(page.rpt().stats(), single.rpt().stats(), "{cell}");
        }
    }
}

#[test]
fn page_path_matches_line_by_line_references_under_eviction_pressure() {
    for threshold in [1u32, 2, 8, 64] {
        for channels in [1usize, 2, 3, 4] {
            let seed = 1_000 + u64::from(threshold) * 16 + channels as u64;
            let mut rng = SplitMix64::seed_from_u64(seed);
            // 24 frames per set against 16 ways: constant eviction, so the
            // tables' LRU victim choice is compared too.
            let pool = page_pool(&mut rng, 24);
            let ops = page_ops(&mut rng, &pool, 4_000);
            let mut page = mapped_pipeline(threshold, channels, &pool);
            let mut single = mapped_pipeline(threshold, channels, &pool);
            let got = run_page_path(&mut page, &ops);
            let want = run_single_bits(&mut single, &ops);
            let (lines, stats) = run_hpd_lines(threshold, channels, &ops);
            let cell = format!("threshold {threshold} channels {channels}");
            assert!(stats.cold_evictions + stats.sent_evictions > 0, "{cell}");
            assert_eq!(got.hot, lines, "{cell}: vs behavioural line loop");
            assert_eq!(page.hpd_stats(), stats, "{cell}");
            assert_eq!(got, want, "{cell}: vs single bits");
            assert_eq!(page.ledger(), single.ledger(), "{cell}");
            assert_eq!(page.rpt().stats(), single.rpt().stats(), "{cell}");
        }
    }
}

/// One op of the RPT differential stream.
enum RptOp {
    Set(Pid, Vpn, Ppn),
    Clear(Ppn),
    Lookup(Ppn),
}

/// Generates a seeded op mix over a small frame population (so cache
/// evictions, remaps and tombstones all occur).
fn rpt_ops(seed: u64, frames: u64, n: usize) -> Vec<RptOp> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let ppn = Ppn::new(rng.gen_range(0..frames));
        match rng.gen_range(0..10) {
            0..=2 => {
                // Non-kernel PIDs and VPNs in the packed entry's fields,
                // their largest values included.
                let pid = match rng.gen_range(0..8) {
                    0 => u16::MAX,
                    _ => 1 + rng.gen_range(0..100) as u16,
                };
                let vpn = match rng.gen_range(0..8) {
                    0 => (1 << RPT_VPN_BITS) - 1,
                    _ => rng.gen_range(0..1 << RPT_VPN_BITS),
                };
                ops.push(RptOp::Set(Pid::new(pid), Vpn::new(vpn), ppn));
            }
            3 => ops.push(RptOp::Clear(ppn)),
            _ => ops.push(RptOp::Lookup(ppn)),
        }
    }
    ops
}

/// A cached way of the reference RPT: frame, mapping (`None`: a cleared
/// PTE), dirty.
type RefWay = (Ppn, Option<RptEntry>, bool);

/// The behavioural RPT's contract as a plain model: per-set lists of
/// unpacked ways, most recently used first, in front of a DRAM map. A
/// hit moves a way to the front; a miss inserts at the front and, in a
/// full set, writes the last way back if it is dirty.
struct RefRpt {
    sets: Vec<Vec<RefWay>>,
    ways: usize,
    dram: BTreeMap<Ppn, RptEntry>,
    stats: RptStats,
}

impl RefRpt {
    fn new(geometry: RptCacheConfig) -> Self {
        RefRpt {
            sets: vec![Vec::new(); geometry.sets().unwrap()],
            ways: geometry.ways,
            dram: BTreeMap::new(),
            stats: RptStats::default(),
        }
    }

    /// Takes `ppn`'s way out of its set if cached; else makes room for
    /// it, writing back the LRU way of a full set.
    fn take(&mut self, ppn: Ppn) -> Option<RefWay> {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(ppn.raw() % n) as usize];
        if let Some(at) = set.iter().position(|w| w.0 == ppn) {
            return Some(set.remove(at));
        }
        if set.len() == self.ways {
            let (old, entry, dirty) = set.pop().unwrap();
            if dirty {
                match entry {
                    Some(e) => self.dram.insert(old, e),
                    None => self.dram.remove(&old),
                };
                self.stats.dram_writebacks += 1;
            }
        }
        None
    }

    fn put_front(&mut self, way: RefWay) {
        let n = self.sets.len() as u64;
        self.sets[(way.0.raw() % n) as usize].insert(0, way);
    }

    fn lookup(&mut self, ppn: Ppn) -> Option<RptEntry> {
        self.stats.lookups += 1;
        let way = match self.take(ppn) {
            Some(way) => {
                self.stats.hits += 1;
                way
            }
            None => {
                self.stats.dram_reads += 1;
                (ppn, self.dram.get(&ppn).copied(), false)
            }
        };
        self.put_front(way);
        if way.1.is_none() {
            self.stats.unresolved += 1;
        }
        way.1
    }

    fn update(&mut self, ppn: Ppn, entry: Option<RptEntry>) {
        self.stats.updates += 1;
        self.take(ppn);
        self.put_front((ppn, entry, true));
    }
}

#[test]
fn packed_rpt_matches_the_unpacked_reference_op_by_op() {
    // A tiny cache (2 sets × 4 ways) over 256 frames: heavy eviction, so
    // write-backs, DRAM reads and tombstones all occur on every seed.
    let geometry = RptCacheConfig {
        capacity_bytes: 8 * RPT_ENTRY_BYTES,
        ways: 4,
    };
    for seed in [3u64, 17, 404] {
        let mut behav = ReversePageTable::new(geometry).unwrap();
        let mut reference = RefRpt::new(geometry);
        let mut lookups = 0u64;
        for op in rpt_ops(seed, 256, 30_000) {
            match op {
                RptOp::Set(pid, vpn, ppn) => {
                    behav.pte_set(pid, vpn, ppn);
                    reference.update(
                        ppn,
                        Some(RptEntry {
                            pid,
                            vpn,
                            flags: PageFlags::default(),
                        }),
                    );
                }
                RptOp::Clear(ppn) => {
                    behav.pte_clear(Pid::new(1), Vpn::new(0), ppn);
                    reference.update(ppn, None);
                }
                RptOp::Lookup(ppn) => {
                    lookups += 1;
                    assert_eq!(
                        behav.lookup(ppn),
                        reference.lookup(ppn),
                        "seed {seed}: lookup({ppn:?}) diverged from the reference"
                    );
                }
            }
            assert_eq!(behav.stats(), reference.stats, "seed {seed}: counters");
        }
        let stats = behav.stats();
        assert!(
            stats.hits > 0 && stats.dram_reads > 0 && stats.dram_writebacks > 0,
            "seed {seed}: {stats:?}"
        );
        assert!(lookups > 10_000, "op mix starved the comparison");
    }
}

#[test]
fn rpt_packing_is_lossless_for_the_whole_op_stream() {
    // Every entry the differential stream produces must survive the
    // 64-bit packing the RPT stores (16-bit PID, 40-bit VPN, flags).
    let mut rng = SplitMix64::seed_from_u64(55);
    for _ in 0..10_000 {
        let e = RptEntry {
            pid: Pid::new(rng.gen_range(0..u64::from(u16::MAX) + 1) as u16),
            vpn: Vpn::new(rng.gen_range(0..1 << RPT_VPN_BITS)),
            flags: PageFlags {
                shared: rng.gen_range(0..2) == 1,
                huge: rng.gen_range(0..2) == 1,
            },
        };
        assert_eq!(PackedRptEntry::pack(e).unpack(), e);
    }
}
