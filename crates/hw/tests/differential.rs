//! Differential tests: the RTL models against the behavioural models.
//!
//! The paper's feasibility argument (§VI-F) rests on the Verilog
//! modules implementing the same function as the software models. Here
//! the cycle-stepped RTL models (`hopp_hw::rtl`, `hopp_hw::rtl_rpt`)
//! and the behavioural models (`hopp_hw::hpd`, `hopp_hw::rpt`) are
//! driven with identical seeded streams and their outputs compared:
//!
//! * HPD: identical hot-page emission sequences while set pressure
//!   stays below the associativity (no replacement ties to break
//!   differently), and emission volume within ±25% under thrash;
//! * the MC pipeline's page-granular path (`McPipeline::on_page_misses`,
//!   one HPD run per channel per page touch) against line-by-line loops
//!   over per-channel behavioural and RTL tables, routed by line address,
//!   and against single-bit `on_page_misses` calls: identical hot
//!   `(line, ppn)` sequences, HPD counters, resolved hot pages and
//!   bandwidth ledgers;
//! * RPT: identical lookup resolutions on arbitrary op streams — the
//!   replacement policies may cache different frames, but write-back
//!   keeps cache ∪ DRAM architecturally equal, so every lookup must
//!   resolve to the same mapping. The streams reach the edges of the
//!   packed entry's fields (PID `u16::MAX`, VPN `2^40 − 1`). The
//!   behavioural RPT, which stores packed words, also matches a plain
//!   model of unpacked entries in per-set LRU lists op by op: the same
//!   resolutions and the same counters (hits, DRAM reads, writebacks).

use hopp_ds::PageMap;
use hopp_hw::hpd::{HotPageDetector, HpdConfig, HpdStats};
use hopp_hw::rpt::{
    PackedRptEntry, ReversePageTable, RptCacheConfig, RptEntry, RptStats, RPT_ENTRY_BYTES,
    RPT_VPN_BITS,
};
use hopp_hw::rtl::HpdRtl;
use hopp_hw::rtl_rpt::{RptRtl, RptRtlResponse};
use hopp_hw::McPipeline;
use hopp_mem::PteListener;
use hopp_obs::NopRecorder;
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, HotPage, Nanos, PageFlags, Pid, Ppn, Vpn};

/// Drives one access through the RTL pipeline and drains it, so the
/// RTL retires ops in the same order the behavioural model applies
/// them (interleaved invalidates then hit the same table state).
fn feed(rtl: &mut HpdRtl, ppn: Ppn, line: u8, kind: AccessKind) -> Option<Ppn> {
    let entering = rtl.clock(Some((ppn.line(line), kind)));
    assert_eq!(entering.hot, None, "pipeline must be drained between ops");
    rtl.clock(None).hot
}

#[test]
fn hpd_models_emit_identical_sequences_without_eviction_pressure() {
    // Several thresholds × seeds; page population sized so every set
    // holds at most its associativity (16) — no victim selection, so
    // the two replacement schemes cannot diverge.
    for (threshold, seed) in [(1u32, 1u64), (2, 2), (4, 3), (8, 4), (64, 5)] {
        let config = HpdConfig::with_threshold(threshold);
        let mut behav = HotPageDetector::new(config).unwrap();
        let mut rtl = HpdRtl::new(config).unwrap();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut behav_hot = Vec::new();
        let mut rtl_hot = Vec::new();
        // 64 pages over 4 sets = 16 per set: exactly at capacity.
        for _ in 0..20_000 {
            let ppn = Ppn::new(rng.gen_range(0..64));
            let line = rng.gen_range(0..64) as u8;
            let kind = if rng.gen_range(0..4) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            behav_hot.extend(behav.on_miss(ppn.line(line), kind));
            rtl_hot.extend(feed(&mut rtl, ppn, line, kind));
        }
        assert_eq!(
            behav_hot, rtl_hot,
            "threshold {threshold} seed {seed}: emission sequences diverged"
        );
        assert_eq!(behav.stats().hot_pages, rtl.emitted());
    }
}

#[test]
fn hpd_models_agree_with_interleaved_invalidations() {
    let config = HpdConfig::with_threshold(4);
    let mut behav = HotPageDetector::new(config).unwrap();
    let mut rtl = HpdRtl::new(config).unwrap();
    let mut rng = SplitMix64::seed_from_u64(99);
    let mut behav_hot = Vec::new();
    let mut rtl_hot = Vec::new();
    for _ in 0..20_000 {
        let ppn = Ppn::new(rng.gen_range(0..64));
        if rng.gen_range(0..8) == 0 {
            // Reclaim notification: both tables drop the entry.
            behav.invalidate(ppn);
            rtl.invalidate(ppn);
            continue;
        }
        let line = rng.gen_range(0..64) as u8;
        behav_hot.extend(behav.on_miss(ppn.line(line), AccessKind::Read));
        rtl_hot.extend(feed(&mut rtl, ppn, line, AccessKind::Read));
    }
    assert!(!behav_hot.is_empty(), "stream too cold to compare anything");
    assert_eq!(behav_hot, rtl_hot);
}

#[test]
fn hpd_models_track_volume_under_eviction_pressure() {
    // 1024 pages hammering 64 entries: constant thrash. Exact LRU and
    // 4-bit aging pick different victims, but the Table II statistic
    // (emission volume) must stay within ±25%.
    for seed in [7u64, 21, 1234] {
        let config = HpdConfig::with_threshold(4);
        let mut behav = HotPageDetector::new(config).unwrap();
        let mut rtl = HpdRtl::new(config).unwrap();
        let mut rng = SplitMix64::seed_from_u64(seed);
        for _ in 0..60_000 {
            let ppn = Ppn::new(rng.gen_range(0..1024));
            let line = rng.gen_range(0..64) as u8;
            behav.on_miss(ppn.line(line), AccessKind::Read);
            rtl.clock(Some((ppn.line(line), AccessKind::Read)));
        }
        rtl.clock(None);
        let behav_hot = behav.stats().hot_pages;
        let lo = behav_hot - behav_hot / 4;
        let hi = behav_hot + behav_hot / 4;
        assert!(
            (lo..=hi).contains(&rtl.emitted()),
            "seed {seed}: rtl {} vs behavioural {behav_hot}",
            rtl.emitted()
        );
    }
}

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

/// One table per channel, built with the pipeline's per-channel
/// threshold.
fn channel_tables<T>(
    threshold: u32,
    channels: usize,
    new: fn(HpdConfig) -> hopp_types::Result<T>,
) -> Vec<T> {
    let per_channel = HpdConfig::with_threshold((threshold / channels as u32).max(1));
    (0..channels).map(|_| new(per_channel).unwrap()).collect()
}

/// Feeds `ops` line by line through per-channel `tables`, routing line
/// `j` of page `ppn` by its address, `ppn.line(j) % channels`, not by
/// the pipeline's lane masks; returns the hot `(op, line, ppn)`
/// sequence.
fn run_lines<T>(
    tables: &mut [T],
    ops: &[PageOp],
    miss: fn(&mut T, Ppn, u8, AccessKind) -> Option<Ppn>,
    reclaim: fn(&mut T, Ppn),
) -> Vec<(usize, u32, Ppn)> {
    let channels = tables.len() as u64;
    let mut hot = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            PageOp::Touch { ppn, misses, kind } => {
                for line in (0..64u8).filter(|j| misses >> j & 1 == 1) {
                    let channel = (ppn.line(line).raw() % channels) as usize;
                    if let Some(p) = miss(&mut tables[channel], ppn, line, kind) {
                        hot.push((i, u32::from(line), p));
                    }
                }
            }
            PageOp::Reclaim(ppn) => tables.iter_mut().for_each(|t| reclaim(t, ppn)),
        }
    }
    hot
}

/// [`run_lines`] over behavioural HPD tables; also returns their merged
/// counters.
fn run_hpd_lines(
    threshold: u32,
    channels: usize,
    ops: &[PageOp],
) -> (Vec<(usize, u32, Ppn)>, HpdStats) {
    let mut hpds = channel_tables(threshold, channels, HotPageDetector::new);
    let hot = run_lines(
        &mut hpds,
        ops,
        |h, ppn, line, kind| h.on_miss(ppn.line(line), kind),
        HotPageDetector::invalidate,
    );
    let mut stats = HpdStats::default();
    hpds.iter().for_each(|h| stats.merge(h.stats()));
    (hot, stats)
}

/// [`run_lines`] over RTL tables, each op drained before the next.
fn run_rtl_lines(threshold: u32, channels: usize, ops: &[PageOp]) -> Vec<(usize, u32, Ppn)> {
    let mut rtls = channel_tables(threshold, channels, HpdRtl::new);
    run_lines(&mut rtls, ops, feed, HpdRtl::invalidate)
}

#[test]
fn page_path_matches_line_by_line_references() {
    for threshold in [1u32, 2, 8, 64] {
        for channels in [1usize, 2, 3, 4] {
            let seed = u64::from(threshold) * 16 + channels as u64;
            let mut rng = SplitMix64::seed_from_u64(seed);
            // 16 frames per set: the sets fill but never evict, so the
            // RTL's aging replacement has no victim to pick differently.
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
            assert_eq!(
                got.hot,
                run_rtl_lines(threshold, channels, &ops),
                "{cell}: vs RTL"
            );
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
            // 24 frames per set against 16 ways: constant eviction, where
            // the RTL's replacement differs, so only the behavioural
            // tables are a line-by-line reference here.
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
    dram: PageMap<Ppn, RptEntry>,
    stats: RptStats,
}

impl RefRpt {
    fn new(geometry: RptCacheConfig) -> Self {
        RefRpt {
            sets: vec![Vec::new(); geometry.sets().unwrap()],
            ways: geometry.ways,
            dram: PageMap::new(),
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
                    None => self.dram.remove(old),
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
                (ppn, self.dram.get(ppn).copied(), false)
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

/// Applies queued RTL write-backs to the shadow DRAM copy — the memory
/// controller's write port, modelled as immediate service.
fn drain_writebacks(rtl: &mut RptRtl, shadow: &mut PageMap<Ppn, RptEntry>) {
    while let Some(wb) = rtl.pop_writeback() {
        match wb.entry {
            Some(packed) => {
                shadow.insert(wb.ppn, packed.unpack());
            }
            None => {
                shadow.remove(wb.ppn);
            }
        }
    }
}

/// Resolves one RTL lookup to the behavioural `Option<RptEntry>`
/// contract: a cached tombstone surfaces as a kernel-owned hit, a miss
/// is answered from the shadow DRAM.
fn rtl_lookup(rtl: &mut RptRtl, shadow: &mut PageMap<Ppn, RptEntry>, ppn: Ppn) -> Option<RptEntry> {
    match rtl.lookup(ppn) {
        RptRtlResponse::Hit(e) if e.pid == Pid::KERNEL => None,
        RptRtlResponse::Hit(e) => Some(e),
        RptRtlResponse::Miss => {
            // The DRAM read must see any dirty eviction the behavioural
            // model would already have folded into its own DRAM copy.
            drain_writebacks(rtl, shadow);
            let entry = shadow.get(ppn).copied();
            rtl.dram_response(ppn, entry)
        }
    }
}

#[test]
fn rpt_models_resolve_every_lookup_identically() {
    // Tiny caches (2 sets × 4 ways) over 256 frames: heavy eviction, so
    // the two replacement policies constantly cache different frames —
    // yet every lookup must resolve to the same architectural mapping.
    let geometry = RptCacheConfig {
        capacity_bytes: 8 * RPT_ENTRY_BYTES,
        ways: 4,
    };
    for seed in [3u64, 17, 404] {
        let mut behav = ReversePageTable::new(geometry).unwrap();
        let mut reference = RefRpt::new(geometry);
        let mut rtl = RptRtl::new(geometry).unwrap();
        let mut shadow: PageMap<Ppn, RptEntry> = PageMap::new();
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
                    rtl.pte_set(pid, vpn, ppn);
                }
                RptOp::Clear(ppn) => {
                    behav.pte_clear(Pid::new(1), Vpn::new(0), ppn);
                    reference.update(ppn, None);
                    rtl.pte_clear(ppn);
                }
                RptOp::Lookup(ppn) => {
                    lookups += 1;
                    let want = behav.lookup(ppn);
                    assert_eq!(
                        reference.lookup(ppn),
                        want,
                        "seed {seed}: lookup({ppn:?}) diverged from the reference"
                    );
                    let got = rtl_lookup(&mut rtl, &mut shadow, ppn);
                    assert_eq!(got, want, "seed {seed}: lookup({ppn:?}) diverged");
                }
            }
            assert_eq!(behav.stats(), reference.stats, "seed {seed}: counters");
            drain_writebacks(&mut rtl, &mut shadow);
        }
        let stats = behav.stats();
        assert!(
            stats.hits > 0 && stats.dram_reads > 0 && stats.dram_writebacks > 0,
            "seed {seed}: {stats:?}"
        );
        assert!(lookups > 10_000, "op mix starved the comparison");
        // Different victims, similar locality: hit rates land close.
        let delta = (behav.stats().hit_rate() - rtl.hit_rate()).abs();
        assert!(
            delta < 0.2,
            "seed {seed}: hit rates diverged by {delta} (behav {}, rtl {})",
            behav.stats().hit_rate(),
            rtl.hit_rate()
        );
    }
}

#[test]
fn rpt_packing_is_lossless_for_the_whole_op_stream() {
    // Every entry the differential stream produces must survive the
    // 64-bit packing the RTL stores (16-bit PID, 40-bit VPN, flags).
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
