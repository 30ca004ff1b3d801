//! Component-level throughput benchmarks.
//!
//! These measure the hot loops of the simulation stack — the structures
//! the paper implements in hardware (HPD, RPT cache) must sustain
//! LLC-miss rate in the simulator, and the software side (STT,
//! three-tier classification) must sustain the hot-page rate.
//!
//! The harness is a plain `main` driven by `std::time::Instant` because
//! the build environment has no crates.io access for `criterion`; each
//! loop reports ns/op and Mops/s over a fixed iteration count. Run with
//! `cargo bench --bench components`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hopp_core::stt::{StreamTrainingTable, SttConfig};
use hopp_core::three_tier::{ThreeTier, TierConfig};
use hopp_hw::{HotPageDetector, HpdConfig, McPipeline, ReversePageTable, RptCacheConfig};
use hopp_kernel::{LruLinks, LruTier};
use hopp_mem::{AddressSpace, FrameAllocator, PteListener};
use hopp_obs::NopRecorder;
use hopp_scn::hst::{self, HstHeader};
use hopp_trace::llc::{LastLevelCache, LlcConfig};
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, HotPage, Nanos, PageFlags, Pid, Ppn, Vpn, LINES_PER_PAGE, PAGE_SIZE};
use hopp_workloads::{WorkloadKind, HEAP_BASE};

/// Times `iters` calls of `op` and prints a one-line report.
fn bench(name: &str, iters: u64, op: impl FnMut(u64)) {
    bench_ops(name, iters, 1, op);
}

/// Like [`bench`] for a call that does `ops` units of work: the report
/// is per unit.
fn bench_ops(name: &str, iters: u64, ops: u64, mut op: impl FnMut(u64)) {
    // Warm-up pass so cold caches don't pollute the measurement.
    for i in 0..iters / 10 {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    let elapsed = start.elapsed();
    let ns_per_op = elapsed.as_nanos() as f64 / (iters * ops) as f64;
    println!(
        "{name:<28} {:>10} iters  {ns_per_op:>9.1} ns/op  {:>8.2} Mops/s",
        iters * ops,
        1e3 / ns_per_op
    );
}

/// A cache built the way `Simulator::new` builds it: every page the
/// row touches is tracked for the presence bound.
fn tracked(config: LlcConfig, pages: u64) -> LastLevelCache {
    LastLevelCache::with_tracked_pages(config, pages as usize).unwrap()
}

fn bench_llc() {
    let mut llc = tracked(LlcConfig::default_server(), 100_000);
    bench("llc/access_stream", 2_000_000, |i| {
        black_box(llc.access(Ppn::new(i % 100_000).line((i % 64) as u8), AccessKind::Read));
    });
    // The simulator's own geometry (2 MB, 16-way: 512 pages fit).
    // Round-robin walks over twice that many hot pages keep every set
    // full and make every line miss.
    let config = LlcConfig::simulator_default();
    let hot = 2 * config.capacity_bytes as u64 / PAGE_SIZE as u64;
    let cold = 200_000;
    let mut llc = tracked(config, hot + cold);
    for page in 0..hot {
        llc.access_lines(Ppn::new(page), LINES_PER_PAGE as u8);
    }
    // What reclaim does: drop a page none of whose lines are cached. The
    // pages come from outside the hot set, so the sets stay full.
    bench("llc/invalidate_page_cold", cold, |i| {
        llc.invalidate_page(black_box(Ppn::new(hot + i)));
    });
    assert_eq!(llc.stats().invalidations, 0, "cold pages have no lines");
    // The simulator's page-granular path: one op is a whole 64-line page.
    bench("llc/access_lines", 200_000, |i| {
        black_box(llc.access_lines(Ppn::new(i % hot), LINES_PER_PAGE as u8));
    });
    // Quicksort's shape: 40-line touches with about a third of the lines
    // resident, so the page is not proven absent and every line takes
    // the per-set search. Pages `g + groups · k` share block `g`. In
    // each block, pages k = 0..16 walk 40 lines round-robin, and after
    // each round page 16 touches lines 0..27 one by one (the same code
    // on both sides of any change to `access_lines`). Sets 0..27 then
    // cycle 17 tags through 16 ways and always miss; sets 27..40 keep
    // the 16 walked pages and always hit: 27 misses and 13 hits a walk.
    let groups = config.sets().unwrap() as u64 / LINES_PER_PAGE as u64;
    let mut llc = tracked(config, groups * 17);
    bench("llc/access_lines_partial", 300_000, |i| {
        let (group, k) = (i % groups, i / groups % 16);
        black_box(llc.access_lines(Ppn::new(group + groups * k), 40));
        if k == 15 {
            let evictor = Ppn::new(group + groups * 16);
            for line in 0..27 {
                black_box(llc.access(evictor.line(line), AccessKind::Read));
            }
        }
    });
    let stats = llc.stats();
    // 16 × 13 hits in 16 × 40 + 27 lines a round.
    assert_eq!(100 * stats.hits / stats.total(), 31, "{stats:?}");
    // Quicksort's other walks that take the per-line loop: 40-line
    // re-walks whose lines all hit. In each block, `depth + 1` pages
    // walk round-robin, so every line hits `depth` ways deep.
    for depth in [1, 3, 7, 15] {
        let mut llc = tracked(config, groups * (depth + 1));
        for page in 0..groups * (depth + 1) {
            llc.access_lines(Ppn::new(page), 40);
        }
        bench(&format!("llc/rewalk_hit/{depth}"), 200_000, |i| {
            black_box(llc.access_lines(Ppn::new(i % (groups * (depth + 1))), 40));
        });
        assert_eq!(
            llc.stats().misses,
            groups * (depth + 1) * 40,
            "depth {depth}"
        );
    }
}

fn bench_hpd() {
    let mut hpd = HotPageDetector::new(HpdConfig::default()).unwrap();
    bench("hpd/on_miss", 2_000_000, |i| {
        black_box(hpd.on_miss(
            Ppn::new(i / 8 % 4_096).line((i % 64) as u8),
            AccessKind::Read,
        ));
    });
    // The simulator's page-granular MC path, in Quicksort's shape: one
    // op is a 40-line page touch with 27 LLC misses.
    let misses = (0..40).filter(|j| j % 3 != 2).fold(0u64, |m, j| m | 1 << j);
    assert_eq!(misses.count_ones(), 27);
    let mut mc = McPipeline::new(HpdConfig::default(), RptCacheConfig::default()).unwrap();
    bench("mc/on_page_misses", 1_000_000, |i| {
        black_box(mc.on_page_misses(Ppn::new(i % 4_096), misses, AccessKind::Read));
    });
}

fn bench_rpt() {
    let mut rpt = ReversePageTable::new(RptCacheConfig::default()).unwrap();
    rpt.bootstrap((0..16_384u64).map(|i| (Ppn::new(i), Pid::new(1), Vpn::new(i))));
    bench("rpt/lookup", 2_000_000, |i| {
        black_box(rpt.lookup(Ppn::new(i % 16_384)));
    });
    // The kernel's PTE hooks over the same frames: each frame is mapped
    // and later cleared, so most updates miss and write a dirty way back.
    bench("rpt/pte_update", 2_000_000, |i| {
        let ppn = Ppn::new(i / 2 * 7_919 % 16_384);
        if i % 2 == 0 {
            rpt.pte_set(Pid::new(2), Vpn::new(i), ppn);
        } else {
            rpt.pte_clear(Pid::new(2), Vpn::new(i - 1), ppn);
        }
    });
    black_box(rpt.stats());
}

fn bench_mem() {
    // A page table with 65,536 present pages from the workloads' heap
    // base, looked up in a shuffled order, as the access path visits an
    // `AddressSpace`'s pages.
    const PAGES: u64 = 65_536;
    let mut space = AddressSpace::new(Pid::new(1));
    let mut order: Vec<Vpn> = (0..PAGES).map(|i| Vpn::new(HEAP_BASE + i)).collect();
    for (i, &vpn) in order.iter().enumerate() {
        let displaced = space.map_present(vpn, Ppn::from_index(i), &mut ());
        assert!(displaced.is_none());
    }
    SplitMix64::seed_from_u64(0xA7).shuffle(&mut order);
    bench("mem/lookup", 2_000_000, |i| {
        black_box(space.lookup(order[(i % PAGES) as usize]));
    });
}

fn bench_stt() {
    let mut stt = StreamTrainingTable::new(SttConfig::default()).unwrap();
    let mut tiers = ThreeTier::new(TierConfig::default());
    bench("stt/observe_and_classify", 1_000_000, |i| {
        // Four interleaved strided streams, as a busy app would emit.
        let stream = i % 4;
        let hot = HotPage {
            pid: Pid::new(1),
            vpn: Vpn::new(stream * 1_000_000 + (i / 4) * (stream + 1)),
            flags: PageFlags::default(),
            at: Nanos::from_nanos(i),
        };
        if let Some(window) = stt.observe(&hot, &mut NopRecorder) {
            black_box(tiers.predict(&window));
        }
    });
    // Every entry live: 64 strided streams over two pids, far apart, so
    // each hot page is matched against all 64 entries (32 of its pid).
    // The pages run on through the warm-up pass instead of restarting.
    let mut stt = StreamTrainingTable::new(SttConfig::default()).unwrap();
    let mut i = 0u64;
    bench("stt/observe_full_table", 1_000_000, |_| {
        i += 1;
        let stream = i % 64;
        let hot = HotPage {
            pid: if stream.is_multiple_of(2) {
                Pid::new(1)
            } else {
                Pid::new(2)
            },
            vpn: Vpn::new(stream * 1_000_000 + (i / 64) * (stream % 4 + 1)),
            flags: PageFlags::default(),
            at: Nanos::from_nanos(i),
        };
        black_box(stt.observe(&hot, &mut NopRecorder).map(|w| w.vpn_a()));
    });
    assert_eq!(stt.active_streams(), 64);
    assert_eq!(stt.stats().evictions, 0);
}

fn bench_frames() {
    // A full 64K-frame pool, as under reclaim: each op evicts the least
    // recently used frame, frees it, hands it to a new page, puts that
    // on the list and touches a resident page elsewhere.
    const FRAMES: u64 = 65_536;
    let mut frames = FrameAllocator::new(FRAMES as usize);
    let mut lru = LruLinks::new(FRAMES as usize, 2);
    for vpn in 0..FRAMES {
        let ppn = frames.alloc(Pid::new(1), Vpn::new(vpn)).unwrap();
        lru.insert(1, ppn, LruTier::Active);
    }
    bench("frames/evict_cycle", 2_000_000, |i| {
        let (victim, _) = lru.pop_evict(1).unwrap();
        frames.free(victim).unwrap();
        let ppn = frames.alloc(Pid::new(1), Vpn::new(FRAMES + i)).unwrap();
        lru.insert(1, ppn, LruTier::Active);
        lru.touch(1, Ppn::new(i * 7_919 % FRAMES));
        black_box(frames.owner(ppn));
    });
}

fn bench_scn() {
    // The benchmark's pagerank-hst-hopp recording (GraphX-PR at 65,536
    // pages, seed 42): one op is one decoded record of a whole-file
    // `read_file`, header, checksum and trailer checks included.
    let path = std::env::temp_dir().join(format!("hopp-components-{}.hst", std::process::id()));
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: 65_536,
        seed: 42,
        source: WorkloadKind::GraphPr.name().to_string(),
    };
    let mut stream = WorkloadKind::GraphPr.build(header.pid, header.footprint_pages, header.seed);
    let records = hst::record_file(&path, &header, &mut *stream).unwrap();
    let decode = |path: &Path| hst::read_file(path).unwrap().accesses.len() as u64;
    assert_eq!(decode(&path), records);
    bench_ops("scn/read_file", 50, records, |_| {
        black_box(decode(black_box(&path)));
    });
    std::fs::remove_file(&path).ok();
}

fn main() {
    bench_llc();
    bench_hpd();
    bench_rpt();
    bench_mem();
    bench_stt();
    bench_frames();
    bench_scn();
}
