//! Steady-state allocation regression test (ISSUE 4, satellite 3).
//!
//! The simulator's page tables allocate a chunk once per 1,024-page
//! range and never free it while the run lasts, its frame table is sized
//! once at construction, and the per-tick
//! scratch buffers (`prefetch_buf`, the HoPP completion buffer, the
//! baseline completion queue) are pre-sized and reused. This test pins
//! that property end to end: once a fixed working set has been swept a
//! few times, *additional* sweeps must allocate almost nothing. HoPP's
//! training stack is held to the same budget, and fed directly it must
//! allocate nothing at all once warm.
//!
//! Before the move to indexed tables every fault churned `BTreeMap` nodes
//! (in-flight maps, LRU stamp maps, swap-slot contents), so extra
//! passes allocated in proportion to their fault count and this bound
//! failed by an order of magnitude.

// A `GlobalAlloc` impl is unavoidably `unsafe`; this one only counts
// and delegates to the system allocator. Test-only code.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hopp_core::{HoppConfig, HoppEngine, PrefetchOrder};
use hopp_obs::NopRecorder;
use hopp_sim::{AppSpec, SimConfig, Simulator, SystemConfig};
use hopp_trace::AccessStream;
use hopp_types::{HotPage, Nanos, PageAccess, PageFlags, Pid, Vpn};

/// Counts every heap allocation made by this test binary, per thread.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread so that tests
    /// running in parallel do not count each other's allocations; the
    /// `const` initialiser means reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the current thread's allocation count.
fn count_alloc() {
    // `try_with` fails only while the thread is being torn down, when
    // nothing is measuring.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to the system allocator; the counter has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sweeps a fixed working set of `pages` pages sequentially, `passes`
/// times. The footprint never changes after the first pass, so every
/// later pass exercises pure steady-state fault/reclaim churn.
struct Sweep {
    pid: Pid,
    pages: u64,
    remaining: u64,
    pos: u64,
}

impl Sweep {
    fn new(pid: Pid, pages: u64, passes: u64) -> Self {
        Sweep {
            pid,
            pages,
            remaining: pages * passes,
            pos: 0,
        }
    }
}

impl AccessStream for Sweep {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let access = PageAccess::read(self.pid, Vpn::new(self.pos));
        self.pos = (self.pos + 1) % self.pages;
        Some(access)
    }

    fn name(&self) -> &str {
        "sweep"
    }
}

const PAGES: u64 = 512;

/// Allocations made by one full construct-and-run cycle.
fn allocs_for(system: SystemConfig, passes: u64) -> u64 {
    let mut config = SimConfig::with_system(system);
    // Timeline samples grow a Vec with run length by design; disable
    // them so the measurement isolates the hot path.
    config.timeline_every = 0;
    // Half the working set fits locally: every pass keeps faulting.
    let apps = vec![AppSpec {
        pid: Pid::new(1),
        stream: Box::new(Sweep::new(Pid::new(1), PAGES, passes)),
        limit_pages: PAGES as usize / 2,
    }];
    let sim = Simulator::new(config, apps).expect("config is valid");
    let before = ALLOCS.with(Cell::get);
    let report = sim.run().expect("run succeeds");
    let after = ALLOCS.with(Cell::get);
    if passes > 1 {
        assert!(report.counters.major_faults > 0, "workload must swap");
    }
    after - before
}

#[test]
fn fault_path_extra_passes_do_not_grow_allocations() {
    let system = SystemConfig::Baseline(hopp_sim::BaselineKind::Fastswap);
    // Warm up once so lazily-initialized runtime state (stdio locks,
    // etc.) does not pollute the first measurement.
    let _ = allocs_for(system, 1);
    let short = allocs_for(system, 4);
    let long = allocs_for(system, 12);
    // The long run does 3x the passes (and 3x the faults) of the short
    // run on the identical working set. The fault path's collections
    // (swap-slot records, LRU links, page tables, completion queue) and
    // scratch buffers are all warm after the first pass, so the extra
    // 8 passes may only add a small fraction on top: amortized
    // slab/heap doublings, nothing per-tick. BTreeMap-era node churn
    // made `long` scale ~linearly with the pass count.
    let budget = short / 2;
    assert!(
        long.saturating_sub(short) <= budget,
        "steady-state passes must not allocate per tick: \
         4 passes = {short} allocs, 12 passes = {long} allocs \
         (growth {} > budget {budget})",
        long - short,
    );
}

#[test]
fn hopp_per_fault_allocations_stay_bounded() {
    // HoPP's training stack is fixed-size and writes its orders into a
    // reused buffer, so its extra passes get the same flat budget as the
    // fault path above: amortized growth of the shared collections,
    // nothing per hot page or per prefetch.
    let system = SystemConfig::hopp_default();
    let _ = allocs_for(system, 1);
    let short = allocs_for(system, 4);
    let long = allocs_for(system, 12);
    let budget = short / 2;
    assert!(
        long.saturating_sub(short) <= budget,
        "hopp steady-state passes must not allocate per hot page: \
         4 passes = {short} allocs, 12 passes = {long} allocs \
         (growth {} > budget {budget})",
        long - short,
    );
}

/// Hot page `k` of a synthetic mix: three streams per phase — a
/// stride-3 simple stream, a ladder whose strides cycle (2, 12, 7) and
/// a ripple (a stride-1 scan interleaved with pseudo-random hops that
/// return) — plus a scattered page every fourth slot. Every 480 hot
/// pages the phase moves all three streams to fresh address ranges, so
/// the STT keeps recycling its entries.
fn mixed_hot_page(k: u64) -> HotPage {
    let phase = k / 480;
    let i = (k % 480) / 4;
    let base = 1_000_000 * (phase + 1);
    let hash = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24;
    let (pid, vpn) = match k % 4 {
        0 => (1, base + 3 * i),
        1 => (
            1,
            base + 500_000 + 21 * (i / 3) + [0, 2, 14][(i % 3) as usize],
        ),
        2 => (
            2,
            base + 2 * (i / 3) + [0, 1, 11 + hash % 40][(i % 3) as usize],
        ),
        // Scattered: each its own short-lived STT entry.
        _ => (2, hash % (1 << 36)),
    };
    HotPage {
        pid: Pid::new(pid),
        vpn: Vpn::new(vpn),
        flags: PageFlags::default(),
        at: Nanos::from_nanos(k * 500),
    }
}

/// Feeds hot pages `range` through `on_hot_page_into` with one reused
/// buffer, answering every order with timeliness feedback that cycles
/// through too-late, in-band and too-early samples.
fn drive(
    engine: &mut HoppEngine,
    orders: &mut Vec<PrefetchOrder>,
    range: std::ops::Range<u64>,
) -> u64 {
    let mut issued = 0;
    for k in range {
        orders.clear();
        engine.on_hot_page_into(&mixed_hot_page(k), &mut NopRecorder, orders);
        for (j, o) in orders.iter().enumerate() {
            let t = [1, 100, 10_000][(k as usize + j) % 3];
            engine.on_timeliness(o.stream, Nanos::from_micros(t));
        }
        issued += orders.len() as u64;
    }
    issued
}

#[test]
fn hopp_engine_hot_pages_are_allocation_free() {
    let mut engine = HoppEngine::try_new(HoppConfig::default()).expect("valid HoPP configuration");
    let mut orders = Vec::new();
    // Warm-up: the order buffer and LSP's vote lists reach their
    // working capacity.
    drive(&mut engine, &mut orders, 0..20_000);
    let before_stats = (engine.stt_stats(), engine.tier_stats());
    let before = ALLOCS.with(Cell::get);
    let issued = drive(&mut engine, &mut orders, 20_000..80_000);
    let allocs = ALLOCS.with(Cell::get) - before;

    // The mix really exercised every path being measured.
    let (stt, tiers) = (engine.stt_stats(), engine.tier_stats());
    assert!(issued > 10_000, "{issued} orders");
    assert!(stt.evictions - before_stats.0.evictions > 64, "{stt:?}");
    assert!(tiers.simple > before_stats.1.simple, "{tiers:?}");
    assert!(tiers.ladder > before_stats.1.ladder, "{tiers:?}");
    assert!(tiers.ripple > before_stats.1.ripple, "{tiers:?}");
    let policy = engine.policy_stats();
    assert!(policy.too_late > 0 && policy.too_early > 0, "{policy:?}");
    assert_eq!(allocs, 0, "60,000 steady-state hot pages allocated");
}
