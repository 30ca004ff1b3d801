//! The layer replay: a workload's access stream driven through each
//! module's public functions in stages, timed from outside.
//!
//! The stream is read in chunks of [`CHUNK`] accesses, and each chunk
//! runs through the stages below in order, each stage timed with one
//! `Instant` pair. Every buffer is reused across chunks. This is a cost
//! drive, not a second simulator: a stage sees the work the workload's
//! stream gives it, but the stages do not feed back into each other the
//! way the simulator's event loop does.
//!
//! Two stages deliberately run on every workload, whatever its system:
//! HoPP's core (stages 5 and 6) is driven by the hot pages of every
//! stream, so its per-call cost is measured on quicksort-fastswap's
//! trace too, although the Fastswap simulator never calls it; and every
//! swap-out goes through `write_page`, so the write path's per-call cost
//! is measured on workloads whose simulator runs never write back.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::time::Instant;

use hopp::core::{Completion, ExecutionEngine, HoppConfig, HoppEngine, PrefetchOrder};
use hopp::fabric::{MemoryPool, RemotePool};
use hopp::hw::McPipeline;
use hopp::kernel::{FaultInfo, LruLists, LruTier, PrefetchRequest, SwapDevice};
use hopp::mem::{AddressSpace, Mapping};
use hopp::obs::NopRecorder;
use hopp::prof::alloc::thread_allocs;
use hopp::scn::{HstHeader, HstReader, HstWriter};
use hopp::sim::{SimConfig, SystemConfig};
use hopp::trace::{AccessStream, LastLevelCache};
use hopp::types::{AccessKind, HotPage, LineAddr, Nanos, PageAccess, Pid, Ppn, SwapSlot, Vpn};

/// Accesses per chunk.
pub const CHUNK: usize = 4_096;

/// Simulated time the replay advances per access (it only orders RDMA
/// completions; the replay has no timing model of its own).
const ACCESS_NS: u64 = 2_000;

/// The timed stages, in the order each chunk runs through them, by the
/// metric-name prefix each reports under.
pub const STAGES: [&str; 16] = [
    "trace.next_access",
    "mem.lookup",
    "mem.map_present",
    "llc.access",
    "hw.on_llc_miss",
    "core.on_hot_page",
    "core.request_span",
    "core.poll_into",
    "kernel.lru",
    "kernel.swap",
    "baselines.on_fault",
    "fabric.place",
    "fabric.write_page",
    "fabric.read_page",
    "scn.hst_push",
    "scn.hst_next",
];

const NEXT: usize = 0;
const LOOKUP: usize = 1;
const MAP: usize = 2;
const LLC: usize = 3;
const MISS: usize = 4;
const HOT: usize = 5;
const REQUEST: usize = 6;
const POLL: usize = 7;
const LRU: usize = 8;
const SWAP: usize = 9;
const FAULT: usize = 10;
const PLACE: usize = 11;
const WRITE: usize = 12;
const READ: usize = 13;
const PUSH: usize = 14;
const DECODE: usize = 15;

/// Host time and calls of one stage over a pass.
#[derive(Clone, Copy, Default, Debug)]
pub struct Stage {
    /// Host nanoseconds spent in the stage.
    pub ns: u64,
    /// Calls the stage made into its module.
    pub calls: u64,
}

impl Stage {
    /// Host ns per call (`None` when the stage made no calls).
    pub fn ns_per_call(self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns as f64 / self.calls as f64)
    }
}

/// One pass over a workload's stream.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Per-stage time and calls, indexed like [`STAGES`].
    pub stages: [Stage; STAGES.len()],
    /// Accesses replayed.
    pub accesses: u64,
    /// Cachelines touched.
    pub lines: u64,
    /// LLC misses.
    pub misses: u64,
    /// Hot pages the MC pipeline extracted.
    pub hot_pages: u64,
    /// Prefetch orders HoPP's core produced.
    pub orders: u64,
    /// Heap allocations inside `on_hot_page`.
    pub core_allocs: u64,
    /// Cgroup evictions (swap-outs).
    pub evictions: u64,
    /// Faults on swapped-out pages.
    pub major_faults: u64,
    /// Fault-path prefetch requests.
    pub requests: u64,
    /// `.hst` bytes the stream encoded to.
    pub hst_bytes: u64,
}

/// A byte pipe: the `.hst` writer appends to it and the reader consumes
/// from the front, so it holds at most one chunk's records.
#[derive(Clone, Default)]
struct Pipe(Rc<RefCell<PipeState>>);

#[derive(Default)]
struct PipeState {
    queue: VecDeque<u8>,
    written: u64,
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.0.borrow_mut();
        state.queue.extend(buf);
        state.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut state = self.0.borrow_mut();
        let n = out.len().min(state.queue.len());
        for (o, b) in out.iter_mut().zip(state.queue.drain(..n)) {
            *o = b;
        }
        Ok(n)
    }
}

/// What the kernel stage decided for one access.
#[derive(Clone, Copy)]
enum KernelEvent {
    /// The access found its page not resident (index into the chunk).
    Fault { ppn: Ppn, at: usize },
    /// Reclaim evicted the page.
    Evict { ppn: Ppn, at: usize },
}

fn now(base: u64, i: usize) -> Nanos {
    Nanos::from_nanos((base + i as u64) * ACCESS_NS)
}

fn stage_end(stage: &mut Stage, started: Instant, calls: usize) {
    stage.ns += started.elapsed().as_nanos() as u64;
    stage.calls += calls as u64;
}

/// Replays `stream` once through every stage. `limit_pages` is each
/// pid's local-memory limit for the cgroup stage; `system` picks the
/// fault-path prefetcher (and HoPP's configuration, where it has one).
///
/// # Errors
///
/// Returns a description of the first failure: an invalid default
/// configuration, an error from a module, or a `.hst` round trip that
/// did not reproduce its chunk.
pub fn run_pass(
    stream: &mut dyn AccessStream,
    system: SystemConfig,
    limit_pages: usize,
) -> Result<Pass, String> {
    let config = SimConfig::with_system(system);
    let err = |e: hopp::types::Error| e.to_string();
    let (host, hopp) = match system {
        SystemConfig::Baseline(b) => (b, HoppConfig::default()),
        SystemConfig::Hopp { host, config } => (host, config),
    };
    let mut llc = LastLevelCache::new(config.llc).map_err(err)?;
    let mut mc = McPipeline::with_channels(config.hpd, config.rpt, config.channels).map_err(err)?;
    let mut engine = HoppEngine::try_new(hopp).map_err(err)?;
    let mut exec = ExecutionEngine::new();
    let mut core_pool = MemoryPool::new(config.rdma, config.fabric).map_err(err)?;
    let mut kernel_pool = MemoryPool::new(config.rdma, config.fabric).map_err(err)?;
    let mut prefetcher = host.build();
    let mut swapdev = SwapDevice::new();
    let mut spaces: BTreeMap<Pid, AddressSpace> = BTreeMap::new();
    let mut lrus: BTreeMap<Pid, LruLists> = BTreeMap::new();
    // Frame-indexed bookkeeping: frames are numbered in first-touch order.
    let mut owners: Vec<(Pid, Vpn)> = Vec::new();
    let mut slots: Vec<Option<SwapSlot>> = Vec::new();

    let pipe = Pipe::default();
    let header = HstHeader {
        pid: Pid::new(1),
        footprint_pages: 0,
        seed: 0,
        source: "replay".to_string(),
    };
    let io_err = |e: io::Error| format!(".hst pipe: {e}");
    let mut writer = HstWriter::new(pipe.clone(), &header).map_err(io_err)?;
    let mut reader = HstReader::new(pipe).map_err(|e| e.to_string())?;

    let mut pass = Pass::default();
    let mut chunk: Vec<PageAccess> = Vec::with_capacity(CHUNK);
    let mut ppns: Vec<Option<Ppn>> = Vec::with_capacity(CHUNK);
    let mut misses: Vec<(LineAddr, AccessKind, usize)> = Vec::with_capacity(CHUNK * 8);
    let mut hot: Vec<HotPage> = Vec::with_capacity(CHUNK);
    let mut orders: Vec<(PrefetchOrder, Nanos)> = Vec::with_capacity(CHUNK * 4);
    let mut completions: Vec<Completion> = Vec::with_capacity(64);
    let mut events: Vec<KernelEvent> = Vec::with_capacity(CHUNK * 2);
    let mut evicted: Vec<(Pid, Vpn, usize)> = Vec::with_capacity(CHUNK);
    let mut faulted: Vec<(Pid, Vpn, SwapSlot, usize)> = Vec::with_capacity(CHUNK);
    let mut requests: Vec<PrefetchRequest> = Vec::with_capacity(CHUNK * 8);
    let mut decoded: Vec<PageAccess> = Vec::with_capacity(CHUNK);
    let st = &mut pass.stages;

    loop {
        // 1. The stream yields the chunk.
        chunk.clear();
        let t = Instant::now();
        while chunk.len() < CHUNK {
            match stream.next_access() {
                Some(a) => chunk.push(a),
                None => break,
            }
        }
        stage_end(&mut st[NEXT], t, chunk.len());
        if chunk.is_empty() {
            break;
        }
        let base = pass.accesses;
        pass.accesses += chunk.len() as u64;
        for a in &chunk {
            spaces
                .entry(a.pid)
                .or_insert_with(|| AddressSpace::new(a.pid));
            lrus.entry(a.pid).or_default();
        }

        // 2. Page-table lookups, then first-touch mappings with the MC
        //    pipeline as the PTE hook (which fills the RPT).
        ppns.clear();
        let t = Instant::now();
        for a in &chunk {
            ppns.push(match spaces.get(&a.pid).and_then(|s| s.lookup(a.vpn)) {
                Some(Mapping::Present(pte)) => Some(pte.ppn),
                _ => None,
            });
        }
        stage_end(&mut st[LOOKUP], t, chunk.len());
        let mut mapped = 0;
        let t = Instant::now();
        for (a, slot) in chunk.iter().zip(ppns.iter_mut()) {
            if slot.is_some() {
                continue;
            }
            let space = spaces.get_mut(&a.pid).ok_or("address space vanished")?;
            // An earlier access of this chunk may have mapped the page.
            if let Some(Mapping::Present(pte)) = space.lookup(a.vpn) {
                *slot = Some(pte.ppn);
                continue;
            }
            let ppn = Ppn::from_index(owners.len());
            if space.map_present(a.vpn, ppn, &mut mc).is_some() {
                return Err(format!("{} {} was mapped twice", a.pid, a.vpn));
            }
            owners.push((a.pid, a.vpn));
            slots.push(None);
            *slot = Some(ppn);
            mapped += 1;
        }
        stage_end(&mut st[MAP], t, mapped);

        // 3. Every line through the LLC; misses are kept.
        misses.clear();
        let mut lines = 0;
        let t = Instant::now();
        for (i, (a, ppn)) in chunk.iter().zip(&ppns).enumerate() {
            let ppn = ppn.ok_or("unmapped page after the map stage")?;
            for line in 0..a.lines {
                let addr = ppn.line(line);
                if !llc.access(addr, a.kind) {
                    misses.push((addr, a.kind, i));
                }
            }
            lines += usize::from(a.lines);
        }
        stage_end(&mut st[LLC], t, lines);
        pass.lines += lines as u64;
        pass.misses += misses.len() as u64;

        // 4. Misses through the MC pipeline (HPD, then RPT).
        hot.clear();
        let t = Instant::now();
        for &(addr, kind, i) in &misses {
            if let Some(h) = mc.on_llc_miss(addr, kind, now(base, i)) {
                hot.push(h);
            }
        }
        stage_end(&mut st[MISS], t, misses.len());
        pass.hot_pages += hot.len() as u64;

        // 5. Hot pages through HoPP's training stack.
        orders.clear();
        let allocs_before = thread_allocs();
        let t = Instant::now();
        for h in &hot {
            orders.extend(engine.on_hot_page(h).into_iter().map(|o| (o, h.at)));
        }
        stage_end(&mut st[HOT], t, hot.len());
        pass.core_allocs += thread_allocs() - allocs_before;
        pass.orders += orders.len() as u64;

        // 6. Orders to the execution engine, then one poll per access.
        let t = Instant::now();
        for (o, at) in &orders {
            exec.request_span(o.pid, o.vpn, o.span, o.stream, o.tier, *at, &mut core_pool)
                .map_err(err)?;
        }
        stage_end(&mut st[REQUEST], t, orders.len());
        let t = Instant::now();
        for i in 0..chunk.len() {
            completions.clear();
            exec.poll_into(now(base, i), &mut completions);
        }
        stage_end(&mut st[POLL], t, chunk.len());

        // 7. The cgroup replay: LRU order decides faults and evictions,
        //    which then run through the swap device, the fault-path
        //    prefetcher and the memory pool.
        events.clear();
        let t = Instant::now();
        for (i, (a, ppn)) in chunk.iter().zip(&ppns).enumerate() {
            let ppn = ppn.ok_or("unmapped page after the map stage")?;
            let lru = lrus.get_mut(&a.pid).ok_or("LRU lists vanished")?;
            if lru.tier_of(ppn).is_some() {
                lru.touch(ppn);
                continue;
            }
            lru.insert(ppn, LruTier::Active);
            events.push(KernelEvent::Fault { ppn, at: i });
            while lru.len() > limit_pages {
                match lru.pop_evict() {
                    Some(victim) => events.push(KernelEvent::Evict { ppn: victim, at: i }),
                    None => break,
                }
            }
        }
        stage_end(&mut st[LRU], t, chunk.len());
        evicted.clear();
        faulted.clear();
        let t = Instant::now();
        for ev in &events {
            match *ev {
                KernelEvent::Evict { ppn, at } => {
                    let (pid, vpn) = owners[ppn.index()];
                    slots[ppn.index()] = Some(swapdev.alloc(pid, vpn).map_err(err)?);
                    evicted.push((pid, vpn, at));
                }
                KernelEvent::Fault { ppn, at } => {
                    if let Some(slot) = slots[ppn.index()].take() {
                        swapdev.free(slot);
                        let (pid, vpn) = owners[ppn.index()];
                        faulted.push((pid, vpn, slot, at));
                    }
                }
            }
        }
        stage_end(&mut st[SWAP], t, events.len());
        pass.evictions += evicted.len() as u64;
        pass.major_faults += faulted.len() as u64;
        requests.clear();
        let t = Instant::now();
        for &(pid, vpn, slot, at) in &faulted {
            let fault = FaultInfo {
                pid,
                vpn,
                now: now(base, at),
                hit_swapcache: false,
                slot: Some(slot),
            };
            prefetcher.on_fault(&fault, &swapdev, &mut requests);
        }
        stage_end(&mut st[FAULT], t, faulted.len());
        pass.requests += requests.len() as u64;
        let rec = &mut NopRecorder;
        let t = Instant::now();
        for &(pid, vpn, at) in &evicted {
            kernel_pool
                .place(pid, vpn, None, now(base, at), rec)
                .map_err(err)?;
        }
        stage_end(&mut st[PLACE], t, evicted.len());
        let t = Instant::now();
        for &(pid, vpn, at) in &evicted {
            kernel_pool.write_page(pid, vpn, now(base, at), rec);
        }
        stage_end(&mut st[WRITE], t, evicted.len());
        let end = now(base, chunk.len());
        let t = Instant::now();
        for &(pid, vpn, _, at) in &faulted {
            kernel_pool
                .read_page(pid, vpn, now(base, at), rec)
                .map_err(err)?;
            kernel_pool.release(pid, vpn);
        }
        for r in &requests {
            kernel_pool.read_page(r.pid, r.vpn, end, rec).map_err(err)?;
        }
        stage_end(&mut st[READ], t, faulted.len() + requests.len());

        // 8. The chunk round-trips through the `.hst` codec.
        let t = Instant::now();
        for a in &chunk {
            writer.push(a).map_err(io_err)?;
        }
        stage_end(&mut st[PUSH], t, chunk.len());
        decoded.clear();
        let t = Instant::now();
        for _ in 0..chunk.len() {
            match reader.next() {
                Ok(Some(a)) => decoded.push(a),
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        stage_end(&mut st[DECODE], t, chunk.len());
        if decoded != chunk {
            return Err(format!(
                ".hst round trip changed the chunk at access {base}"
            ));
        }
    }
    // The trailer's record count and checksum must match what was read.
    let pipe = writer.finish().map_err(io_err)?;
    match reader.next() {
        Ok(None) => {}
        Ok(Some(_)) => return Err(".hst replay decoded an extra record".to_string()),
        Err(e) => return Err(e.to_string()),
    }
    pass.hst_bytes = pipe.0.borrow().written;
    Ok(pass)
}
