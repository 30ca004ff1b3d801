//! The event loop: one simulated compute node, its kernel, the MC
//! hardware pipeline and a remote memory node behind an RDMA link.

use std::collections::BTreeMap;

use hopp_core::exec::ExecutionEngine;
use hopp_core::metrics::PrefetchMetrics;
use hopp_core::HoppEngine;
use hopp_fabric::{FaultScript, MemoryPool, RemotePool, REGION_SHIFT};
use hopp_hw::rpt::RPT_VPN_BITS;
use hopp_hw::McPipeline;
use hopp_kernel::{FaultInfo, InflightRead, LruTier, Prefetcher, SwapDevice};
use hopp_mem::{AddressSpace, Mapping};
use hopp_net::CompletionQueue;
use hopp_obs::{Event, LatencyHistograms, ObsRecorder, Recorder};
use hopp_trace::patterns::AccessStream;
use hopp_trace::LastLevelCache;
use hopp_types::{Error, Nanos, PageAccess, Pid, Ppn, Result, SwapSlot, Vpn};

use crate::config::{AppSpec, SimConfig, SystemConfig};
use crate::frames::{list_of, FrameTable, Source, SWAPCACHE};
use crate::report::{AppReport, Counters, ObsReport, SimReport, TimelineSample};

/// A fault-path prefetch in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct BaseArrival {
    pid: Pid,
    vpn: Vpn,
    inject: bool,
}

/// HoPP's runtime state (present only when the system includes HoPP).
struct HoppRuntime {
    engine: HoppEngine,
    exec: ExecutionEngine,
}

/// One process: its page table, its cgroup limit, its access stream
/// and its per-app counters. The `i`-th record's mapped pages are on LRU
/// list [`list_of`]`(i)`, whose length is its cgroup's charge.
struct Process {
    space: AddressSpace,
    /// The cgroup limit: the most pages list [`list_of`]`(i)` may hold
    /// once reclaim is done.
    limit_pages: usize,
    stream: Box<dyn AccessStream>,
    finished_at: Option<Nanos>,
    accesses: u64,
    major_faults: u64,
    minor_faults: u64,
}

impl Process {
    fn pid(&self) -> Pid {
        self.space.pid()
    }
}

/// The simulator. Construct with [`Simulator::new`], consume with
/// [`Simulator::run`].
pub struct Simulator {
    config: SimConfig,
    clock: Nanos,
    llc: LastLevelCache,
    mc: McPipeline,
    /// One record per local frame: owner, LRU links (the swapcache's
    /// list or its process's), pending prefetch.
    frames: FrameTable,
    /// One record per process, in input order, which is also the
    /// round-robin order.
    procs: Vec<Process>,
    /// Swap slots, each with its page, the read in flight for it (if
    /// any) and, for a swapcache page, the frame holding it.
    swapdev: SwapDevice,
    /// The remote side: a single link in the paper's configuration, a
    /// sharded multi-node pool beyond it.
    pool: MemoryPool,
    /// Per-region stream identity for stream-aware placement, harvested
    /// from HoPP prefetch orders. Maintained only when the placement
    /// policy asks for hints.
    stream_hints: BTreeMap<(Pid, u64), u64>,
    baseline: Box<dyn Prefetcher>,
    /// Prefetch metrics per [`Source`], in [`Source::index`] order: the
    /// baseline's, then HoPP's tiers', whose sum is HoPP's totals.
    prefetch_metrics: [PrefetchMetrics; 4],
    base_cq: CompletionQueue<BaseArrival>,
    hopp: Option<HoppRuntime>,
    /// Run-wide counts. Accesses and major and minor faults are counted
    /// per app only, so those fields stay zero here; [`Self::counters`]
    /// fills them in as the per-app sums.
    counters: Counters,
    prefetch_buf: Vec<hopp_kernel::PrefetchRequest>,
    /// Reused HoPP order buffer (see [`Self::on_hot_page`]).
    order_buf: Vec<hopp_core::PrefetchOrder>,
    timeline: Vec<TimelineSample>,
    /// Event recorder (`Off` below [`hopp_obs::ObsLevel::Full`]).
    /// Stored by value so instrumented callees can borrow it disjointly
    /// from the components they belong to.
    recorder: ObsRecorder,
    /// Latency histograms, fed when `config.obs_level.histograms()`.
    hists: LatencyHistograms,
    /// Cached `config.obs_level.histograms()` for the hot path.
    obs_hists: bool,
}

impl Simulator {
    /// Builds a simulator for the given apps.
    ///
    /// The physical frame pool is sized as the sum of all cgroup limits
    /// plus `slack_frames` (headroom for uncharged swapcache pages).
    ///
    /// # Errors
    ///
    /// Returns configuration validation errors, among them
    /// [`Error::InvalidConfig`] when the frame pool holds more pages than
    /// the LLC can tag ([`hopp_trace::LlcConfig::max_pages`]) or the
    /// frame table can link ([`hopp_kernel::lru::MAX_FRAMES`]), or
    /// [`Error::UnknownProcess`] if two apps share a PID or use the
    /// kernel PID.
    pub fn new(config: SimConfig, apps: Vec<AppSpec>) -> Result<Self> {
        // Checked before anything is sized by it: every frame must be
        // taggable by the LLC and linkable in the frame table.
        let frames = apps
            .iter()
            .map(|app| app.limit_pages)
            .fold(config.slack_frames, usize::saturating_add);
        if frames as u64 > config.llc.max_pages()? || frames > hopp_kernel::lru::MAX_FRAMES {
            return Err(Error::InvalidConfig {
                what: "frame count",
                constraint: "at most LlcConfig::max_pages (a smaller LLC tags fewer pages) \
                             and 2^32 - 2 (frame links are u32)",
            });
        }
        // Every frame is tracked for the LLC's presence bound, sized here
        // so the run allocates nothing for it.
        let llc = LastLevelCache::with_tracked_pages(config.llc, frames)?;
        let mc = McPipeline::with_channels(config.hpd, config.rpt, config.channels)?;
        let mut procs: Vec<Process> = Vec::with_capacity(apps.len());
        for app in apps {
            if app.pid == Pid::KERNEL || procs.iter().any(|p| p.pid() == app.pid) {
                return Err(Error::UnknownProcess { pid: app.pid });
            }
            if app.limit_pages == 0 {
                return Err(Error::InvalidConfig {
                    what: "cgroup limit",
                    constraint: "at least one page",
                });
            }
            procs.push(Process {
                space: AddressSpace::new(app.pid),
                limit_pages: app.limit_pages,
                stream: app.stream,
                finished_at: None,
                accesses: 0,
                major_faults: 0,
                minor_faults: 0,
            });
        }
        let hopp = match config.system {
            SystemConfig::Baseline(_) => None,
            SystemConfig::Hopp { config, .. } => Some(HoppRuntime {
                engine: HoppEngine::try_new(config)?,
                exec: ExecutionEngine::new(),
            }),
        };
        let baseline = match config.system {
            SystemConfig::Baseline(b) => b.build(),
            SystemConfig::Hopp { host, .. } => host.build(),
        };
        Ok(Simulator {
            clock: Nanos::ZERO,
            llc,
            mc,
            frames: FrameTable::new(frames, procs.len(), config.trace_assisted_reclaim.is_some()),
            procs,
            swapdev: match config.remote_capacity_pages {
                Some(cap) => SwapDevice::with_capacity(cap),
                None => SwapDevice::new(),
            },
            pool: MemoryPool::new(config.rdma, config.fabric)?,
            stream_hints: BTreeMap::new(),
            baseline,
            prefetch_metrics: Default::default(),
            base_cq: CompletionQueue::with_capacity(64),
            hopp,
            counters: Counters::default(),
            prefetch_buf: Vec::with_capacity(64),
            order_buf: Vec::with_capacity(16),
            timeline: Vec::new(),
            recorder: ObsRecorder::for_level(config.obs_level),
            hists: LatencyHistograms::default(),
            obs_hists: config.obs_level.histograms(),
            config,
        })
    }

    /// Swaps in a custom fault-path prefetcher (e.g. a differently
    /// tuned baseline) before running. The system's name in the report
    /// still reflects the original configuration.
    pub fn replace_baseline(&mut self, prefetcher: Box<dyn Prefetcher>) {
        self.baseline = prefetcher;
    }

    /// Attaches a deterministic fault script to the memory pool before
    /// running. Scripts make the pool non-degenerate, so the report
    /// gains a fabric section.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the script names a node the
    /// pool does not have.
    pub fn set_fault_script(&mut self, script: &FaultScript) -> Result<()> {
        self.pool.set_fault_script(script)
    }

    /// Runs every app to completion and reports.
    ///
    /// # Errors
    ///
    /// Propagates fatal simulation errors: a page whose every replica
    /// was lost ([`Error::PageUnreachable`]), an exhausted pool or
    /// remote node, an access by a pid that is no app's
    /// ([`Error::UnknownProcess`]) or to a page beyond the RPT's VPN
    /// field ([`Error::VpnOutOfRange`]), or an internal bookkeeping
    /// violation. Fault injection runs surface here instead of
    /// panicking.
    pub fn run(mut self) -> Result<SimReport> {
        // Host-side profiling root; inert unless the harness called
        // `hopp_prof::enable` (never feeds back into simulated state).
        let _prof = hopp_prof::span("sim/run");
        self.run_apps()?;
        #[cfg(debug_assertions)]
        self.check_frame_conservation();
        Ok(self.report())
    }

    /// Runs every app's access stream to its end.
    fn run_apps(&mut self) -> Result<()> {
        // Round-robin across apps at access granularity: the
        // single-node interleaving that makes streams intertwine.
        let mut live: Vec<usize> = (0..self.procs.len()).collect();
        let mut cursor = 0usize;
        while !live.is_empty() {
            cursor %= live.len();
            let app_idx = live[cursor];
            let next = {
                let _prof = hopp_prof::span("trace/stream");
                self.procs[app_idx].stream.next_access()
            };
            match next {
                Some(access) => {
                    self.step(app_idx, access)?;
                    cursor += 1;
                }
                None => {
                    self.procs[app_idx].finished_at = Some(self.clock);
                    live.remove(cursor);
                }
            }
        }
        Ok(())
    }

    /// The index of `pid`'s process record. The one place a run finds
    /// out that a pid is no process's.
    fn proc_index(&self, pid: Pid) -> Result<usize> {
        self.procs
            .iter()
            .position(|p| p.pid() == pid)
            .ok_or(Error::UnknownProcess { pid })
    }

    /// The process index of `(pid, vpn)` and the page's slot, if `pid`
    /// is a process's and the page is swapped out.
    fn swapped(&self, pid: Pid, vpn: Vpn) -> Option<(usize, SwapSlot)> {
        let idx = self.proc_index(pid).ok()?;
        match self.procs[idx].space.lookup(vpn)? {
            Mapping::Swapped(slot) => Some((idx, slot)),
            Mapping::Present(_) => None,
        }
    }

    /// Frame conservation, checked at the end of debug-build runs: every
    /// access is counted as one kind, every frame in use is on exactly
    /// one list, every process has as many present PTEs as its list
    /// holds and no more than its cgroup limit, every frame in use holds
    /// a present page or a swapcache page, every swapped-out page's slot
    /// holds that page, every frame on the swapcache list is its page's
    /// slot's cached frame and no other slot caches one, and every
    /// source's prefetch is hit, wasted or still marked pending on one
    /// frame. In flight, no slot carries two reads or a swapcache frame,
    /// every flagged slot is covered by a queued read of its kind, and
    /// every queued baseline read whose page is still swapped out flags
    /// that page's slot. The pool's nodes count one placed page per live
    /// swap slot. The RPT names the resident page of every frame handed
    /// out and nothing for a swapcache or free frame. The scans make it
    /// O(frames + slots + pages + reads in flight²).
    #[cfg(any(test, debug_assertions))]
    fn check_frame_conservation(&self) {
        use hopp_kernel::SlotView;
        let c = self.counters();
        assert_eq!(
            c.accesses,
            c.dram_hits + c.minor_faults + c.major_faults + c.first_touches,
            "accesses = DRAM hits + minor + major faults + first touches"
        );
        for p in &self.procs {
            let pid = p.pid();
            for (vpn, slot) in p.space.iter_swapped() {
                assert_eq!(
                    self.swapdev.page_at(slot),
                    Some((pid, vpn)),
                    "{pid} {vpn}: its slot {slot:?} holds another page"
                );
                let reads = [InflightRead::Baseline, InflightRead::Hopp]
                    .map(|read| self.swapdev.is_inflight(slot, read));
                if reads.contains(&true) {
                    let cached = self.swapdev.cached(slot).is_some();
                    let queued = self.inflight_due(pid, vpn, slot).is_some();
                    assert!(
                        reads != [true; 2] && !cached && queued,
                        "{pid} {vpn}: in flight {reads:?}, cached {cached}, read queued {queued}"
                    );
                }
            }
        }
        let mut queued = self.base_cq.clone();
        while let Some((_, a)) = queued.pop_any() {
            if let Some((_, slot)) = self.swapped(a.pid, a.vpn) {
                let flagged = self.swapdev.is_inflight(slot, InflightRead::Baseline);
                assert!(flagged, "{} {}: slot not flagged", a.pid, a.vpn);
            }
        }
        let mut swapcache = 0;
        for (ppn, pid, vpn) in self.frames.swapcache_frames() {
            assert_eq!(
                self.swapped(pid, vpn)
                    .and_then(|(_, slot)| self.swapdev.cached(slot)),
                Some(ppn),
                "{pid} {vpn}: swapcache frame {ppn:?} is not its slot's cached frame"
            );
            swapcache += 1;
        }
        assert_eq!(
            self.swapdev.cached_slots(),
            swapcache,
            "cached slots = frames on the swapcache list"
        );
        let mut present = 0;
        for (idx, p) in self.procs.iter().enumerate() {
            let pid = p.pid();
            let listed = self.frames.lru.len(list_of(idx));
            let mapped = p.space.iter_present().count();
            assert_eq!(mapped, listed, "{pid}: present PTEs = listed");
            let limit = p.limit_pages;
            assert!(listed <= limit, "{pid}: {listed} listed over limit {limit}");
            present += mapped;
        }
        assert_eq!(
            self.frames.in_use(),
            present + swapcache,
            "frames in use = present PTEs + swapcache frames"
        );
        let pending = self.frames.pending_counts();
        for (source, (m, pending)) in Source::ALL
            .iter()
            .zip(self.prefetch_metrics.iter().zip(pending))
        {
            assert_eq!(
                m.prefetched(),
                m.prefetch_hits() + m.wasted() + pending as u64,
                "{source:?}: prefetched = hits + wasted + pending frames"
            );
        }
        assert_eq!(
            self.frames.lru.total_len(),
            self.frames.in_use(),
            "every frame in use is on one list"
        );
        // The pool keeps only placements that differ from the hash node
        // and `release` decrements the node it finds, which is sound only
        // with one `place` per slot allocation and one `release` per free.
        let placed: u64 = self
            .pool
            .report(self.clock)
            .nodes
            .iter()
            .map(|n| n.placed)
            .sum();
        assert_eq!(
            placed,
            self.swapdev.used_slots() as u64,
            "pages placed in the pool = live swap slots"
        );
        let rpt = self.mc.rpt();
        for (ppn, mapped) in self.frames.mapped_owners() {
            assert_eq!(
                rpt.peek(ppn).map(|e| (e.pid, e.vpn)),
                mapped,
                "{ppn:?}: the RPT disagrees with the frame's owner"
            );
        }
    }

    /// Executes one page access.
    fn step(&mut self, app_idx: usize, access: PageAccess) -> Result<()> {
        let _prof = hopp_prof::span("sim/step");
        // The RPT names a frame's owner in 40 bits: a page above them
        // would resolve to another page, or another process.
        if access.vpn.raw() >> RPT_VPN_BITS != 0 {
            return Err(Error::VpnOutOfRange {
                pid: access.pid,
                vpn: access.vpn,
                bits: RPT_VPN_BITS,
            });
        }
        self.clock += Nanos::from_nanos(u64::from(access.think_ns));
        self.drain_completions()?;
        self.procs[app_idx].accesses += 1;
        if self.config.timeline_every > 0 {
            let c = self.counters();
            if c.accesses.is_multiple_of(self.config.timeline_every) {
                let [_, tiers @ ..] = &self.prefetch_metrics;
                self.timeline.push(TimelineSample {
                    at: self.clock,
                    accesses: c.accesses,
                    major_faults: c.major_faults,
                    minor_faults: c.minor_faults,
                    hopp_injected: tiers.iter().map(PrefetchMetrics::prefetched).sum(),
                });
            }
        }

        // Per-app counters go to the stream's app (`app_idx`); page
        // state belongs to the access's pid (`idx`).
        let pid = access.pid;
        let vpn = access.vpn;
        let idx = self.proc_index(pid)?;
        let mut mapping = self.procs[idx].space.lookup(vpn);

        // A demand access to a page with a read in flight waits for the
        // data (the kernel blocks on the page's IO) and then proceeds.
        if let Some(Mapping::Swapped(slot)) = mapping {
            if let Some(due) = self.inflight_due(pid, vpn, slot) {
                let wait = due.saturating_since(self.clock);
                if due > self.clock {
                    self.clock = due;
                }
                self.counters.inflight_waits += 1;
                if self.obs_hists {
                    self.hists.inflight_wait.record_nanos(wait);
                }
                if self.recorder.is_enabled() {
                    self.recorder
                        .record(self.clock, Event::InflightWait { pid, vpn, wait });
                }
                self.drain_completions()?;
                mapping = self.procs[idx].space.lookup(vpn);
            }
        }
        match mapping {
            Some(Mapping::Present(pte)) => {
                self.counters.dram_hits += 1;
                self.on_present_access(idx, vpn, pte.ppn, &access)?;
            }
            Some(Mapping::Swapped(slot)) => match self.swapdev.cached(slot) {
                Some(ppn) => self.minor_fault(app_idx, idx, vpn, slot, ppn, &access)?,
                None => self.major_fault(app_idx, idx, vpn, slot, &access)?,
            },
            None => {
                self.first_touch(idx, vpn, &access)?;
            }
        }
        Ok(())
    }

    /// When the first read in flight that delivers the page at `slot`
    /// lands, if its slot records one: the baseline's read, or the
    /// earliest HoPP read whose span covers the page.
    fn inflight_due(&self, pid: Pid, vpn: Vpn, slot: SwapSlot) -> Option<Nanos> {
        if self.swapdev.is_inflight(slot, InflightRead::Baseline) {
            self.base_cq
                .earliest_due_where(|a| a.pid == pid && a.vpn == vpn)
        } else if self.swapdev.is_inflight(slot, InflightRead::Hopp) {
            self.hopp.as_ref()?.exec.earliest_due_covering(pid, vpn)
        } else {
            None
        }
    }

    /// An access by process `idx` whose PTE is present: pure
    /// memory-system cost.
    fn on_present_access(
        &mut self,
        idx: usize,
        vpn: Vpn,
        ppn: Ppn,
        access: &PageAccess,
    ) -> Result<()> {
        // A real kernel only learns about these accesses via accessed-bit
        // scans; precise_lru = false models a kernel that never scans.
        if self.config.precise_lru {
            self.frames.lru.touch(list_of(idx), ppn);
        }
        if !access.kind.is_read() {
            self.procs[idx].space.mark_dirty(vpn);
        }
        self.settle_first_hit(self.procs[idx].pid(), vpn, ppn);
        self.line_loop(ppn, access)
    }

    /// First application access to `(pid, vpn)`'s page in frame `ppn`,
    /// mapped or in the swapcache: settles the frame's pending
    /// prefetch, if any, as a hit of its source. The timeliness goes to
    /// HoPP's policy for a HoPP prefetch, to the source's metrics (whose
    /// merge is the report's timeliness histogram) and (at `full`) to a
    /// [`Event::PrefetchHit`].
    fn settle_first_hit(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        let Some((source, stream, arrived)) = self.frames.take_prefetch(ppn) else {
            return;
        };
        let timeliness = self.clock.saturating_since(arrived);
        if let (Some(stream), Some(h)) = (stream, &mut self.hopp) {
            h.engine.on_timeliness(stream, timeliness);
        }
        self.prefetch_metrics[source.index()].on_hit(timeliness);
        if self.recorder.is_enabled() {
            self.recorder.record(
                self.clock,
                Event::PrefetchHit {
                    pid,
                    vpn,
                    timeliness,
                },
            );
        }
    }

    /// Swapcache hit on process `idx`'s page at `slot`, held by frame
    /// `ppn`: a minor fault (*prefetch-hit*, 2.3 µs).
    fn minor_fault(
        &mut self,
        app_idx: usize,
        idx: usize,
        vpn: Vpn,
        slot: SwapSlot,
        ppn: Ppn,
        access: &PageAccess,
    ) -> Result<()> {
        let _prof = hopp_prof::span("kernel/minor_fault");
        self.clock += self.config.latency.prefetch_hit();
        self.procs[app_idx].minor_faults += 1;
        let pid = self.procs[idx].pid();
        self.settle_first_hit(pid, vpn, ppn);
        if self.recorder.is_enabled() {
            self.recorder
                .record(self.clock, Event::MinorFault { pid, vpn });
        }
        // Freeing the slot takes the page out of the swapcache;
        // `map_page` moves the frame off the swapcache list.
        self.swapdev.free(slot);
        self.pool.release(pid, vpn);
        self.map_page(idx, vpn, ppn)?;
        if !access.kind.is_read() {
            self.procs[idx].space.mark_dirty(vpn);
        }

        self.notify_baseline(FaultInfo {
            pid,
            vpn,
            now: self.clock,
            hit_swapcache: true,
            slot: None,
        })?;
        self.line_loop(ppn, access)
    }

    /// Major fault on process `idx`'s page at `slot`: synchronous
    /// remote read plus the kernel fault path.
    fn major_fault(
        &mut self,
        app_idx: usize,
        idx: usize,
        vpn: Vpn,
        slot: SwapSlot,
        access: &PageAccess,
    ) -> Result<()> {
        let _prof = hopp_prof::span("kernel/major_fault");
        self.procs[app_idx].major_faults += 1;
        let pid = self.procs[idx].pid();

        let started = self.clock;
        let done = self
            .pool
            .read_page(pid, vpn, self.clock, &mut self.recorder)?;
        self.clock = done + self.config.latency.major_fault_cpu();
        let latency = self.clock.saturating_since(started);
        if self.obs_hists {
            self.hists.major_fault.record_nanos(latency);
            self.hists
                .rdma_read
                .record_nanos(done.saturating_since(started));
        }
        if self.recorder.is_enabled() {
            self.recorder
                .record(self.clock, Event::MajorFault { pid, vpn, latency });
        }

        let ppn = self.ensure_frame(idx, vpn)?;
        self.swapdev.free(slot);
        self.pool.release(pid, vpn);
        self.map_page(idx, vpn, ppn)?;
        if !access.kind.is_read() {
            self.procs[idx].space.mark_dirty(vpn);
        }

        self.notify_baseline(FaultInfo {
            pid,
            vpn,
            now: self.clock,
            hit_swapcache: false,
            slot: Some(slot),
        })?;
        self.drain_completions()?;
        self.line_loop(ppn, access)
    }

    /// First touch by process `idx`: zero-fill, no remote traffic.
    fn first_touch(&mut self, idx: usize, vpn: Vpn, access: &PageAccess) -> Result<()> {
        let _prof = hopp_prof::span("kernel/first_touch");
        let pid = self.procs[idx].pid();
        self.clock += self.config.latency.context_switch + self.config.latency.pte_establish;
        self.counters.first_touches += 1;
        if self.recorder.is_enabled() {
            self.recorder
                .record(self.clock, Event::FirstTouch { pid, vpn });
        }
        let ppn = self.ensure_frame(idx, vpn)?;
        self.map_page(idx, vpn, ppn)?;
        if !access.kind.is_read() {
            self.procs[idx].space.mark_dirty(vpn);
        }
        self.line_loop(ppn, access)
    }

    /// Installs a PTE in process `idx`'s page table and puts the frame
    /// on the process's active list, which charges it to the cgroup,
    /// then reclaims if that took the list over the limit.
    fn map_page(&mut self, idx: usize, vpn: Vpn, ppn: Ppn) -> Result<()> {
        // Every caller maps a page that is swapped out or never touched:
        // a present page would still hold another frame.
        if let Some(prev) = self.procs[idx].space.map_present(vpn, ppn, &mut self.mc) {
            return Err(Error::FrameNotOwned { ppn: prev.ppn });
        }
        self.frames.lru.insert(list_of(idx), ppn, LruTier::Active);
        self.reclaim_over_limit(idx)
    }

    /// The memory-system walk of one page touch: lines
    /// `0..access.lines` cost `llc_hit` each on a hit and `dram_miss`
    /// each on a miss, in line order, and every miss goes to the MC.
    fn line_loop(&mut self, ppn: Ppn, access: &PageAccess) -> Result<()> {
        let _prof = hopp_prof::span("llc/loop");
        // The whole page goes through the LLC and its misses through the
        // HPD tables first; only then are the lines that made the page
        // hot resolved and handed to HoPP, in line order, each at the
        // clock its line reaches. That is exact only because nothing
        // reachable from `resolve_hot` or `on_hot_page` touches the LLC,
        // the HPD tables or the clock: `invalidate_page` and
        // `on_page_reclaimed` are reached only from `map_page` and
        // reclaim, neither of which runs inside this walk.
        let misses = self.llc.access_lines(ppn, access.lines);
        let mut hot = self.mc.on_page_misses(ppn, misses, access.kind);
        let start = self.clock;
        while hot != 0 {
            let line = hot.trailing_zeros();
            hot &= hot - 1;
            self.clock = self.walk_end(start, misses, line + 1);
            if let Some(page) = self.mc.resolve_hot(ppn, self.clock, &mut self.recorder) {
                self.frames.set_hot(ppn, self.clock);
                self.on_hot_page(page)?;
            }
        }
        self.clock = self.walk_end(start, misses, u32::from(access.lines));
        Ok(())
    }

    /// The clock after lines `0..lines` of a walk that began at `start`
    /// with miss mask `misses`. Saturates at the end of `Nanos`'s range,
    /// as adding the lines' costs one by one does.
    fn walk_end(&self, start: Nanos, misses: u64, lines: u32) -> Nanos {
        if lines == 0 {
            return start;
        }
        let missed = u64::from((misses & (u64::MAX >> (64 - lines))).count_ones());
        let hits = u64::from(lines) - missed;
        let hit_ns = self.config.llc_hit.as_nanos();
        let miss_ns = self.config.latency.dram_miss.as_nanos();
        let cost = hit_ns
            .saturating_mul(hits)
            .saturating_add(miss_ns.saturating_mul(missed));
        start + Nanos::from_nanos(cost)
    }

    /// Hot page from the MC: feed HoPP's training stack and issue the
    /// resulting orders on the separate data path.
    fn on_hot_page(&mut self, hot: hopp_types::HotPage) -> Result<()> {
        let Some(h) = &mut self.hopp else {
            return Ok(());
        };
        let mut orders = std::mem::take(&mut self.order_buf);
        orders.clear();
        h.engine
            .on_hot_page_into(&hot, &mut self.recorder, &mut orders);
        let mut outcome = Ok(());
        for order in &orders {
            outcome = self.issue_hopp_order(*order);
            if outcome.is_err() {
                break;
            }
        }
        self.order_buf = orders;
        outcome
    }

    /// Issues one HoPP prefetch order, unless its page is no longer
    /// remote or is already on its way.
    fn issue_hopp_order(&mut self, order: hopp_core::PrefetchOrder) -> Result<()> {
        // Only pages that actually live remotely are fetchable.
        let Some(slot) = self.remote_slot(order.pid, order.vpn) else {
            return Ok(());
        };
        if self.swapdev.is_inflight(slot, InflightRead::Baseline) {
            return Ok(());
        }
        // Huge batches move the whole span over the wire; only worth
        // it when most of the span actually lives remotely.
        if order.span > 1 {
            let swapped_in_span = (0..u64::from(order.span))
                .filter_map(|k| order.vpn.offset(k as i64))
                .filter(|&vpn| {
                    self.swapped(order.pid, vpn)
                        .is_some_and(|(_, s)| !self.swapdev.is_inflight(s, InflightRead::Hopp))
                })
                .count() as u32;
            if swapped_in_span * 4 < order.span * 3 {
                return Ok(());
            }
        }
        // Stream-aware placement learns which stream owns which
        // regions from the orders flowing past.
        if self.pool.wants_hints() {
            let stream_key = order.stream.key();
            let first = order.vpn.raw() >> REGION_SHIFT;
            let last = order
                .vpn
                .offset_saturating(i64::from(order.span.max(1)) - 1)
                .raw()
                >> REGION_SHIFT;
            for region in first..=last {
                self.stream_hints.insert((order.pid, region), stream_key);
            }
        }
        // Each page is claimed by one read in flight.
        if self.swapdev.is_inflight(slot, InflightRead::Hopp) {
            return Ok(());
        }
        let Some(h) = &mut self.hopp else {
            return Ok(());
        };
        if let Some(due) = h.exec.request_span_rec(
            order.pid,
            order.vpn,
            order.span,
            order.stream,
            order.tier,
            self.clock,
            &mut self.pool,
            &mut self.recorder,
        )? {
            if self.obs_hists {
                self.hists
                    .rdma_read
                    .record_nanos(due.saturating_since(self.clock));
            }
            // Claim every page of the span that only lives remotely and
            // no other read has claimed, so demand faults wait instead
            // of re-fetching.
            for k in 0..u64::from(order.span) {
                let Some(vpn) = order.vpn.offset(k as i64) else {
                    break;
                };
                if let Some(slot) = self.unclaimed_remote_slot(order.pid, vpn) {
                    self.swapdev.set_inflight(slot, InflightRead::Hopp);
                    self.counters.hopp_prefetches += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs the fault-path prefetcher and issues its requests.
    fn notify_baseline(&mut self, fault: FaultInfo) -> Result<()> {
        let _prof = hopp_prof::span("kernel/readahead");
        let mut reqs = std::mem::take(&mut self.prefetch_buf);
        reqs.clear();
        self.baseline.on_fault(&fault, &self.swapdev, &mut reqs);
        hopp_kernel::prefetcher::record_baseline_requests(self.clock, &reqs, &mut self.recorder);
        let mut outcome = Ok(());
        for req in &reqs {
            outcome = self.issue_baseline_prefetch(*req);
            if outcome.is_err() {
                break;
            }
        }
        self.prefetch_buf = reqs;
        outcome
    }

    /// The slot of `(pid, vpn)` if the page is swapped out and not in
    /// the swapcache: its data lives only on the remote side.
    fn remote_slot(&self, pid: Pid, vpn: Vpn) -> Option<SwapSlot> {
        let (_, slot) = self.swapped(pid, vpn)?;
        self.swapdev.cached(slot).is_none().then_some(slot)
    }

    /// [`Self::remote_slot`], if no read in flight has claimed the page.
    fn unclaimed_remote_slot(&self, pid: Pid, vpn: Vpn) -> Option<SwapSlot> {
        self.remote_slot(pid, vpn).filter(|&slot| {
            !self.swapdev.is_inflight(slot, InflightRead::Baseline)
                && !self.swapdev.is_inflight(slot, InflightRead::Hopp)
        })
    }

    fn issue_baseline_prefetch(&mut self, req: hopp_kernel::PrefetchRequest) -> Result<()> {
        let Some(slot) = self.unclaimed_remote_slot(req.pid, req.vpn) else {
            return Ok(());
        };
        let done = self
            .pool
            .read_page(req.pid, req.vpn, self.clock, &mut self.recorder)?;
        if self.obs_hists {
            self.hists
                .rdma_read
                .record_nanos(done.saturating_since(self.clock));
        }
        self.swapdev.set_inflight(slot, InflightRead::Baseline);
        self.base_cq.push(
            done,
            BaseArrival {
                pid: req.pid,
                vpn: req.vpn,
                inject: req.inject,
            },
        );
        self.counters.baseline_prefetches += 1;
        Ok(())
    }

    /// Processes every async arrival due by the current clock.
    fn drain_completions(&mut self) -> Result<()> {
        let _prof = hopp_prof::span("sim/drain");
        while let Some((done, arrival)) = self.base_cq.pop_due(self.clock) {
            self.handle_base_arrival(arrival, done)?;
        }
        // In due order, one at a time: handling a completion can advance
        // the clock (direct reclaim) and so make the next one due.
        while let Some(c) = self.hopp.as_mut().and_then(|h| h.exec.pop_due(self.clock)) {
            self.handle_hopp_completion(c)?;
        }
        Ok(())
    }

    fn handle_base_arrival(&mut self, arrival: BaseArrival, done: Nanos) -> Result<()> {
        let Some((idx, slot)) = self.swapped(arrival.pid, arrival.vpn) else {
            return Ok(()); // page no longer remote; drop the data
        };
        let ppn = self.ensure_frame(idx, arrival.vpn)?;
        self.frames.mark_prefetch(ppn, Source::Baseline, None, done);
        self.prefetch_metrics[Source::Baseline.index()].on_arrival();
        if self.recorder.is_enabled() {
            self.recorder.record(
                done,
                Event::PrefetchArrived {
                    pid: arrival.pid,
                    vpn: arrival.vpn,
                    span: 1,
                },
            );
        }
        if arrival.inject {
            // Depth-N semantics: eager PTE injection, page charged and
            // on the *active* list (§II-C).
            self.swapdev.free(slot);
            self.pool.release(arrival.pid, arrival.vpn);
            self.map_page(idx, arrival.vpn, ppn)?;
        } else {
            // The fill ends the slot's read in flight.
            self.swapdev.cache(slot, ppn);
            // Unproven page: the swapcache's inactive list, *not* charged
            // to the cgroup (the Fastswap/Leap accounting gap).
            self.frames.lru.insert(SWAPCACHE, ppn, LruTier::Inactive);
        }
        Ok(())
    }

    fn handle_hopp_completion(&mut self, c: hopp_core::Completion) -> Result<()> {
        if self.recorder.is_enabled() {
            self.recorder.record(
                c.done_at,
                Event::PrefetchArrived {
                    pid: c.pid,
                    vpn: c.vpn,
                    span: c.span,
                },
            );
        }
        // A span-1 completion injects one page; a huge-page batch (§IV)
        // injects every page of the range that is still remote.
        for k in 0..u64::from(c.span) {
            let Some(vpn) = c.vpn.offset(k as i64) else {
                break;
            };
            let Some((idx, slot)) = self.swapped(c.pid, vpn) else {
                continue;
            };
            // Only the first page of a huge-page batch is checked against
            // the swapcache and the baseline's reads when the order is
            // issued. A later page that a baseline prefetch has put in
            // the swapcache is already local: keep that copy for a minor
            // fault to take, so that no page ever holds two frames. A
            // page the baseline has claimed is left to its own read.
            if self.swapdev.cached(slot).is_some()
                || self.swapdev.is_inflight(slot, InflightRead::Baseline)
            {
                debug_assert!(c.span > 1);
                continue;
            }
            // Any HoPP read covering the page delivers it; freeing the
            // slot clears the claim of whichever read made one.
            let ppn = self.ensure_frame(idx, vpn)?;
            self.swapdev.free(slot);
            self.pool.release(c.pid, vpn);
            self.map_page(idx, vpn, ppn)?;
            // Reclaim inside `map_page` must not have taken the page it
            // is mapping: its pending prefetch would land on a free frame.
            if self.frames.owner(ppn) != Some((c.pid, vpn)) {
                return Err(Error::FrameNotOwned { ppn });
            }
            let source = Source::Hopp(c.tier);
            self.prefetch_metrics[source.index()].on_arrival();
            self.frames
                .mark_prefetch(ppn, source, Some(c.stream), c.done_at);
        }
        Ok(())
    }

    /// Allocates a frame for process `idx`'s page `vpn`, reclaiming if
    /// the pool is exhausted.
    fn ensure_frame(&mut self, idx: usize, vpn: Vpn) -> Result<Ppn> {
        loop {
            match self.frames.alloc(self.procs[idx].pid(), vpn) {
                Ok(ppn) => return Ok(ppn),
                Err(_) => {
                    if !self.evict_one(idx)? {
                        return Err(Error::OutOfFrames);
                    }
                }
            }
        }
    }

    /// Evicts one page under global frame pressure: unconsumed
    /// swapcache pages first (they are uncharged and cheap to drop),
    /// then process `prefer`'s mapped pages, then the largest process's,
    /// the highest pid's among equals.
    fn evict_one(&mut self, prefer: usize) -> Result<bool> {
        if let Some((ppn, from)) = self.frames.lru.pop_evict(SWAPCACHE) {
            self.evict_frame(ppn, SWAPCACHE, from)?;
            return Ok(true);
        }
        let listed = |idx: usize| self.frames.lru.len(list_of(idx));
        let victim = Some(prefer).filter(|&idx| listed(idx) > 0).or_else(|| {
            (0..self.procs.len())
                .filter(|&idx| listed(idx) > 0)
                .max_by_key(|&idx| (listed(idx), self.procs[idx].pid()))
        });
        let Some(owner) = victim.map(list_of) else {
            return Ok(false);
        };
        let Some((ppn, from)) = self.pop_mapped_victim(owner) else {
            return Ok(false);
        };
        self.evict_frame(ppn, owner, from)?;
        Ok(true)
    }

    /// Reclaims the given frame, which reclaim just took off list owner
    /// `owner`'s `from` list: swapcache pages are dropped, mapped pages
    /// are swapped out (dirty ones written back over RDMA).
    ///
    /// With `reclaim_in_advance = false` (pre-v5.8 kernels) the per-page
    /// reclaim cost lands on the current fault's critical path.
    fn evict_frame(&mut self, ppn: Ppn, owner: usize, from: LruTier) -> Result<()> {
        let _prof = hopp_prof::span("kernel/reclaim");
        if !self.config.reclaim_in_advance {
            self.clock += self.config.latency.reclaim_per_page;
        }
        let (pid, vpn) = self.frames.owner(ppn).ok_or(Error::FrameNotOwned { ppn })?;
        let idx = self.proc_index(pid)?;
        self.counters.reclaimed += 1;
        let active = from == LruTier::Active;
        // A pending prefetch dies here, unused.
        let wasted = self.frames.take_prefetch(ppn);
        if let Some((source, ..)) = wasted {
            self.prefetch_metrics[source.index()].on_wasted();
        }
        let dirty;
        if owner == SWAPCACHE {
            // An unconsumed prefetch: drop it; the swap copy remains
            // valid at its slot.
            let Some(Mapping::Swapped(slot)) = self.procs[idx].space.lookup(vpn) else {
                return Err(Error::UnmappedPage { pid, vpn });
            };
            let cached = self.swapdev.take_cached(slot);
            debug_assert_eq!(cached, Some(ppn));
            dirty = false;
        } else {
            let slot = self.swapdev.alloc(pid, vpn)?;
            if self.recorder.is_enabled() {
                self.recorder
                    .record(self.clock, Event::SwapOut { pid, vpn, slot });
            }
            let pte = self.procs[idx]
                .space
                .swap_out(vpn, slot, &mut self.mc)
                .ok_or(Error::UnmappedPage { pid, vpn })?;
            debug_assert_eq!(pte.ppn, ppn);
            let hint = if self.pool.wants_hints() {
                self.stream_hints
                    .get(&(pid, vpn.raw() >> REGION_SHIFT))
                    .copied()
            } else {
                None
            };
            self.pool
                .place(pid, vpn, hint, self.clock, &mut self.recorder)?;
            dirty = pte.dirty;
            if pte.dirty {
                // Writeback happens off the critical path but occupies
                // the shared link.
                let done = self
                    .pool
                    .write_page(pid, vpn, self.clock, &mut self.recorder);
                if self.obs_hists {
                    self.hists
                        .rdma_write
                        .record_nanos(done.saturating_since(self.clock));
                }
                self.counters.writebacks += 1;
            }
        }
        if self.recorder.is_enabled() {
            self.recorder
                .record(self.clock, Event::Reclaim { ppn, active, dirty });
            if wasted.is_some() {
                self.recorder
                    .record(self.clock, Event::PrefetchWasted { pid, vpn });
            }
        }
        self.frames.free(ppn)?;
        self.llc.invalidate_page(ppn);
        self.mc.on_page_reclaimed(ppn);
        Ok(())
    }

    /// Direct reclaim for process `idx` while its list, its cgroup's
    /// charge, holds more pages than its limit.
    fn reclaim_over_limit(&mut self, idx: usize) -> Result<()> {
        let owner = list_of(idx);
        while self.frames.lru.len(owner) > self.procs[idx].limit_pages {
            let Some((ppn, from)) = self.pop_mapped_victim(owner) else {
                break;
            };
            self.evict_frame(ppn, owner, from)?;
        }
        Ok(())
    }

    /// Pops the next eviction victim from a cgroup's mapped LRU (list
    /// owner `owner`), with the list it came off. With trace-assisted
    /// reclaim enabled (§IV), pages the MC reported hot within the
    /// configured window get a second chance (re-inserted at the active
    /// head), bounded to a few rotations.
    fn pop_mapped_victim(&mut self, owner: usize) -> Option<(Ppn, LruTier)> {
        if let Some(window) = self.config.trace_assisted_reclaim {
            for _ in 0..4 {
                let (ppn, from) = self.frames.lru.pop_evict(owner)?;
                let hot_recently = self
                    .frames
                    .last_hot(ppn)
                    .is_some_and(|t| self.clock.saturating_since(t) < window);
                if !hot_recently {
                    return Some((ppn, from));
                }
                self.frames.lru.insert(owner, ppn, LruTier::Active);
            }
        }
        self.frames.lru.pop_evict(owner)
    }

    /// The run's counters, with accesses and major and minor faults
    /// summed over the apps.
    fn counters(&self) -> Counters {
        let sum = |count: fn(&Process) -> u64| self.procs.iter().map(count).sum();
        Counters {
            accesses: sum(|p| p.accesses),
            major_faults: sum(|p| p.major_faults),
            minor_faults: sum(|p| p.minor_faults),
            ..self.counters
        }
    }

    fn report(mut self) -> SimReport {
        let counters = self.counters();
        let mut per_app = BTreeMap::new();
        let mut completion = Nanos::ZERO;
        for p in &self.procs {
            let finished = p.finished_at.unwrap_or(self.clock);
            completion = completion.max(finished);
            per_app.insert(
                p.pid(),
                AppReport {
                    finished_at: finished,
                    accesses: p.accesses,
                    major_faults: p.major_faults,
                    minor_faults: p.minor_faults,
                },
            );
        }
        // Every remote demand request is a major fault. The tiers' own
        // reports count none, so their coverage reads 1.0 or 0.0.
        let demand_remote = counters.major_faults;
        let [baseline, tiers @ ..] = &self.prefetch_metrics;
        let (hopp_report, tier_reports, tier_stats) = match &self.hopp {
            Some(h) => (
                Some(tiers.iter().sum::<PrefetchMetrics>().report(demand_remote)),
                Some(tiers.each_ref().map(|m| m.report(0))),
                Some(h.engine.tier_stats()),
            ),
            None => (None, None, None),
        };
        SimReport {
            system: self.config.system.name(),
            completion,
            per_app,
            counters,
            baseline: baseline.report(demand_remote),
            hopp: hopp_report,
            hopp_tiers: tier_reports,
            tier_stats,
            hpd: self.mc.hpd_stats(),
            rpt: self.mc.rpt().stats(),
            ledger: self.mc.ledger(),
            llc: self.llc.stats(),
            rdma: self.pool.stats(),
            fabric: if self.pool.is_degenerate() {
                None
            } else {
                Some(self.pool.report(self.clock))
            },
            timeline: self.timeline,
            obs: ObsReport {
                level: self.config.obs_level,
                latency: if self.config.obs_level.histograms() {
                    let all: PrefetchMetrics = self.prefetch_metrics.iter().sum();
                    self.hists.summaries(all.report(0).timeliness)
                } else {
                    Default::default()
                },
                dropped_events: self.recorder.dropped(),
                events: std::mem::take(&mut self.recorder).into_events(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, BaselineKind};
    use hopp_trace::patterns::SimpleStream;

    fn scan_app(pid: u16, pages: u64, passes: usize, limit: usize) -> AppSpec {
        let passes: Vec<Box<dyn AccessStream>> = (0..passes)
            .map(|_| {
                Box::new(SimpleStream::new(
                    Pid::new(pid),
                    Vpn::new(1 << 20),
                    1,
                    pages,
                )) as Box<dyn AccessStream>
            })
            .collect();
        AppSpec {
            pid: Pid::new(pid),
            stream: Box::new(hopp_trace::patterns::Chain::new(passes)),
            limit_pages: limit,
        }
    }

    fn run(system: SystemConfig, app: AppSpec) -> SimReport {
        Simulator::new(SimConfig::with_system(system), vec![app])
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn local_run_has_no_remote_traffic() {
        let r = run(
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            scan_app(1, 1_000, 2, 1_200),
        );
        assert_eq!(r.counters.major_faults, 0);
        assert_eq!(r.counters.minor_faults, 0);
        assert_eq!(r.counters.first_touches, 1_000);
        assert_eq!(r.remote_reads(), 0);
        assert_eq!(r.counters.accesses, 2_000);
    }

    #[test]
    fn constrained_run_faults_on_the_second_pass() {
        let r = run(
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            scan_app(1, 1_000, 2, 500),
        );
        // Pass 1: first touches + evictions. Pass 2: LRU worst case —
        // every page was evicted before its re-access.
        assert_eq!(r.counters.first_touches, 1_000);
        assert_eq!(r.counters.major_faults, 1_000);
        assert!(r.counters.reclaimed >= 1_000);
        assert!(r.remote_reads() >= 1_000);
    }

    #[test]
    fn fastswap_readahead_converts_major_to_minor() {
        let r = run(
            SystemConfig::Baseline(BaselineKind::Fastswap),
            scan_app(1, 1_000, 2, 500),
        );
        assert!(
            r.counters.minor_faults + r.counters.inflight_waits > 500,
            "readahead should serve most re-accesses: {:?}",
            r.counters
        );
        assert!(r.counters.major_faults < 500);
        assert!(
            r.baseline.accuracy > 0.8,
            "sequential readahead is accurate"
        );
    }

    #[test]
    fn a_demand_access_waits_for_its_page_in_flight() {
        use hopp_obs::ObsLevel;
        use hopp_workloads::WorkloadKind;
        // GraphX-LP often touches a page while Fastswap's readahead is
        // still bringing it in. The access waits for that read to land
        // instead of issuing a second one.
        let config = SimConfig {
            obs_level: ObsLevel::Full,
            ..SimConfig::with_system(SystemConfig::Baseline(BaselineKind::Fastswap))
        };
        let pid = crate::runner::SOLO_PID;
        let stream = WorkloadKind::GraphLp.build(pid, 4_096, 42);
        let r = crate::runner::solo_simulator(config, pid, stream, 4_096, 0.5)
            .unwrap()
            .run()
            .unwrap();
        assert!(r.counters.inflight_waits > 0);
        let events = &r.obs.events;
        let mut waits = 0;
        for (i, e) in events.iter().enumerate() {
            let Event::InflightWait { pid, vpn, .. } = e.event else {
                continue;
            };
            waits += 1;
            let next = events[i + 1..].iter().find_map(|e| match e.event {
                Event::PrefetchArrived { pid: p, vpn: v, .. }
                | Event::MinorFault { pid: p, vpn: v }
                | Event::MajorFault { pid: p, vpn: v, .. }
                    if (p, v) == (pid, vpn) =>
                {
                    Some(e.event)
                }
                _ => None,
            });
            assert!(
                matches!(next, Some(Event::PrefetchArrived { .. })),
                "{pid} {vpn}: waited, then {next:?}"
            );
        }
        assert_eq!(waits, r.counters.inflight_waits);
    }

    #[test]
    fn fastswap_beats_no_prefetch_on_streams() {
        let no = run(
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            scan_app(1, 1_000, 2, 500),
        );
        let fs = run(
            SystemConfig::Baseline(BaselineKind::Fastswap),
            scan_app(1, 1_000, 2, 500),
        );
        assert!(fs.completion < no.completion);
    }

    #[test]
    fn hopp_injects_and_beats_fastswap() {
        let fs = run(
            SystemConfig::Baseline(BaselineKind::Fastswap),
            scan_app(1, 2_000, 3, 1_000),
        );
        let hp = run(SystemConfig::hopp_default(), scan_app(1, 2_000, 3, 1_000));
        assert!(hp.counters.hopp_prefetches > 0, "hopp issued prefetches");
        let hopp_metrics = hp.hopp.unwrap();
        assert!(hopp_metrics.prefetch_hits > 0, "injected pages were hit");
        assert!(
            hp.completion < fs.completion,
            "hopp {} vs fastswap {}",
            hp.completion,
            fs.completion
        );
    }

    #[test]
    fn dirty_pages_are_written_back() {
        let app = AppSpec {
            pid: Pid::new(1),
            stream: Box::new(SimpleStream::new(Pid::new(1), Vpn::new(1 << 20), 1, 1_000).writes()),
            limit_pages: 400,
        };
        let r = run(SystemConfig::Baseline(BaselineKind::NoPrefetch), app);
        assert!(r.counters.writebacks > 0);
        assert!(r.rdma.writes > 0);
    }

    #[test]
    fn multi_app_isolation_by_cgroup() {
        let apps = vec![scan_app(1, 800, 2, 400), scan_app(2, 800, 2, 400)];
        let r = Simulator::new(
            SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch)),
            apps,
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(r.per_app.len(), 2);
        let a = r.per_app[&Pid::new(1)];
        let b = r.per_app[&Pid::new(2)];
        assert_eq!(a.accesses, 1_600);
        assert_eq!(b.accesses, 1_600);
        // Both apps fault comparably under equal limits.
        let ratio = a.major_faults as f64 / b.major_faults.max(1) as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn apps_in_descending_pid_order_keep_their_own_state() {
        let apps = vec![scan_app(2, 800, 2, 400), scan_app(1, 500, 3, 250)];
        let mut sim =
            Simulator::new(SimConfig::with_system(SystemConfig::hopp_default()), apps).unwrap();
        sim.run_apps().unwrap();
        sim.check_frame_conservation();
        let r = sim.report();
        assert_eq!(r.per_app[&Pid::new(2)].accesses, 1_600);
        assert_eq!(r.per_app[&Pid::new(1)].accesses, 1_500);
        assert!(r.per_app.values().all(|a| a.major_faults > 0));
    }

    #[test]
    fn an_access_by_no_apps_pid_ends_the_run() {
        let app = AppSpec {
            pid: Pid::new(1),
            stream: Box::new(SimpleStream::new(Pid::new(9), Vpn::new(0), 1, 10)),
            limit_pages: 10,
        };
        let err = Simulator::new(SimConfig::default(), vec![app])
            .unwrap()
            .run()
            .err();
        assert_eq!(err, Some(Error::UnknownProcess { pid: Pid::new(9) }));
    }

    #[test]
    fn a_page_beyond_the_rpt_vpn_field_ends_the_run() {
        let vpn = Vpn::new(1 << RPT_VPN_BITS);
        let app = AppSpec {
            pid: Pid::new(1),
            stream: Box::new(SimpleStream::new(Pid::new(1), vpn, 1, 10)),
            limit_pages: 10,
        };
        let err = Simulator::new(
            SimConfig::with_system(SystemConfig::hopp_default()),
            vec![app],
        )
        .unwrap()
        .run()
        .err();
        assert_eq!(
            err,
            Some(Error::VpnOutOfRange {
                pid: Pid::new(1),
                vpn,
                bits: 40
            })
        );
    }

    #[test]
    fn global_eviction_falls_back_to_the_highest_pid_among_equals() {
        // Input order 9, 5, 3. Pids 9 and 5 map two pages each and
        // pid 3, the preferring one, none.
        let apps = vec![
            scan_app(9, 1, 1, 10),
            scan_app(5, 1, 1, 10),
            scan_app(3, 1, 1, 10),
        ];
        let mut sim = Simulator::new(SimConfig::default(), apps).unwrap();
        for idx in 0..2 {
            for vpn in [Vpn::new(0), Vpn::new(1)] {
                let ppn = sim.ensure_frame(idx, vpn).unwrap();
                sim.map_page(idx, vpn, ppn).unwrap();
            }
        }
        assert!(sim.evict_one(2).unwrap());
        let lists = [0, 1, 2].map(|idx| sim.frames.lru.len(list_of(idx)));
        assert_eq!(lists, [1, 2, 0]);
        assert_eq!(sim.procs[0].space.iter_swapped().count(), 1);
    }

    #[test]
    fn mapping_a_present_page_again_is_an_error() {
        let mut sim = Simulator::new(SimConfig::default(), vec![scan_app(1, 1, 1, 10)]).unwrap();
        let vpn = Vpn::new(7);
        let first = sim.ensure_frame(0, vpn).unwrap();
        sim.map_page(0, vpn, first).unwrap();
        let second = sim.ensure_frame(0, vpn).unwrap();
        assert_eq!(
            sim.map_page(0, vpn, second),
            Err(Error::FrameNotOwned { ppn: first })
        );
    }

    #[test]
    fn duplicate_pids_are_rejected() {
        let apps = vec![scan_app(1, 300, 1, 300), scan_app(1, 300, 1, 300)];
        assert!(Simulator::new(SimConfig::default(), apps).is_err());
    }

    #[test]
    fn frame_pools_beyond_the_link_range_are_rejected() {
        // The default LLC tags 2^37 pages; frame links stop at 2^32 - 2.
        let config = SimConfig::default();
        assert!(config.llc.max_pages().unwrap() > 1 << 33);
        let err = Simulator::new(config, vec![scan_app(1, 300, 1, 1 << 33)])
            .err()
            .unwrap();
        assert!(matches!(
            err,
            Error::InvalidConfig {
                what: "frame count",
                ..
            }
        ));
    }

    #[test]
    fn kernel_pid_is_rejected() {
        let apps = vec![scan_app(0, 300, 1, 300)];
        assert!(Simulator::new(SimConfig::default(), apps).is_err());
    }

    #[test]
    fn hpd_sees_traffic_even_without_hopp() {
        let r = run(
            SystemConfig::Baseline(BaselineKind::Fastswap),
            scan_app(1, 1_000, 2, 500),
        );
        assert!(r.hpd.hot_pages > 0, "the MC pipeline is always on");
        assert!(r.ledger.hpd_overhead_percent() > 0.0);
    }

    #[test]
    fn huge_batching_collapses_remote_reads() {
        use hopp_core::policy::{HugeBatchConfig, PolicyConfig};
        use hopp_core::HoppConfig;
        let page_by_page = run(SystemConfig::hopp_default(), scan_app(1, 4_000, 3, 2_000));
        // The batch must stay small relative to the scaled working set
        // (512 pages is 2 MB against the paper's multi-GB footprints).
        let batched = run(
            SystemConfig::hopp_with(HoppConfig {
                policy: PolicyConfig {
                    huge_batch: Some(HugeBatchConfig {
                        min_confirmations: 64,
                        batch_pages: 64,
                    }),
                    ..PolicyConfig::default()
                },
                ..HoppConfig::default()
            }),
            scan_app(1, 4_000, 3, 2_000),
        );
        // One 2 MB read replaces up to 512 page reads.
        assert!(
            batched.rdma.reads * 4 < page_by_page.rdma.reads,
            "batched {} vs page-by-page {}",
            batched.rdma.reads,
            page_by_page.rdma.reads
        );
        // And it must not be slower.
        assert!(batched.completion <= page_by_page.completion.scale(1.05));
        let m = batched.hopp.unwrap();
        assert!(m.prefetch_hits > 1_000);
    }

    #[test]
    fn huge_batches_never_give_a_swapcache_page_a_second_frame() {
        use hopp_core::policy::{HugeBatchConfig, PolicyConfig};
        use hopp_core::HoppConfig;
        use hopp_workloads::WorkloadKind;
        // Fastswap's readahead puts pages of a huge batch's span into
        // the swapcache while the batch is in flight. A page injected
        // anyway got a second frame, and the minor fault that later
        // took its stale swapcache entry freed a slot that by then held
        // another page.
        let system = SystemConfig::hopp_with(HoppConfig {
            policy: PolicyConfig {
                huge_batch: Some(HugeBatchConfig::default()),
                ..PolicyConfig::default()
            },
            ..HoppConfig::default()
        });
        let pid = crate::runner::SOLO_PID;
        let stream = WorkloadKind::Quicksort.build(pid, 8_192, 42);
        let mut sim =
            crate::runner::solo_simulator(SimConfig::with_system(system), pid, stream, 8_192, 0.25)
                .unwrap();
        sim.run_apps().unwrap();
        assert!(sim.counters().minor_faults > 0);
        sim.check_frame_conservation();
    }

    #[test]
    fn huge_batches_claim_each_page_once() {
        use hopp_core::policy::{HugeBatchConfig, PolicyConfig};
        use hopp_core::HoppConfig;
        use hopp_obs::ObsLevel;
        use hopp_workloads::WorkloadKind;
        // NPB-MG's huge batches overlap. A read claims the pages of its
        // span that no other read has claimed, until it lands or they
        // are swapped in. An order whose first page a read in flight
        // has claimed must not get a read of its own.
        let config = SimConfig {
            obs_level: ObsLevel::Full,
            ..SimConfig::with_system(SystemConfig::hopp_with(HoppConfig {
                policy: PolicyConfig {
                    huge_batch: Some(HugeBatchConfig::default()),
                    ..PolicyConfig::default()
                },
                ..HoppConfig::default()
            }))
        };
        let pid = crate::runner::SOLO_PID;
        let stream = WorkloadKind::NpbMg.build(pid, 8_192, 42);
        let r = crate::runner::solo_simulator(config, pid, stream, 8_192, 0.5)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.obs.dropped_events, 0);
        // Events are in issue order. A page stays claimed by the span
        // that covered it unless it was swapped out or dropped from the
        // swapcache (so swapped in or cached first) after that span was
        // issued.
        let mut released: BTreeMap<Vpn, usize> = BTreeMap::new();
        // (done, first page, span, event index) of HoPP reads in flight.
        let mut inflight: Vec<(Nanos, Vpn, u32, usize)> = Vec::new();
        let mut batches = 0;
        for (i, e) in r.obs.events.iter().enumerate() {
            match e.event {
                Event::SwapOut { vpn, .. } | Event::PrefetchWasted { vpn, .. } => {
                    released.insert(vpn, i);
                }
                Event::PrefetchIssued {
                    vpn, span, latency, ..
                } => {
                    let start = e.at.saturating_since(latency);
                    inflight.retain(|&(done, ..)| done > start);
                    let claimed_by = inflight.iter().find(|&&(_, first, s, at)| {
                        vpn.raw().wrapping_sub(first.raw()) < u64::from(s)
                            && released.get(&vpn).is_none_or(|&r| r < at)
                    });
                    assert!(
                        claimed_by.is_none(),
                        "read of {vpn} at {start} while {claimed_by:?} claims it"
                    );
                    batches += u32::from(span > 1);
                    inflight.push((e.at, vpn, span, i));
                }
                _ => {}
            }
        }
        assert!(batches > 0, "no huge batch was issued");
    }

    #[test]
    fn timeline_samples_accumulate_monotonically() {
        let config = SimConfig {
            timeline_every: 100,
            ..SimConfig::with_system(SystemConfig::hopp_default())
        };
        let r = Simulator::new(config, vec![scan_app(1, 1_000, 2, 500)])
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.timeline.len(), 20, "2000 accesses / 100");
        for w in r.timeline.windows(2) {
            assert!(w[1].at >= w[0].at);
            assert!(w[1].major_faults >= w[0].major_faults);
            assert!(w[1].accesses == w[0].accesses + 100);
        }
        // Warmup (§VI-E's "sluggish at start"): pass 1 (samples 0..10)
        // is all first touches; re-access faulting starts at sample 10.
        // The start of pass 2 faults harder than its end, once HoPP's
        // training catches up.
        let early = r.timeline[11].major_faults - r.timeline[9].major_faults;
        let late = r.timeline[19].major_faults - r.timeline[17].major_faults;
        assert!(
            late < early,
            "late window {late} vs early window {early}: no warmup visible"
        );
    }

    #[test]
    fn direct_reclaim_charges_the_critical_path() {
        let advance = run(
            SystemConfig::Baseline(BaselineKind::NoPrefetch),
            scan_app(1, 1_000, 2, 500),
        );
        let direct = Simulator::new(
            SimConfig {
                reclaim_in_advance: false,
                ..SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch))
            },
            vec![scan_app(1, 1_000, 2, 500)],
        )
        .unwrap()
        .run()
        .unwrap();
        // ~1000 reclaims x 3 us land on the fault path: the pre-v5.8
        // worst case of §II-A.
        let extra = direct.completion.saturating_since(advance.completion);
        assert!(
            extra >= Nanos::from_micros(2_500),
            "direct reclaim cost {extra} should approach reclaims x 3us"
        );
        assert_eq!(direct.counters.major_faults, advance.counters.major_faults);
    }

    #[test]
    fn dynamic_offset_beats_pinned_offset_under_volatility() {
        use hopp_core::{HoppConfig, PolicyConfig};
        use hopp_net::RdmaConfig;
        let volatile = |system: SystemConfig| SimConfig {
            rdma: RdmaConfig::volatile(),
            ..SimConfig::with_system(system)
        };
        let app = || scan_app(1, 3_000, 3, 1_500);
        let pinned = Simulator::new(
            volatile(SystemConfig::hopp_with(HoppConfig {
                policy: PolicyConfig::fixed_offset(1.0),
                ..HoppConfig::default()
            })),
            vec![app()],
        )
        .unwrap()
        .run()
        .unwrap();
        let dynamic = Simulator::new(volatile(SystemConfig::hopp_default()), vec![app()])
            .unwrap()
            .run()
            .unwrap();
        // §III-E: the timeliness controller pushes the offset out during
        // bursts; a pinned offset of 1 keeps stalling on late pages.
        assert!(
            dynamic.completion < pinned.completion,
            "dynamic {} !< pinned {}",
            dynamic.completion,
            pinned.completion
        );
    }

    #[test]
    fn obs_level_never_changes_simulated_behaviour() {
        use hopp_obs::ObsLevel;
        let run_at = |level: ObsLevel| {
            let config = SimConfig {
                obs_level: level,
                ..SimConfig::with_system(SystemConfig::hopp_default())
            };
            Simulator::new(config, vec![scan_app(1, 1_000, 2, 500)])
                .unwrap()
                .run()
                .unwrap()
        };
        let off = run_at(ObsLevel::Off);
        let counters = run_at(ObsLevel::Counters);
        let full = run_at(ObsLevel::Full);
        // The observability layer must be a pure observer: every counter
        // and the completion time are bit-identical across levels.
        assert_eq!(off.counters, counters.counters);
        assert_eq!(off.counters, full.counters);
        assert_eq!(off.completion, counters.completion);
        assert_eq!(off.completion, full.completion);
        assert_eq!(off.rdma, full.rdma);
        // And each level collects exactly what it promises.
        assert_eq!(off.obs.latency.major_fault.count, 0);
        assert!(off.obs.events.is_empty());
        assert!(counters.obs.latency.major_fault.count > 0);
        assert!(counters.obs.events.is_empty());
        assert!(full.obs.latency.major_fault.count > 0);
        assert!(!full.obs.events.is_empty());
        assert_eq!(full.obs.dropped_events, 0);
    }

    #[test]
    fn reclaim_events_name_the_list_the_victim_came_off() {
        use hopp_obs::ObsLevel;
        let run_full = |system: SystemConfig, slack_frames: usize| {
            let config = SimConfig {
                obs_level: ObsLevel::Full,
                slack_frames,
                ..SimConfig::with_system(system)
            };
            // NPB-IS's random bucket traffic defeats readahead often.
            let app = AppSpec {
                pid: Pid::new(1),
                stream: hopp_workloads::WorkloadKind::NpbIs.build(Pid::new(1), 1_024, 42),
                limit_pages: 512,
            };
            let r = Simulator::new(config, vec![app]).unwrap().run().unwrap();
            let active: Vec<bool> = r
                .obs
                .events
                .iter()
                .filter_map(|e| match e.event {
                    Event::Reclaim { active, .. } => Some(active),
                    _ => None,
                })
                .collect();
            assert_eq!(active.len() as u64, r.counters.reclaimed);
            (r, active)
        };
        // Mapped pages live on their cgroup's active list, so HoPP's
        // over-limit reclaim takes them from there.
        let (_, hopp) = run_full(SystemConfig::hopp_default(), 512);
        assert!(
            hopp.iter().all(|&active| active),
            "no inactive mapped pages"
        );
        assert!(!hopp.is_empty());
        // A small pool makes Fastswap drop unconsumed readahead pages:
        // they come off the swapcache's inactive list, and each is one
        // wasted baseline prefetch.
        let (fs, fastswap) = run_full(SystemConfig::Baseline(BaselineKind::Fastswap), 16);
        let inactive = fastswap.iter().filter(|&&active| !active).count() as u64;
        assert!(inactive > 0, "no swapcache page was reclaimed");
        assert_eq!(inactive, fs.baseline.wasted);
        assert!(fastswap.iter().any(|&active| active));
    }

    #[test]
    fn depth_n_injects_without_swapcache() {
        let r = run(
            SystemConfig::Baseline(BaselineKind::DepthN(16)),
            scan_app(1, 1_000, 2, 500),
        );
        // Depth-N's prefetches are injected: hits show up as neither
        // minor faults nor swapcache hits.
        assert!(r.baseline.prefetched > 0);
        assert!(r.baseline.prefetch_hits > 0);
        assert!(r.counters.minor_faults == 0);
    }
}
