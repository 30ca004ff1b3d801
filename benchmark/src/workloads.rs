//! The four benchmark workloads and the stream adapters the benchmark
//! wraps around the generators. Only generated streams reach the
//! simulator: every input derives from the workload seed.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use hopp::scn::hst::{self, HstHeader};
use hopp::sim::{AppSpec, BaselineKind, SystemConfig};
use hopp::trace::AccessStream;
use hopp::types::{AccessKind, PageAccess, Pid, SplitMix64, Vpn};
use hopp::workloads::WorkloadKind;

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Quicksort under HoPP: the LLC line loop, the MC pipeline and
    /// HoPP's training stack do most of the host work.
    QuicksortHopp,
    /// The same trace under Fastswap: identical LLC and HPD load, but
    /// HoPP's core never runs (the control for core changes).
    QuicksortFastswap,
    /// GraphX-PR recorded once to `.hst` and replayed from the file
    /// each round: heavy on reclaim and completion draining.
    PagerankHstHopp,
    /// Two tenants, half of each one's pages written: dirty reclaim,
    /// fabric writes, per-pid state and interleaved streams.
    TenantsRwHopp,
}

/// One application of a workload.
#[derive(Clone, Copy, Debug)]
pub struct App {
    /// Its generator.
    pub kind: WorkloadKind,
    /// Its process id.
    pub pid: Pid,
    /// Added to the workload seed to seed this app's generator.
    pub seed_offset: u64,
}

impl Workload {
    /// Every workload, in the order a round starts from.
    pub const ALL: [Workload; 4] = [
        Workload::QuicksortHopp,
        Workload::QuicksortFastswap,
        Workload::PagerankHstHopp,
        Workload::TenantsRwHopp,
    ];

    /// The name used on the command line and in every output line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuicksortHopp => "quicksort-hopp",
            Workload::QuicksortFastswap => "quicksort-fastswap",
            Workload::PagerankHstHopp => "pagerank-hst-hopp",
            Workload::TenantsRwHopp => "tenants-rw-hopp",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system under test.
    pub fn system(self) -> SystemConfig {
        match self {
            Workload::QuicksortFastswap => SystemConfig::Baseline(BaselineKind::Fastswap),
            _ => SystemConfig::hopp_default(),
        }
    }

    /// True when the system runs HoPP's separate data path.
    pub fn is_hopp(self) -> bool {
        matches!(self.system(), SystemConfig::Hopp { .. })
    }

    /// True when the workload's streams carry writes ([`WriteMix`]).
    pub fn writes(self) -> bool {
        self == Workload::TenantsRwHopp
    }

    /// True when rounds replay the workload from a recorded `.hst` file.
    pub fn via_hst(self) -> bool {
        self == Workload::PagerankHstHopp
    }

    /// The applications, each with its own cgroup of half its footprint.
    pub fn apps(self) -> &'static [App] {
        const fn app(kind: WorkloadKind, pid: u16, seed_offset: u64) -> App {
            App {
                kind,
                pid: Pid::new(pid),
                seed_offset,
            }
        }
        const QUICKSORT: [App; 1] = [app(WorkloadKind::Quicksort, 1, 0)];
        const PAGERANK: [App; 1] = [app(WorkloadKind::GraphPr, 1, 0)];
        const TENANTS: [App; 2] = [
            app(WorkloadKind::Kmeans, 1, 0),
            app(WorkloadKind::NpbIs, 2, 1),
        ];
        match self {
            Workload::QuicksortHopp | Workload::QuicksortFastswap => &QUICKSORT,
            Workload::PagerankHstHopp => &PAGERANK,
            Workload::TenantsRwHopp => &TENANTS,
        }
    }
}

/// Local memory per cgroup: half the footprint (as `run_stream_with`
/// computes it at a 0.5 ratio).
pub fn limit_pages(footprint: u64) -> usize {
    ((footprint as f64 * 0.5).ceil() as usize).max(64)
}

/// True when [`WriteMix`] under `seed` marks `vpn` as a written page.
pub fn is_written(vpn: Vpn, seed: u64) -> bool {
    SplitMix64::seed_from_u64(vpn.raw() ^ seed).next_u64() & 1 == 1
}

/// Turns every access to a seed-chosen half of the pages into a write.
/// Writes bypass hot page detection (§III-B) and leave pages dirty, so
/// their reclaim writes back over the fabric.
pub struct WriteMix<S> {
    inner: S,
    seed: u64,
}

impl<S> WriteMix<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, seed: u64) -> Self {
        WriteMix { inner, seed }
    }
}

impl<S: AccessStream> AccessStream for WriteMix<S> {
    fn next_access(&mut self) -> Option<PageAccess> {
        let mut a = self.inner.next_access()?;
        if is_written(a.vpn, self.seed) {
            a.kind = AccessKind::Write;
        }
        Some(a)
    }
}

/// Host timestamps of every `every`-th `next_access` call, shared by all
/// streams of a run. A stamp is taken when such a call starts and kept
/// when the call yields an access, so consecutive stamps bracket exactly
/// `every` simulated steps.
#[derive(Clone)]
pub struct StepClock {
    epoch: Instant,
    every: u64,
    stamps: Rc<RefCell<Vec<u64>>>,
}

impl StepClock {
    /// A clock stamping every `every`-th access, with room for the stamps
    /// of `accesses` accesses so stamping never allocates inside the
    /// measured run.
    pub fn new(every: u64, accesses: u64) -> Self {
        let every = every.max(1);
        StepClock {
            epoch: Instant::now(),
            every,
            stamps: Rc::new(RefCell::new(Vec::with_capacity(
                usize::try_from(accesses / every).unwrap_or(0) + 16,
            ))),
        }
    }

    /// Host nanoseconds since the clock was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The stamps so far, in host nanoseconds since the clock was made.
    pub fn stamps(&self) -> Vec<u64> {
        self.stamps.borrow().clone()
    }
}

/// Counts the accesses a stream hands out and, when given a
/// [`StepClock`], stamps them on it.
pub struct Tap<S> {
    inner: S,
    handed_out: Rc<Cell<u64>>,
    clock: Option<StepClock>,
}

impl<S: AccessStream> AccessStream for Tap<S> {
    fn next_access(&mut self) -> Option<PageAccess> {
        let count = self.handed_out.get();
        let at = match &self.clock {
            Some(clock) if count.is_multiple_of(clock.every) => Some(clock.now_ns()),
            _ => None,
        };
        let a = self.inner.next_access()?;
        self.handed_out.set(count + 1);
        if let (Some(at), Some(clock)) = (at, &self.clock) {
            clock.stamps.borrow_mut().push(at);
        }
        Some(a)
    }
}

/// A `.hst` recording of a workload's generated stream, deleted on drop.
pub struct HstFile {
    path: PathBuf,
}

impl HstFile {
    /// Records `app`'s stream into `dir`.
    pub fn record(dir: &Path, app: App, footprint: u64, seed: u64) -> Result<Self, String> {
        let seed = seed.wrapping_add(app.seed_offset);
        let path = dir.join(format!(
            "hopp-benchmark-{}-{}-{seed}.hst",
            std::process::id(),
            app.pid.raw()
        ));
        let header = HstHeader {
            pid: app.pid,
            footprint_pages: footprint,
            seed,
            source: app.kind.name().to_string(),
        };
        let mut stream = app.kind.build(app.pid, footprint, seed);
        hst::record_file(&path, &header, &mut *stream).map_err(|e| e.to_string())?;
        Ok(HstFile { path })
    }
}

impl Drop for HstFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Where a run's streams come from.
pub enum Source<'a> {
    /// The generators, directly.
    Generate,
    /// Decoded `.hst` recordings, one per app, in app order.
    Hst(&'a [HstFile]),
}

/// The tapped streams of one run, by pid.
pub type Streams = Vec<(Pid, Box<dyn AccessStream>)>;

/// Builds the access streams of one run of `workload`: generated (or
/// decoded from `.hst`), write-mixed where the workload writes, and
/// wrapped in a [`Tap`] counting into `handed_out`.
pub fn streams(
    workload: Workload,
    source: &Source<'_>,
    footprint: u64,
    seed: u64,
    handed_out: &Rc<Cell<u64>>,
    clock: Option<&StepClock>,
) -> Result<Streams, String> {
    let mut out = Vec::new();
    for (i, app) in workload.apps().iter().enumerate() {
        let mut stream: Box<dyn AccessStream> = match source {
            Source::Generate => {
                app.kind
                    .build(app.pid, footprint, seed.wrapping_add(app.seed_offset))
            }
            Source::Hst(files) => {
                let file = files.get(i).ok_or("missing .hst recording")?;
                let trace = hst::read_file(&file.path).map_err(|e| e.to_string())?;
                Box::new(trace.into_stream())
            }
        };
        if workload.writes() {
            stream = Box::new(WriteMix::new(stream, seed));
        }
        out.push((
            app.pid,
            Box::new(Tap {
                inner: stream,
                handed_out: Rc::clone(handed_out),
                clock: clock.cloned(),
            }) as Box<dyn AccessStream>,
        ));
    }
    Ok(out)
}

/// The apps of one run, ready for `Simulator::new`.
pub fn app_specs(streams: Streams, footprint: u64) -> Vec<AppSpec> {
    streams
        .into_iter()
        .map(|(pid, stream)| AppSpec {
            pid,
            stream,
            limit_pages: limit_pages(footprint),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_mix_is_deterministic_and_marks_about_half_the_pages() {
        for seed in [0u64, 7, 42, 1 << 40] {
            let pages = 65_536u64;
            let written = (0..pages)
                .filter(|&p| is_written(Vpn::new((1 << 20) + p), seed))
                .count() as f64;
            let share = written / pages as f64;
            assert!((0.45..=0.55).contains(&share), "seed {seed}: {share}");
        }
        let drain = |seed| {
            let mut s = WriteMix::new(WorkloadKind::NpbIs.build(Pid::new(2), 1_024, 3), seed);
            std::iter::from_fn(move || s.next_access()).collect::<Vec<_>>()
        };
        assert_eq!(drain(42), drain(42));
        assert_ne!(drain(42), drain(43));
        let mixed = drain(42);
        assert!(mixed.iter().any(|a| a.kind == AccessKind::Write));
        assert!(mixed.iter().any(|a| a.kind == AccessKind::Read));
        // Every access to a page agrees on its kind.
        for a in &mixed {
            assert_eq!(a.kind == AccessKind::Write, is_written(a.vpn, 42));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }
}
