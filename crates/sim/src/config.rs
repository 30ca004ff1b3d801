//! Simulation configuration: machine geometry, latency constants and
//! the prefetching system under test.

use hopp_baselines::{DepthN, FastswapReadahead, LeapPrefetcher, VmaReadahead};
use hopp_core::HoppConfig;
use hopp_fabric::FabricConfig;
use hopp_hw::{HpdConfig, RptCacheConfig};
use hopp_kernel::{FaultLatencyModel, NoPrefetch, Prefetcher};
use hopp_net::RdmaConfig;
use hopp_obs::ObsLevel;
use hopp_trace::llc::LlcConfig;
use hopp_trace::AccessStream;
use hopp_types::{Nanos, Pid};

/// The fault-path (kernel readahead) policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaselineKind {
    /// No prefetching at all (the Fig 17 normalization baseline).
    NoPrefetch,
    /// Fastswap's swap-slot readahead.
    Fastswap,
    /// Leap's majority-based stride prefetching.
    Leap,
    /// Linux 5.4's VMA-based readahead.
    Vma,
    /// Depth-N with the given depth (early PTE injection, no feedback).
    DepthN(usize),
}

impl BaselineKind {
    /// Instantiates the prefetcher.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            BaselineKind::NoPrefetch => Box::new(NoPrefetch),
            BaselineKind::Fastswap => Box::new(FastswapReadahead::new()),
            BaselineKind::Leap => Box::new(LeapPrefetcher::default()),
            BaselineKind::Vma => Box::new(VmaReadahead::new()),
            BaselineKind::DepthN(n) => Box::new(DepthN::new(n)),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::NoPrefetch => "no-prefetch",
            BaselineKind::Fastswap => "fastswap",
            BaselineKind::Leap => "leap",
            BaselineKind::Vma => "vma",
            BaselineKind::DepthN(_) => "depth-n",
        }
    }
}

/// The complete system under test.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SystemConfig {
    /// A kernel-based system alone.
    Baseline(BaselineKind),
    /// HoPP's separate data path layered on a kernel-based host system
    /// (the paper integrates HoPP with Fastswap, §V).
    Hopp {
        /// The fault-path system HoPP complements.
        host: BaselineKind,
        /// HoPP's software configuration.
        config: HoppConfig,
    },
}

impl SystemConfig {
    /// The paper's default deployment: HoPP on top of Fastswap.
    pub fn hopp_default() -> Self {
        SystemConfig::Hopp {
            host: BaselineKind::Fastswap,
            config: HoppConfig::default(),
        }
    }

    /// HoPP with a custom software configuration (still on Fastswap).
    pub fn hopp_with(config: HoppConfig) -> Self {
        SystemConfig::Hopp {
            host: BaselineKind::Fastswap,
            config,
        }
    }

    /// Resolves a system label, ignoring case: `hopp` (the paper's
    /// default deployment), `fastswap`, `leap`, `vma`, `no-prefetch`
    /// (also `noprefetch` and `none`) and `depth-<N>` (also `depth<N>`).
    pub fn from_name(name: &str) -> Option<Self> {
        let lower = name.to_ascii_lowercase();
        let baseline = match lower.as_str() {
            "hopp" => return Some(SystemConfig::hopp_default()),
            "fastswap" => BaselineKind::Fastswap,
            "leap" => BaselineKind::Leap,
            "vma" => BaselineKind::Vma,
            "no-prefetch" | "noprefetch" | "none" => BaselineKind::NoPrefetch,
            _ => {
                let depth = lower.strip_prefix("depth")?;
                let depth = depth.strip_prefix('-').unwrap_or(depth);
                BaselineKind::DepthN(depth.parse().ok()?)
            }
        };
        Some(SystemConfig::Baseline(baseline))
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemConfig::Baseline(b) => b.name(),
            SystemConfig::Hopp { .. } => "hopp",
        }
    }
}

/// Machine + system configuration for one run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// LLC geometry. The default is deliberately small (2 MB) relative
    /// to workload footprints so capacity misses reach the MC, exactly
    /// as multi-GB footprints dwarf a real 16 MB LLC.
    pub llc: LlcConfig,
    /// HPD table geometry and threshold.
    pub hpd: HpdConfig,
    /// RPT cache geometry.
    pub rpt: RptCacheConfig,
    /// RDMA link parameters (per pool node).
    pub rdma: RdmaConfig,
    /// Memory-pool geometry: node count, placement policy, replication
    /// and retry behaviour. The default single-node pool reproduces the
    /// paper's one-server testbed bit-for-bit; fault scripts attach via
    /// [`Simulator::set_fault_script`](crate::Simulator::set_fault_script).
    pub fabric: FabricConfig,
    /// Kernel fault-path latency constants.
    pub latency: FaultLatencyModel,
    /// The prefetching system under test.
    pub system: SystemConfig,
    /// Extra physical frames beyond the sum of cgroup limits. This is
    /// the headroom un-charged swapcache pages (Fastswap/Leap
    /// prefetches) can occupy — the accounting gap §I points out.
    pub slack_frames: usize,
    /// Cost of an LLC hit (kept tiny; it exists so hit loops are not
    /// free).
    pub llc_hit: Nanos,
    /// Interleaved memory channels (§III-B). Each channel runs its own
    /// HPD table with a proportionally reduced threshold; duplicate
    /// extractions are de-duplicated by the training framework.
    pub channels: usize,
    /// §IV extension: reclaim consults the hot-page trace and gives
    /// pages that were hot within this window a second chance before
    /// eviction. `None` disables it (the paper's prototype behaviour).
    pub trace_assisted_reclaim: Option<Nanos>,
    /// Take a [`TimelineSample`] every this many accesses (0 = off).
    /// Used for warmup / coverage-over-time analyses.
    ///
    /// [`TimelineSample`]: crate::report::TimelineSample
    pub timeline_every: u64,
    /// `true` (default, Linux ≥ v5.8): reclaim runs ahead of faults and
    /// its 2–5 µs/page cost stays off the critical path. `false`
    /// (pre-v5.8): direct reclaim charges `reclaim_per_page` to the
    /// fault that triggered it — the paper's 8.3–11.3 µs worst case.
    pub reclaim_in_advance: bool,
    /// Remote memory node capacity in pages (`None` = unbounded, the
    /// default). The paper's node offers 48 GB; a run that evicts more
    /// than this panics with a clear message.
    pub remote_capacity_pages: Option<usize>,
    /// `true` (default): the mapped-page LRU sees every access — an
    /// idealized kernel whose accessed-bit scanning is perfect. `false`:
    /// LRU order is fault-in order only, as for a kernel that never
    /// scans accessed bits; this is the regime where trace-assisted
    /// reclaim has real information to add.
    pub precise_lru: bool,
    /// How much observability the run collects: `Off` (nothing, the
    /// provably-free path), `Counters` (latency histograms, the
    /// default) or `Full` (histograms plus the typed event stream).
    /// Never changes simulated behaviour — only what the report holds.
    pub obs_level: ObsLevel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            llc: LlcConfig::simulator_default(),
            hpd: HpdConfig::default(),
            rpt: RptCacheConfig::default(),
            rdma: RdmaConfig::default(),
            fabric: FabricConfig::default(),
            latency: FaultLatencyModel::default(),
            system: SystemConfig::Baseline(BaselineKind::Fastswap),
            slack_frames: 512,
            llc_hit: Nanos::from_nanos(1),
            channels: 1,
            trace_assisted_reclaim: None,
            timeline_every: 0,
            reclaim_in_advance: true,
            remote_capacity_pages: None,
            precise_lru: true,
            obs_level: ObsLevel::default(),
        }
    }
}

impl SimConfig {
    /// Default machine with the given system.
    pub fn with_system(system: SystemConfig) -> Self {
        SimConfig {
            system,
            ..Default::default()
        }
    }

    /// Canonical content fingerprint of this configuration.
    ///
    /// `SimConfig` is a tree of `Copy` value types, so the derived
    /// `Debug` rendering is a pure function of every knob's value —
    /// stable across runs, thread counts and platforms. The hopp-lab
    /// sweep engine hashes this string (plus the workload/seed/ratio
    /// of the cell) to key its on-disk result cache: two runs share a
    /// cache entry iff every configuration knob matches.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// One application in a run.
pub struct AppSpec {
    /// The process id (must be unique within a run and non-kernel).
    pub pid: Pid,
    /// Its access stream.
    pub stream: Box<dyn AccessStream>,
    /// Its cgroup's local-memory limit, in pages.
    pub limit_pages: usize,
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("pid", &self.pid)
            .field("limit_pages", &self.limit_pages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_kinds_build() {
        for b in [
            BaselineKind::NoPrefetch,
            BaselineKind::Fastswap,
            BaselineKind::Leap,
            BaselineKind::Vma,
            BaselineKind::DepthN(16),
        ] {
            let p = b.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn default_config_is_valid() {
        let c = SimConfig::default();
        assert!(c.llc.sets().is_ok());
        assert!(c.hpd.validate().is_ok());
        assert!(c.rpt.sets().is_ok());
    }

    #[test]
    fn system_labels_parse_with_every_accepted_spelling() {
        let baseline = |b| Some(SystemConfig::Baseline(b));
        for (name, want) in [
            ("hopp", Some(SystemConfig::hopp_default())),
            ("HoPP", Some(SystemConfig::hopp_default())),
            ("fastswap", baseline(BaselineKind::Fastswap)),
            ("leap", baseline(BaselineKind::Leap)),
            ("vma", baseline(BaselineKind::Vma)),
            ("no-prefetch", baseline(BaselineKind::NoPrefetch)),
            ("noprefetch", baseline(BaselineKind::NoPrefetch)),
            ("none", baseline(BaselineKind::NoPrefetch)),
            ("depth-16", baseline(BaselineKind::DepthN(16))),
            ("depth32", baseline(BaselineKind::DepthN(32))),
            ("Depth-8", baseline(BaselineKind::DepthN(8))),
            ("depth-x", None),
            ("depth-", None),
            ("warp-drive", None),
        ] {
            assert_eq!(SystemConfig::from_name(name), want, "{name:?}");
        }
    }

    #[test]
    fn system_names() {
        assert_eq!(SystemConfig::hopp_default().name(), "hopp");
        assert_eq!(SystemConfig::Baseline(BaselineKind::Leap).name(), "leap");
    }
}
