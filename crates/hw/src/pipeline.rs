//! The full in-MC pipeline: LLC miss → HPD → RPT → hot-page record.
//!
//! This is "step 1 and step 2" of the paper's Figure 4: the hot page
//! detection module extracts hot PPNs from the miss stream and the RPT
//! cache maps each to its `(PID, VPN)` combo, which is then written to a
//! reserved DRAM area for software to consume. [`McPipeline`] wires the
//! two modules together, keeps the bandwidth ledger, and exposes the
//! kernel-facing PTE hooks.
//!
//! The miss stream arrives one page touch at a time: bit `j` of a miss
//! mask is line `j` of the page. [`McPipeline::on_page_misses`] splits
//! the mask into one lane per memory channel (line `j` of page `ppn` goes
//! to channel `(ppn.line(0) + j) % channels`, with the lane masks built
//! once in [`McPipeline::with_channels`]), counts each lane as one HPD
//! run and returns the lines that made the page hot. The caller passes
//! each of them, in line order, to [`McPipeline::resolve_hot`], which
//! does the RPT lookup and writes the hot-page record.
//! [`McPipeline::on_llc_miss`] is the single-line form of the two.

use hopp_mem::PteListener;
use hopp_obs::{Event, NopRecorder, Recorder};
use hopp_types::{AccessKind, HotPage, LineAddr, Nanos, Pid, Ppn, Result, Vpn};

use crate::cost::BandwidthLedger;
use crate::hpd::{HotPageDetector, HpdConfig};
use crate::rpt::{ReversePageTable, RptCacheConfig};

/// The modelled memory-controller pipeline.
///
/// # Example
///
/// ```
/// use hopp_hw::{McPipeline, HpdConfig, RptCacheConfig};
/// use hopp_mem::PteListener;
/// use hopp_types::{AccessKind, Nanos, Pid, Ppn, Vpn};
///
/// let mut mc = McPipeline::new(HpdConfig::with_threshold(2), RptCacheConfig::default())?;
/// mc.pte_set(Pid::new(1), Vpn::new(0x50), Ppn::new(4));
/// let t = Nanos::from_nanos(10);
/// assert!(mc.on_llc_miss(Ppn::new(4).line(0), AccessKind::Read, t).is_none());
/// let hot = mc.on_llc_miss(Ppn::new(4).line(1), AccessKind::Read, t).unwrap();
/// assert_eq!(hot.vpn, Vpn::new(0x50));
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct McPipeline {
    /// One HPD table per memory channel (§III-B: interleaved channels
    /// each see a share of a page's cachelines, so each channel runs a
    /// proportionally reduced threshold).
    hpds: Vec<HotPageDetector>,
    /// `lanes[r]` has bit `j` set for every line `j ≡ r (mod channels)`
    /// of a page: the lines that share one channel.
    lanes: Vec<u64>,
    rpt: ReversePageTable,
    ledger: BandwidthLedger,
}

impl McPipeline {
    /// Builds a single-channel pipeline from the two module
    /// configurations.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors from either module.
    pub fn new(hpd: HpdConfig, rpt: RptCacheConfig) -> Result<Self> {
        Self::with_channels(hpd, rpt, 1)
    }

    /// Builds a pipeline with `channels` interleaved memory channels.
    /// Cachelines are distributed line-interleaved; each channel's HPD
    /// threshold is `N / channels` (min 1) so a page still becomes hot
    /// after ~`N` total accesses. Repeated extractions of the same page
    /// from different channels are expected — the prefetch training
    /// framework de-duplicates them (§III-B).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors;
    /// [`Error::InvalidConfig`] for zero channels.
    ///
    /// [`Error::InvalidConfig`]: hopp_types::Error::InvalidConfig
    pub fn with_channels(hpd: HpdConfig, rpt: RptCacheConfig, channels: usize) -> Result<Self> {
        if channels == 0 {
            return Err(hopp_types::Error::InvalidConfig {
                what: "memory channels",
                constraint: "at least 1",
            });
        }
        // Validate the *requested* configuration before scaling: the
        // per-channel `.max(1)` must not silently repair an invalid
        // threshold of 0.
        hpd.validate()?;
        let per_channel = HpdConfig {
            threshold: (hpd.threshold / channels as u32).max(1),
            ..hpd
        };
        Ok(McPipeline {
            hpds: (0..channels)
                .map(|_| HotPageDetector::new(per_channel))
                .collect::<Result<_>>()?,
            lanes: (0..channels)
                .map(|r| {
                    (r..hopp_types::LINES_PER_PAGE)
                        .step_by(channels)
                        .fold(0, |lane, j| lane | 1 << j)
                })
                .collect(),
            rpt: ReversePageTable::new(rpt)?,
            ledger: BandwidthLedger::new(),
        })
    }

    /// Number of modelled memory channels.
    pub fn channels(&self) -> usize {
        self.hpds.len()
    }

    /// Feeds one LLC miss through HPD and, if it crosses the hotness
    /// threshold, through the RPT. Returns the resolved hot page, ready
    /// for the prefetch training framework.
    ///
    /// Hot pages whose frame cannot be resolved (freed or kernel-owned)
    /// are dropped, as the real hardware would drop them. One-line form
    /// of [`McPipeline::on_page_misses`] followed by
    /// [`McPipeline::resolve_hot`].
    pub fn on_llc_miss(&mut self, line: LineAddr, kind: AccessKind, now: Nanos) -> Option<HotPage> {
        let ppn = line.ppn();
        if self.on_page_misses(ppn, 1 << line.line_in_page(), kind) == 0 {
            return None;
        }
        self.resolve_hot(ppn, now, &mut NopRecorder)
    }

    /// Feeds the LLC misses of one touch of page `ppn` through the HPD
    /// tables: bit `j` of `misses` set means line `j` missed. Returns
    /// the mask of lines whose miss made the page hot in that line's
    /// channel; each such line is then passed to
    /// [`McPipeline::resolve_hot`], in line order.
    ///
    /// Equivalent to feeding the missed lines one by one: line `j` goes
    /// to channel `(ppn.line(0) + j) % channels`, and the channels'
    /// tables are independent, so each channel takes its share of the
    /// mask as one [`HotPageDetector::on_misses`] run.
    #[inline]
    pub fn on_page_misses(&mut self, ppn: Ppn, misses: u64, kind: AccessKind) -> u64 {
        self.ledger.app_misses += u64::from(misses.count_ones());
        let channels = self.hpds.len();
        if channels == 1 {
            return lane_hot(&mut self.hpds[0], ppn, misses, kind);
        }
        // Lines `j ≡ r (mod channels)` go to channel `(first + r) % channels`.
        let first = (ppn.line(0).raw() % channels as u64) as usize;
        let mut hot = 0;
        for (r, &lane) in self.lanes.iter().enumerate() {
            let channel = (first + r) % channels;
            hot |= lane_hot(&mut self.hpds[channel], ppn, misses & lane, kind);
        }
        hot
    }

    /// The rare path of a miss that made `ppn` hot: resolve it through
    /// the RPT and write the hot-page record, recording
    /// [`Event::HpdHot`], then [`Event::RptHit`] or [`Event::RptMiss`]
    /// (with whether the walk resolved) and [`Event::RptWriteback`] when
    /// the cache evicted a dirty way to DRAM. Returns `None` for a frame
    /// the RPT cannot resolve. Kept out of line so the common not-hot
    /// page touch stays small enough to inline.
    #[inline(never)]
    pub fn resolve_hot(&mut self, ppn: Ppn, now: Nanos, rec: &mut dyn Recorder) -> Option<HotPage> {
        // Host-profiling scope for the hot-extraction path only; the
        // common not-hot page touch in `on_page_misses` stays span-free.
        let _prof = hopp_prof::span(hopp_prof::SpanId::HwHpdExtract);
        if rec.is_enabled() {
            rec.record(now, Event::HpdHot { ppn });
        }
        let before = self.rpt.stats();
        let entry = self.rpt.lookup(ppn);
        let after = self.rpt.stats();
        self.ledger.rpt_dram_accesses += after.dram_accesses() - before.dram_accesses();
        if rec.is_enabled() {
            if after.hits > before.hits {
                rec.record(now, Event::RptHit { ppn });
            } else {
                rec.record(
                    now,
                    Event::RptMiss {
                        ppn,
                        resolved: entry.is_some(),
                    },
                );
            }
            if after.dram_writebacks > before.dram_writebacks {
                rec.record(now, Event::RptWriteback { ppn });
            }
        }
        let entry = entry?;
        // One 8-byte record written to the reserved hot-page area.
        self.ledger.hot_page_writes += 1;
        Some(HotPage {
            pid: entry.pid,
            vpn: entry.vpn,
            flags: entry.flags,
            at: now,
        })
    }

    /// Notifies the pipeline that a frame left DRAM (reclaim): its HPD
    /// counter is dropped so a stale count cannot fire later.
    pub fn on_page_reclaimed(&mut self, ppn: Ppn) {
        for hpd in &mut self.hpds {
            hpd.invalidate(ppn);
        }
    }

    /// Bootstraps the RPT from the current frame-owner table (done once
    /// when HoPP starts, §III-C).
    pub fn bootstrap_rpt<I>(&mut self, owned: I)
    where
        I: IntoIterator<Item = (Ppn, Pid, Vpn)>,
    {
        self.rpt.bootstrap(owned);
    }

    /// The HPD module of channel 0 (for configuration queries).
    pub fn hpd(&self) -> &HotPageDetector {
        &self.hpds[0]
    }

    /// HPD counters aggregated across channels.
    pub fn hpd_stats(&self) -> crate::hpd::HpdStats {
        let mut total = crate::hpd::HpdStats::default();
        for hpd in &self.hpds {
            total.merge(hpd.stats());
        }
        total
    }

    /// The RPT module (for stats).
    pub fn rpt(&self) -> &ReversePageTable {
        &self.rpt
    }

    /// The bandwidth overhead ledger (Table V).
    pub fn ledger(&self) -> BandwidthLedger {
        self.ledger
    }
}

/// Feeds the misses in `lane`, all to page `ppn` and all in `hpd`'s
/// channel, as one run; returns the bit of the line that made the page
/// hot, or 0.
#[inline]
fn lane_hot(hpd: &mut HotPageDetector, ppn: Ppn, lane: u64, kind: AccessKind) -> u64 {
    let Some(k) = hpd.on_misses(ppn, lane.count_ones(), kind) else {
        return 0;
    };
    // Drop the `k` lowest set bits; the lowest one left is the line.
    let mut rest = lane;
    for _ in 0..k {
        rest &= rest - 1;
    }
    rest & rest.wrapping_neg()
}

impl PteListener for McPipeline {
    fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        self.rpt.pte_set(pid, vpn, ppn);
    }
    fn pte_clear(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        self.rpt.pte_clear(pid, vpn, ppn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(n: u32) -> McPipeline {
        McPipeline::new(HpdConfig::with_threshold(n), RptCacheConfig::default()).unwrap()
    }

    fn feed_reads(mc: &mut McPipeline, ppn: Ppn, count: u8) -> Vec<HotPage> {
        (0..count)
            .filter_map(|i| {
                mc.on_llc_miss(
                    ppn.line(i),
                    AccessKind::Read,
                    Nanos::from_nanos(u64::from(i)),
                )
            })
            .collect()
    }

    #[test]
    fn end_to_end_hot_page_resolution() {
        let mut mc = pipeline(4);
        mc.pte_set(Pid::new(7), Vpn::new(0x700), Ppn::new(3));
        let hot = feed_reads(&mut mc, Ppn::new(3), 10);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].pid, Pid::new(7));
        assert_eq!(hot[0].vpn, Vpn::new(0x700));
        assert_eq!(hot[0].at, Nanos::from_nanos(3));
    }

    #[test]
    fn unresolvable_hot_pages_are_dropped() {
        let mut mc = pipeline(2);
        // No PTE hook ever ran for this frame.
        let hot = feed_reads(&mut mc, Ppn::new(50), 5);
        assert!(hot.is_empty());
        assert_eq!(mc.ledger().hot_page_writes, 0);
        assert_eq!(mc.rpt().stats().unresolved, 1);
    }

    #[test]
    fn ledger_counts_traffic() {
        let mut mc = pipeline(2);
        mc.pte_set(Pid::new(1), Vpn::new(1), Ppn::new(1));
        feed_reads(&mut mc, Ppn::new(1), 4);
        let ledger = mc.ledger();
        assert_eq!(ledger.app_misses, 4);
        assert_eq!(ledger.hot_page_writes, 1);
        assert!(ledger.hpd_overhead_percent() > 0.0);
    }

    #[test]
    fn bootstrap_resolves_preexisting_mappings() {
        let mut mc = pipeline(1);
        mc.bootstrap_rpt([(Ppn::new(9), Pid::new(2), Vpn::new(0x90))]);
        let hot = feed_reads(&mut mc, Ppn::new(9), 1);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].vpn, Vpn::new(0x90));
    }

    #[test]
    fn channels_split_the_line_stream() {
        let mut mc =
            McPipeline::with_channels(HpdConfig::with_threshold(8), RptCacheConfig::default(), 4)
                .unwrap();
        assert_eq!(mc.channels(), 4);
        mc.pte_set(Pid::new(1), Vpn::new(0x10), Ppn::new(4));
        // 8 line accesses spread over 4 channels: each channel sees 2,
        // which crosses the reduced per-channel threshold of 8/4 = 2 —
        // so the page is extracted up to once per channel.
        let hot = feed_reads(&mut mc, Ppn::new(4), 8);
        assert!(!hot.is_empty());
        assert!(hot.len() <= 4, "at most one extraction per channel");
        assert!(hot.iter().all(|h| h.vpn == Vpn::new(0x10)));
        assert_eq!(mc.hpd_stats().hot_pages, hot.len() as u64);
    }

    #[test]
    fn recording_traces_hpd_and_rpt_decisions() {
        use hopp_obs::TraceSink;
        let mut sink = TraceSink::new(64);
        let mut mc = pipeline(2);
        // Bootstrap fills only the DRAM copy, so the first RPT lookup
        // misses the cache and resolves via the DRAM walk.
        mc.bootstrap_rpt([(Ppn::new(4), Pid::new(1), Vpn::new(0x10))]);
        let feed = |mc: &mut McPipeline, sink: &mut TraceSink| {
            let hot = mc.on_page_misses(Ppn::new(4), 0b11, AccessKind::Read);
            assert_eq!(hot, 0b10);
            mc.resolve_hot(Ppn::new(4), Nanos::from_nanos(1), sink);
        };
        feed(&mut mc, &mut sink);
        // Clearing the send-bit lets the page fire again; this time the
        // RPT cache has the entry.
        mc.on_page_reclaimed(Ppn::new(4));
        feed(&mut mc, &mut sink);
        let events = sink.into_events();
        let names: Vec<&str> = events.iter().map(|e| e.event.name()).collect();
        assert_eq!(names, ["hpd_hot", "rpt_miss", "hpd_hot", "rpt_hit"]);
        match events[1].event {
            hopp_obs::Event::RptMiss { resolved, .. } => assert!(resolved),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_channels_is_rejected() {
        assert!(
            McPipeline::with_channels(HpdConfig::default(), RptCacheConfig::default(), 0).is_err()
        );
    }

    #[test]
    fn reclaim_invalidates_counter() {
        let mut mc = pipeline(3);
        mc.pte_set(Pid::new(1), Vpn::new(2), Ppn::new(2));
        feed_reads(&mut mc, Ppn::new(2), 2);
        mc.on_page_reclaimed(Ppn::new(2));
        // Counter restarted: two more reads are not enough.
        assert!(feed_reads(&mut mc, Ppn::new(2), 2).is_empty());
        assert_eq!(feed_reads(&mut mc, Ppn::new(2), 1).len(), 1);
    }
}
