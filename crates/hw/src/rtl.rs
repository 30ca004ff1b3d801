//! A register-transfer-level model of the HPD table.
//!
//! The paper verifies hardware feasibility by implementing the modules
//! in Verilog (§VI-F). This module is the equivalent exercise in Rust:
//! a cycle-stepped, bit-width-exact model of the hot page detection
//! table that could be transliterated to RTL line by line:
//!
//! * every entry packs into one 64-bit register
//!   (`[ppn:52][count:7][sent:1][valid:1]`) plus a 4-bit age field —
//!   the whole 16×4 table is 64 × 65 bits ≈ 0.52 KB of state;
//! * replacement is an aging scheme (age saturates at 15; the accessed
//!   way resets to 0; the victim is the oldest way) — implementable
//!   with small comparators, unlike the behavioural model's unbounded
//!   64-bit LRU counters;
//! * the datapath is a two-stage pipeline (decode/lookup, then
//!   update/emit) accepting one LLC miss per cycle, so hot-page
//!   detection never stalls the memory controller.
//!
//! [`HpdRtl`] is *behaviourally equivalent* to
//! [`crate::hpd::HotPageDetector`] except for victim selection ties
//! (bounded ages vs exact LRU), which the tests quantify.

use hopp_types::{AccessKind, Error, LineAddr, Ppn, Result};

use crate::hpd::HpdConfig;

/// Bit widths of the packed entry (documented for the RTL port).
pub const PPN_BITS: u32 = 52;
/// Count field width: 7 bits so the threshold can reach 64 (a full
/// page of cachelines).
pub const COUNT_BITS: u32 = 7;
/// Age field width for the replacement policy.
pub const AGE_BITS: u32 = 4;

const COUNT_MAX: u64 = (1 << COUNT_BITS) - 1;
const AGE_MAX: u8 = (1 << AGE_BITS) - 1;

/// One packed table entry: `[ppn:52][count:7][sent:1][valid:1]`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct PackedEntry(u64);

impl PackedEntry {
    fn new(ppn: Ppn) -> Self {
        debug_assert!(ppn.raw() < (1 << PPN_BITS));
        // valid = 1, sent = 0, count = 0; the caller sets the count.
        PackedEntry((ppn.raw() << 12) | 1)
    }

    fn ppn(self) -> Ppn {
        Ppn::new(self.0 >> 12)
    }

    fn count(self) -> u64 {
        (self.0 >> 2) & COUNT_MAX
    }

    fn set_count(&mut self, c: u64) {
        self.0 = (self.0 & !(COUNT_MAX << 2)) | ((c.min(COUNT_MAX)) << 2);
    }

    fn sent(self) -> bool {
        (self.0 >> 1) & 1 == 1
    }

    fn set_sent(&mut self) {
        self.0 |= 0b10;
    }

    fn valid(self) -> bool {
        self.0 & 1 == 1
    }

    fn invalidate(&mut self) {
        self.0 &= !1;
    }
}

/// The replacement victim of a set, given each way's age in way order
/// (`u16::MAX` for an invalid way): the oldest way, ties to the highest
/// way index. Shared by both RTL models.
pub(crate) fn victim_way(ages: impl Iterator<Item = u16>) -> usize {
    let (victim, _) = ages
        .enumerate()
        .fold((0, 0), |(victim, oldest), (way, age)| {
            if age >= oldest {
                (way, age)
            } else {
                (victim, oldest)
            }
        });
    victim
}

/// What the pipeline produced at a clock edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RtlOutput {
    /// A page crossed the hotness threshold this cycle.
    pub hot: Option<Ppn>,
}

/// The in-flight request between pipeline stages.
#[derive(Clone, Copy, Debug)]
struct Stage1 {
    ppn: Ppn,
    set: usize,
    /// Way hit in stage 1, if any (the lookup result latched into the
    /// pipeline register).
    hit_way: Option<usize>,
}

/// The cycle-stepped HPD.
///
/// # Example
///
/// ```
/// use hopp_hw::rtl::HpdRtl;
/// use hopp_hw::HpdConfig;
/// use hopp_types::{AccessKind, Ppn};
///
/// let mut rtl = HpdRtl::new(HpdConfig::with_threshold(2))?;
/// let page = Ppn::new(8);
/// // Two read misses; the emission appears one cycle after the
/// // second access enters the pipeline.
/// assert_eq!(rtl.clock(Some((page.line(0), AccessKind::Read))).hot, None);
/// assert_eq!(rtl.clock(Some((page.line(1), AccessKind::Read))).hot, None);
/// assert_eq!(rtl.clock(None).hot, Some(page));
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct HpdRtl {
    config: HpdConfig,
    entries: Vec<Vec<PackedEntry>>,
    ages: Vec<Vec<u8>>,
    stage1: Option<Stage1>,
    cycles: u64,
    emitted: u64,
}

impl HpdRtl {
    /// Builds the table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid geometry or a
    /// threshold that does not fit the count field.
    pub fn new(config: HpdConfig) -> Result<Self> {
        config.validate()?;
        if u64::from(config.threshold) > COUNT_MAX {
            return Err(Error::InvalidConfig {
                what: "rtl hpd threshold",
                constraint: "must fit the count field",
            });
        }
        Ok(HpdRtl {
            entries: vec![vec![PackedEntry::default(); config.ways]; config.sets],
            ages: vec![vec![0; config.ways]; config.sets],
            stage1: None,
            config,
            cycles: 0,
            emitted: 0,
        })
    }

    /// Advances one clock edge: latches `input` into stage 1 and
    /// retires the previous request through stage 2.
    pub fn clock(&mut self, input: Option<(LineAddr, AccessKind)>) -> RtlOutput {
        self.cycles += 1;

        // Stage 2: update the entry latched last cycle and emit.
        let mut out = RtlOutput::default();
        if let Some(req) = self.stage1.take() {
            out.hot = self.stage2(req);
        }

        // Stage 1: decode + tag lookup (only read misses enter).
        if let Some((line, kind)) = input {
            if kind.is_read() {
                let ppn = line.ppn();
                let set = (ppn.raw() % self.config.sets as u64) as usize;
                let hit_way = self.entries[set]
                    .iter()
                    .position(|e| e.valid() && e.ppn() == ppn);
                self.stage1 = Some(Stage1 { ppn, set, hit_way });
            }
        }
        out
    }

    /// Stage 2 logic: count/insert/emit, age update.
    fn stage2(&mut self, req: Stage1) -> Option<Ppn> {
        let set = req.set;
        let way = match req.hit_way {
            Some(way) => way,
            None => {
                let victim = victim_way(self.entries[set].iter().zip(&self.ages[set]).map(
                    |(e, &age)| {
                        if e.valid() {
                            u16::from(age)
                        } else {
                            u16::MAX // invalid ways first
                        }
                    },
                ));
                self.entries[set][victim] = PackedEntry::new(req.ppn);
                self.entries[set][victim].set_count(1);
                self.age_touch(set, victim);
                if self.config.threshold == 1 {
                    self.entries[set][victim].set_sent();
                    self.emitted += 1;
                    return Some(req.ppn);
                }
                return None;
            }
        };

        self.age_touch(set, way);
        let entry = &mut self.entries[set][way];
        if entry.sent() {
            return None;
        }
        let count = entry.count() + 1;
        entry.set_count(count);
        if count >= u64::from(self.config.threshold) {
            entry.set_sent();
            self.emitted += 1;
            return Some(req.ppn);
        }
        None
    }

    /// Aging: the touched way resets to 0, every other way of the set
    /// increments (saturating at 15).
    fn age_touch(&mut self, set: usize, way: usize) {
        for (w, age) in self.ages[set].iter_mut().enumerate() {
            if w == way {
                *age = 0;
            } else {
                *age = age.saturating_add(1).min(AGE_MAX);
            }
        }
    }

    /// Drops a page's entry (reclaim notification).
    pub fn invalidate(&mut self, ppn: Ppn) {
        let set = (ppn.raw() % self.config.sets as u64) as usize;
        for e in &mut self.entries[set] {
            if e.valid() && e.ppn() == ppn {
                e.invalidate();
            }
        }
    }

    /// Clock edges elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Hot pages emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Total state bits held by the design (entries + ages): the
    /// feasibility headline — about half a kilobyte for the default
    /// geometry.
    pub fn state_bits(&self) -> u64 {
        let entries = (self.config.ways * self.config.sets) as u64;
        entries * u64::from(PPN_BITS + COUNT_BITS + 2) + entries * u64::from(AGE_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpd::HotPageDetector;
    use hopp_types::rng::SplitMix64;

    fn rtl(n: u32) -> HpdRtl {
        HpdRtl::new(HpdConfig::with_threshold(n)).unwrap()
    }

    /// Drives the pipeline with one access and a bubble, returning the
    /// access's own retirement result.
    fn feed(r: &mut HpdRtl, ppn: Ppn, line: u8) -> Option<Ppn> {
        let entering = r.clock(Some((ppn.line(line), AccessKind::Read)));
        assert_eq!(entering.hot, None, "pipeline was drained before feed");
        r.clock(None).hot
    }

    /// Equal victim keys go to the highest way: an empty set fills
    /// from its last way down.
    #[test]
    fn victim_ties_go_to_the_highest_way() {
        let mut r = rtl(8);
        let (sets, ways) = (r.config.sets as u64, r.config.ways);
        for k in 0..ways {
            let page = Ppn::new(k as u64 * sets);
            assert_eq!(feed(&mut r, page, 0), None);
            assert_eq!(r.entries[0][ways - 1 - k].ppn(), page);
        }
    }

    #[test]
    fn emission_is_pipelined_by_one_cycle() {
        let mut r = rtl(2);
        let page = Ppn::new(3);
        assert_eq!(r.clock(Some((page.line(0), AccessKind::Read))).hot, None);
        // Second access enters while the first retires.
        assert_eq!(r.clock(Some((page.line(1), AccessKind::Read))).hot, None);
        // The second access retires now: threshold crossed.
        assert_eq!(r.clock(None).hot, Some(page));
        assert_eq!(r.emitted(), 1);
    }

    #[test]
    fn full_rate_input_is_accepted() {
        // One access per cycle, no stalls: 64 pages x 8 lines.
        let mut r = rtl(8);
        let mut hot = 0;
        for pass in 0..8u8 {
            for p in 0..4u64 {
                // 4 pages per set round-robin over all 4 sets.
                if r.clock(Some((Ppn::new(p).line(pass), AccessKind::Read)))
                    .hot
                    .is_some()
                {
                    hot += 1;
                }
            }
        }
        // Drain the pipeline.
        if r.clock(None).hot.is_some() {
            hot += 1;
        }
        assert_eq!(hot, 4, "each page became hot exactly once");
        assert_eq!(r.cycles(), 33);
    }

    #[test]
    fn send_bit_suppresses_like_the_behavioural_model() {
        let mut r = rtl(2);
        let page = Ppn::new(7);
        assert_eq!(feed(&mut r, page, 0), None);
        assert_eq!(feed(&mut r, page, 1), Some(page));
        for line in 2..20 {
            assert_eq!(feed(&mut r, page, line), None);
        }
        assert_eq!(r.emitted(), 1);
    }

    #[test]
    fn count_field_saturates_without_wrapping() {
        let mut e = PackedEntry::new(Ppn::new(5));
        e.set_count(500); // beyond the 7-bit field
        assert_eq!(e.count(), 127);
        assert_eq!(e.ppn(), Ppn::new(5));
        assert!(e.valid());
    }

    #[test]
    fn threshold_must_fit_count_field() {
        // 64 fits (just); the config validator already caps at 64.
        assert!(HpdRtl::new(HpdConfig::with_threshold(64)).is_ok());
    }

    #[test]
    fn writes_never_enter_the_pipeline() {
        let mut r = rtl(1);
        assert_eq!(
            r.clock(Some((Ppn::new(1).line(0), AccessKind::Write))).hot,
            None
        );
        assert_eq!(r.clock(None).hot, None);
        assert_eq!(r.emitted(), 0);
    }

    #[test]
    fn invalidate_clears_progress() {
        let mut r = rtl(2);
        let page = Ppn::new(4);
        feed(&mut r, page, 0);
        r.invalidate(page);
        assert_eq!(feed(&mut r, page, 1), None, "count restarted");
        assert_eq!(feed(&mut r, page, 2), Some(page));
    }

    #[test]
    fn state_budget_is_sub_kilobyte() {
        let r = rtl(8);
        let per_entry = u64::from(PPN_BITS + COUNT_BITS + 2 + AGE_BITS);
        assert_eq!(r.state_bits(), 64 * per_entry);
        assert!(r.state_bits() / 8 < 1024, "fits well under 1 KB");
    }

    /// The feasibility claim: on random miss streams, the RTL emits the
    /// same hot pages as the behavioural model in the same order, as
    /// long as set pressure stays below the associativity (no victim
    /// ties to break differently).
    #[test]
    fn matches_behavioural_model_without_eviction_pressure() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut behav = HotPageDetector::new(HpdConfig::with_threshold(4)).unwrap();
        let mut rtl = rtl(4);
        let mut behav_hot = Vec::new();
        let mut rtl_hot = Vec::new();
        // 32 distinct pages (8 per set, under the 16-way limit).
        for _ in 0..4_000 {
            let ppn = Ppn::new(rng.gen_range(0..32));
            let line = rng.gen_range(0..64) as u8;
            if let Some(h) = behav.on_miss(ppn.line(line), AccessKind::Read) {
                behav_hot.push(h);
            }
            if let Some(h) = rtl.clock(Some((ppn.line(line), AccessKind::Read))).hot {
                rtl_hot.push(h);
            }
        }
        if let Some(h) = rtl.clock(None).hot {
            rtl_hot.push(h);
        }
        assert_eq!(behav_hot, rtl_hot);
    }

    /// Under heavy eviction pressure the two models may pick different
    /// victims, but the hot-page *volume* stays close (the statistic
    /// Table II depends on).
    #[test]
    fn tracks_behavioural_volume_under_pressure() {
        let mut rng = SplitMix64::seed_from_u64(13);
        let mut behav = HotPageDetector::new(HpdConfig::with_threshold(4)).unwrap();
        let mut r = rtl(4);
        let mut behav_hot = 0u64;
        for _ in 0..50_000 {
            // 512 pages over 64 entries: constant thrash.
            let ppn = Ppn::new(rng.gen_range(0..512) * 4); // all in set 0
            let line = rng.gen_range(0..64) as u8;
            if behav.on_miss(ppn.line(line), AccessKind::Read).is_some() {
                behav_hot += 1;
            }
            r.clock(Some((ppn.line(line), AccessKind::Read)));
        }
        r.clock(None);
        let lo = behav_hot.saturating_sub(behav_hot / 4);
        let hi = behav_hot + behav_hot / 4;
        assert!(
            (lo..=hi).contains(&r.emitted()),
            "rtl {} vs behavioural {behav_hot}",
            r.emitted()
        );
    }
}
