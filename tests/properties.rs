//! Property-based tests of the core data-structure invariants.
//!
//! Each test runs the invariant over many randomized inputs drawn from
//! the workspace's own deterministic [`SplitMix64`] generator (the
//! environment builds with zero external crates, so `proptest` is not
//! available). `CASES` seeds per property keeps the search broad while
//! staying fast; failures print the offending case seed so a run can be
//! reproduced by pinning it.

use std::collections::{btree_map, BTreeMap};

use hopp::core::metrics::PrefetchMetrics;
use hopp::core::policy::{PolicyConfig, PolicyEngine};
use hopp::core::stt::{StreamTrainingTable, SttConfig};
use hopp::core::{MarkovConfig, MarkovEngine};
use hopp::hw::rtl::HpdRtl;
use hopp::hw::{HotPageDetector, HpdConfig};
use hopp::kernel::{LruLists, LruTier, SwapDevice};
use hopp::net::CompletionQueue;
use hopp::obs::NopRecorder;
use hopp::trace::hmtt::{HmttDecoder, HmttRecord, TIMESTAMP_TICK_NS};
use hopp::trace::llc::{LastLevelCache, LlcConfig};
use hopp::types::rng::SplitMix64;
use hopp::types::{AccessKind, HotPage, LineAccess, LineAddr, Nanos, PageFlags, Pid, Ppn, Vpn};

/// Randomized cases per property.
const CASES: u64 = 32;

/// Runs `body` for `CASES` independently seeded generators.
fn for_cases(tag: u64, body: impl Fn(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(tag.wrapping_mul(0x5851_F42D_4C95_7F2D) + case);
        body(&mut rng);
    }
}

fn hot(pid: u16, vpn: u64, at: u64) -> HotPage {
    HotPage {
        pid: Pid::new(pid),
        vpn: Vpn::new(vpn),
        flags: PageFlags::default(),
        at: Nanos::from_nanos(at),
    }
}

/// The HPD can never emit more hot pages than reads/N: every emission
/// consumes at least `N` read misses of that page since its
/// (re-)insertion.
#[test]
fn hpd_hot_pages_bounded_by_reads_over_n() {
    for_cases(1, |rng| {
        let n = rng.gen_range(1..33) as u32;
        let len = rng.gen_range(0..2_000);
        let mut hpd = HotPageDetector::new(HpdConfig::with_threshold(n)).unwrap();
        for _ in 0..len {
            let page = rng.gen_range(0..64);
            let line = rng.gen_range(0..64) as u8;
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            hpd.on_miss(Ppn::new(page).line(line), kind);
        }
        let s = hpd.stats();
        assert!(s.hot_pages <= s.reads / u64::from(n));
    });
}

/// Immediately re-accessing a line always hits the LLC.
#[test]
fn llc_immediate_reaccess_hits() {
    for_cases(2, |rng| {
        let len = rng.gen_range(1..500);
        let mut llc = LastLevelCache::new(LlcConfig::tiny()).unwrap();
        for _ in 0..len {
            let addr = Ppn::new(rng.gen_range(0..10_000)).line(rng.gen_range(0..64) as u8);
            llc.access(addr, AccessKind::Read);
            assert!(llc.access(addr, AccessKind::Read));
        }
    });
}

/// LLC stats partition the accesses.
#[test]
fn llc_stats_partition() {
    for_cases(3, |rng| {
        let len = rng.gen_range(0..1_000);
        let mut llc = LastLevelCache::new(LlcConfig::tiny()).unwrap();
        for _ in 0..len {
            llc.access(LineAddr::new(rng.gen_range(0..100_000)), AccessKind::Read);
        }
        assert_eq!(llc.stats().total(), len);
    });
}

/// Untouched inactive pages leave the LRU in insertion order, and every
/// inactive page leaves before any active page.
#[test]
fn lru_eviction_order() {
    for_cases(4, |rng| {
        let len = rng.gen_range(0..200);
        let mut lru = LruLists::new();
        let mut expect_inactive = Vec::new();
        let mut expect_active = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..len {
            let p = rng.gen_range(0..1_000);
            let active = rng.gen_bool(0.5);
            if !seen.insert(p) {
                continue; // re-inserts would reorder; keep the model simple
            }
            let tier = if active {
                LruTier::Active
            } else {
                LruTier::Inactive
            };
            lru.insert(Ppn::new(p), tier);
            if active {
                expect_active.push(Ppn::new(p));
            } else {
                expect_inactive.push(Ppn::new(p));
            }
        }
        let mut order = Vec::new();
        while let Some(ppn) = lru.pop_evict() {
            order.push(ppn);
        }
        expect_inactive.extend(expect_active);
        assert_eq!(order, expect_inactive);
    });
}

/// Live swap slots are always unique.
#[test]
fn swap_slots_are_unique() {
    for_cases(5, |rng| {
        let len = rng.gen_range(0..300);
        let mut dev = SwapDevice::new();
        let mut live: Vec<hopp::types::SwapSlot> = Vec::new();
        let mut i = 0u64;
        for _ in 0..len {
            if rng.gen_bool(0.5) || live.is_empty() {
                i += 1;
                let slot = dev.alloc(Pid::new(1), Vpn::new(i)).unwrap();
                assert!(!live.contains(&slot), "slot reused while live");
                live.push(slot);
            } else {
                let slot = live.swap_remove(i as usize % live.len());
                dev.free(slot);
            }
        }
        assert_eq!(dev.used_slots(), live.len());
    });
}

/// Completions pop in nondecreasing due-time order.
#[test]
fn completion_queue_is_time_ordered() {
    for_cases(6, |rng| {
        let len = rng.gen_range(0..200);
        let mut cq = CompletionQueue::new();
        for i in 0..len {
            cq.push(Nanos::from_nanos(rng.gen_range(0..1_000_000)), i);
        }
        let mut last = Nanos::ZERO;
        while let Some((due, _)) = cq.pop_any() {
            assert!(due >= last);
            last = due;
        }
    });
}

/// Every STT window is internally consistent: `L` VPNs, `L-1` strides,
/// each stride the difference of its neighbours, and the clustering
/// bound respected between consecutive history entries.
#[test]
fn stt_windows_are_consistent() {
    for_cases(7, |rng| {
        let history = rng.gen_range(4..17) as usize;
        let len = rng.gen_range(0..500);
        let config = SttConfig {
            history,
            ..SttConfig::default()
        };
        let mut stt = StreamTrainingTable::new(config).unwrap();
        for i in 0..len {
            let v = rng.gen_range(0..100_000);
            if let Some(w) = stt.observe(&hot(1, v, i), &mut NopRecorder) {
                assert_eq!(w.vpn_history.len(), history);
                assert_eq!(w.stride_history.len(), history - 1);
                for i in 0..history - 1 {
                    assert_eq!(
                        w.stride_history[i],
                        w.vpn_history[i + 1].stride_from(w.vpn_history[i])
                    );
                    assert!(
                        w.stride_history[i].unsigned_abs() <= config.delta_stream,
                        "clustering bound violated"
                    );
                    assert_ne!(w.stride_history[i], 0, "duplicates are deduped");
                }
                assert_eq!(w.vpn_a(), Vpn::new(v));
            }
        }
    });
}

/// Metrics stay in range whatever the event order, driven as the
/// simulator drives them: a page is pending from its arrival until its
/// first hit or its reclaim, and only a pending page can hit or be
/// wasted.
#[test]
fn metrics_bounds() {
    for_cases(8, |rng| {
        let len = rng.gen_range(0..500);
        let mut m = PrefetchMetrics::new();
        let mut pending: BTreeMap<Vpn, u64> = BTreeMap::new();
        let mut demand_remote = 0;
        let mut t = 0u64;
        for _ in 0..len {
            t += 1;
            let vpn = Vpn::new(rng.gen_range(0..50));
            match rng.gen_range(0..4) {
                0 => {
                    if let btree_map::Entry::Vacant(e) = pending.entry(vpn) {
                        e.insert(t);
                        m.on_arrival();
                    }
                }
                1 => {
                    if let Some(arrived) = pending.remove(&vpn) {
                        m.on_hit(Nanos::from_nanos(t - arrived));
                    }
                }
                2 => demand_remote += 1,
                _ => {
                    if pending.remove(&vpn).is_some() {
                        m.on_wasted();
                    }
                }
            }
        }
        let r = m.report(demand_remote);
        assert!(r.prefetch_hits <= r.prefetched);
        assert_eq!(
            r.prefetched,
            r.prefetch_hits + r.wasted + pending.len() as u64
        );
        assert!((0.0..=1.0).contains(&r.accuracy));
        assert!((0.0..=1.0).contains(&r.coverage));
        assert!(r.timeliness.max <= t);
    });
}

/// Vpn stride/offset roundtrips for arbitrary pairs.
#[test]
fn vpn_stride_offset_roundtrip() {
    for_cases(9, |rng| {
        let (va, vb) = (
            Vpn::new(rng.gen_range(0..1_000_000)),
            Vpn::new(rng.gen_range(0..1_000_000)),
        );
        let stride = vb.stride_from(va);
        assert_eq!(va.offset(stride), Some(vb));
    });
}

/// The RTL HPD emits exactly the behavioural model's hot pages (in
/// order) whenever set pressure stays below the associativity, for
/// arbitrary access sequences over 32 pages.
#[test]
fn rtl_hpd_matches_behavioural_without_pressure() {
    for_cases(10, |rng| {
        let n = rng.gen_range(1..17) as u32;
        let len = rng.gen_range(0..2_000);
        let mut behav = HotPageDetector::new(HpdConfig::with_threshold(n)).unwrap();
        let mut rtl = HpdRtl::new(HpdConfig::with_threshold(n)).unwrap();
        let mut behav_hot = Vec::new();
        let mut rtl_hot = Vec::new();
        for _ in 0..len {
            let page = rng.gen_range(0..32);
            let line = rng.gen_range(0..64) as u8;
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            if let Some(h) = behav.on_miss(Ppn::new(page).line(line), kind) {
                behav_hot.push(h);
            }
            if let Some(h) = rtl.clock(Some((Ppn::new(page).line(line), kind))).hot {
                rtl_hot.push(h);
            }
        }
        if let Some(h) = rtl.clock(None).hot {
            rtl_hot.push(h);
        }
        assert_eq!(behav_hot, rtl_hot);
    });
}

/// The policy engine's offset stays within `[1, max_offset]` no matter
/// what timeliness samples arrive.
#[test]
fn policy_offset_stays_bounded() {
    for_cases(11, |rng| {
        let len = rng.gen_range(0..300);
        let config = PolicyConfig::default();
        let mut pe = PolicyEngine::new(config, SttConfig::default().entries);
        // Forge one stream id via a tiny STT.
        let mut stt = StreamTrainingTable::new(SttConfig {
            history: 4,
            ..SttConfig::default()
        })
        .unwrap();
        let mut stream = None;
        for k in 0..4u64 {
            stream = stt
                .observe(&hot(1, k, 0), &mut NopRecorder)
                .map(|w| w.stream)
                .or(stream);
        }
        let stream = stream.unwrap();
        for _ in 0..len {
            pe.record_timeliness(stream, Nanos::from_nanos(rng.gen_range(0..10_000_000)));
            let offset = pe.offset_of(stream);
            assert!(
                (1.0..=config.max_offset).contains(&offset),
                "offset {offset}"
            );
        }
    });
}

/// Markov prediction chains never revisit a page (no infinite
/// self-feeding loops), for arbitrary transition training.
#[test]
fn markov_chains_are_acyclic() {
    for_cases(12, |rng| {
        let depth = rng.gen_range(1..9) as u32;
        let len = rng.gen_range(0..300);
        let mut m = MarkovEngine::new(MarkovConfig {
            depth,
            ..MarkovConfig::default()
        });
        for _ in 0..len {
            let v = rng.gen_range(0..16);
            let mut orders = Vec::new();
            m.on_hot_page(&hot(1, v, 0), &mut orders);
            assert!(orders.len() <= depth as usize);
            let mut seen = std::collections::HashSet::new();
            seen.insert(v);
            for o in &orders {
                assert!(seen.insert(o.vpn.raw()), "chain revisited {:?}", o.vpn);
            }
        }
    });
}

/// HMTT records keep every field through their packed raw bits, and
/// the decoder rebuilds absolute time across 8-bit timestamp wraps as
/// long as consecutive records are less than one wrap apart.
#[test]
fn hmtt_records_roundtrip_through_raw_bits_and_the_decoder() {
    for_cases(13, |rng| {
        let mut decoder = HmttDecoder::new();
        let mut ticks = 0;
        for seqno in 0..rng.gen_range(0..200) {
            let r = rng.next_u64();
            ticks += rng.gen_range(0..256);
            let kind = if r & 1 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let at = Nanos::from_nanos(ticks * TIMESTAMP_TICK_NS);
            let rec = HmttRecord::capture(
                seqno,
                &LineAccess {
                    addr: LineAddr::new(r),
                    kind,
                    at,
                },
            );
            assert_eq!(HmttRecord::from_raw(rec.raw()), rec);
            assert_eq!(rec.addr(), LineAddr::new(r & ((1 << 29) - 1)));
            let back = decoder.decode(rec);
            assert_eq!((back.kind, back.at), (kind, at));
        }
        assert_eq!(decoder.dropped, 0);
    });
}
