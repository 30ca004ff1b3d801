//! Differential test of the LLC model against a stamp-based reference.
//!
//! `LastLevelCache` keeps each set as a most-recently-used-first array
//! of tags. The reference below is the straightforward model it
//! replaced: a `Vec<Vec<Way>>` with a valid flag and a global LRU clock
//! stamped into every way, the victim being the first invalid way or
//! else the smallest stamp. Both are driven with the same seeded mix of
//! page walks (`access_lines` prefixes of 1..=64 lines), single-line
//! accesses and page invalidations, and must agree on every line's
//! hit/miss outcome and on every counter.
//!
//! With at least 64 sets, `invalidate_page` first scans the page's block
//! of `64 × ways` tags and returns early when the page has no resident
//! line. Every run must exercise both outcomes: invalidations that find
//! lines and invalidations of cold pages. The invalidate-heavy mix
//! mostly invalidates pages touched a few operations earlier, the case
//! where lines *are* resident at reclaim.
//!
//! `access_lines` makes the same block scan over the sets of the lines
//! it walks, and when the tag is absent inserts every line without a
//! per-set search. So every run on at least 64 sets must also see both
//! walk outcomes, counted on the reference before each walk: the page
//! resident in none of the walked sets, or in some. The walk-heavy mix
//! alternates fresh pages, longer re-walks of a recent page and short
//! prefixes, so partly resident pages and the absent path meet on the
//! same sets.

use hopp_trace::llc::{LastLevelCache, LlcConfig, LlcStats};
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, LineAddr, Ppn, LINES_PER_PAGE, LINE_SIZE};

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// True-LRU set-associative cache with explicit stamps.
struct RefLlc {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    clock: u64,
    stats: LlcStats,
}

impl RefLlc {
    fn new(config: LlcConfig) -> Self {
        let sets = config.sets().unwrap();
        let empty = Way {
            tag: 0,
            valid: false,
            lru: 0,
        };
        RefLlc {
            sets: vec![vec![empty; config.ways]; sets],
            set_mask: sets as u64 - 1,
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    fn access(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let set = &mut self.sets[(line.raw() & self.set_mask) as usize];
        let tag = line.raw() >> self.set_mask.trailing_ones();
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .unwrap();
        *victim = Way {
            tag,
            valid: true,
            lru: self.clock,
        };
        false
    }

    /// Whether `line` is cached: the way its walk would hit.
    fn resident(&self, line: LineAddr) -> bool {
        let tag = line.raw() >> self.set_mask.trailing_ones();
        self.sets[(line.raw() & self.set_mask) as usize]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    fn invalidate_page(&mut self, ppn: Ppn) {
        for line in 0..LINES_PER_PAGE as u8 {
            let addr = ppn.line(line);
            let tag = addr.raw() >> self.set_mask.trailing_ones();
            for way in &mut self.sets[(addr.raw() & self.set_mask) as usize] {
                if way.valid && way.tag == tag {
                    way.valid = false;
                    self.stats.invalidations += 1;
                }
            }
        }
    }
}

/// The operation mix a run draws from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// 60% page walks, 30% single lines, 10% invalidations of a random
    /// page.
    Uniform,
    /// 40% page walks, 20% single lines, 40% invalidations, three in
    /// four of them of one of the last four pages touched.
    InvalidateHeavy,
    /// 80% page walks, 10% single lines, 10% invalidations of a random
    /// page. The walks take turns: a fresh page from a sweep over all
    /// pages, a recent page again with a longer prefix (partly resident
    /// when some of its lines were evicted meanwhile), and a random page
    /// with a prefix shorter than 64 lines.
    Walks,
}

/// Drives both models with `ops` seeded operations over pages
/// `0..pages` and checks they never diverge.
fn run(name: &str, config: LlcConfig, pages: u64, ops: u32, seed: u64, mix: Mix) {
    let mut real = LastLevelCache::new(config).unwrap();
    let mut reference = RefLlc::new(config);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (walks, lines_end) = match mix {
        Mix::Uniform => (6, 9),
        Mix::InvalidateHeavy => (4, 6),
        Mix::Walks => (8, 9),
    };
    // The last pages touched, each with the prefix it was walked to.
    let mut recent = [(Ppn::new(0), 0u8); 4];
    // Invalidations that found resident lines, and ones that found none.
    let (mut found, mut cold) = (0u32, 0u32);
    // Walks over some resident line, and walks over none.
    let (mut warm_walks, mut absent_walks) = (0u32, 0u32);
    let (mut walk, mut fresh) = (0u32, 0u64);
    for step in 0..ops {
        let ppn = Ppn::new(rng.gen_range(0..pages));
        let op = rng.gen_range(0..10);
        let slot = step as usize % recent.len();
        if op < walks {
            let (ppn, lines) = match (mix, walk % 3) {
                (Mix::Walks, 0) => {
                    fresh = (fresh + 1) % pages;
                    let lines = 1 + rng.gen_range(0..LINES_PER_PAGE as u64) as u8;
                    (Ppn::new(fresh), lines)
                }
                (Mix::Walks, 1) => {
                    let (page, walked) = recent[rng.gen_range(0..recent.len() as u64) as usize];
                    let longer = walked + 1 + rng.gen_range(0..16) as u8;
                    (page, longer.min(LINES_PER_PAGE as u8))
                }
                (Mix::Walks, _) => {
                    let lines = 1 + rng.gen_range(0..LINES_PER_PAGE as u64 - 1) as u8;
                    (ppn, lines)
                }
                _ => (ppn, 1 + rng.gen_range(0..LINES_PER_PAGE as u64) as u8),
            };
            walk += 1;
            recent[slot] = (ppn, lines);
            if (0..lines).any(|line| reference.resident(ppn.line(line))) {
                warm_walks += 1;
            } else {
                absent_walks += 1;
            }
            let misses = real.access_lines(ppn, lines);
            for line in 0..lines {
                let hit = reference.access(ppn.line(line));
                assert_eq!(
                    misses & (1 << line) == 0,
                    hit,
                    "{name}: line {line} of {ppn:?} diverged at step {step}"
                );
            }
            assert_eq!(
                misses.checked_shr(lines.into()).unwrap_or(0),
                0,
                "{name}: bits set past line {lines}"
            );
        } else if op < lines_end {
            recent[slot] = (ppn, 0);
            let line = ppn.line(rng.gen_range(0..LINES_PER_PAGE as u64) as u8);
            let kind = if rng.gen_bool(0.5) {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            assert_eq!(
                real.access(line, kind),
                reference.access(line),
                "{name}: {line:?} diverged at step {step}"
            );
        } else {
            let ppn = if mix == Mix::InvalidateHeavy && rng.gen_bool(0.75) {
                recent[rng.gen_range(0..recent.len() as u64) as usize].0
            } else {
                ppn
            };
            let before = real.stats().invalidations;
            real.invalidate_page(ppn);
            reference.invalidate_page(ppn);
            if real.stats().invalidations > before {
                found += 1;
            } else {
                cold += 1;
            }
        }
        assert_eq!(
            real.stats(),
            reference.stats,
            "{name}: counters diverged at step {step}"
        );
    }
    let stats = real.stats();
    assert!(
        stats.hits > 0 && stats.misses > 0 && stats.invalidations > 0,
        "{name}: stream too one-sided to be a useful check: {stats:?}"
    );
    assert!(
        found > 0 && cold > 0,
        "{name}: invalidations too one-sided to check the block scan: \
         {found} found lines, {cold} found none"
    );
    if config.sets().unwrap() >= LINES_PER_PAGE {
        assert!(
            warm_walks > 0 && absent_walks > 0,
            "{name}: walks too one-sided to check the block scan: \
             {warm_walks} over resident lines, {absent_walks} over none"
        );
    }
}

#[test]
fn default_server_matches_the_stamp_model() {
    // 4,096 pages fit; 6,144 overcommit every set by half.
    run(
        "default_server",
        LlcConfig::default_server(),
        6_144,
        30_000,
        1,
        Mix::Uniform,
    );
    run(
        "default_server/walks",
        LlcConfig::default_server(),
        6_144,
        30_000,
        10,
        Mix::Walks,
    );
}

#[test]
fn simulator_default_matches_the_stamp_model() {
    // The geometry every simulation runs by default: 2,048 sets of 16
    // ways. 512 pages fit; 768 overcommit every set by half.
    let config = LlcConfig::simulator_default();
    assert_eq!(config.sets().unwrap(), 2_048);
    run("simulator_default", config, 768, 30_000, 4, Mix::Uniform);
    run(
        "simulator_default/invalidate_heavy",
        config,
        768,
        30_000,
        5,
        Mix::InvalidateHeavy,
    );
    run(
        "simulator_default/walks",
        config,
        768,
        30_000,
        11,
        Mix::Walks,
    );
}

#[test]
fn sixty_four_set_cache_matches_the_stamp_model() {
    // 64 sets of 4 ways: a page's block is the whole tag array, and 4
    // pages fit.
    let config = LlcConfig {
        capacity_bytes: 64 * 4 * LINE_SIZE,
        ways: 4,
    };
    assert_eq!(config.sets().unwrap(), 64);
    run("sixty_four_set", config, 12, 30_000, 6, Mix::Uniform);
    run(
        "sixty_four_set/invalidate_heavy",
        config,
        12,
        30_000,
        7,
        Mix::InvalidateHeavy,
    );
    run("sixty_four_set/walks", config, 12, 30_000, 12, Mix::Walks);
}

#[test]
fn tiny_matches_the_stamp_model() {
    // 64 pages fit; 160 keep every set thrashing.
    run("tiny", LlcConfig::tiny(), 160, 30_000, 2, Mix::Uniform);
    run(
        "tiny/invalidate_heavy",
        LlcConfig::tiny(),
        160,
        30_000,
        8,
        Mix::InvalidateHeavy,
    );
    run("tiny/walks", LlcConfig::tiny(), 160, 30_000, 13, Mix::Walks);
}

#[test]
fn four_set_cache_matches_the_stamp_model() {
    // Four sets of four ways: a page's 64 lines wrap around the sets
    // sixteen times, so a single page walk evicts its own early lines.
    let config = LlcConfig {
        capacity_bytes: 4 * 4 * LINE_SIZE,
        ways: 4,
    };
    assert_eq!(config.sets().unwrap(), 4);
    run("four_set", config, 8, 30_000, 3, Mix::Uniform);
    run(
        "four_set/invalidate_heavy",
        config,
        8,
        30_000,
        9,
        Mix::InvalidateHeavy,
    );
    run("four_set/walks", config, 8, 30_000, 14, Mix::Walks);
}
