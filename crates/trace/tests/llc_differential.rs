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
//! Every run must exercise both invalidation outcomes: invalidations
//! that find lines and invalidations of cold pages. The invalidate-heavy
//! mix mostly invalidates pages touched a few operations earlier, the
//! case where lines *are* resident at reclaim.
//!
//! With at least 64 sets the cache is built the way the simulator
//! builds it, tracking the pages it is driven with, so both calls first
//! ask the presence bound (`proven_absent`). A proven page must have no
//! line in the reference. Every such run must see all four of: proven
//! walks (one block shift, no search), proven invalidations, unproven
//! walks of pages that are in fact absent (the per-line fallback), and
//! removals, which lower the pressure of their group. The uniform mix
//! leaves the last quarter of its pages untracked, so their removals
//! must lower the pressure of tracked pages' sets too. The walk-heavy
//! mix alternates fresh pages, longer re-walks of a recent page and
//! short prefixes, so partly resident pages and the absent path meet on
//! the same sets.
//!
//! At 2,048 sets a page range shares its sets with few others, so the
//! pressure rarely reaches the ways and a broken bound can go unseen.
//! The one-group runs use only pages whose lines fall in the same 64
//! sets, as on a 64-set cache.

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

    /// How many lines of `ppn` are cached.
    fn cached_lines(&self, ppn: Ppn) -> usize {
        (0..LINES_PER_PAGE as u8)
            .filter(|&line| self.resident(ppn.line(line)))
            .count()
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
    /// 90% walks of all 64 lines of the next page round-robin, 10%
    /// invalidations of the page walked last. With a few more pages than
    /// ways, a page often comes back just as its lines reach the last
    /// way, and an invalidation moves the lines walked before it back up
    /// one way.
    Rounds,
}

/// Drives both models with `ops` seeded operations over pages
/// `0..pages` and checks they never diverge.
fn run(name: &str, config: LlcConfig, pages: u64, ops: u32, seed: u64, mix: Mix) {
    drive(name, config, pages, 1, ops, seed, mix);
}

/// [`run`] over pages `0, stride, 2 · stride, …`: with `stride` the
/// number of set groups, every page shares one group of 64 sets.
fn run_in_one_group(name: &str, config: LlcConfig, pages: u64, ops: u32, seed: u64, mix: Mix) {
    let groups = config.sets().unwrap() as u64 / LINES_PER_PAGE as u64;
    drive(name, config, pages, groups, ops, seed, mix);
}

fn drive(name: &str, config: LlcConfig, pages: u64, stride: u64, ops: u32, seed: u64, mix: Mix) {
    let tracked = match mix {
        Mix::Uniform => pages * 3 / 4,
        Mix::InvalidateHeavy | Mix::Walks | Mix::Rounds => pages,
    };
    let mut real = LastLevelCache::with_tracked_pages(config, (tracked * stride) as usize).unwrap();
    let mut reference = RefLlc::new(config);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let page = |k: u64| Ppn::new(k * stride);
    let (walks, lines_end) = match mix {
        Mix::Uniform => (6, 9),
        Mix::InvalidateHeavy => (4, 6),
        Mix::Walks => (8, 9),
        Mix::Rounds => (9, 9),
    };
    // The last pages touched, each with the prefix it was walked to.
    let mut recent = [(Ppn::new(0), 0u8); 4];
    // Invalidations that found resident lines, and ones that found none.
    let (mut found, mut cold) = (0u32, 0u32);
    // Walks over some resident line, and walks over none.
    let (mut warm_walks, mut absent_walks) = (0u32, 0u32);
    // Presence-bound outcomes: proven walks, unproven walks of pages
    // with no line cached, and proven invalidations.
    let (mut proven_walks, mut fallback_walks, mut proven_drops) = (0u32, 0u32, 0u32);
    let (mut walk, mut fresh, mut last_walked) = (0u32, 0u64, page(0));
    for step in 0..ops {
        let ppn = page(rng.gen_range(0..pages));
        let op = rng.gen_range(0..10);
        let slot = step as usize % recent.len();
        if op < walks {
            let (ppn, lines) = match (mix, walk % 3) {
                (Mix::Walks, 0) => {
                    fresh = (fresh + 1) % pages;
                    let lines = 1 + rng.gen_range(0..LINES_PER_PAGE as u64) as u8;
                    (page(fresh), lines)
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
                (Mix::Rounds, _) => {
                    fresh = (fresh + 1) % pages;
                    (page(fresh), LINES_PER_PAGE as u8)
                }
                _ => (ppn, 1 + rng.gen_range(0..LINES_PER_PAGE as u64) as u8),
            };
            walk += 1;
            recent[slot] = (ppn, lines);
            last_walked = ppn;
            if (0..lines).any(|line| reference.resident(ppn.line(line))) {
                warm_walks += 1;
            } else {
                absent_walks += 1;
            }
            let cached = reference.cached_lines(ppn);
            if real.proven_absent(ppn) {
                assert_eq!(cached, 0, "{name}: {ppn:?} proven absent at step {step}");
                proven_walks += 1;
            } else if cached == 0 {
                fallback_walks += 1;
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
            let ppn = match mix {
                Mix::InvalidateHeavy if rng.gen_bool(0.75) => {
                    recent[rng.gen_range(0..recent.len() as u64) as usize].0
                }
                Mix::Rounds => last_walked,
                _ => ppn,
            };
            if real.proven_absent(ppn) {
                let cached = reference.cached_lines(ppn);
                assert_eq!(cached, 0, "{name}: {ppn:?} proven absent at step {step}");
                proven_drops += 1;
            }
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
        "{name}: invalidations too one-sided: {found} found lines (each \
         a removal, which lowers the pressure of its group), {cold} found none"
    );
    if config.sets().unwrap() >= LINES_PER_PAGE {
        assert!(
            warm_walks > 0 && absent_walks > 0,
            "{name}: walks too one-sided to check the absent path: \
             {warm_walks} over resident lines, {absent_walks} over none"
        );
        assert!(
            proven_walks > 0 && proven_drops > 0 && fallback_walks > 0,
            "{name}: too one-sided to check the presence bound: \
             {proven_walks} proven walks, {proven_drops} proven invalidations, \
             {fallback_walks} unproven walks of absent pages"
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
    // ways. 512 pages fit; 768 overcommit every set by half. The
    // invalidate-heavy mix takes 1,536: at 768 its removals keep the
    // sets from filling, the bound proves every absent page, and the
    // per-line fallback never runs on one.
    let config = LlcConfig::simulator_default();
    assert_eq!(config.sets().unwrap(), 2_048);
    run("simulator_default", config, 768, 30_000, 4, Mix::Uniform);
    run(
        "simulator_default/invalidate_heavy",
        config,
        1_536,
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
fn simulator_default_one_group_matches_the_stamp_model() {
    // Pages 0, 32, 64, …: all in the same 64 sets. 16 pages fit; 48
    // overcommit the group threefold, so pressure reaches the ways.
    let config = LlcConfig::simulator_default();
    run_in_one_group(
        "one_group/invalidate_heavy",
        config,
        48,
        30_000,
        16,
        Mix::InvalidateHeavy,
    );
    // 24 pages in one group, walked in turn: each comes back after 23
    // others, some absent and some not, so its lines are often at
    // exactly the last way.
    run_in_one_group("one_group/rounds", config, 24, 30_000, 18, Mix::Rounds);
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
fn twelve_way_cache_matches_the_stamp_model() {
    // 128 sets of 12 ways: at least 64 sets, so a page walk touches its
    // block set by set, but not 16 ways, so each set is searched as a
    // slice rather than a fixed-width array. 24 pages fit; 72 overcommit
    // every set threefold.
    let config = LlcConfig {
        capacity_bytes: 128 * 12 * LINE_SIZE,
        ways: 12,
    };
    assert_eq!(config.sets().unwrap(), 128);
    run("twelve_way", config, 72, 30_000, 19, Mix::Uniform);
    run(
        "twelve_way/invalidate_heavy",
        config,
        72,
        30_000,
        20,
        Mix::InvalidateHeavy,
    );
    run("twelve_way/walks", config, 72, 30_000, 21, Mix::Walks);
    // 20 pages of one group, walked in turn.
    run_in_one_group(
        "twelve_way/one_group_rounds",
        config,
        20,
        30_000,
        22,
        Mix::Rounds,
    );
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
