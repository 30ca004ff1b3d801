//! Property tests: `PageMap` is exercised with seeded random operation
//! sequences against a `BTreeMap`-based reference model — the exact
//! structure it replaced on the hot paths.

use std::collections::BTreeMap;

use hopp_ds::PageMap;
use hopp_types::rng::SplitMix64;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX / 7];
const OPS: usize = 20_000;

/// Keys are drawn from a small space so that insert/remove/get collide
/// often (the interesting cases for chunk and count bookkeeping).
const KEY_SPACE: u64 = 512;

#[test]
fn pagemap_matches_btreemap_model() {
    for seed in SEEDS {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut map: PageMap<usize, u64> = PageMap::new();
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        for i in 0..OPS {
            // Mix dense low keys with heap-base-like high keys.
            let k = if rng.gen_bool(0.5) {
                rng.gen_range(0..KEY_SPACE) as usize
            } else {
                (1 << 20) + rng.gen_range(0..KEY_SPACE) as usize
            };
            match rng.gen_range(0..10) {
                0..=4 => {
                    let v = i as u64;
                    assert_eq!(map.insert(k, v), model.insert(k, v), "seed {seed} op {i}");
                }
                5..=6 => {
                    assert_eq!(map.remove(k), model.remove(&k), "seed {seed} op {i}");
                }
                _ => {
                    assert_eq!(map.get(k), model.get(&k), "seed {seed} op {i}");
                }
            }
            assert_eq!(map.len(), model.len());
        }
        // PageMap iterates in key order — exactly BTreeMap's order.
        let got: Vec<(usize, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<(usize, u64)> = model.into_iter().collect();
        assert_eq!(got, want, "seed {seed}: iteration must be key-ordered");
    }
}
