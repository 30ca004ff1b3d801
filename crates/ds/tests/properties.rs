//! Property tests: `DetMap` and `PageMap` are
//! exercised with seeded random operation sequences against
//! `BTreeMap`-based reference models — the exact structures they
//! replaced on the hot paths.

use std::collections::BTreeMap;

use hopp_ds::{DetMap, PageMap};
use hopp_types::rng::SplitMix64;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX / 7];
const OPS: usize = 20_000;

/// Keys are drawn from a small space so that insert/remove/get collide
/// often (the interesting cases for probing and order bookkeeping).
const KEY_SPACE: u64 = 512;

#[test]
fn detmap_matches_btreemap_model() {
    for seed in SEEDS {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut map: DetMap<u64, u64> = DetMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Insertion order of the currently-live keys, maintained the
        // way an order-preserving map defines it: overwrite keeps the
        // original position, remove deletes it.
        let mut order: Vec<u64> = Vec::new();
        for i in 0..OPS {
            let k = rng.gen_range(0..KEY_SPACE);
            match rng.gen_range(0..10) {
                0..=4 => {
                    let v = i as u64;
                    assert_eq!(map.insert(k, v), model.insert(k, v), "seed {seed} op {i}");
                    if !order.contains(&k) {
                        order.push(k);
                    }
                }
                5..=6 => {
                    assert_eq!(map.remove(&k), model.remove(&k), "seed {seed} op {i}");
                    order.retain(|&o| o != k);
                }
                7 => {
                    *map.get_or_insert_with(k, || 777) += 1;
                    *model.entry(k).or_insert(777) += 1;
                    if !order.contains(&k) {
                        order.push(k);
                    }
                }
                _ => {
                    assert_eq!(map.get(&k), model.get(&k), "seed {seed} op {i}");
                    assert_eq!(map.contains_key(&k), model.contains_key(&k));
                }
            }
            assert_eq!(map.len(), model.len(), "seed {seed} op {i}");
        }
        // Full-content equivalence…
        for (&k, v) in &model {
            assert_eq!(map.get(&k), Some(v), "seed {seed} key {k}");
        }
        // …and insertion-order iteration.
        let got: Vec<u64> = map.keys().collect();
        assert_eq!(got, order, "seed {seed}: iteration must be insertion order");
    }
}

#[test]
fn detmap_iteration_values_match_model() {
    let mut rng = SplitMix64::seed_from_u64(42);
    let mut map: DetMap<(u16, u64), u64> = DetMap::new();
    let mut model: BTreeMap<(u16, u64), u64> = BTreeMap::new();
    for i in 0..OPS {
        let k = (rng.gen_range(0..4) as u16, rng.gen_range(0..KEY_SPACE));
        if rng.gen_bool(0.7) {
            map.insert(k, i as u64);
            model.insert(k, i as u64);
        } else {
            map.remove(&k);
            model.remove(&k);
        }
    }
    let mut got: Vec<((u16, u64), u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
    got.sort_unstable();
    let want: Vec<((u16, u64), u64)> = model.into_iter().collect();
    assert_eq!(got, want);
}

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
