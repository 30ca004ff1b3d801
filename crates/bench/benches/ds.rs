//! `hopp-ds` micro-benchmark against the `BTreeMap` predecessor.
//!
//! `PageMap` replaced a `BTreeMap` on the simulated stack's per-access
//! path; this bench quantifies the swap at working-set sizes of 64K
//! entries and more. The harness is a plain `main` over `std::time::Instant` (no crates.io
//! access for `criterion`). Run with `cargo bench --bench ds`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hopp_ds::PageMap;
use hopp_types::rng::SplitMix64;
use hopp_types::Ppn;

/// Times `iters` calls of `op` (after a 10 % warm-up) in ns/op.
fn bench_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Prints one `BTreeMap`-vs-`hopp-ds` comparison line.
fn report(name: &str, n: usize, btree_ns: f64, ds_ns: f64) {
    println!(
        "{name:<22} n={n:>7}  btree {btree_ns:>7.1} ns/op  hopp-ds {ds_ns:>7.1} ns/op  speedup {:>5.2}x",
        btree_ns / ds_ns
    );
}

fn bench_pagemap(n: usize) {
    const ITERS: u64 = 2_000_000;
    // Dense page numbers visited in a scattered order, as the fault
    // path visits an `AddressSpace`'s pages.
    let mut order: Vec<u64> = (0..n as u64).collect();
    SplitMix64::seed_from_u64(0xA7).shuffle(&mut order);

    let mut btree: BTreeMap<u64, u64> = (0..n as u64).map(|k| (k, k)).collect();
    let mut page: PageMap<Ppn, u64> = PageMap::new();
    for k in 0..n as u64 {
        page.insert(Ppn::new(k), k);
    }

    let bt = bench_ns(ITERS, |i| {
        black_box(btree.get(&order[i as usize % n]));
    });
    let ds = bench_ns(ITERS, |i| {
        let k = order[i as usize % n];
        black_box(page.get(Ppn::new(k)));
    });
    report("pagemap/get", n, bt, ds);

    let bt = bench_ns(ITERS, |i| {
        let k = order[i as usize % n];
        btree.remove(&k);
        black_box(btree.insert(k, i));
    });
    let ds = bench_ns(ITERS, |i| {
        let k = order[i as usize % n];
        page.remove(Ppn::new(k));
        black_box(page.insert(Ppn::new(k), i));
    });
    report("pagemap/remove+insert", n, bt, ds);
}

fn main() {
    for n in [65_536usize, 262_144] {
        bench_pagemap(n);
        println!();
    }
}
