//! `hopp-ds` micro-benchmarks against the `BTreeMap` predecessors.
//!
//! Every structure in `hopp-ds` replaced a `BTreeMap` on the simulated
//! stack's per-access path (ISSUE 4); this bench quantifies the swap at
//! the working-set sizes the ISSUE gates on (>= 64K entries). The
//! harness is a plain `main` over `std::time::Instant` (no crates.io
//! access for `criterion`). Run with `cargo bench --bench ds`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hopp_ds::{DetMap, PageMap};
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

/// Keys scattered over a sparse space, as `(Pid, Vpn)`-style map keys
/// are after hashing.
fn sparse_keys(n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(0xD5);
    (0..n).map(|_| rng.next_u64()).collect()
}

fn bench_detmap(n: usize) {
    const ITERS: u64 = 2_000_000;
    let keys = sparse_keys(n);

    let mut btree: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k)).collect();
    let mut det: DetMap<u64, u64> = DetMap::with_capacity(n);
    for &k in &keys {
        det.insert(k, k);
    }

    let bt = bench_ns(ITERS, |i| {
        black_box(btree.get(&keys[i as usize % n]));
    });
    let ds = bench_ns(ITERS, |i| {
        black_box(det.get(&keys[i as usize % n]));
    });
    report("detmap/get", n, bt, ds);

    let bt = bench_ns(ITERS, |i| {
        let k = keys[i as usize % n];
        btree.remove(&k);
        black_box(btree.insert(k, i));
    });
    let ds = bench_ns(ITERS, |i| {
        let k = keys[i as usize % n];
        det.remove(&k);
        black_box(det.insert(k, i));
    });
    report("detmap/remove+insert", n, bt, ds);
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
        bench_detmap(n);
        bench_pagemap(n);
        println!();
    }
}
