//! [`PageMap`]: the page table's paged direct-index map from [`Vpn`].

use hopp_types::Vpn;

/// log2 of the chunk size (keys per chunk), and of the chunks per table.
const CHUNK_BITS: usize = 10;
/// Entries per chunk, and chunks per table.
const CHUNK: usize = 1 << CHUNK_BITS;
/// log2 of the keys one table covers.
const TABLE_BITS: usize = 2 * CHUNK_BITS;

/// One lazily-allocated block of [`CHUNK`] slots.
#[derive(Clone, Debug)]
struct Chunk<V> {
    /// Occupied slots, counted but never read. The field stays because
    /// the chunk's allocation shape moves the repository benchmark
    /// between its heap modes (ROADMAP item 1): without it, or with the
    /// chunk in one allocation, `Simulator::new` takes page faults in
    /// every round.
    used: u32,
    slots: Vec<Option<V>>,
}

/// [`CHUNK`] lazily-allocated chunks: the keys of one `2^TABLE_BITS`
/// range.
type Table<V> = Box<[Option<Box<Chunk<V>>>]>;

/// A map keyed by virtual page number, stored as a three-level
/// direct-index table: a directory with one entry per 2^20 pages,
/// 1,024-entry tables of chunk pointers, and lazily-allocated
/// 1,024-entry chunks.
///
/// Lookups are array indexes (directory, table list, table, chunk) —
/// O(1) with no hashing and no probe sequence — and iteration is in
/// ascending `Vpn` order, so it is deterministic for a fixed operation
/// sequence.
///
/// Memory is 4 bytes of directory per 2^20 pages up to the highest page
/// touched, one 8 KiB table per 2^20-page range used and one chunk per
/// 1,024-page range used. A workload's pages from `HEAP_BASE` (2^20)
/// upward share one table, and one insert at any page below 2^40
/// allocates a directory of at most 4 MiB. Entries are never removed,
/// so steady-state operation allocates nothing.
#[derive(Clone, Debug)]
pub(crate) struct PageMap<V> {
    /// Per 2^20 pages: the index of their table in `tables` plus one, or
    /// 0 for none. A table takes 8 KiB, so `u32` indexes far more
    /// tables than memory can hold.
    dir: Vec<u32>,
    /// The tables, in the order they were first needed.
    tables: Vec<Table<V>>,
}

impl<V> PageMap<V> {
    /// Creates an empty map. It allocates nothing until the first
    /// insert.
    pub(crate) fn new() -> Self {
        PageMap {
            dir: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// The index in `tables` of the table holding key index `i`, if
    /// there is one.
    fn table_of(&self, i: usize) -> Option<usize> {
        let t = *self.dir.get(i >> TABLE_BITS)?;
        (t as usize).checked_sub(1)
    }

    /// Looks up a value.
    pub(crate) fn get(&self, vpn: Vpn) -> Option<&V> {
        let i = vpn.index();
        let table = &self.tables[self.table_of(i)?];
        table[(i >> CHUNK_BITS) & (CHUNK - 1)].as_ref()?.slots[i & (CHUNK - 1)].as_ref()
    }

    /// Looks up a value mutably.
    pub(crate) fn get_mut(&mut self, vpn: Vpn) -> Option<&mut V> {
        let i = vpn.index();
        let t = self.table_of(i)?;
        self.tables[t][(i >> CHUNK_BITS) & (CHUNK - 1)]
            .as_mut()?
            .slots[i & (CHUNK - 1)]
            .as_mut()
    }

    /// Inserts `vpn → value`, returning the previous value if present.
    pub(crate) fn insert(&mut self, vpn: Vpn, value: V) -> Option<V> {
        let i = vpn.index();
        let t = match self.table_of(i) {
            Some(t) => t,
            None => {
                let d = i >> TABLE_BITS;
                if d >= self.dir.len() {
                    self.dir.resize(d + 1, 0);
                }
                self.tables.push((0..CHUNK).map(|_| None).collect());
                self.dir[d] = self.tables.len() as u32;
                self.tables.len() - 1
            }
        };
        let chunk = self.tables[t][(i >> CHUNK_BITS) & (CHUNK - 1)].get_or_insert_with(|| {
            let mut slots = Vec::with_capacity(CHUNK);
            slots.resize_with(CHUNK, || None);
            Box::new(Chunk { used: 0, slots })
        });
        let old = chunk.slots[i & (CHUNK - 1)].replace(value);
        if old.is_none() {
            chunk.used += 1;
        }
        old
    }

    /// Iterates `(vpn, &value)` in ascending `Vpn` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Vpn, &V)> + '_ {
        let tables = self.dir.iter().enumerate().filter_map(|(d, &t)| {
            let table = self.tables.get((t as usize).checked_sub(1)?)?;
            Some((d << TABLE_BITS, table))
        });
        tables.flat_map(|(base, table)| {
            table.iter().enumerate().flat_map(move |(ci, c)| {
                c.iter().flat_map(move |chunk| {
                    chunk.slots.iter().enumerate().filter_map(move |(si, s)| {
                        let i = base | ci << CHUNK_BITS | si;
                        s.as_ref().map(|v| (Vpn::from_index(i), v))
                    })
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use hopp_types::rng::SplitMix64;

    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut m: PageMap<u64> = PageMap::new();
        assert_eq!(m.get(Vpn::new(3)), None);
        assert_eq!(m.insert(Vpn::new(3), 30), None);
        assert_eq!(m.insert(Vpn::new(3), 31), Some(30));
        assert_eq!(m.get(Vpn::new(3)), Some(&31));
        assert_eq!(m.get(Vpn::new(4)), None);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut m: PageMap<u32> = PageMap::new();
        for k in [5000u64, 17, 1 << 20, 1023, 1024] {
            m.insert(Vpn::new(k), 0);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, [17, 1023, 1024, 5000, 1 << 20]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m: PageMap<u32> = PageMap::new();
        m.insert(Vpn::new(9), 1);
        *m.get_mut(Vpn::new(9)).unwrap() += 10;
        assert_eq!(m.get(Vpn::new(9)), Some(&11));
        assert_eq!(m.get_mut(Vpn::new(10)), None);
    }

    #[test]
    fn heap_base_keys_share_one_table() {
        // Workload VPNs start at HEAP_BASE = 1 << 20: a 2^20-page
        // footprint from there takes one 1,024-entry table.
        let mut m: PageMap<u8> = PageMap::new();
        m.insert(Vpn::new(1 << 20), 1);
        m.insert(Vpn::new((2 << 20) - 1), 2);
        assert_eq!(m.dir, [0, 1]);
        assert_eq!(m.tables.len(), 1);
        assert_eq!(m.tables[0].len(), CHUNK);
        assert_eq!(m.tables[0].iter().filter(|c| c.is_some()).count(), 2);
    }

    #[test]
    fn a_high_key_grows_the_directory_by_its_2_20_key_range() {
        // A dense directory of chunk pointers would take 2^22 entries
        // (32 MiB) here; the sparse one takes 4 bytes per 2^20 keys.
        let mut m: PageMap<u8> = PageMap::new();
        let key = Vpn::new(1 << 32);
        m.insert(key, 1);
        assert_eq!(m.dir.len(), (1 << 32 >> TABLE_BITS) + 1);
        assert_eq!(m.dir.len() * size_of::<u32>(), 16 * 1024 + 4);
        assert_eq!(m.tables.len(), 1);
        assert_eq!(m.get(key), Some(&1));
        assert_eq!(m.get(Vpn::new(1 << 31)), None);
        assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), [key]);
    }

    /// Seeded random operation sequences against a `BTreeMap` model, the
    /// structure the map replaced on the hot paths. Keys come from a
    /// small space so that operations collide often.
    #[test]
    fn pagemap_matches_btreemap_model() {
        const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 0xDEAD_BEEF, u64::MAX / 7];
        const OPS: usize = 20_000;
        const KEY_SPACE: u64 = 512;
        for seed in SEEDS {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut map: PageMap<u64> = PageMap::new();
            let mut model: BTreeMap<Vpn, u64> = BTreeMap::new();
            for i in 0..OPS {
                // Mix dense low keys with heap-base-like high keys.
                let k = Vpn::new(if rng.gen_bool(0.5) {
                    rng.gen_range(0..KEY_SPACE)
                } else {
                    (1 << 20) + rng.gen_range(0..KEY_SPACE)
                });
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let v = i as u64;
                        assert_eq!(map.insert(k, v), model.insert(k, v), "seed {seed} op {i}");
                    }
                    5..=6 => {
                        if let Some(v) = map.get_mut(k) {
                            *v += 1;
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v += 1;
                        }
                    }
                    _ => {
                        assert_eq!(map.get(k), model.get(&k), "seed {seed} op {i}");
                    }
                }
            }
            // PageMap iterates in key order — exactly BTreeMap's order.
            let got: Vec<(Vpn, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(Vpn, u64)> = model.into_iter().collect();
            assert_eq!(got, want, "seed {seed}: iteration must be key-ordered");
        }
    }
}
