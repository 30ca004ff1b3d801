//! [`PageMap`]: a paged direct-index table for dense page/frame keys.

use core::marker::PhantomData;

use crate::PageIndex;

/// log2 of the chunk size (keys per chunk), and of the chunks per table.
const CHUNK_BITS: usize = 10;
/// Entries per chunk, and chunks per table.
const CHUNK: usize = 1 << CHUNK_BITS;
/// log2 of the keys one table covers.
const TABLE_BITS: usize = 2 * CHUNK_BITS;

/// One lazily-allocated block of the table.
#[derive(Clone, Debug)]
struct Chunk<V> {
    /// Occupied slots in this chunk. Emptied chunks are *kept* — page
    /// churn (fault in, reclaim, fault in again) oscillates around
    /// chunk boundaries, and reallocating a chunk per oscillation is
    /// exactly the steady-state allocation the hot paths must not do.
    used: u32,
    slots: Vec<Option<V>>,
}

impl<V> Chunk<V> {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(CHUNK);
        slots.resize_with(CHUNK, || None);
        Chunk { used: 0, slots }
    }
}

/// [`CHUNK`] lazily-allocated chunks: the keys of one `2^TABLE_BITS`
/// range.
type Table<V> = Box<[Option<Box<Chunk<V>>>]>;

/// A map keyed by dense page/frame numbers ([`Vpn`]/[`Ppn`]/`usize`),
/// stored as a three-level direct-index table: a directory with one
/// entry per 2^20 keys, 1,024-entry tables of chunk pointers, and
/// lazily-allocated 1,024-entry chunks.
///
/// Lookups are four array indexes (directory, table list, table,
/// chunk) — O(1) with no hashing and no probe sequence — and iteration is in **key order**, the same order as the
/// `BTreeMap`s this replaces, so migrating to it cannot change any
/// iteration-dependent behaviour.
///
/// Memory is 4 bytes of directory per 2^20 keys up to the highest key
/// touched, one 8 KiB table per 2^20-key range used and one chunk per
/// 1,024-key range *ever* used; emptied chunks are retained for reuse.
/// A workload's pages from `HEAP_BASE` (2^20) upward share one table,
/// and one insert at any key below 2^40 allocates a directory of at
/// most 4 MiB. Intended for page tables, frame tables and per-frame
/// metadata, where keys are dense page indices — not for arbitrary
/// sparse `u64` keys.
///
/// # Example
///
/// ```
/// use hopp_ds::PageMap;
/// use hopp_types::Vpn;
///
/// let mut m: PageMap<Vpn, u32> = PageMap::new();
/// m.insert(Vpn::new(1 << 20), 7);
/// assert_eq!(m.get(Vpn::new(1 << 20)), Some(&7));
/// assert_eq!(m.len(), 1);
/// ```
///
/// [`Vpn`]: hopp_types::Vpn
/// [`Ppn`]: hopp_types::Ppn
#[derive(Clone, Debug)]
pub struct PageMap<K, V> {
    /// Per 2^20 keys: the index of their table in `tables` plus one, or
    /// 0 for none. A table takes 8 KiB, so `u32` indexes far more
    /// tables than memory can hold.
    dir: Vec<u32>,
    /// The tables, in the order they were first needed.
    tables: Vec<Table<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: PageIndex, V> Default for PageMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PageIndex, V> PageMap<K, V> {
    /// Creates an empty map. It allocates nothing until the first
    /// insert.
    #[must_use]
    pub fn new() -> Self {
        PageMap {
            dir: Vec::new(),
            tables: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index in `tables` of the table holding key index `i`, if
    /// there is one.
    fn table_of(&self, i: usize) -> Option<usize> {
        let t = *self.dir.get(i >> TABLE_BITS)?;
        (t as usize).checked_sub(1)
    }

    /// Looks up a value.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        let i = key.page_index();
        let table = &self.tables[self.table_of(i)?];
        table[(i >> CHUNK_BITS) & (CHUNK - 1)].as_ref()?.slots[i & (CHUNK - 1)].as_ref()
    }

    /// Looks up a value mutably.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let i = key.page_index();
        let t = self.table_of(i)?;
        self.tables[t][(i >> CHUNK_BITS) & (CHUNK - 1)]
            .as_mut()?
            .slots[i & (CHUNK - 1)]
            .as_mut()
    }

    /// Inserts `key → value`, returning the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.page_index();
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
        let chunk = self.tables[t][(i >> CHUNK_BITS) & (CHUNK - 1)]
            .get_or_insert_with(|| Box::new(Chunk::new()));
        let old = chunk.slots[i & (CHUNK - 1)].replace(value);
        if old.is_none() {
            chunk.used += 1;
            self.len += 1;
        }
        old
    }

    /// Removes `key`, returning its value. The chunk's storage is kept
    /// for reuse even if this empties it.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let i = key.page_index();
        let t = self.table_of(i)?;
        let chunk = self.tables[t][(i >> CHUNK_BITS) & (CHUNK - 1)].as_mut()?;
        let old = chunk.slots[i & (CHUNK - 1)].take()?;
        chunk.used -= 1;
        self.len -= 1;
        Some(old)
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        let tables = self.dir.iter().enumerate().filter_map(|(d, &t)| {
            let table = self.tables.get((t as usize).checked_sub(1)?)?;
            Some((d << TABLE_BITS, table))
        });
        tables.flat_map(|(base, table)| {
            table.iter().enumerate().flat_map(move |(ci, c)| {
                c.iter().flat_map(move |chunk| {
                    chunk.slots.iter().enumerate().filter_map(move |(si, s)| {
                        let i = base | ci << CHUNK_BITS | si;
                        s.as_ref().map(|v| (K::from_page_index(i), v))
                    })
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_types::{Ppn, Vpn};

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: PageMap<Ppn, u64> = PageMap::new();
        assert_eq!(m.insert(Ppn::new(3), 30), None);
        assert_eq!(m.insert(Ppn::new(3), 31), Some(30));
        assert_eq!(m.get(Ppn::new(3)), Some(&31));
        assert_eq!(m.remove(Ppn::new(3)), Some(31));
        assert_eq!(m.remove(Ppn::new(3)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut m: PageMap<Vpn, u32> = PageMap::new();
        for k in [5000u64, 17, 1 << 20, 1023, 1024] {
            m.insert(Vpn::new(k), 0);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, [17, 1023, 1024, 5000, 1 << 20]);
    }

    #[test]
    fn emptied_chunks_are_retained_for_reuse() {
        let mut m: PageMap<usize, u8> = PageMap::new();
        m.insert(2048, 1);
        assert!(m.tables[0][2].is_some());
        m.remove(2048);
        // The chunk stays allocated so insert/remove churn around a
        // chunk boundary never reallocates, but the entry is gone.
        assert!(m.tables[0][2].is_some());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(2048), None);
        assert!(m.iter().next().is_none());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m: PageMap<usize, u32> = PageMap::new();
        m.insert(9, 1);
        *m.get_mut(9).unwrap() += 10;
        assert_eq!(m.get(9), Some(&11));
        assert_eq!(m.get_mut(10), None);
    }

    #[test]
    fn heap_base_keys_share_one_table() {
        // Workload VPNs start at HEAP_BASE = 1 << 20: a 2^20-page
        // footprint from there takes one 1,024-entry table.
        let mut m: PageMap<Vpn, u8> = PageMap::new();
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
        let mut m: PageMap<Vpn, u8> = PageMap::new();
        let key = Vpn::new(1 << 32);
        m.insert(key, 1);
        assert_eq!(m.dir.len(), (1 << 32 >> TABLE_BITS) + 1);
        assert_eq!(m.dir.len() * size_of::<u32>(), 16 * 1024 + 4);
        assert_eq!(m.tables.len(), 1);
        assert_eq!(m.get(key), Some(&1));
        assert_eq!(m.get(Vpn::new(1 << 31)), None);
        assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), [key]);
    }
}
