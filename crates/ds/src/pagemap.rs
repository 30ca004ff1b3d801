//! [`PageMap`]: a paged direct-index table for dense page/frame keys.

use core::marker::PhantomData;

use crate::PageIndex;

/// log2 of the chunk size (pages per chunk).
const CHUNK_BITS: usize = 10;
/// Entries per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;

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

/// A map keyed by dense page/frame numbers ([`Vpn`]/[`Ppn`]/`usize`),
/// stored as a two-level direct-index table: a directory of
/// lazily-allocated 1024-entry chunks.
///
/// Lookups are two array indexes — O(1) with no hashing and no probe
/// sequence — and iteration is in **key order**, the same order as the
/// `BTreeMap`s this replaces, so migrating to it cannot change any
/// iteration-dependent behaviour.
///
/// Memory is proportional to the highest chunk touched (16 bytes of
/// directory per 1024 pages of key space) plus one chunk per ~1024-page
/// region *ever* used; emptied chunks are retained for reuse (call
/// [`PageMap::clear`] to free them). Intended for page tables, frame
/// tables and per-frame metadata, where keys are dense page indices —
/// not for arbitrary sparse `u64` keys.
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
    chunks: Vec<Option<Box<Chunk<V>>>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: PageIndex, V> Default for PageMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PageIndex, V> PageMap<K, V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        PageMap {
            chunks: Vec::new(),
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

    /// Removes all entries (directory capacity is kept, chunks are
    /// freed).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Looks up a value.
    #[must_use]
    pub fn get(&self, key: K) -> Option<&V> {
        let i = key.page_index();
        self.chunks.get(i >> CHUNK_BITS)?.as_ref()?.slots[i & (CHUNK - 1)].as_ref()
    }

    /// Looks up a value mutably.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let i = key.page_index();
        self.chunks.get_mut(i >> CHUNK_BITS)?.as_mut()?.slots[i & (CHUNK - 1)].as_mut()
    }

    /// True if `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.page_index();
        let ci = i >> CHUNK_BITS;
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, || None);
        }
        let chunk = self.chunks[ci].get_or_insert_with(|| Box::new(Chunk::new()));
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
        let ci = i >> CHUNK_BITS;
        let slot = self.chunks.get_mut(ci)?.as_mut()?;
        let old = slot.slots[i & (CHUNK - 1)].take()?;
        slot.used -= 1;
        self.len -= 1;
        Some(old)
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(ci, c)| {
            c.iter().flat_map(move |chunk| {
                chunk.slots.iter().enumerate().filter_map(move |(si, s)| {
                    s.as_ref()
                        .map(|v| (K::from_page_index((ci << CHUNK_BITS) | si), v))
                })
            })
        })
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
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
        let keys: Vec<u64> = m.keys().map(Vpn::raw).collect();
        assert_eq!(keys, [17, 1023, 1024, 5000, 1 << 20]);
    }

    #[test]
    fn emptied_chunks_are_retained_for_reuse() {
        let mut m: PageMap<usize, u8> = PageMap::new();
        m.insert(2048, 1);
        assert!(m.chunks[2].is_some());
        m.remove(2048);
        // The chunk stays allocated so insert/remove churn around a
        // chunk boundary never reallocates, but the entry is gone.
        assert!(m.chunks[2].is_some());
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
    fn heap_base_keys_are_cheap() {
        // Workload VPNs start at HEAP_BASE = 1 << 20; the directory for
        // such a key is ~1k pointers, not 1M slots.
        let mut m: PageMap<Vpn, u8> = PageMap::new();
        m.insert(Vpn::new(1 << 20), 1);
        assert_eq!(m.chunks.len(), (1 << 20 >> CHUNK_BITS) + 1);
        assert_eq!(m.chunks.iter().filter(|c| c.is_some()).count(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut m: PageMap<usize, u8> = PageMap::new();
        for k in 0..100 {
            m.insert(k, 0);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), None);
        m.insert(5, 1);
        assert_eq!(m.len(), 1);
    }
}
