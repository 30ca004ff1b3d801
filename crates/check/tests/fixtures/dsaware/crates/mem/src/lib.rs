//! Fixture: a sim-critical crate using the deterministic collections.
//! Nothing here may produce a finding — `BTreeMap`, a frame-indexed
//! `Vec` and the page table's `PageMap` are the checker-endorsed
//! replacements for the banned default-hasher ones.

use std::collections::BTreeMap;

use crate::pagemap::PageMap;

/// Hot-path state built only from deterministic collections.
pub struct HotState {
    pub inflight: BTreeMap<u64, u64>,
    pub owners: Vec<u64>,
    pub pages: PageMap<u32>,
}
