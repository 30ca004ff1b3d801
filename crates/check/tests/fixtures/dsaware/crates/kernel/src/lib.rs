//! Fixture: the same shape of state built on the banned collection.

use std::collections::HashMap;

/// Non-deterministic twin of the `mem` fixture's `HotState`.
pub struct BadState {
    pub inflight: HashMap<u64, u64>,
}
