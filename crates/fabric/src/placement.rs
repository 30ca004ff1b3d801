//! Page-to-node placement policies.
//!
//! Placement decides which pool node a swapped-out page lives on. It
//! shapes two things: load balance across links, and — for HoPP —
//! whether a stream prefetch's span lands on one link (one queued
//! transfer) or is scattered across several. The three policies span
//! that trade-off:
//!
//! * [`PlacementKind::StaticHash`] — uniform pseudo-random spread, the
//!   baseline any DHT-style pool gives you.
//! * [`PlacementKind::RoundRobin`] — 512-page (2 MB) virtual ranges
//!   round-robin across nodes, so spatially adjacent pages mostly share
//!   a node but long scans still balance.
//! * [`PlacementKind::StreamAware`] — pages carrying the same STT
//!   stream hint co-locate on one node, so a span prefetch of that
//!   stream batches onto a single link instead of paying N base
//!   latencies on N links.

use std::collections::BTreeMap;

use hopp_types::{Pid, SplitMix64, Vpn};

/// Pages per placement region: 512 pages = one 2 MB huge-page extent.
pub const REGION_PAGES: u64 = 512;

/// log2 of [`REGION_PAGES`].
pub const REGION_SHIFT: u32 = 9;

/// Which placement policy the pool runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacementKind {
    /// Uniform pseudo-random node per page (deterministic hash).
    #[default]
    StaticHash,
    /// 512-page virtual ranges round-robin across nodes.
    RoundRobin,
    /// Pages of one STT stream co-locate on one node.
    StreamAware,
}

impl PlacementKind {
    /// Parses a CLI name (`hash`, `rr`, `stream`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hash" => Some(PlacementKind::StaticHash),
            "rr" | "round-robin" => Some(PlacementKind::RoundRobin),
            "stream" => Some(PlacementKind::StreamAware),
            _ => None,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementKind::StaticHash => "hash",
            PlacementKind::RoundRobin => "rr",
            PlacementKind::StreamAware => "stream",
        }
    }
}

/// Deterministic page→node hash used by [`PlacementKind::StaticHash`]
/// and as the fallback for pages the pool never saw placed.
pub fn hash_node(pid: Pid, vpn: Vpn, nodes: usize) -> usize {
    debug_assert!(nodes > 0);
    if nodes == 1 {
        return 0;
    }
    let key = (u64::from(pid.raw()) << 48) ^ vpn.raw();
    (SplitMix64::seed_from_u64(key).next_u64() % nodes as u64) as usize
}

/// The stateful placement engine: maps each swapped-out page to its
/// primary node under the configured policy.
#[derive(Clone, Debug)]
pub struct Placer {
    kind: PlacementKind,
    nodes: usize,
    /// Stream-aware state: hint key → home node, assigned round-robin
    /// in first-seen order (deterministic).
    homes: BTreeMap<u64, usize>,
    next_home: usize,
}

impl Placer {
    /// A placer over `nodes` pool nodes.
    pub fn new(kind: PlacementKind, nodes: usize) -> Self {
        debug_assert!(nodes > 0);
        Placer {
            kind,
            nodes,
            homes: BTreeMap::new(),
            next_home: 0,
        }
    }

    /// The policy in force.
    pub fn kind(&self) -> PlacementKind {
        self.kind
    }

    /// Whether the policy benefits from STT stream hints.
    pub fn wants_hints(&self) -> bool {
        self.kind == PlacementKind::StreamAware && self.nodes > 1
    }

    /// Chooses the primary node for a page. `hint` is an opaque stream
    /// identity (same value ⇒ same stream); pages without a hint fall
    /// back to their 512-page region as the co-location key.
    pub fn place(&mut self, pid: Pid, vpn: Vpn, hint: Option<u64>) -> usize {
        match self.kind {
            PlacementKind::StaticHash => hash_node(pid, vpn, self.nodes),
            PlacementKind::RoundRobin => {
                ((u64::from(pid.raw()) + (vpn.raw() >> REGION_SHIFT)) % self.nodes as u64) as usize
            }
            PlacementKind::StreamAware => {
                // No hint: treat the page's region as a degenerate
                // "stream" so plain spatial locality still co-locates.
                let key = match hint {
                    Some(h) => h | 1 << 63,
                    None => (u64::from(pid.raw()) << 40) ^ (vpn.raw() >> REGION_SHIFT),
                };
                match self.homes.get(&key) {
                    Some(&n) => n,
                    None => {
                        let n = self.next_home % self.nodes;
                        self.next_home += 1;
                        self.homes.insert(key, n);
                        n
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in [
            PlacementKind::StaticHash,
            PlacementKind::RoundRobin,
            PlacementKind::StreamAware,
        ] {
            assert_eq!(PlacementKind::parse(k.name()), Some(k));
        }
        assert_eq!(PlacementKind::parse("bogus"), None);
    }

    #[test]
    fn static_hash_is_deterministic_and_spreads() {
        let mut p = Placer::new(PlacementKind::StaticHash, 4);
        let mut counts = [0usize; 4];
        for v in 0..4_000u64 {
            let n = p.place(Pid::new(1), Vpn::new(v), None);
            assert_eq!(n, p.place(Pid::new(1), Vpn::new(v), None));
            counts[n] += 1;
        }
        for &c in &counts {
            assert!((800..1_200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn round_robin_keeps_regions_together() {
        let mut p = Placer::new(PlacementKind::RoundRobin, 4);
        let base = 1u64 << 20;
        let n0 = p.place(Pid::new(1), Vpn::new(base), None);
        // Same 512-page region: same node.
        assert_eq!(p.place(Pid::new(1), Vpn::new(base + 511), None), n0);
        // Next region: next node.
        let n1 = p.place(Pid::new(1), Vpn::new(base + 512), None);
        assert_eq!(n1, (n0 + 1) % 4);
    }

    #[test]
    fn stream_aware_colocates_by_hint() {
        let mut p = Placer::new(PlacementKind::StreamAware, 4);
        assert!(p.wants_hints());
        let a = p.place(Pid::new(1), Vpn::new(100), Some(7));
        // Far-apart pages of the same stream share the node.
        assert_eq!(p.place(Pid::new(1), Vpn::new(90_000), Some(7)), a);
        // A different stream gets the next home.
        let b = p.place(Pid::new(1), Vpn::new(200), Some(8));
        assert_ne!(a, b);
        // Hintless pages co-locate by region instead.
        let c = p.place(Pid::new(2), Vpn::new(4_096), None);
        assert_eq!(p.place(Pid::new(2), Vpn::new(4_100), None), c);
    }

    #[test]
    fn single_node_pools_always_place_on_node_zero() {
        for kind in [
            PlacementKind::StaticHash,
            PlacementKind::RoundRobin,
            PlacementKind::StreamAware,
        ] {
            let mut p = Placer::new(kind, 1);
            assert!(!p.wants_hints());
            for v in 0..64u64 {
                assert_eq!(p.place(Pid::new(3), Vpn::new(v * 97), Some(v)), 0);
            }
        }
    }
}
