#![warn(missing_docs)]
//! Sharded multi-node remote-memory pool with failure injection and
//! failover.
//!
//! The paper's testbed is one compute node and one memory server over
//! a single 56 Gbps link, and `hopp-net` models exactly that. This
//! crate generalizes the link into a rack-scale *pool* — the setting
//! DRackSim simulates and network-aware page-migration work assumes:
//!
//! * [`MemoryPool`] — N memory nodes, each with its own
//!   [`RdmaEngine`](hopp_net::RdmaEngine) link, capacity and health;
//! * a placement layer ([`Placer`]) sharding swapped-out pages across
//!   nodes under pluggable policies ([`PlacementKind`]): static hash,
//!   round-robin 2 MB ranges, or stream-aware co-location that keeps
//!   pages of one STT stream on one node so span prefetches batch
//!   onto a single link;
//! * a reliability layer: a deterministic [`FaultScript`] (node
//!   slow-down, transient failure, full node loss at scripted
//!   sim-times), timeout + bounded exponential backoff
//!   ([`RetryPolicy`]), and failover re-reads across a configurable
//!   replication factor.
//!
//! Consumers issue ops through the [`RemotePool`] trait; the bare
//! single link implements it too, and a 1-node pool without faults is
//! a transparent pass-through, so the paper's single-server results
//! stay bit-identical.
//!
//! # Example
//!
//! ```
//! use hopp_fabric::{FabricConfig, FaultScript, MemoryPool, RemotePool};
//! use hopp_net::RdmaConfig;
//! use hopp_obs::NopRecorder;
//! use hopp_types::{Nanos, Pid, Vpn};
//!
//! # fn main() -> hopp_types::Result<()> {
//! let mut pool = MemoryPool::new(
//!     RdmaConfig::default(),
//!     FabricConfig { nodes: 4, replication: 2, ..FabricConfig::default() },
//! )?;
//! // Node 2 dies at 1 ms; replicated pages survive via failover.
//! pool.set_fault_script(&FaultScript::parse("1:2:down").unwrap())?;
//! let rec = &mut NopRecorder;
//! pool.place(Pid::new(1), Vpn::new(42), None, Nanos::ZERO, rec)?;
//! pool.write_page(Pid::new(1), Vpn::new(42), Nanos::ZERO, rec);
//! let done = pool.read_page(Pid::new(1), Vpn::new(42), Nanos::from_millis(2), rec)?;
//! assert!(done > Nanos::from_millis(2));
//! # Ok(())
//! # }
//! ```

use hopp_net::RdmaEngine;
use hopp_obs::Recorder;
use hopp_types::{Nanos, Pid, Result, Vpn, PAGE_SIZE};

pub mod faults;
pub mod placement;
pub mod pool;

pub use faults::{FaultEvent, FaultKind, FaultScript, NodeHealth, RetryPolicy};
pub use placement::{hash_node, PlacementKind, Placer, REGION_PAGES, REGION_SHIFT};
pub use pool::{FabricConfig, FabricReport, MemoryPool, NodeReport};

/// The remote-memory interface the kernel swap path and the prefetch
/// engine issue page traffic through.
///
/// Implemented by both the bare single link
/// ([`RdmaEngine`](hopp_net::RdmaEngine) — the paper's testbed) and
/// the sharded [`MemoryPool`]; consumers cannot tell them apart except
/// through latency.
pub trait RemotePool {
    /// Registers a swapped-out page with the pool, once per swap-slot
    /// allocation: a page is not placed again before its
    /// [`RemotePool::release`]. `hint` is an opaque stream identity for
    /// placement policies that co-locate streams (same value ⇒ same
    /// stream); pass `None` when unknown.
    ///
    /// # Errors
    ///
    /// [`hopp_types::Error::PoolExhausted`] when no live node has room
    /// — a capacity-planning failure the run must report, not paper
    /// over.
    fn place(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        hint: Option<u64>,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<()>;

    /// Forgets a placed page's placement (it became resident again or
    /// its swap slot was freed), once per swap-slot free.
    fn release(&mut self, pid: Pid, vpn: Vpn);

    /// Synchronously reads one page (a major fault); returns the
    /// completion time.
    ///
    /// # Errors
    ///
    /// [`hopp_types::Error::PageUnreachable`] when the page's primary
    /// and every replica are down — the data is gone.
    fn read_page(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos>;

    /// Reads `span` consecutive pages starting at `vpn` (a prefetch);
    /// returns the time the last byte lands.
    ///
    /// # Errors
    ///
    /// [`hopp_types::Error::PageUnreachable`] when any page of the span
    /// has lost its primary and every replica.
    fn read_span(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        span: u32,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos>;

    /// Writes one page back (dirty eviction, plus replication when
    /// configured); returns the completion time.
    fn write_page(&mut self, pid: Pid, vpn: Vpn, now: Nanos, rec: &mut dyn Recorder) -> Nanos;

    /// Whether the placement policy benefits from stream hints; lets
    /// callers skip maintaining them otherwise.
    fn wants_hints(&self) -> bool {
        false
    }
}

/// The paper's testbed as the 1-node degenerate case: one link, no
/// placement, no replication, no faults.
impl RemotePool for RdmaEngine {
    fn place(
        &mut self,
        _pid: Pid,
        _vpn: Vpn,
        _hint: Option<u64>,
        _now: Nanos,
        _rec: &mut dyn Recorder,
    ) -> Result<()> {
        Ok(())
    }

    fn release(&mut self, _pid: Pid, _vpn: Vpn) {}

    fn read_page(
        &mut self,
        _pid: Pid,
        _vpn: Vpn,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        Ok(self.issue_page_read(now, rec))
    }

    fn read_span(
        &mut self,
        _pid: Pid,
        _vpn: Vpn,
        span: u32,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        Ok(self.issue_read(now, span.max(1) as usize * PAGE_SIZE, rec))
    }

    fn write_page(&mut self, _pid: Pid, _vpn: Vpn, now: Nanos, rec: &mut dyn Recorder) -> Nanos {
        self.issue_page_write(now, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_net::RdmaConfig;
    use hopp_obs::NopRecorder;

    #[test]
    fn bare_engine_and_single_node_pool_agree_through_the_trait() {
        let mut engine = RdmaEngine::new(RdmaConfig::default());
        let mut pool = MemoryPool::new(RdmaConfig::default(), FabricConfig::default()).unwrap();
        let e: &mut dyn RemotePool = &mut engine;
        let p: &mut dyn RemotePool = &mut pool;
        let rec = &mut NopRecorder;
        let (pid, vpn) = (Pid::new(1), Vpn::new(9));
        e.place(pid, vpn, None, Nanos::ZERO, rec).unwrap();
        p.place(pid, vpn, None, Nanos::ZERO, rec).unwrap();
        assert_eq!(
            e.read_span(pid, vpn, 16, Nanos::ZERO, rec).unwrap(),
            p.read_span(pid, vpn, 16, Nanos::ZERO, rec).unwrap()
        );
        assert_eq!(
            e.read_page(pid, vpn, Nanos::from_micros(50), rec).unwrap(),
            p.read_page(pid, vpn, Nanos::from_micros(50), rec).unwrap()
        );
        assert_eq!(
            e.write_page(pid, vpn, Nanos::from_micros(90), rec),
            p.write_page(pid, vpn, Nanos::from_micros(90), rec)
        );
        assert!(!e.wants_hints() && !p.wants_hints());
    }
}
