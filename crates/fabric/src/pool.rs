//! The sharded memory pool: N nodes, placement, replication, failover.

use std::collections::BTreeMap;

use hopp_net::{RdmaConfig, RdmaEngine, RdmaStats};
use hopp_obs::{Event, NodeHistograms, NodeLatencySummary, Recorder};
use hopp_types::{Error, Nanos, NodeId, Pid, Result, Vpn, PAGE_SIZE};

use crate::faults::{FaultScript, NodeHealth, RetryPolicy};
use crate::placement::{hash_node, PlacementKind, Placer};
use crate::RemotePool;

/// Pool geometry and reliability parameters.
///
/// `Copy` so it can live inside the simulator's `SimConfig`; the
/// [`FaultScript`] (which owns a `Vec`) is attached to the pool
/// separately.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FabricConfig {
    /// Memory nodes in the pool. 1 reproduces the paper's testbed.
    pub nodes: usize,
    /// Page→node placement policy.
    pub placement: PlacementKind,
    /// Copies of each page, on consecutive nodes after its primary.
    /// 1 = no replication (a lost node loses its pages).
    pub replication: usize,
    /// Timeout/backoff behaviour against misbehaving nodes.
    pub retry: RetryPolicy,
    /// Per-node capacity in pages (`None` = unbounded). Full nodes
    /// spill placements to the next node with room.
    pub node_capacity_pages: Option<usize>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nodes: 1,
            placement: PlacementKind::default(),
            replication: 1,
            retry: RetryPolicy::default(),
            node_capacity_pages: None,
        }
    }
}

impl FabricConfig {
    /// Checks the geometry; every violation surfaces before a run
    /// starts.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::InvalidConfig {
                what: "mem-nodes",
                constraint: ">= 1",
            });
        }
        if self.replication == 0 || self.replication > self.nodes {
            return Err(Error::InvalidConfig {
                what: "replication",
                constraint: "1..=mem-nodes",
            });
        }
        if self.node_capacity_pages == Some(0) {
            return Err(Error::InvalidConfig {
                what: "node-capacity",
                constraint: ">= 1 page",
            });
        }
        Ok(())
    }
}

/// One memory node: its private link, scripted health, and counters.
#[derive(Clone, Debug)]
struct Node {
    link: RdmaEngine,
    health: NodeHealth,
    /// Set after the first op observes the node dead; later ops skip
    /// the discovery timeout (the pool remembers).
    known_dead: bool,
    /// Live primary placements.
    placed: u64,
    retries: u64,
    timeouts: u64,
    hists: NodeHistograms,
}

impl Node {
    fn new(rdma: RdmaConfig) -> Self {
        Node {
            link: RdmaEngine::new(rdma),
            health: NodeHealth::default(),
            known_dead: false,
            placed: 0,
            retries: 0,
            timeouts: 0,
            hists: NodeHistograms::new(),
        }
    }
}

/// A disaggregated memory pool of [`RdmaEngine`]-backed nodes.
///
/// With one node, replication 1 and no fault script the pool is a
/// transparent pass-through: every op maps to exactly the call the
/// single-link simulator made before the fabric existed, so metrics
/// stay bit-identical. Beyond that degenerate point it adds placement,
/// per-node queueing, scripted degradation and failover.
#[derive(Clone, Debug)]
pub struct MemoryPool {
    config: FabricConfig,
    nodes: Vec<Node>,
    placer: Placer,
    /// The primary node of every live page whose placement differs from
    /// [`hash_node`]: spills, and the policies other than static hash.
    /// A one-node pool never writes it.
    exceptions: BTreeMap<(Pid, Vpn), usize>,
    has_faults: bool,
    failovers: u64,
    failed_writes: u64,
    /// Per-node page counts of the span being read, reused across
    /// [`RemotePool::read_span`] calls.
    span_pages: Vec<u32>,
}

impl MemoryPool {
    /// Builds a pool of `config.nodes` identical links.
    pub fn new(rdma: RdmaConfig, config: FabricConfig) -> Result<Self> {
        config.validate()?;
        Ok(MemoryPool {
            config,
            nodes: (0..config.nodes).map(|_| Node::new(rdma)).collect(),
            placer: Placer::new(config.placement, config.nodes),
            exceptions: BTreeMap::new(),
            has_faults: false,
            failovers: 0,
            failed_writes: 0,
            span_pages: vec![0; config.nodes],
        })
    }

    /// Attaches a fault script; each event must name a node in range.
    pub fn set_fault_script(&mut self, script: &FaultScript) -> Result<()> {
        for &ev in script.events() {
            if ev.node.index() >= self.config.nodes {
                return Err(Error::InvalidConfig {
                    what: "fault-script",
                    constraint: "node indices must be < mem-nodes",
                });
            }
            self.nodes[ev.node.index()].health.apply(ev);
        }
        self.has_faults = self.has_faults || !script.is_empty();
        Ok(())
    }

    /// The pool geometry.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    /// True when the pool is a transparent pass-through to one link
    /// (one node, no replication, no faults): nothing fabric-specific
    /// is recorded or reported, keeping single-link metrics
    /// bit-identical.
    pub fn is_degenerate(&self) -> bool {
        self.config.nodes == 1 && self.config.replication == 1 && !self.has_faults
    }

    /// Link counters aggregated across all nodes (the single-link view
    /// legacy reports expect).
    pub fn stats(&self) -> RdmaStats {
        let mut total = RdmaStats::default();
        for n in &self.nodes {
            let s = n.link.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.bytes += s.bytes;
            total.queueing += s.queueing;
        }
        total
    }

    /// The primary node of a page: its recorded exception, or else its
    /// hash node, which is where every other live page was placed and
    /// the fallback for pages never seen at swap-out.
    fn primary_of(&self, pid: Pid, vpn: Vpn) -> usize {
        match self.exceptions.get(&(pid, vpn)) {
            Some(&n) => n,
            None => hash_node(pid, vpn, self.config.nodes),
        }
    }

    /// Probes node `idx` for an op at `t`. Returns `(reachable, t')`
    /// where `t'` includes any timeout/backoff delays paid. On a
    /// healthy node this is `(true, t)` with no side effects.
    fn probe_node(&mut self, idx: usize, mut t: Nanos, rec: &mut dyn Recorder) -> (bool, Nanos) {
        let retry = self.config.retry;
        let node_id = NodeId::from_index(idx);
        if self.nodes[idx].health.is_lost(t) {
            if !self.nodes[idx].known_dead {
                // Discovering a dead node costs one full timeout; the
                // pool remembers, so later ops skip straight past it.
                self.nodes[idx].timeouts += 1;
                t += retry.timeout;
                if rec.is_enabled() {
                    rec.record(
                        t,
                        Event::RemoteTimeout {
                            node: node_id,
                            waited: retry.timeout,
                        },
                    );
                    rec.record(t, Event::NodeDown { node: node_id });
                }
                self.nodes[idx].known_dead = true;
            }
            return (false, t);
        }
        let mut attempt = 0u32;
        while self.nodes[idx].health.failing(t) {
            if attempt >= retry.max_retries {
                // Retry budget exhausted: pay a final timeout and let
                // the caller fail over.
                self.nodes[idx].timeouts += 1;
                t += retry.timeout;
                if rec.is_enabled() {
                    rec.record(
                        t,
                        Event::RemoteTimeout {
                            node: node_id,
                            waited: retry.timeout,
                        },
                    );
                }
                return (false, t);
            }
            attempt += 1;
            let pause = retry.timeout + retry.backoff_after(attempt);
            t += pause;
            self.nodes[idx].retries += 1;
            if rec.is_enabled() {
                rec.record(
                    t,
                    Event::RemoteRetry {
                        node: node_id,
                        attempt,
                        backoff: pause,
                    },
                );
            }
        }
        (true, t)
    }

    /// Reads `bytes` of pages whose primary is `primary`, failing over
    /// across the replica chain. Errors if every replica is dead — the
    /// data is gone and the simulation cannot honestly continue.
    fn read_from(
        &mut self,
        primary: usize,
        pid: Pid,
        vpn: Vpn,
        bytes: usize,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        let _prof = hopp_prof::span(hopp_prof::SpanId::FabricLink);
        let n = self.config.nodes;
        let mut t = now;
        for r in 0..self.config.replication {
            let idx = (primary + r) % n;
            let (ok, after) = self.probe_node(idx, t, rec);
            t = after;
            if !ok {
                continue;
            }
            let node = &mut self.nodes[idx];
            let mut done = node.link.issue_read(t, bytes, rec);
            // Node-side slowness stretches the op without occupying
            // the wire longer (the NIC serializes at full rate; the
            // node is slow to serve).
            let pct = node.health.slow_factor_pct(t);
            if pct > 100 {
                done += node
                    .link
                    .config()
                    .base_latency
                    .scale(f64::from(pct - 100) / 100.0);
            }
            node.hists.read.record_nanos(done.saturating_since(now));
            if r > 0 {
                self.failovers += 1;
                if rec.is_enabled() {
                    rec.record(
                        t,
                        Event::Failover {
                            pid,
                            vpn,
                            node: NodeId::from_index(idx),
                        },
                    );
                }
            }
            return Ok(done);
        }
        Err(Error::PageUnreachable {
            pid,
            vpn,
            primary: NodeId::from_index(primary),
            replication: self.config.replication,
        })
    }
}

impl RemotePool for MemoryPool {
    fn wants_hints(&self) -> bool {
        self.placer.wants_hints()
    }

    fn place(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        hint: Option<u64>,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<()> {
        let n = self.config.nodes;
        let cap = self.config.node_capacity_pages;
        let mut idx = self.placer.place(pid, vpn, hint);
        // Spill past full or dead nodes; new swap-outs never target a
        // node already known lost.
        let mut probed = 0;
        while probed < n
            && (self.nodes[idx].health.is_lost(now)
                || cap.is_some_and(|c| self.nodes[idx].placed as usize >= c))
        {
            idx = (idx + 1) % n;
            probed += 1;
        }
        if probed == n {
            return Err(Error::PoolExhausted { nodes: n });
        }
        // One `place` per swap-slot allocation: a live page is never
        // placed again before its `release`.
        debug_assert!(
            !self.exceptions.contains_key(&(pid, vpn)),
            "{pid} {vpn} placed twice"
        );
        if idx != hash_node(pid, vpn, n) {
            self.exceptions.insert((pid, vpn), idx);
        }
        self.nodes[idx].placed += 1;
        if !self.is_degenerate() && rec.is_enabled() {
            rec.record(
                now,
                Event::PagePlaced {
                    pid,
                    vpn,
                    node: NodeId::from_index(idx),
                },
            );
        }
        Ok(())
    }

    fn release(&mut self, pid: Pid, vpn: Vpn) {
        // One `release` per swap-slot free, of a page `place` counted on
        // its primary node.
        let idx = self
            .exceptions
            .remove(&(pid, vpn))
            .unwrap_or_else(|| hash_node(pid, vpn, self.config.nodes));
        self.nodes[idx].placed = self.nodes[idx].placed.saturating_sub(1);
    }

    fn read_page(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        let primary = self.primary_of(pid, vpn);
        self.read_from(primary, pid, vpn, PAGE_SIZE, now, rec)
    }

    fn read_span(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        span: u32,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        // A one-page span is a plain page read: same node, same bytes.
        if span <= 1 {
            return self.read_page(pid, vpn, now, rec);
        }
        // Group the span's pages by primary node: one transfer per
        // node, completion when the last group lands. A single-node
        // pool degenerates to exactly one span-sized read.
        let mut per_node = std::mem::take(&mut self.span_pages);
        per_node.fill(0);
        for i in 0..span {
            let v = vpn.offset_saturating(i64::from(i));
            per_node[self.primary_of(pid, v)] += 1;
        }
        let done = per_node
            .iter()
            .enumerate()
            .filter(|&(_, &pages)| pages > 0)
            .try_fold(now, |done, (idx, &pages)| {
                let d = self.read_from(idx, pid, vpn, pages as usize * PAGE_SIZE, now, rec)?;
                Ok(done.max(d))
            });
        self.span_pages = per_node;
        done
    }

    fn write_page(&mut self, pid: Pid, vpn: Vpn, now: Nanos, rec: &mut dyn Recorder) -> Nanos {
        let _prof = hopp_prof::span(hopp_prof::SpanId::FabricLink);
        let n = self.config.nodes;
        let primary = self.primary_of(pid, vpn);
        let mut t = now;
        let mut done: Option<Nanos> = None;
        for r in 0..self.config.replication {
            let idx = (primary + r) % n;
            let (ok, after) = self.probe_node(idx, t, rec);
            t = after;
            if !ok {
                self.failed_writes += 1;
                continue;
            }
            let node = &mut self.nodes[idx];
            let mut d = node.link.issue_page_write(t, rec);
            let pct = node.health.slow_factor_pct(t);
            if pct > 100 {
                d += node
                    .link
                    .config()
                    .base_latency
                    .scale(f64::from(pct - 100) / 100.0);
            }
            node.hists.write.record_nanos(d.saturating_since(now));
            done = Some(done.map_or(d, |x| x.max(d)));
        }
        // All replicas unreachable: the write is lost (counted above);
        // a later read of this page will fail loudly.
        done.unwrap_or(t)
    }
}

/// Per-node slice of a [`FabricReport`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Link counters (reads, writes, bytes, queueing).
    pub link: RdmaStats,
    /// Live primary placements at end of run.
    pub placed: u64,
    /// Transient-failure retries paid against this node.
    pub retries: u64,
    /// Timeouts paid against this node (loss discovery + retry budget
    /// exhaustion).
    pub timeouts: u64,
    /// Whether the node was lost during the run.
    pub lost: bool,
    /// Requester-observed read/write latency on this node, including
    /// retry, backoff and slow-down delays.
    pub latency: NodeLatencySummary,
}

/// End-of-run snapshot of pool activity, embedded in the simulator's
/// report for non-degenerate pools.
#[derive(Clone, PartialEq, Debug)]
pub struct FabricReport {
    /// Placement policy name.
    pub placement: &'static str,
    /// Replication factor.
    pub replication: usize,
    /// Reads served by a replica after the primary failed.
    pub failovers: u64,
    /// Replica writes dropped because the target was unreachable.
    pub failed_writes: u64,
    /// Per-node detail, in node order.
    pub nodes: Vec<NodeReport>,
}

impl MemoryPool {
    /// Snapshots the pool for reporting. The simulator embeds this
    /// only for non-degenerate pools, keeping legacy reports
    /// byte-identical.
    pub fn report(&self, end: Nanos) -> FabricReport {
        FabricReport {
            placement: self.config.placement.name(),
            replication: self.config.replication,
            failovers: self.failovers,
            failed_writes: self.failed_writes,
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeReport {
                    node: NodeId::from_index(i),
                    link: n.link.stats(),
                    placed: n.placed,
                    retries: n.retries,
                    timeouts: n.timeouts,
                    lost: n.health.is_lost(end),
                    latency: n.hists.summary(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_obs::NopRecorder;

    fn pool(nodes: usize, replication: usize) -> MemoryPool {
        MemoryPool::new(
            RdmaConfig::default(),
            FabricConfig {
                nodes,
                replication,
                ..FabricConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let bad = FabricConfig {
            nodes: 0,
            ..FabricConfig::default()
        };
        assert!(MemoryPool::new(RdmaConfig::default(), bad).is_err());
        let bad = FabricConfig {
            nodes: 2,
            replication: 3,
            ..FabricConfig::default()
        };
        assert!(MemoryPool::new(RdmaConfig::default(), bad).is_err());
        let bad = FabricConfig {
            replication: 0,
            ..FabricConfig::default()
        };
        assert!(MemoryPool::new(RdmaConfig::default(), bad).is_err());
    }

    #[test]
    fn degenerate_pool_matches_the_raw_engine_exactly() {
        // The same interleaved op sequence against a 1-node pool and a
        // bare engine must produce identical completion times and
        // stats — the bit-identity guarantee the simulator relies on.
        let mut p = MemoryPool::new(RdmaConfig::default(), FabricConfig::default()).unwrap();
        let mut e = RdmaEngine::new(RdmaConfig::default());
        let rec = &mut NopRecorder;
        let pid = Pid::new(1);
        let mut t = Nanos::ZERO;
        for i in 0..50u64 {
            let vpn = Vpn::new(i * 7);
            p.place(pid, vpn, None, t, rec).unwrap();
            match i % 3 {
                0 => assert_eq!(
                    p.read_page(pid, vpn, t, rec).unwrap(),
                    e.issue_page_read(t, rec)
                ),
                1 => assert_eq!(
                    p.read_span(pid, vpn, 8, t, rec).unwrap(),
                    e.issue_read(t, 8 * PAGE_SIZE, rec)
                ),
                _ => assert_eq!(p.write_page(pid, vpn, t, rec), e.issue_page_write(t, rec)),
            }
            t += Nanos::from_nanos(i * 311);
        }
        assert!(p.is_degenerate());
        assert_eq!(p.stats(), e.stats());
    }

    #[test]
    fn node_loss_fails_over_to_the_replica() {
        let mut p = pool(2, 2);
        p.set_fault_script(&FaultScript::parse("0:0:down").unwrap())
            .unwrap();
        let rec = &mut NopRecorder;
        let pid = Pid::new(1);
        // Force the page's primary onto the dead node.
        let vpn = (0..)
            .map(Vpn::new)
            .find(|&v| hash_node(pid, v, 2) == 0)
            .unwrap();
        let healthy =
            RdmaConfig::default().base_latency + RdmaConfig::default().serialization(PAGE_SIZE);
        let t0 = Nanos::from_millis(1);
        let d1 = p.read_page(pid, vpn, t0, rec).unwrap();
        // First read pays the discovery timeout, then the replica read.
        assert_eq!(
            d1,
            t0 + p.config().retry.timeout + healthy,
            "timeout + failover read"
        );
        // The pool remembers the dead node: no second timeout.
        let t1 = Nanos::from_millis(2);
        let d2 = p.read_page(pid, vpn, t1, rec).unwrap();
        assert_eq!(d2, t1 + healthy);
        let rep = p.report(Nanos::from_millis(3));
        assert_eq!(rep.failovers, 2);
        assert!(rep.nodes[0].lost);
        assert_eq!(rep.nodes[0].timeouts, 1);
        assert!(!rep.nodes[1].lost);
    }

    #[test]
    fn transient_failures_retry_with_backoff_then_succeed() {
        let mut p = pool(1, 1);
        // Node 0 fails from 0 to 100 µs; the first retry (timeout
        // 100 µs + backoff 50 µs) lands at 150 µs, past the window.
        let mut script = FaultScript::new();
        script.push(crate::faults::FaultEvent {
            at: Nanos::ZERO,
            node: NodeId::new(0),
            kind: crate::faults::FaultKind::Fail,
            until: Some(Nanos::from_micros(100)),
        });
        p.set_fault_script(&script).unwrap();
        let rec = &mut NopRecorder;
        let healthy =
            RdmaConfig::default().base_latency + RdmaConfig::default().serialization(PAGE_SIZE);
        let retry = p.config().retry;
        let d = p
            .read_page(Pid::new(1), Vpn::new(5), Nanos::ZERO, rec)
            .unwrap();
        assert_eq!(d, retry.timeout + retry.backoff_after(1) + healthy);
        let rep = p.report(Nanos::from_millis(1));
        assert_eq!(rep.nodes[0].retries, 1);
        assert_eq!(rep.failovers, 0);
    }

    #[test]
    fn losing_every_replica_is_a_typed_error() {
        let mut p = pool(2, 2);
        p.set_fault_script(&FaultScript::parse("0:0:down,0:1:down").unwrap())
            .unwrap();
        let err = p
            .read_page(
                Pid::new(1),
                Vpn::new(1),
                Nanos::from_millis(1),
                &mut NopRecorder,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::PageUnreachable {
                    pid,
                    vpn,
                    replication: 2,
                    ..
                } if pid == Pid::new(1) && vpn == Vpn::new(1)
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn fault_script_node_out_of_range_is_rejected() {
        let mut p = pool(2, 1);
        assert!(p
            .set_fault_script(&FaultScript::parse("0:7:down").unwrap())
            .is_err());
    }

    #[test]
    fn slow_nodes_stretch_completions_without_blocking_the_wire() {
        let mut p = pool(1, 1);
        p.set_fault_script(&FaultScript::parse("0:0:slow:4").unwrap())
            .unwrap();
        let rec = &mut NopRecorder;
        let cfg = RdmaConfig::default();
        let healthy = cfg.base_latency + cfg.serialization(PAGE_SIZE);
        let d = p
            .read_page(Pid::new(1), Vpn::new(1), Nanos::ZERO, rec)
            .unwrap();
        assert_eq!(d, healthy + cfg.base_latency.scale(3.0));
    }

    #[test]
    fn full_nodes_spill_placements() {
        let mut p = MemoryPool::new(
            RdmaConfig::default(),
            FabricConfig {
                nodes: 2,
                node_capacity_pages: Some(4),
                placement: PlacementKind::RoundRobin,
                ..FabricConfig::default()
            },
        )
        .unwrap();
        let rec = &mut NopRecorder;
        let pid = Pid::new(1);
        // 8 pages in one region would all target one node; capacity 4
        // forces half onto the other.
        for v in 0..8u64 {
            p.place(pid, Vpn::new(v), None, Nanos::ZERO, rec).unwrap();
        }
        let rep = p.report(Nanos::ZERO);
        assert_eq!(rep.nodes[0].placed + rep.nodes[1].placed, 8);
        assert_eq!(rep.nodes[0].placed, 4);
        assert_eq!(rep.nodes[1].placed, 4);
    }

    #[test]
    fn pool_wide_exhaustion_is_a_typed_error() {
        let mut p = MemoryPool::new(
            RdmaConfig::default(),
            FabricConfig {
                nodes: 2,
                node_capacity_pages: Some(1),
                ..FabricConfig::default()
            },
        )
        .unwrap();
        for v in 0..2u64 {
            p.place(
                Pid::new(1),
                Vpn::new(v),
                None,
                Nanos::ZERO,
                &mut NopRecorder,
            )
            .unwrap();
        }
        let err = p
            .place(
                Pid::new(1),
                Vpn::new(2),
                None,
                Nanos::ZERO,
                &mut NopRecorder,
            )
            .unwrap_err();
        assert_eq!(err, Error::PoolExhausted { nodes: 2 });
        assert!(err.to_string().contains("memory pool exhausted"));
    }

    #[test]
    fn release_frees_capacity() {
        let mut p = MemoryPool::new(
            RdmaConfig::default(),
            FabricConfig {
                nodes: 1,
                node_capacity_pages: Some(1),
                ..FabricConfig::default()
            },
        )
        .unwrap();
        let rec = &mut NopRecorder;
        p.place(Pid::new(1), Vpn::new(1), None, Nanos::ZERO, rec)
            .unwrap();
        p.release(Pid::new(1), Vpn::new(1));
        p.place(Pid::new(1), Vpn::new(2), None, Nanos::ZERO, rec)
            .unwrap();
        let rep = p.report(Nanos::ZERO);
        assert_eq!(rep.nodes[0].placed, 1);
    }

    #[test]
    fn one_page_spans_complete_exactly_like_page_reads() {
        // Two identical 4-node pools, one read through `read_span(.., 1,
        // ..)` and one through `read_page`, with a node lost mid-run so
        // failover is exercised too.
        let script = FaultScript::parse("0:2:down").unwrap();
        let mut spans = pool(4, 2);
        let mut pages = pool(4, 2);
        spans.set_fault_script(&script).unwrap();
        pages.set_fault_script(&script).unwrap();
        let rec = &mut NopRecorder;
        let pid = Pid::new(1);
        let mut t = Nanos::ZERO;
        for i in 0..64u64 {
            let vpn = Vpn::new(i * 131);
            spans.place(pid, vpn, None, t, rec).unwrap();
            pages.place(pid, vpn, None, t, rec).unwrap();
            assert_eq!(
                spans.read_span(pid, vpn, 1, t, rec).unwrap(),
                pages.read_page(pid, vpn, t, rec).unwrap(),
                "page {i}"
            );
            t += Nanos::from_micros(3);
        }
        assert_eq!(spans.stats(), pages.stats());
        assert_eq!(spans.report(t), pages.report(t));
    }

    #[test]
    fn span_reads_split_across_nodes_and_meet_at_the_max() {
        let mut p = MemoryPool::new(
            RdmaConfig::default(),
            FabricConfig {
                nodes: 2,
                placement: PlacementKind::RoundRobin,
                ..FabricConfig::default()
            },
        )
        .unwrap();
        let rec = &mut NopRecorder;
        let pid = Pid::new(1);
        // Place 4 pages straddling a region boundary: 2 per node.
        let base = 510u64;
        for v in base..base + 4 {
            p.place(pid, Vpn::new(v), None, Nanos::ZERO, rec).unwrap();
        }
        let done = p
            .read_span(pid, Vpn::new(base), 4, Nanos::ZERO, rec)
            .unwrap();
        let cfg = RdmaConfig::default();
        // Each node serves 2 pages concurrently on its own link.
        assert_eq!(done, cfg.base_latency + cfg.serialization(2 * PAGE_SIZE));
        let s = p.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.bytes, 4 * PAGE_SIZE as u64);
    }
}
