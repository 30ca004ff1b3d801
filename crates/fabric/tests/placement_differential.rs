//! Differential test of the memory pool's placements against a pool
//! that records every one.
//!
//! `MemoryPool` keeps a page's primary node only when it differs from
//! [`hash_node`], and `release` decrements the node `read_page` would
//! read from. The reference below is the pool it replaced: every
//! placement goes into a map, `release` removes it, and every read or
//! write looks the page up there before falling back to the hash. Both
//! are driven by the same seeded sequences of place, release, read,
//! span-read and write, and must agree on every returned time and
//! error, on every recorded event, and on the final per-node report
//! (placed pages, link counters, retries, timeouts, latencies).
//!
//! The sequences keep the pool's contract: a page is placed once, then
//! released once, before it is placed again. Reads and writes name any
//! page, placed or not. They cover the three placement policies at 1, 2
//! and 4 nodes, node capacities small enough to spill and to exhaust the
//! pool, and lost, slow and failing nodes under replication 1 and 2.

use std::collections::{BTreeMap, BTreeSet};

use hopp_fabric::{
    hash_node, FabricConfig, FabricReport, FaultScript, MemoryPool, NodeHealth, NodeReport,
    PlacementKind, Placer, RemotePool,
};
use hopp_net::{RdmaConfig, RdmaEngine, RdmaStats};
use hopp_obs::{Event, NodeHistograms, Recorder, TraceSink};
use hopp_types::rng::SplitMix64;
use hopp_types::{Error, Nanos, NodeId, Pid, Result, Vpn, PAGE_SIZE};

/// One node of the reference pool.
struct RefNode {
    link: RdmaEngine,
    health: NodeHealth,
    known_dead: bool,
    placed: u64,
    retries: u64,
    timeouts: u64,
    hists: NodeHistograms,
}

/// The pool with a placement map that records every placed page.
struct RefPool {
    config: FabricConfig,
    nodes: Vec<RefNode>,
    placer: Placer,
    placements: BTreeMap<(Pid, Vpn), usize>,
    has_faults: bool,
    failovers: u64,
    failed_writes: u64,
}

impl RefPool {
    fn new(rdma: RdmaConfig, config: FabricConfig, script: &FaultScript) -> Self {
        let mut nodes: Vec<RefNode> = (0..config.nodes)
            .map(|_| RefNode {
                link: RdmaEngine::new(rdma),
                health: NodeHealth::default(),
                known_dead: false,
                placed: 0,
                retries: 0,
                timeouts: 0,
                hists: NodeHistograms::new(),
            })
            .collect();
        for &ev in script.events() {
            nodes[ev.node.index()].health.apply(ev);
        }
        RefPool {
            config,
            nodes,
            placer: Placer::new(config.placement, config.nodes),
            placements: BTreeMap::new(),
            has_faults: !script.is_empty(),
            failovers: 0,
            failed_writes: 0,
        }
    }

    fn degenerate(&self) -> bool {
        self.config.nodes == 1 && self.config.replication == 1 && !self.has_faults
    }

    fn primary_of(&self, pid: Pid, vpn: Vpn) -> usize {
        match self.placements.get(&(pid, vpn)) {
            Some(&n) => n,
            None => hash_node(pid, vpn, self.config.nodes),
        }
    }

    fn probe(&mut self, idx: usize, mut t: Nanos, rec: &mut dyn Recorder) -> (bool, Nanos) {
        let retry = self.config.retry;
        let node = NodeId::from_index(idx);
        if self.nodes[idx].health.is_lost(t) {
            if !self.nodes[idx].known_dead {
                self.nodes[idx].timeouts += 1;
                t += retry.timeout;
                rec.record(
                    t,
                    Event::RemoteTimeout {
                        node,
                        waited: retry.timeout,
                    },
                );
                rec.record(t, Event::NodeDown { node });
                self.nodes[idx].known_dead = true;
            }
            return (false, t);
        }
        let mut attempt = 0u32;
        while self.nodes[idx].health.failing(t) {
            if attempt >= retry.max_retries {
                self.nodes[idx].timeouts += 1;
                t += retry.timeout;
                rec.record(
                    t,
                    Event::RemoteTimeout {
                        node,
                        waited: retry.timeout,
                    },
                );
                return (false, t);
            }
            attempt += 1;
            let pause = retry.timeout + retry.backoff_after(attempt);
            t += pause;
            self.nodes[idx].retries += 1;
            rec.record(
                t,
                Event::RemoteRetry {
                    node,
                    attempt,
                    backoff: pause,
                },
            );
        }
        (true, t)
    }

    /// The node's extra latency at `t` when it runs slow.
    fn slowdown(node: &RefNode, t: Nanos) -> Nanos {
        let pct = node.health.slow_factor_pct(t);
        if pct > 100 {
            node.link
                .config()
                .base_latency
                .scale(f64::from(pct - 100) / 100.0)
        } else {
            Nanos::ZERO
        }
    }

    fn read_from(
        &mut self,
        primary: usize,
        pid: Pid,
        vpn: Vpn,
        bytes: usize,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        let n = self.config.nodes;
        let mut t = now;
        for r in 0..self.config.replication {
            let idx = (primary + r) % n;
            let (ok, after) = self.probe(idx, t, rec);
            t = after;
            if !ok {
                continue;
            }
            let node = &mut self.nodes[idx];
            let done = node.link.issue_read(t, bytes, rec) + Self::slowdown(node, t);
            node.hists.read.record_nanos(done.saturating_since(now));
            if r > 0 {
                self.failovers += 1;
                let node = NodeId::from_index(idx);
                rec.record(t, Event::Failover { pid, vpn, node });
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
        if let Some(old) = self.placements.insert((pid, vpn), idx) {
            self.nodes[old].placed -= 1;
        }
        self.nodes[idx].placed += 1;
        if !self.degenerate() {
            let node = NodeId::from_index(idx);
            rec.record(now, Event::PagePlaced { pid, vpn, node });
        }
        Ok(())
    }

    fn release(&mut self, pid: Pid, vpn: Vpn) {
        if let Some(idx) = self.placements.remove(&(pid, vpn)) {
            self.nodes[idx].placed -= 1;
        }
    }

    /// Reads a span; a one-page span is a page read.
    fn read_span(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        span: u32,
        now: Nanos,
        rec: &mut dyn Recorder,
    ) -> Result<Nanos> {
        let mut per_node = vec![0usize; self.config.nodes];
        for i in 0..span.max(1) {
            per_node[self.primary_of(pid, vpn.offset_saturating(i64::from(i)))] += 1;
        }
        let mut done = now;
        for (idx, pages) in per_node.into_iter().enumerate() {
            if pages > 0 {
                done = done.max(self.read_from(idx, pid, vpn, pages * PAGE_SIZE, now, rec)?);
            }
        }
        Ok(done)
    }

    fn write_page(&mut self, pid: Pid, vpn: Vpn, now: Nanos, rec: &mut dyn Recorder) -> Nanos {
        let n = self.config.nodes;
        let primary = self.primary_of(pid, vpn);
        let mut t = now;
        let mut done: Option<Nanos> = None;
        for r in 0..self.config.replication {
            let idx = (primary + r) % n;
            let (ok, after) = self.probe(idx, t, rec);
            t = after;
            if !ok {
                self.failed_writes += 1;
                continue;
            }
            let node = &mut self.nodes[idx];
            let d = node.link.issue_page_write(t, rec) + Self::slowdown(node, t);
            node.hists.write.record_nanos(d.saturating_since(now));
            done = Some(done.map_or(d, |x| x.max(d)));
        }
        done.unwrap_or(t)
    }

    fn stats(&self) -> RdmaStats {
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

    fn report(&self, end: Nanos) -> FabricReport {
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

/// One pool geometry and fault script.
struct Case {
    placement: PlacementKind,
    nodes: usize,
    replication: usize,
    capacity: Option<usize>,
    script: &'static str,
}

/// Counts of what a run exercised, so a case that silently stops
/// reaching a path fails.
#[derive(Default, Debug)]
struct Seen {
    placed: u64,
    exhausted: u64,
    unreachable: u64,
    spans: u64,
}

/// Drives the pool and the reference through `ops` seeded operations
/// and checks that they agree after each one.
fn run(case: &Case, seed: u64, ops: usize) -> Seen {
    let config = FabricConfig {
        nodes: case.nodes,
        placement: case.placement,
        replication: case.replication,
        node_capacity_pages: case.capacity,
        ..FabricConfig::default()
    };
    let script = FaultScript::parse(case.script).unwrap();
    let rdma = RdmaConfig::default();
    let mut pool = MemoryPool::new(rdma, config).unwrap();
    pool.set_fault_script(&script).unwrap();
    let mut reference = RefPool::new(rdma, config, &script);
    let mut sink = TraceSink::new(64 * ops);
    let mut ref_sink = TraceSink::new(64 * ops);
    let mut rng = SplitMix64::seed_from_u64(seed);
    // Three pids over five 512-page regions, so round-robin and
    // stream-aware placement put neighbours on one node and spill.
    let page = |rng: &mut SplitMix64| {
        let pid = Pid::new(1 + (rng.next_u64() % 3) as u16);
        (pid, Vpn::new(rng.next_u64() % 2_560))
    };
    let mut live: Vec<(Pid, Vpn)> = Vec::new();
    let mut is_live: BTreeSet<(Pid, Vpn)> = BTreeSet::new();
    let mut seen = Seen::default();
    let mut t = Nanos::ZERO;
    for op in 0..ops {
        t += Nanos::from_nanos(rng.next_u64() % 5_000);
        let what = format!("seed {seed} op {op}");
        match rng.next_u64() % 20 {
            // Place a page that is not live.
            0..=7 => {
                let (pid, vpn) = page(&mut rng);
                if is_live.contains(&(pid, vpn)) {
                    continue;
                }
                let hint = (!rng.next_u64().is_multiple_of(3)).then(|| rng.next_u64() % 6);
                let got = pool.place(pid, vpn, hint, t, &mut sink);
                let want = reference.place(pid, vpn, hint, t, &mut ref_sink);
                assert_eq!(got, want, "{what}: place {pid} {vpn}");
                match got {
                    Ok(()) => {
                        seen.placed += 1;
                        live.push((pid, vpn));
                        is_live.insert((pid, vpn));
                    }
                    Err(Error::PoolExhausted { .. }) => seen.exhausted += 1,
                    Err(e) => panic!("{what}: {e}"),
                }
            }
            // Release a live page.
            8..=12 => {
                if live.is_empty() {
                    continue;
                }
                let (pid, vpn) = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                is_live.remove(&(pid, vpn));
                pool.release(pid, vpn);
                reference.release(pid, vpn);
            }
            13..=15 => {
                let (pid, vpn) = pick(&mut rng, &live, page);
                let got = pool.read_page(pid, vpn, t, &mut sink);
                let want = reference.read_span(pid, vpn, 1, t, &mut ref_sink);
                assert_eq!(got, want, "{what}: read {pid} {vpn}");
                if got.is_err() {
                    seen.unreachable += 1;
                }
            }
            16..=17 => {
                let (pid, vpn) = pick(&mut rng, &live, page);
                let span = 1 + (rng.next_u64() % 24) as u32;
                let got = pool.read_span(pid, vpn, span, t, &mut sink);
                let want = reference.read_span(pid, vpn, span, t, &mut ref_sink);
                assert_eq!(got, want, "{what}: span {pid} {vpn} +{span}");
                seen.spans += 1;
            }
            _ => {
                let (pid, vpn) = pick(&mut rng, &live, page);
                let got = pool.write_page(pid, vpn, t, &mut sink);
                let want = reference.write_page(pid, vpn, t, &mut ref_sink);
                assert_eq!(got, want, "{what}: write {pid} {vpn}");
            }
        }
        let placed: Vec<u64> = pool.report(t).nodes.iter().map(|n| n.placed).collect();
        let want: Vec<u64> = reference.nodes.iter().map(|n| n.placed).collect();
        assert_eq!(placed, want, "{what}: placed per node");
    }
    assert_eq!(pool.report(t), reference.report(t), "seed {seed}: report");
    assert_eq!(pool.stats(), reference.stats(), "seed {seed}: link stats");
    assert_eq!(sink.dropped(), 0);
    assert!(
        sink.into_events() == ref_sink.into_events(),
        "seed {seed}: recorded events differ"
    );
    // Releasing every live page leaves nothing placed on either side.
    for (pid, vpn) in live {
        pool.release(pid, vpn);
        reference.release(pid, vpn);
    }
    assert!(pool.report(t).nodes.iter().all(|n| n.placed == 0));
    assert_eq!(pool.report(t), reference.report(t));
    seen
}

/// A live page three times in four, any page otherwise.
fn pick(
    rng: &mut SplitMix64,
    live: &[(Pid, Vpn)],
    page: impl Fn(&mut SplitMix64) -> (Pid, Vpn),
) -> (Pid, Vpn) {
    if !live.is_empty() && !rng.next_u64().is_multiple_of(4) {
        live[(rng.next_u64() % live.len() as u64) as usize]
    } else {
        page(rng)
    }
}

const KINDS: [PlacementKind; 3] = [
    PlacementKind::StaticHash,
    PlacementKind::RoundRobin,
    PlacementKind::StreamAware,
];

#[test]
fn every_policy_agrees_at_one_two_and_four_nodes() {
    for placement in KINDS {
        for nodes in [1, 2, 4] {
            let case = Case {
                placement,
                nodes,
                replication: 1,
                capacity: None,
                script: "",
            };
            for seed in 0..3 {
                let seen = run(&case, seed, 3_000);
                assert!(seen.placed > 500, "{seen:?}");
            }
        }
    }
}

#[test]
fn capacity_spills_and_exhaustion_agree() {
    for placement in KINDS {
        for (nodes, capacity) in [(1, 64), (2, 40), (4, 24)] {
            let case = Case {
                placement,
                nodes,
                replication: 1,
                capacity: Some(capacity),
                script: "",
            };
            for seed in 10..13 {
                let seen = run(&case, seed, 3_000);
                assert!(seen.exhausted > 0, "{nodes} nodes: {seen:?}");
            }
        }
    }
}

#[test]
fn lost_slow_and_failing_nodes_agree_under_replication() {
    let scripts = [
        (2, 2, "3:1:down"),
        (4, 2, "3:1:down"),
        (4, 2, "1:0:slow:3:4,2:2:fail:1,6:3:down"),
        (4, 1, "4:2:down"),
    ];
    for placement in KINDS {
        for (nodes, replication, script) in scripts {
            for capacity in [None, Some(48)] {
                let case = Case {
                    placement,
                    nodes,
                    replication,
                    capacity,
                    script,
                };
                for seed in 20..23 {
                    let seen = run(&case, seed, 4_000);
                    if replication == 1 {
                        assert!(seen.unreachable > 0, "{script}: {seen:?}");
                    }
                    assert!(seen.spans > 0);
                }
            }
        }
    }
}
