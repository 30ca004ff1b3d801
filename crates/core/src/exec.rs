//! The prefetch execution engine — §III-F of the paper.
//!
//! The execution engine accepts orders from the policy engine, checks
//! for duplicates, reads the pages from the remote node over RDMA
//! *asynchronously* (the separate data path), and reports completions
//! so the kernel side can inject PTEs immediately — turning would-be
//! prefetch-hits into plain DRAM hits.
//!
//! Whether a prefetched page is eventually hit is *not* observed here:
//! the memory trace tells HoPP that (the page shows up hot again), which
//! is how early injection keeps the accuracy/coverage feedback loop
//! alive that Depth-N loses (§II-C).

use hopp_ds::DetMap;
use hopp_fabric::RemotePool;
use hopp_net::CompletionQueue;
use hopp_obs::{Event, NopRecorder, Recorder};
use hopp_types::{Nanos, Pid, Result, Vpn};

use crate::stt::StreamId;
use crate::three_tier::Tier;

/// A finished prefetch, ready for PTE injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Completion {
    /// Owning process.
    pub pid: Pid,
    /// The first fetched page.
    pub vpn: Vpn,
    /// Consecutive pages fetched by this request (1 except for
    /// huge-page batches, §IV).
    pub span: u32,
    /// Stream that requested it (routes timeliness feedback).
    pub stream: StreamId,
    /// Tier that predicted it (per-tier metrics).
    pub tier: Tier,
    /// When the RDMA read was issued.
    pub issued_at: Nanos,
    /// When the data arrived.
    pub done_at: Nanos,
}

/// Execution-engine counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ExecStats {
    /// RDMA reads issued.
    pub issued: u64,
    /// Orders dropped because the page was already in flight.
    pub duplicate_inflight: u64,
    /// Completions delivered.
    pub completed: u64,
}

/// The execution engine.
///
/// The engine does not know which pages are already resident — the
/// caller (who owns the page tables) filters those before calling
/// [`ExecutionEngine::request_span`]. The engine's own dedupe covers the
/// in-flight window, where the page tables can't help.
#[derive(Clone, Debug, Default)]
pub struct ExecutionEngine {
    inflight: DetMap<(Pid, Vpn), (StreamId, Tier, Nanos, u32)>,
    cq: CompletionQueue<(Pid, Vpn)>,
    stats: ExecStats,
}

impl ExecutionEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues one asynchronous RDMA read covering `span` consecutive
    /// pages (1 for an ordinary prefetch; more for the §IV huge-page
    /// batch path: one request, one completion, `span` PTE injections),
    /// unless the first page is already in flight. Returns the
    /// completion time if issued.
    ///
    /// # Errors
    ///
    /// Propagates the pool's read failure; see [`RemotePool::read_span`].
    #[allow(clippy::too_many_arguments)]
    pub fn request_span(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        span: u32,
        stream: StreamId,
        tier: Tier,
        now: Nanos,
        pool: &mut dyn RemotePool,
    ) -> Result<Option<Nanos>> {
        self.request_span_rec(pid, vpn, span, stream, tier, now, pool, &mut NopRecorder)
    }

    /// [`ExecutionEngine::request_span`], recording the RDMA read and an
    /// [`Event::PrefetchIssued`] whose latency is the expected
    /// issue-to-arrival time.
    ///
    /// # Errors
    ///
    /// Propagates the pool's read failure; see [`RemotePool::read_span`].
    #[allow(clippy::too_many_arguments)]
    pub fn request_span_rec(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        span: u32,
        stream: StreamId,
        tier: Tier,
        now: Nanos,
        pool: &mut dyn RemotePool,
        rec: &mut dyn Recorder,
    ) -> Result<Option<Nanos>> {
        let _prof = hopp_prof::span("core/exec");
        debug_assert!(span >= 1);
        if self.inflight.contains_key(&(pid, vpn)) {
            self.stats.duplicate_inflight += 1;
            return Ok(None);
        }
        let done = pool.read_span(pid, vpn, span, now, rec)?;
        self.inflight.insert((pid, vpn), (stream, tier, now, span));
        self.cq.push(done, (pid, vpn));
        self.stats.issued += 1;
        if rec.is_enabled() {
            rec.record(
                done,
                Event::PrefetchIssued {
                    pid,
                    vpn,
                    span,
                    latency: done.saturating_since(now),
                },
            );
        }
        Ok(Some(done))
    }

    /// True if a read for the page is in flight.
    pub fn is_inflight(&self, pid: Pid, vpn: Vpn) -> bool {
        self.inflight.contains_key(&(pid, vpn))
    }

    /// Number of reads in flight.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Completion time of the next read to finish, if any.
    pub fn next_completion_at(&self) -> Option<Nanos> {
        self.cq.next_due()
    }

    /// Drains all reads that have completed by `now`, oldest first.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer
    /// [`ExecutionEngine::poll_into`] with a reused buffer.
    pub fn poll(&mut self, now: Nanos) -> Vec<Completion> {
        let mut done = Vec::new();
        self.poll_into(now, &mut done);
        done
    }

    /// [`ExecutionEngine::poll`] appending into a caller-owned buffer
    /// (which is *not* cleared first), so steady-state polling reuses
    /// capacity instead of allocating per tick. Returns the number of
    /// completions appended.
    pub fn poll_into(&mut self, now: Nanos, done: &mut Vec<Completion>) -> usize {
        let before = done.len();
        while let Some((done_at, (pid, vpn))) = self.cq.pop_due(now) {
            let (stream, tier, issued_at, span) = self
                .inflight
                .remove(&(pid, vpn))
                // hopp-check: allow(panic-policy): every queued completion was inserted with an inflight record two lines apart; violation is a checker bug, not a run condition
                .expect("completion for unknown in-flight read");
            self.stats.completed += 1;
            done.push(Completion {
                pid,
                vpn,
                span,
                stream,
                tier,
                issued_at,
                done_at,
            });
        }
        done.len() - before
    }

    /// Counters.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_net::{RdmaConfig, RdmaEngine};

    fn stream_id() -> StreamId {
        StreamId {
            slot: 0,
            generation: 0,
        }
    }

    #[test]
    fn request_poll_roundtrip() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let s = stream_id();
        assert!(exec
            .request_span(
                Pid::new(1),
                Vpn::new(9),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link
            )
            .unwrap()
            .is_some());
        assert!(exec.is_inflight(Pid::new(1), Vpn::new(9)));
        assert!(exec.poll(Nanos::from_micros(1)).is_empty(), "not done yet");
        let done = exec.poll(Nanos::from_micros(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].vpn, Vpn::new(9));
        assert_eq!(done[0].issued_at, Nanos::ZERO);
        assert!(done[0].done_at > Nanos::ZERO);
        assert!(!exec.is_inflight(Pid::new(1), Vpn::new(9)));
        assert_eq!(exec.stats().completed, 1);
    }

    #[test]
    fn duplicate_inflight_is_dropped() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let s = stream_id();
        assert!(exec
            .request_span(
                Pid::new(1),
                Vpn::new(9),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link
            )
            .unwrap()
            .is_some());
        assert!(exec
            .request_span(
                Pid::new(1),
                Vpn::new(9),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link
            )
            .unwrap()
            .is_none());
        assert_eq!(exec.stats().duplicate_inflight, 1);
        assert_eq!(exec.stats().issued, 1);
        assert_eq!(link.stats().reads, 1, "no duplicate RDMA read");
    }

    #[test]
    fn after_completion_the_page_may_be_refetched() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let s = stream_id();
        exec.request_span(
            Pid::new(1),
            Vpn::new(9),
            1,
            s,
            Tier::Ripple,
            Nanos::ZERO,
            &mut link,
        )
        .unwrap();
        exec.poll(Nanos::from_millis(1));
        // Residency filtering is the caller's job; the engine allows it.
        assert!(exec
            .request_span(
                Pid::new(1),
                Vpn::new(9),
                1,
                s,
                Tier::Ripple,
                Nanos::from_millis(1),
                &mut link
            )
            .unwrap()
            .is_some());
    }

    #[test]
    fn completions_arrive_in_time_order() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let s = stream_id();
        for v in 0..5u64 {
            exec.request_span(
                Pid::new(1),
                Vpn::new(v),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link,
            )
            .unwrap();
        }
        assert_eq!(exec.inflight_count(), 5);
        let next = exec.next_completion_at().unwrap();
        let done = exec.poll(Nanos::from_millis(10));
        assert_eq!(done.len(), 5);
        assert_eq!(done[0].done_at, next);
        for w in done.windows(2) {
            assert!(w[0].done_at <= w[1].done_at);
        }
    }

    #[test]
    fn span_requests_complete_as_one_batch() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let s = stream_id();
        let single = exec
            .request_span(
                Pid::new(1),
                Vpn::new(0),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link,
            )
            .unwrap()
            .unwrap();
        let batch = exec
            .request_span(
                Pid::new(1),
                Vpn::new(1_000),
                512,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link,
            )
            .unwrap()
            .unwrap();
        // 2 MB serializes far longer than 4 KB, but pays one base latency.
        assert!(batch > single);
        let done = exec.poll(Nanos::from_secs(1));
        assert_eq!(done.len(), 2);
        let b = done.iter().find(|c| c.span == 512).unwrap();
        assert_eq!(b.vpn, Vpn::new(1_000));
        assert_eq!(link.stats().reads, 2, "one read per request, not per page");
    }

    #[test]
    fn distinct_processes_do_not_collide() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let s = stream_id();
        assert!(exec
            .request_span(
                Pid::new(1),
                Vpn::new(9),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link
            )
            .unwrap()
            .is_some());
        assert!(exec
            .request_span(
                Pid::new(2),
                Vpn::new(9),
                1,
                s,
                Tier::Simple,
                Nanos::ZERO,
                &mut link
            )
            .unwrap()
            .is_some());
        assert_eq!(exec.stats().issued, 2);
    }
}
