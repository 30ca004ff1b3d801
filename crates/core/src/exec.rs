//! The prefetch execution engine — §III-F of the paper.
//!
//! The execution engine accepts orders from the policy engine, reads
//! the pages from the remote node over RDMA *asynchronously* (the
//! separate data path), and reports completions so the kernel side can
//! inject PTEs immediately — turning would-be prefetch-hits into plain
//! DRAM hits. The duplicate check the paper places before each read is
//! the caller's: it owns the page tables, and records a read in flight
//! in the page's swap slot.
//!
//! Whether a prefetched page is eventually hit is *not* observed here:
//! the memory trace tells HoPP that (the page shows up hot again), which
//! is how early injection keeps the accuracy/coverage feedback loop
//! alive that Depth-N loses (§II-C).

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

/// The execution engine: the reads in flight, each queued as the
/// completion it will deliver.
///
/// The engine does not know which pages are resident or already on
/// their way — the caller (who owns the page tables) filters both before
/// calling [`ExecutionEngine::request_span`].
#[derive(Clone, Debug, Default)]
pub struct ExecutionEngine {
    cq: CompletionQueue<Completion>,
}

impl ExecutionEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues one asynchronous RDMA read covering `span` consecutive
    /// pages (1 for an ordinary prefetch; more for the §IV huge-page
    /// batch path: one request, one completion, `span` PTE injections).
    /// Returns the completion time, always `Some`.
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
        let _prof = hopp_prof::span(hopp_prof::SpanId::CoreExec);
        debug_assert!(span >= 1);
        let done = pool.read_span(pid, vpn, span, now, rec)?;
        self.cq.push(
            done,
            Completion {
                pid,
                vpn,
                span,
                stream,
                tier,
                issued_at: now,
                done_at: done,
            },
        );
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

    /// Completion time of the earliest read in flight whose span covers
    /// `(pid, vpn)`, if any. Scans every read in flight.
    pub fn earliest_due_covering(&self, pid: Pid, vpn: Vpn) -> Option<Nanos> {
        self.cq.earliest_due_where(|c| {
            c.pid == pid && vpn.raw().wrapping_sub(c.vpn.raw()) < u64::from(c.span)
        })
    }

    /// Takes the earliest read that has completed by `now`, if any.
    pub fn pop_due(&mut self, now: Nanos) -> Option<Completion> {
        self.cq.pop_due(now).map(|(_, c)| c)
    }

    /// Appends every read that has completed by `now` to `done`, oldest
    /// first. The buffer is *not* cleared first, so steady-state polling
    /// reuses its capacity instead of allocating per tick. Returns the
    /// number of completions appended.
    pub fn poll_into(&mut self, now: Nanos, done: &mut Vec<Completion>) -> usize {
        let before = done.len();
        done.extend(std::iter::from_fn(|| self.pop_due(now)));
        done.len() - before
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

    /// Issues a read of `span` pages from `vpn` for pid `pid` at `now`.
    fn request(
        exec: &mut ExecutionEngine,
        link: &mut RdmaEngine,
        pid: u16,
        vpn: u64,
        span: u32,
        now: Nanos,
    ) -> Nanos {
        exec.request_span(
            Pid::new(pid),
            Vpn::new(vpn),
            span,
            stream_id(),
            Tier::Simple,
            now,
            link,
        )
        .unwrap()
        .unwrap()
    }

    fn poll(exec: &mut ExecutionEngine, now: Nanos) -> Vec<Completion> {
        let mut done = Vec::new();
        assert_eq!(exec.poll_into(now, &mut done), done.len());
        done
    }

    #[test]
    fn request_poll_roundtrip() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let due = request(&mut exec, &mut link, 1, 9, 1, Nanos::ZERO);
        assert!(
            poll(&mut exec, Nanos::from_micros(1)).is_empty(),
            "not done yet"
        );
        let done = poll(&mut exec, Nanos::from_micros(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].vpn, Vpn::new(9));
        assert_eq!(done[0].issued_at, Nanos::ZERO);
        assert_eq!(done[0].done_at, due);
        assert!(
            poll(&mut exec, Nanos::from_secs(1)).is_empty(),
            "delivered once"
        );
    }

    #[test]
    fn poll_into_appends_without_clearing() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let first = request(&mut exec, &mut link, 1, 1, 1, Nanos::ZERO);
        let second = request(&mut exec, &mut link, 1, 2, 1, Nanos::ZERO);
        assert!(first < second);
        let mut done = Vec::new();
        assert_eq!(exec.poll_into(first, &mut done), 1);
        assert_eq!(exec.poll_into(second, &mut done), 1);
        assert_eq!(exec.poll_into(second, &mut done), 0);
        let vpns: Vec<Vpn> = done.iter().map(|c| c.vpn).collect();
        assert_eq!(vpns, [Vpn::new(1), Vpn::new(2)]);
    }

    #[test]
    fn the_caller_dedupes_and_the_page_may_be_refetched() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        // Duplicate filtering is the caller's job: the engine issues
        // every request it gets.
        request(&mut exec, &mut link, 1, 9, 1, Nanos::ZERO);
        request(&mut exec, &mut link, 1, 9, 1, Nanos::ZERO);
        assert_eq!(link.stats().reads, 2);
        assert_eq!(poll(&mut exec, Nanos::from_millis(1)).len(), 2);
        request(&mut exec, &mut link, 1, 9, 1, Nanos::from_millis(1));
        assert_eq!(poll(&mut exec, Nanos::from_millis(2)).len(), 1);
    }

    #[test]
    fn completions_arrive_in_time_order() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let dues: Vec<Nanos> = (0..5u64)
            .map(|v| request(&mut exec, &mut link, 1, v, 1, Nanos::ZERO))
            .collect();
        let done = poll(&mut exec, Nanos::from_millis(10));
        assert_eq!(done.len(), 5);
        assert_eq!(done.iter().map(|c| c.done_at).collect::<Vec<_>>(), dues);
        for w in done.windows(2) {
            assert!(w[0].done_at <= w[1].done_at);
        }
    }

    #[test]
    fn span_requests_complete_as_one_batch() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let single = request(&mut exec, &mut link, 1, 0, 1, Nanos::ZERO);
        let batch = request(&mut exec, &mut link, 1, 1_000, 512, Nanos::ZERO);
        // 2 MB serializes far longer than 4 KB, but pays one base latency.
        assert!(batch > single);
        let done = poll(&mut exec, Nanos::from_secs(1));
        assert_eq!(done.len(), 2);
        let b = done.iter().find(|c| c.span == 512).unwrap();
        assert_eq!(b.vpn, Vpn::new(1_000));
        assert_eq!(link.stats().reads, 2, "one read per request, not per page");
    }

    #[test]
    fn earliest_due_covering_matches_pid_and_span() {
        let mut exec = ExecutionEngine::new();
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let batch = request(&mut exec, &mut link, 1, 100, 8, Nanos::ZERO);
        let single = request(&mut exec, &mut link, 1, 103, 1, Nanos::ZERO);
        let other = request(&mut exec, &mut link, 2, 200, 1, Nanos::ZERO);
        assert!(batch < single && single < other);
        let due = |exec: &ExecutionEngine, pid: u16, vpn: u64| {
            exec.earliest_due_covering(Pid::new(pid), Vpn::new(vpn))
        };
        assert_eq!(due(&exec, 1, 100), Some(batch));
        assert_eq!(
            due(&exec, 1, 103),
            Some(batch),
            "the earlier of two covering reads"
        );
        assert_eq!(due(&exec, 1, 107), Some(batch));
        assert_eq!(due(&exec, 1, 108), None);
        assert_eq!(due(&exec, 1, 99), None);
        assert_eq!(due(&exec, 2, 100), None, "another process's span");
        assert_eq!(due(&exec, 2, 200), Some(other));
        poll(&mut exec, batch);
        assert_eq!(due(&exec, 1, 103), Some(single));
        assert_eq!(due(&exec, 1, 100), None);
    }
}
