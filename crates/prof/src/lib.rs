#![warn(missing_docs)]
//! `hopp-prof` — a hierarchical span-based self-profiler for the HoPP
//! stack.
//!
//! The simulator's determinism contract bans wall-clock time inside the
//! simulated clock domain, which also means the sim crates cannot tell
//! us where *host* time goes — and ROADMAP item 1 (the ≥10× event-driven
//! rewrite) needs exactly that attribution. This crate squares the
//! circle: sim-critical code may open **scope guards**
//! ([`span`]) that measure host time and allocation counts on entry and
//! exit, but a guard never hands a time value back to its caller, so
//! host time cannot leak into simulated state. The `hopp-check`
//! determinism rule encodes the same split: `hopp_prof::span` is
//! recognised in sim-critical crates while the raw clock accessor
//! [`host_now_ns`] stays banned there.
//!
//! # Model
//!
//! * State is **thread-local** (compatible with the hopp-lab worker
//!   pool: each worker profiles its own cell independently).
//! * [`enable`] arms the current thread; until [`disable`] every
//!   [`span`] pushes a frame keyed by `(parent, label)`, so identical
//!   labels under different parents are distinct tree nodes.
//! * When disabled — the default — [`span`] reads one thread-local
//!   flag and returns an inert guard: near-zero cost, no allocation.
//! * Labels are `&'static str` in `component/op` form
//!   (`"llc/loop"`, `"kernel/reclaim"`, …); paths join nested labels
//!   with `;` (the collapsed-stack convention).
//! * Allocation counts come from [`alloc::CountingAlloc`] when a binary
//!   installs it as `#[global_allocator]`; without it the counters are
//!   simply zero.
//!
//! # Artifacts
//!
//! [`ProfReport`] renders three ways: a self-time/total-time table
//! ([`ProfReport::to_json`]), a collapsed-stack file for flamegraph
//! tooling ([`ProfReport::to_folded`]), and a Chrome-trace fragment
//! ([`ProfReport::chrome_trace_fragment`]) that merges host spans onto
//! the simulated timeline as a second process (pid 2).
//!
//! ```
//! let ((), report) = hopp_prof::profile("kmeans", "hopp", "run", false, || {
//!     let _outer = hopp_prof::span("sim/run");
//!     {
//!         let _inner = hopp_prof::span("llc/loop");
//!     }
//! });
//! let run = report.node("sim/run").unwrap();
//! assert_eq!(run.count, 1);
//! assert!(run.total_ns >= run.self_ns);
//! ```

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

pub mod alloc;

/// Cap on the retained span timeline (per enable); beyond it spans are
/// still *accumulated* but not retained as events.
const MAX_EVENTS: usize = 1 << 18;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// An open frame on the span stack.
struct Frame {
    node: usize,
    start_ns: u64,
    allocs_at: u64,
}

/// One accumulation node: a `(parent, label)` pair in the span tree.
struct Node {
    label: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
    allocs: u64,
    child_allocs: u64,
}

struct State {
    epoch: Instant,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<Frame>,
    record_events: bool,
    events: Vec<SpanEvent>,
    dropped_events: u64,
    workload: String,
    system: String,
    phase: String,
}

impl State {
    fn new(record_events: bool) -> Self {
        State {
            epoch: Instant::now(),
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            record_events,
            events: Vec::new(),
            dropped_events: 0,
            workload: String::new(),
            system: String::new(),
            phase: String::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        let d = self.epoch.elapsed();
        d.as_secs().saturating_mul(1_000_000_000) + u64::from(d.subsec_nanos())
    }

    fn enter(&mut self, label: &'static str) {
        let parent = self.stack.last().map(|f| f.node);
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let node = match siblings
            .iter()
            .copied()
            .find(|&c| self.nodes[c].label == label)
        {
            Some(n) => n,
            None => {
                let n = self.nodes.len();
                self.nodes.push(Node {
                    label,
                    parent,
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                    child_ns: 0,
                    allocs: 0,
                    child_allocs: 0,
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(n),
                    None => self.roots.push(n),
                }
                n
            }
        };
        self.stack.push(Frame {
            node,
            start_ns: self.now_ns(),
            allocs_at: alloc::thread_allocs(),
        });
    }

    fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let dur = self.now_ns().saturating_sub(frame.start_ns);
        let allocs = alloc::thread_allocs().saturating_sub(frame.allocs_at);
        let node = &mut self.nodes[frame.node];
        node.count += 1;
        node.total_ns += dur;
        node.allocs += allocs;
        let label = node.label;
        if let Some(parent) = self.stack.last() {
            let p = &mut self.nodes[parent.node];
            p.child_ns += dur;
            p.child_allocs += allocs;
        }
        if self.record_events {
            if self.events.len() < MAX_EVENTS {
                self.events.push(SpanEvent {
                    label,
                    depth: self.stack.len() as u32,
                    start_ns: frame.start_ns,
                    dur_ns: dur,
                });
            } else {
                self.dropped_events += 1;
            }
        }
    }

    fn into_report(mut self) -> ProfReport {
        let enabled_ns = self.now_ns();
        // Close anything still open so no time is silently dropped.
        while !self.stack.is_empty() {
            self.exit();
        }
        // DFS from the roots so a parent always precedes its children
        // and sibling order is first-open order (deterministic).
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut todo: Vec<usize> = self.roots.iter().rev().copied().collect();
        while let Some(n) = todo.pop() {
            remap[n] = order.len();
            order.push(n);
            todo.extend(self.nodes[n].children.iter().rev().copied());
        }
        let nodes = order
            .iter()
            .map(|&n| {
                let node = &self.nodes[n];
                ProfNode {
                    label: node.label,
                    parent: node.parent.map(|p| remap[p]),
                    count: node.count,
                    total_ns: node.total_ns,
                    self_ns: node.total_ns.saturating_sub(node.child_ns),
                    allocs: node.allocs,
                    self_allocs: node.allocs.saturating_sub(node.child_allocs),
                }
            })
            .collect();
        ProfReport {
            workload: self.workload,
            system: self.system,
            phase: self.phase,
            enabled_ns,
            nodes,
            events: self.events,
            dropped_events: self.dropped_events,
        }
    }
}

/// A scope guard returned by [`span`]. Closing the scope (dropping the
/// guard) charges the elapsed host time and allocations to the span's
/// node. The guard exposes no accessors on purpose: sim code can
/// *bound* a measurement but never *read* it.
#[must_use = "a span guard measures the scope it lives in; dropping it immediately measures nothing"]
pub struct Span {
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            STATE.with(|s| {
                if let Some(state) = s.borrow_mut().as_mut() {
                    state.exit();
                }
            });
        }
    }
}

/// Opens a profiling span for the current scope.
///
/// When profiling is disabled (the default) this reads one thread-local
/// flag and returns an inert guard. Labels should be `&'static str` in
/// `component/op` form, e.g. `"hw/rpt_walk"`.
#[inline]
pub fn span(label: &'static str) -> Span {
    if !ENABLED.with(Cell::get) {
        return Span { armed: false };
    }
    STATE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            state.enter(label);
        }
    });
    Span { armed: true }
}

/// Arms the profiler on the current thread, discarding any previous
/// state. With `record_events` the span timeline is retained (up to an
/// internal cap) for Chrome-trace export; without it only the
/// accumulator tree is kept.
pub fn enable(record_events: bool) {
    STATE.with(|s| *s.borrow_mut() = Some(State::new(record_events)));
    ENABLED.with(|e| e.set(true));
}

/// Tags the current thread's profile with the scenario that produced
/// it. The key is carried into [`ProfReport`] and its JSON export.
pub fn set_key(workload: &str, system: &str, phase: &str) {
    STATE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            state.workload = workload.to_string();
            state.system = system.to_string();
            state.phase = phase.to_string();
        }
    });
}

/// True when [`enable`] is active on the current thread.
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Disarms the profiler on the current thread and returns the collected
/// profile, or `None` when it was never enabled. Spans still open are
/// closed at the current instant.
pub fn disable() -> Option<ProfReport> {
    ENABLED.with(|e| e.set(false));
    STATE
        .with(|s| s.borrow_mut().take())
        .map(State::into_report)
}

/// Profiles a closure under the given workload × system × phase key:
/// [`enable`] → run → [`disable`], returning the closure's value and
/// the profile.
pub fn profile<T>(
    workload: &str,
    system: &str,
    phase: &str,
    record_events: bool,
    f: impl FnOnce() -> T,
) -> (T, ProfReport) {
    enable(record_events);
    set_key(workload, system, phase);
    let value = f();
    let report = disable().unwrap_or_default();
    (value, report)
}

/// Raw host-clock readout in nanoseconds (monotonic, from an arbitrary
/// process-wide epoch).
///
/// **Harness code only.** The `hopp-check` determinism rule bans this
/// accessor in sim-critical crates: sim code profiles through [`span`]
/// scope guards, which never return the measured time.
pub fn host_now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let d = EPOCH.get_or_init(Instant::now).elapsed();
    d.as_secs().saturating_mul(1_000_000_000) + u64::from(d.subsec_nanos())
}

/// One node of the exported span tree.
#[derive(Clone, Debug)]
pub struct ProfNode {
    /// The span label (`component/op`).
    pub label: &'static str,
    /// Index of the parent node in [`ProfReport::nodes`], if any.
    pub parent: Option<usize>,
    /// Times the span was entered.
    pub count: u64,
    /// Host nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Host nanoseconds inside the span, children excluded.
    pub self_ns: u64,
    /// Heap allocations inside the span, children included (zero unless
    /// the binary installs [`alloc::CountingAlloc`]).
    pub allocs: u64,
    /// Heap allocations inside the span, children excluded.
    pub self_allocs: u64,
}

/// One retained span occurrence (for Chrome-trace export).
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// The span label.
    pub label: &'static str,
    /// Nesting depth at entry (0 = root).
    pub depth: u32,
    /// Host nanoseconds since [`enable`].
    pub start_ns: u64,
    /// Span duration in host nanoseconds.
    pub dur_ns: u64,
}

/// The profile of one [`enable`]/[`disable`] window on one thread.
#[derive(Clone, Debug, Default)]
pub struct ProfReport {
    /// Workload the profiled run executed (from [`set_key`]).
    pub workload: String,
    /// System under test (from [`set_key`]).
    pub system: String,
    /// Phase of the harness (from [`set_key`]).
    pub phase: String,
    /// Host nanoseconds between [`enable`] and [`disable`].
    pub enabled_ns: u64,
    /// The span tree in depth-first order (parents precede children).
    pub nodes: Vec<ProfNode>,
    /// Retained span timeline (empty unless events were recorded).
    pub events: Vec<SpanEvent>,
    /// Spans not retained because the timeline cap was hit.
    pub dropped_events: u64,
}

impl ProfReport {
    /// The `;`-joined label path of node `idx` (collapsed-stack form).
    pub fn path(&self, idx: usize) -> String {
        let mut labels = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            match self.nodes.get(i) {
                Some(n) => {
                    labels.push(n.label);
                    cur = n.parent;
                }
                None => break,
            }
        }
        labels.reverse();
        labels.join(";")
    }

    /// Looks a node up by its `;`-joined path.
    pub fn node(&self, path: &str) -> Option<&ProfNode> {
        (0..self.nodes.len())
            .find(|&i| self.path(i) == path)
            .map(|i| &self.nodes[i])
    }

    /// Host nanoseconds attributed to root spans (the coverage
    /// numerator: `attributed_ns / enabled_ns` is how much of the
    /// profiled window the spans explain).
    pub fn attributed_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.total_ns)
            .sum()
    }

    /// Renders the self-time/total-time table as JSON
    /// (`hopp-prof/v1`). Key order and number formats are fixed, so
    /// output shape is stable; the values are host measurements and
    /// differ run to run.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"hopp-prof/v1\",\n");
        let _ = writeln!(
            out,
            "  \"key\": {{\"workload\": \"{}\", \"system\": \"{}\", \"phase\": \"{}\"}},",
            self.workload, self.system, self.phase
        );
        let _ = writeln!(out, "  \"enabled_ns\": {},", self.enabled_ns);
        let _ = writeln!(out, "  \"attributed_ns\": {},", self.attributed_ns());
        let _ = writeln!(out, "  \"dropped_events\": {},", self.dropped_events);
        out.push_str("  \"spans\": [\n");
        let pct = |ns: u64| {
            if self.enabled_ns == 0 {
                0.0
            } else {
                ns as f64 * 100.0 / self.enabled_ns as f64
            }
        };
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
                 \"total_pct\": {:.2}, \"self_pct\": {:.2}, \"allocs\": {}, \"self_allocs\": {}}}",
                self.path(i),
                n.count,
                n.total_ns,
                n.self_ns,
                pct(n.total_ns),
                pct(n.self_ns),
                n.allocs,
                n.self_allocs,
            );
            out.push_str(if i + 1 == self.nodes.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the profile as a collapsed-stack file: one
    /// `path;to;span self_ns` line per node, sorted by path, directly
    /// consumable by `flamegraph.pl` / `inferno-flamegraph`
    /// (self-nanoseconds as the sample count).
    pub fn to_folded(&self) -> String {
        let mut lines: Vec<String> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].self_ns > 0)
            .map(|i| format!("{} {}", self.path(i), self.nodes[i].self_ns))
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Renders the retained span timeline as a Chrome trace-event
    /// fragment: a comma-separated run of event objects (no enclosing
    /// brackets) on pid 2 ("host"), ready to splice into the simulator's
    /// trace via `hopp_obs::events_to_chrome_trace_with_extra`.
    ///
    /// Host time and simulated time share nothing but the file; the two
    /// processes simply sit side by side in the viewer.
    pub fn chrome_trace_fragment(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str(
            "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\
             \"args\":{\"name\":\"host\"}},\
             {\"ph\":\"M\",\"pid\":2,\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"prof\"}}",
        );
        let mut slices: Vec<&SpanEvent> = self.events.iter().collect();
        slices.sort_by_key(|e| (e.start_ns, e.depth, std::cmp::Reverse(e.dur_ns)));
        for e in slices {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"pid\":2,\"tid\":1,\"ts\":{}.{:03},\"ph\":\"X\",\
                 \"dur\":{}.{:03},\"args\":{{\"host_ns\":{}}}}}",
                e.label,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
                e.start_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let until = host_now_ns() + ns;
        while host_now_ns() < until {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        assert!(!is_enabled());
        let g = span("sim/run");
        drop(g);
        assert!(disable().is_none());
    }

    #[test]
    fn nesting_builds_a_tree_with_self_and_total_time() {
        enable(false);
        set_key("kmeans", "hopp", "run");
        {
            let _run = span("sim/run");
            spin(40_000);
            for _ in 0..3 {
                let _step = span("sim/step");
                spin(20_000);
                let _llc = span("llc/loop");
                spin(10_000);
            }
        }
        let r = disable().expect("was enabled");
        assert_eq!(r.workload, "kmeans");
        assert_eq!(r.system, "hopp");
        assert_eq!(r.phase, "run");
        let run = r.node("sim/run").expect("root exists");
        let step = r.node("sim/run;sim/step").expect("child exists");
        let llc = r.node("sim/run;sim/step;llc/loop").expect("leaf exists");
        assert_eq!(run.count, 1);
        assert_eq!(step.count, 3);
        assert_eq!(llc.count, 3);
        assert!(run.total_ns >= step.total_ns);
        assert!(step.total_ns >= llc.total_ns);
        assert!(step.self_ns >= 3 * 20_000, "step self time excludes llc");
        assert_eq!(run.self_ns, run.total_ns - step.total_ns);
        assert!(r.enabled_ns >= run.total_ns);
        assert!(r.attributed_ns() == run.total_ns);
    }

    #[test]
    fn same_label_under_different_parents_is_two_nodes() {
        enable(false);
        {
            let _a = span("kernel/major");
            let _l = span("fabric/link");
        }
        {
            let _b = span("kernel/readahead");
            let _l = span("fabric/link");
        }
        let r = disable().expect("was enabled");
        assert!(r.node("kernel/major;fabric/link").is_some());
        assert!(r.node("kernel/readahead;fabric/link").is_some());
        assert_eq!(r.nodes.len(), 4);
    }

    #[test]
    fn folded_output_is_sorted_paths_with_self_ns() {
        enable(false);
        {
            let _a = span("sim/run");
            spin(5_000);
            let _b = span("llc/loop");
            spin(5_000);
        }
        let r = disable().expect("was enabled");
        let folded = r.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("sim/run "));
        assert!(lines[1].starts_with("sim/run;llc/loop "));
        for line in lines {
            let (_, v) = line.rsplit_once(' ').expect("space-separated");
            assert!(v.parse::<u64>().expect("numeric self_ns") > 0);
        }
    }

    #[test]
    fn json_has_schema_key_and_one_span_object_per_node() {
        let ((), r) = profile("quicksort", "fastswap", "run", false, || {
            let _a = span("sim/run");
        });
        use hopp_types::json::{parse, Value};
        let doc = parse(&r.to_json()).expect("the profile parses");
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        assert_eq!(text(&doc, "schema").as_deref(), Some("hopp-prof/v1"));
        let key = doc.get("key").expect("key object");
        for (k, want) in [
            ("workload", "quicksort"),
            ("system", "fastswap"),
            ("phase", "run"),
        ] {
            assert_eq!(text(key, k).as_deref(), Some(want));
        }
        let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
        assert_eq!(spans.len(), r.nodes.len());
        assert_eq!(text(&spans[0], "path").as_deref(), Some("sim/run"));
    }

    #[test]
    fn events_are_retained_only_when_asked() {
        enable(false);
        {
            let _a = span("sim/run");
        }
        assert!(disable().expect("enabled").events.is_empty());

        enable(true);
        {
            let _a = span("sim/run");
            let _b = span("llc/loop");
        }
        let r = disable().expect("enabled");
        assert_eq!(r.events.len(), 2);
        // Children close first but the fragment re-sorts by start.
        let frag = r.chrome_trace_fragment();
        assert!(frag.starts_with("{\"ph\":\"M\",\"pid\":2,"));
        let run = frag.find("\"name\":\"sim/run\"").expect("run slice");
        let llc = frag.find("\"name\":\"llc/loop\"").expect("llc slice");
        assert!(run < llc, "parent slice precedes child in the fragment");
    }

    #[test]
    fn open_spans_are_closed_by_disable() {
        enable(false);
        let g = span("sim/run");
        let r = disable().expect("enabled");
        assert_eq!(r.node("sim/run").expect("closed at disable").count, 1);
        drop(g); // inert: state is gone, must not panic or corrupt
        assert!(disable().is_none());
    }
}
