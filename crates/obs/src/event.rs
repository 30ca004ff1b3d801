//! The typed event vocabulary of the simulated stack.
//!
//! One [`Event`] is one thing that happened at one simulated instant,
//! attributed to the [`Component`] that did it. Variants are `Copy` and
//! allocation-free so recording them costs a ring-buffer slot and
//! nothing else; all string rendering happens at export time.
//!
//! Each component is declared once, as a row of the `components!`
//! table, and each event once, as a row of the `events!` table: its
//! doc, its component, its snake_case name and its fields. The tables
//! generate the enums and every per-variant method, and an event's
//! rendering follows from its field types: each field is a JSON member
//! keyed by its name (a [`Nanos`] field's key ends in `_ns`), and an
//! event with a [`Nanos`] field is an interval of that length.

use std::fmt::Write as _;

use hopp_types::{Nanos, NodeId, Pid, Ppn, SwapSlot, Vpn};

macro_rules! components {
    ($($(#[doc = $doc:literal])* $id:ident => $label:literal,)*) => {
        /// The pipeline component an event is attributed to. One
        /// Chrome-trace track ("thread") per component.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
        pub enum Component {
            $($(#[doc = $doc])* $id,)*
        }

        impl Component {
            /// All components, in track order.
            pub const ALL: [Component; [$($label),*].len()] = [$(Component::$id),*];

            /// Stable lowercase label, used as the track name.
            pub fn label(self) -> &'static str {
                match self {
                    $(Component::$id => $label,)*
                }
            }
        }
    };
}

components! {
    /// Hot page detector (per-channel, in the memory controller).
    Hpd => "hpd",
    /// Reverse page table and its in-MC cache.
    Rpt => "rpt",
    /// Stream training table.
    Stt => "stt",
    /// Tier selection (SSP/LSP/RSP or the Markov trainer).
    Tiers => "tiers",
    /// Prefetch life cycle: issue, arrival, hit, waste.
    Prefetch => "prefetch",
    /// Kernel fault path, reclaim and swap.
    Kernel => "kernel",
    /// RDMA link to the remote memory node.
    Rdma => "rdma",
    /// Disaggregated memory pool: placement, retry, failover.
    Fabric => "fabric",
    /// The hopp-lab sweep engine (bench layer): per-cell progress and
    /// wall-clock timing. The one track whose timestamps are wall
    /// clock, not simulated time — lab events never enter the
    /// deterministic sweep artifact.
    Lab => "lab",
}

impl Component {
    /// Stable per-component Chrome-trace thread id: the track index
    /// plus 1.
    pub fn tid(self) -> u32 {
        self as u32 + 1
    }
}

/// Which predictor produced a prefetch decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TierKind {
    /// Simple stream prefetching (tier 1).
    Ssp,
    /// Ladder stream prefetching (tier 2).
    Lsp,
    /// Ripple stream prefetching (tier 3).
    Rsp,
    /// The Markov (address-correlation) trainer, when configured.
    Markov,
}

impl TierKind {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            TierKind::Ssp => "SSP",
            TierKind::Lsp => "LSP",
            TierKind::Rsp => "RSP",
            TierKind::Markov => "Markov",
        }
    }
}

/// How an event field renders: its JSON value, the suffix its unit
/// adds to the key, and whether it is the event's duration.
trait Field: Copy {
    /// Appended to the field name to form its JSON key.
    const KEY_SUFFIX: &'static str = "";

    /// Appends the JSON value. Every value is numeric, boolean or a
    /// static label, so nothing needs escaping.
    fn write_value(self, out: &mut String);

    /// The interval this field measures, if it is a duration.
    fn duration(self) -> Option<Nanos> {
        None
    }
}

macro_rules! number_fields {
    ($($ty:ty),* => |$v:ident| $raw:expr) => {$(
        impl Field for $ty {
            fn write_value(self, out: &mut String) {
                let $v = self;
                let _ = write!(out, "{}", $raw);
            }
        }
    )*};
}

number_fields!(u16, u32, u64, bool => |v| v);
number_fields!(Ppn, Vpn, Pid, NodeId, SwapSlot => |v| v.raw());

impl Field for Nanos {
    const KEY_SUFFIX: &'static str = "_ns";

    fn write_value(self, out: &mut String) {
        let _ = write!(out, "{}", self.as_nanos());
    }

    fn duration(self) -> Option<Nanos> {
        Some(self)
    }
}

impl Field for TierKind {
    fn write_value(self, out: &mut String) {
        out.push('"');
        out.push_str(self.label());
        out.push('"');
    }
}

/// Appends `,"<key><suffix>":<value>`.
fn write_member<T: Field>(out: &mut String, key: &str, value: T) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str(T::KEY_SUFFIX);
    out.push_str("\":");
    value.write_value(out);
}

macro_rules! events {
    ($(
        $(#[doc = $doc:literal])*
        $id:ident ($component:ident, $name:literal) {
            $($(#[doc = $field_doc:literal])* $field:ident: $ty:ty,)*
        },
    )*) => {
        /// One thing that happened in the simulated stack.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Event {
            $($(#[doc = $doc])* $id { $($(#[doc = $field_doc])* $field: $ty,)* },)*
        }

        impl Event {
            /// The component this event is attributed to.
            pub fn component(&self) -> Component {
                match self {
                    $(Event::$id { .. } => Component::$component,)*
                }
            }

            /// Stable snake_case event name.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$id { .. } => $name,)*
                }
            }

            /// The duration this event spans, for events that describe
            /// an interval ending (or starting) at their timestamp: the
            /// value of its [`Nanos`] field. These become "complete"
            /// (`"ph":"X"`) Chrome-trace slices; the rest are instants.
            pub fn duration(&self) -> Option<Nanos> {
                match *self {
                    $(Event::$id { $($field),* } => None$(.or(Field::duration($field)))*,)*
                }
            }

            /// Appends this event's fields as JSON object members, in
            /// declaration order, each prefixed with `,` (the caller
            /// has already opened the object).
            pub fn write_args_json(&self, out: &mut String) {
                match *self {
                    $(Event::$id { $($field),* } => {
                        $(write_member(out, stringify!($field), $field);)*
                    })*
                }
            }
        }

        /// Every event name, in declaration order.
        #[cfg(test)]
        const NAMES: &[&str] = &[$($name),*];
    };
}

events! {
    /// The HPD crossed threshold `N` for a page and emitted it.
    HpdHot(Hpd, "hpd_hot") {
        /// The hot physical page.
        ppn: Ppn,
    },
    /// RPT lookup served from the in-MC cache.
    RptHit(Rpt, "rpt_hit") {
        /// Looked-up physical page.
        ppn: Ppn,
    },
    /// RPT cache miss; the full table was walked in DRAM.
    RptMiss(Rpt, "rpt_miss") {
        /// Looked-up physical page.
        ppn: Ppn,
        /// Whether the walk found a mapping (false: unresolved, the
        /// hot page is dropped).
        resolved: bool,
    },
    /// A dirty RPT cache way was written back to DRAM on refill.
    RptWriteback(Rpt, "rpt_writeback") {
        /// The page whose lookup forced the writeback.
        ppn: Ppn,
    },
    /// The STT allocated a new stream entry.
    StreamCreated(Stt, "stream_created") {
        /// STT slot index.
        slot: u16,
        /// Slot reuse generation.
        generation: u32,
        /// Owning process.
        pid: Pid,
        /// First page of the stream.
        vpn: Vpn,
    },
    /// An existing stream absorbed a hot page.
    StreamUpdated(Stt, "stream_updated") {
        /// STT slot index.
        slot: u16,
        /// Slot reuse generation.
        generation: u32,
        /// Owning process.
        pid: Pid,
        /// The absorbed page.
        vpn: Vpn,
    },
    /// A trained stream was recycled to make room (LRU victim).
    StreamEvicted(Stt, "stream_evicted") {
        /// STT slot index.
        slot: u16,
        /// Generation that was evicted.
        generation: u32,
    },
    /// A tier classified a stream window and predicted.
    TierDecision(Tiers, "tier_decision") {
        /// The predicting tier.
        tier: TierKind,
        /// Owning process.
        pid: Pid,
        /// The window's anchor page (VPN_A).
        vpn: Vpn,
    },
    /// The execution engine issued an asynchronous RDMA page read.
    PrefetchIssued(Prefetch, "prefetch_issued") {
        /// Owning process.
        pid: Pid,
        /// First fetched page.
        vpn: Vpn,
        /// Consecutive pages covered by the read.
        span: u32,
        /// Expected issue→completion latency.
        latency: Nanos,
    },
    /// A prefetched span arrived and its PTEs were injected.
    PrefetchArrived(Prefetch, "prefetch_arrived") {
        /// Owning process.
        pid: Pid,
        /// First fetched page.
        vpn: Vpn,
        /// Pages injected.
        span: u32,
    },
    /// A prefetched page was touched for the first time (a saved fault).
    PrefetchHit(Prefetch, "prefetch_hit") {
        /// Owning process.
        pid: Pid,
        /// The page.
        vpn: Vpn,
        /// Arrival→first-touch interval (the paper's timeliness).
        timeliness: Nanos,
    },
    /// A prefetched page was reclaimed before ever being touched.
    PrefetchWasted(Prefetch, "prefetch_wasted") {
        /// Owning process.
        pid: Pid,
        /// The page.
        vpn: Vpn,
    },
    /// A kernel baseline prefetcher (Fastswap/Leap/VMA/Depth-N)
    /// requested a page on the fault path.
    BaselinePrefetch(Prefetch, "baseline_prefetch") {
        /// Owning process.
        pid: Pid,
        /// Requested page.
        vpn: Vpn,
        /// Whether the baseline injects the PTE on arrival (Leap) or
        /// parks the page in the swapcache (Fastswap).
        inject: bool,
    },
    /// A demand access missed everything and read the page from remote
    /// memory synchronously.
    MajorFault(Kernel, "major_fault") {
        /// Faulting process.
        pid: Pid,
        /// Faulted page.
        vpn: Vpn,
        /// Full fault latency (RDMA read + kernel CPU cost).
        latency: Nanos,
    },
    /// A fault was served from the swapcache (no remote read).
    MinorFault(Kernel, "minor_fault") {
        /// Faulting process.
        pid: Pid,
        /// Faulted page.
        vpn: Vpn,
    },
    /// First touch of a never-swapped page (allocation, not a fault).
    FirstTouch(Kernel, "first_touch") {
        /// Owning process.
        pid: Pid,
        /// The new page.
        vpn: Vpn,
    },
    /// A demand access had to wait for an in-flight prefetch of the
    /// same page to land.
    InflightWait(Kernel, "inflight_wait") {
        /// Waiting process.
        pid: Pid,
        /// The page in flight.
        vpn: Vpn,
        /// How long the access stalled.
        wait: Nanos,
    },
    /// Reclaim evicted a resident frame.
    Reclaim(Kernel, "reclaim") {
        /// Evicted frame.
        ppn: Ppn,
        /// Whether it came off the active list (LRU pressure) rather
        /// than the inactive list.
        active: bool,
        /// Whether it was dirty (forced a remote writeback).
        dirty: bool,
    },
    /// A reclaimed page was assigned a swap slot on the remote node.
    SwapOut(Kernel, "swap_out") {
        /// Owning process.
        pid: Pid,
        /// Swapped-out page.
        vpn: Vpn,
        /// Its remote slot.
        slot: SwapSlot,
    },
    /// An RDMA read was issued on the wire.
    RdmaRead(Rdma, "rdma_read") {
        /// Transfer size.
        bytes: u64,
        /// Issue→completion latency including queueing.
        latency: Nanos,
    },
    /// An RDMA write (dirty-page writeback) was issued on the wire.
    RdmaWrite(Rdma, "rdma_write") {
        /// Transfer size.
        bytes: u64,
        /// Issue→completion latency including queueing.
        latency: Nanos,
    },
    /// The placement layer assigned a swapped-out page to a pool node.
    PagePlaced(Fabric, "page_placed") {
        /// Owning process.
        pid: Pid,
        /// Placed page.
        vpn: Vpn,
        /// Primary node it lives on.
        node: NodeId,
    },
    /// A remote op on a node failed transiently and was retried after a
    /// backoff delay.
    RemoteRetry(Fabric, "remote_retry") {
        /// The node that failed the attempt.
        node: NodeId,
        /// 1-based retry attempt number.
        attempt: u32,
        /// Timeout + backoff paid before the retry.
        backoff: Nanos,
    },
    /// A remote op on a node timed out (unresponsive node).
    RemoteTimeout(Fabric, "remote_timeout") {
        /// The unresponsive node.
        node: NodeId,
        /// How long the requester waited before giving up.
        waited: Nanos,
    },
    /// A node was observed dead for the first time.
    NodeDown(Fabric, "node_down") {
        /// The lost node.
        node: NodeId,
    },
    /// A read failed over from a dead/exhausted primary to a replica.
    Failover(Fabric, "failover") {
        /// Owning process.
        pid: Pid,
        /// The page being read.
        vpn: Vpn,
        /// The replica that served the read.
        node: NodeId,
    },
    /// A sweep cell was claimed by a lab worker (wall-clock instant).
    LabCellStart(Lab, "lab_cell_start") {
        /// Grid index of the cell (0-based, grid order).
        index: u32,
        /// Total cells in the grid.
        total: u32,
    },
    /// A sweep cell finished (interval ending at its timestamp).
    LabCellDone(Lab, "lab_cell_done") {
        /// Grid index of the cell (0-based, grid order).
        index: u32,
        /// Whether the cell was served from the on-disk cache.
        cached: bool,
        /// Wall-clock time the cell took.
        wall: Nanos,
    },
}

/// An [`Event`] plus the simulated instant it happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Simulated timestamp. For interval events this is the *end* of
    /// the interval (the moment the outcome was known).
    pub at: Nanos,
    /// What happened.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every variant, in declaration order.
    fn one_of_each() -> Vec<Event> {
        let (pid, vpn, ppn, node) = (Pid::new(3), Vpn::new(77), Ppn::new(9), NodeId::new(2));
        let ns = Nanos::from_nanos;
        vec![
            Event::HpdHot { ppn },
            Event::RptHit { ppn },
            Event::RptMiss {
                ppn,
                resolved: false,
            },
            Event::RptWriteback { ppn },
            Event::StreamCreated {
                slot: 4,
                generation: 5,
                pid,
                vpn,
            },
            Event::StreamUpdated {
                slot: 4,
                generation: 6,
                pid,
                vpn,
            },
            Event::StreamEvicted {
                slot: 4,
                generation: 6,
            },
            Event::TierDecision {
                tier: TierKind::Lsp,
                pid,
                vpn,
            },
            Event::PrefetchIssued {
                pid,
                vpn,
                span: 8,
                latency: ns(3_400),
            },
            Event::PrefetchArrived { pid, vpn, span: 8 },
            Event::PrefetchHit {
                pid,
                vpn,
                timeliness: ns(700),
            },
            Event::PrefetchWasted { pid, vpn },
            Event::BaselinePrefetch {
                pid,
                vpn,
                inject: true,
            },
            Event::MajorFault {
                pid,
                vpn,
                latency: ns(1_500),
            },
            Event::MinorFault { pid, vpn },
            Event::FirstTouch { pid, vpn },
            Event::InflightWait {
                pid,
                vpn,
                wait: ns(250),
            },
            Event::Reclaim {
                ppn,
                active: true,
                dirty: false,
            },
            Event::SwapOut {
                pid,
                vpn,
                slot: SwapSlot::new(11),
            },
            Event::RdmaRead {
                bytes: 4096,
                latency: ns(3_000),
            },
            Event::RdmaWrite {
                bytes: 8192,
                latency: ns(3_100),
            },
            Event::PagePlaced { pid, vpn, node },
            Event::RemoteRetry {
                node,
                attempt: 1,
                backoff: ns(20_000),
            },
            Event::RemoteTimeout {
                node,
                waited: ns(10_000),
            },
            Event::NodeDown { node },
            Event::Failover {
                pid,
                vpn,
                node: NodeId::new(5),
            },
            Event::LabCellStart {
                index: 12,
                total: 40,
            },
            Event::LabCellDone {
                index: 12,
                cached: true,
                wall: ns(5_000_000),
            },
        ]
    }

    /// The exact rendering of [`one_of_each`], one line per variant:
    /// name, track label, track id, duration in ns (`-` for an instant)
    /// and the `write_args_json` output.
    const PINNED: &str = r#"
hpd_hot hpd 1 - ,"ppn":9
rpt_hit rpt 2 - ,"ppn":9
rpt_miss rpt 2 - ,"ppn":9,"resolved":false
rpt_writeback rpt 2 - ,"ppn":9
stream_created stt 3 - ,"slot":4,"generation":5,"pid":3,"vpn":77
stream_updated stt 3 - ,"slot":4,"generation":6,"pid":3,"vpn":77
stream_evicted stt 3 - ,"slot":4,"generation":6
tier_decision tiers 4 - ,"tier":"LSP","pid":3,"vpn":77
prefetch_issued prefetch 5 3400 ,"pid":3,"vpn":77,"span":8,"latency_ns":3400
prefetch_arrived prefetch 5 - ,"pid":3,"vpn":77,"span":8
prefetch_hit prefetch 5 700 ,"pid":3,"vpn":77,"timeliness_ns":700
prefetch_wasted prefetch 5 - ,"pid":3,"vpn":77
baseline_prefetch prefetch 5 - ,"pid":3,"vpn":77,"inject":true
major_fault kernel 6 1500 ,"pid":3,"vpn":77,"latency_ns":1500
minor_fault kernel 6 - ,"pid":3,"vpn":77
first_touch kernel 6 - ,"pid":3,"vpn":77
inflight_wait kernel 6 250 ,"pid":3,"vpn":77,"wait_ns":250
reclaim kernel 6 - ,"ppn":9,"active":true,"dirty":false
swap_out kernel 6 - ,"pid":3,"vpn":77,"slot":11
rdma_read rdma 7 3000 ,"bytes":4096,"latency_ns":3000
rdma_write rdma 7 3100 ,"bytes":8192,"latency_ns":3100
page_placed fabric 8 - ,"pid":3,"vpn":77,"node":2
remote_retry fabric 8 20000 ,"node":2,"attempt":1,"backoff_ns":20000
remote_timeout fabric 8 10000 ,"node":2,"waited_ns":10000
node_down fabric 8 - ,"node":2
failover fabric 8 - ,"pid":3,"vpn":77,"node":5
lab_cell_start lab 9 - ,"index":12,"total":40
lab_cell_done lab 9 5000000 ,"index":12,"cached":true,"wall_ns":5000000
"#;

    #[test]
    fn every_variant_renders_as_pinned() {
        let sample = one_of_each();
        let mut rendered = String::from("\n");
        for e in &sample {
            let duration = e
                .duration()
                .map_or_else(|| "-".to_string(), |d| d.as_nanos().to_string());
            let mut args = String::new();
            e.write_args_json(&mut args);
            let c = e.component();
            rendered += &format!("{} {} {} {duration} {args}\n", e.name(), c.label(), c.tid());
        }
        assert_eq!(rendered, PINNED);
        let mut names: Vec<&str> = sample.iter().map(Event::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28, "one value of each variant");
    }

    #[test]
    fn the_sample_has_one_value_of_each_variant_in_order() {
        let names: Vec<&str> = one_of_each().iter().map(Event::name).collect();
        assert_eq!(names, NAMES);
    }

    /// `docs/observability.md` lists each event in its component's row
    /// of the taxonomy table, and its interval sentence names exactly
    /// the events that have a duration.
    #[test]
    fn the_observability_doc_lists_the_declared_events() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
        let doc = std::fs::read_to_string(path).expect("docs/observability.md is readable");
        // The backticked snake_case words of `text`, sorted.
        let quoted = |text: &str| {
            let mut words: Vec<String> = text
                .split('`')
                .skip(1)
                .step_by(2)
                .filter(|w| !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
                .map(str::to_string)
                .collect();
            words.sort_unstable();
            words
        };
        let declared = |keep: &dyn Fn(&Event) -> bool| {
            quoted(
                &one_of_each()
                    .iter()
                    .filter(|e| keep(e))
                    .map(|e| format!("`{}`", e.name()))
                    .collect::<String>(),
            )
        };
        for c in Component::ALL {
            let head = format!("| `{}` |", c.label());
            let row = doc
                .lines()
                .find_map(|l| l.strip_prefix(&head))
                .unwrap_or_else(|| panic!("no taxonomy row for the `{}` track", c.label()));
            assert_eq!(
                quoted(row),
                declared(&|e| e.component() == c),
                "the `{}` row",
                c.label()
            );
        }
        let sentence = doc
            .split("\n\n")
            .map(|p| p.split_whitespace().collect::<Vec<_>>().join(" "))
            .find_map(|p| {
                p.split_once(" are intervals")
                    .map(|(names, _)| names.to_string())
            })
            .expect("the doc has an interval sentence");
        assert_eq!(quoted(&sentence), declared(&|e| e.duration().is_some()));
    }

    #[test]
    fn every_component_has_a_distinct_tid_and_label() {
        let mut tids: Vec<u32> = Component::ALL.iter().map(|c| c.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), Component::ALL.len());
        let mut labels: Vec<&str> = Component::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Component::ALL.len());
    }

    #[test]
    fn args_render_as_json_members() {
        let mut out = String::new();
        Event::MajorFault {
            pid: Pid::new(3),
            vpn: Vpn::new(77),
            latency: Nanos::from_nanos(1500),
        }
        .write_args_json(&mut out);
        assert_eq!(out, ",\"pid\":3,\"vpn\":77,\"latency_ns\":1500");
    }

    #[test]
    fn interval_events_carry_durations() {
        let e = Event::RdmaRead {
            bytes: 4096,
            latency: Nanos::from_nanos(3400),
        };
        assert_eq!(e.duration(), Some(Nanos::from_nanos(3400)));
        assert_eq!(e.component(), Component::Rdma);
        let i = Event::MinorFault {
            pid: Pid::new(1),
            vpn: Vpn::new(1),
        };
        assert_eq!(i.duration(), None);
    }
}
