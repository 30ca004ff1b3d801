//! The metric registry: every name the benchmark reports, with its unit
//! and direction, and the per-workload result table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger value is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// The metric's name, unique across both lists.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, per workload. Host throughput and
/// set-up time are host measurements; the rest are exact outputs of the
/// run (they repeat bit for bit for a given seed).
pub const END_TO_END: &[Def] = &[
    def("accesses_per_s", "accesses/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_heap_mib", "MiB", Lower),
    def("allocs_per_access", "allocs/access", Lower),
    def("sim_completion_ms", "sim_ms", Lower),
    def("coverage_pct", "%", Higher),
    def("accuracy_pct", "%", Higher),
];

/// Costs and counts of single layers, grouped by module. Each comes from
/// one of three sources (see `README.md`): the layer replay (host ns per
/// call, median of the passes, and exact work volumes), the traced run
/// (self host time and allocations per simulated access, per profiler
/// span label), or the rounds' own reports (exact simulated counters).
pub const PER_LAYER: &[Def] = &[
    // trace
    def("trace.next_access.ns", "ns/call", Lower),
    def("trace.lines_per_access", "lines/access", Lower),
    // mem
    def("mem.lookup.ns", "ns/call", Lower),
    def("mem.map_present.ns", "ns/call", Lower),
    // llc
    def("llc.access.ns", "ns/call", Lower),
    def("llc.miss_pct", "%", Lower),
    def("llc.hit_pct", "%", Higher),
    // hw
    def("hw.on_llc_miss.ns", "ns/call", Lower),
    def("hw.hot_per_kmiss", "hot/kmiss", Lower),
    def("hw.hot_pages_per_kaccess", "1/kaccess", Lower),
    def("hw.rpt_hit_pct", "%", Higher),
    // core
    def("core.on_hot_page.ns", "ns/call", Lower),
    def("core.request_span.ns", "ns/call", Lower),
    def("core.poll_into.ns", "ns/call", Lower),
    def("core.orders_per_hot_page", "orders/hot", Lower),
    def("core.allocs_per_hot_page", "allocs/hot", Lower),
    def("core.prefetches_per_kaccess", "1/kaccess", Higher),
    // kernel
    def("kernel.lru.ns", "ns/call", Lower),
    def("kernel.swap.ns", "ns/call", Lower),
    def("kernel.evictions_per_kaccess", "1/kaccess", Lower),
    def("kernel.major_faults_per_kaccess", "1/kaccess", Lower),
    def("kernel.reclaims_per_kaccess", "1/kaccess", Lower),
    // baselines
    def("baselines.on_fault.ns", "ns/call", Lower),
    def("baselines.requests_per_fault", "reqs/fault", Lower),
    // fabric
    def("fabric.place.ns", "ns/call", Lower),
    def("fabric.write_page.ns", "ns/call", Lower),
    def("fabric.read_page.ns", "ns/call", Lower),
    def("fabric.writebacks_per_kaccess", "1/kaccess", Lower),
    // net
    def("net.queue_ns_per_op", "sim_ns/op", Lower),
    // scn
    def("scn.hst_push.ns", "ns/call", Lower),
    def("scn.hst_next.ns", "ns/call", Lower),
    def("scn.bytes_per_access", "B/access", Lower),
    // sim: step latency in the traced run, round times of the rounds
    def("sim.step_ns_p50", "ns", Lower),
    def("sim.step_ns_p99", "ns", Lower),
    def("sim.step_ns_p999", "ns", Lower),
    def("sim.round_s_p50", "s", Lower),
    def("sim.round_s_iqr_pct", "%", Lower),
    // span: the traced run's profiler spans
    def("span.sim.run.ns", "ns/access", Lower),
    def("span.sim.step.ns", "ns/access", Lower),
    def("span.sim.drain.ns", "ns/access", Lower),
    def("span.trace.stream.ns", "ns/access", Lower),
    def("span.llc.loop.ns", "ns/access", Lower),
    def("span.hw.hpd_extract.ns", "ns/access", Lower),
    def("span.kernel.first_touch.ns", "ns/access", Lower),
    def("span.kernel.major_fault.ns", "ns/access", Lower),
    def("span.kernel.minor_fault.ns", "ns/access", Lower),
    def("span.kernel.readahead.ns", "ns/access", Lower),
    def("span.kernel.reclaim.ns", "ns/access", Lower),
    def("span.kernel.swap_alloc.ns", "ns/access", Lower),
    def("span.fabric.link.ns", "ns/access", Lower),
    def("span.sim.step.allocs", "allocs/access", Lower),
    def("span.sim.drain.allocs", "allocs/access", Lower),
    def("span.core.train.allocs", "allocs/access", Lower),
    def("span.core.tier_predict.allocs", "allocs/access", Lower),
    def("span.core.exec.allocs", "allocs/access", Lower),
    def("span.kernel.first_touch.allocs", "allocs/access", Lower),
    def("span.kernel.major_fault.allocs", "allocs/access", Lower),
    def("span.kernel.minor_fault.allocs", "allocs/access", Lower),
    def("span.kernel.readahead.allocs", "allocs/access", Lower),
    def("span.kernel.reclaim.allocs", "allocs/access", Lower),
    def("span.kernel.swap_alloc.allocs", "allocs/access", Lower),
    def("span.coverage_pct", "%", Higher),
    def("span.overhead_pct", "%", Lower),
];

/// The span labels the traced run reads, with the metric-name prefix
/// each maps to (`component/op` becomes `span.component.op`). A label's
/// `.ns` and `.allocs` metrics are reported where they are declared.
pub const SPAN_LABELS: &[(&str, &str)] = &[
    ("sim/run", "span.sim.run"),
    ("sim/step", "span.sim.step"),
    ("sim/drain", "span.sim.drain"),
    ("trace/stream", "span.trace.stream"),
    ("llc/loop", "span.llc.loop"),
    ("hw/hpd_extract", "span.hw.hpd_extract"),
    ("core/train", "span.core.train"),
    ("core/tier_predict", "span.core.tier_predict"),
    ("core/exec", "span.core.exec"),
    ("kernel/first_touch", "span.kernel.first_touch"),
    ("kernel/major_fault", "span.kernel.major_fault"),
    ("kernel/minor_fault", "span.kernel.minor_fault"),
    ("kernel/readahead", "span.kernel.readahead"),
    ("kernel/reclaim", "span.kernel.reclaim"),
    ("kernel/swap_alloc", "span.kernel.swap_alloc"),
    ("fabric/link", "span.fabric.link"),
];

/// The declaration of `name`, if the benchmark declares it.
pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it summarises.
    pub n: usize,
}

/// One workload's results, keyed by metric name.
#[derive(Default, Debug)]
pub struct Table {
    values: BTreeMap<&'static str, Value>,
}

impl Table {
    /// Records `name` if `value` is a finite number.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: Option<f64>, n: usize) {
        assert!(lookup(name).is_some(), "undeclared metric {name}");
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.values.insert(name, Value { value, n });
        }
    }

    /// The declared metrics of `defs` this table holds, in declared order.
    pub fn rows<'a>(&'a self, defs: &'a [Def]) -> impl Iterator<Item = (&'a Def, Value)> + 'a {
        defs.iter()
            .filter_map(|d| self.values.get(d.name).map(|v| (d, *v)))
    }
}

impl Better {
    /// The direction as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Appends `"name":{"value":v,"unit":u}` members for the rows of `defs`
/// in `table`, each name prefixed with `prefix`; `detailed` adds the
/// direction and the sample count.
pub fn write_json_metrics(
    out: &mut String,
    table: &Table,
    defs: &[Def],
    prefix: &str,
    detailed: bool,
) {
    for (def, v) in table.rows(defs) {
        if !out.ends_with('{') {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"",
            def.name, v.value, def.unit
        );
        if detailed {
            let _ = write!(out, ",\"better\":\"{}\",\"n\":{}", def.better.label(), v.n);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for (label, prefix) in SPAN_LABELS {
            assert_eq!(
                prefix.strip_prefix("span."),
                Some(label.replace('/', ".").as_str())
            );
            assert!(
                lookup(&format!("{prefix}.ns")).is_some()
                    || lookup(&format!("{prefix}.allocs")).is_some(),
                "{label} reports nothing"
            );
        }
    }

    #[test]
    fn the_repository_benchmark_file_declares_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("closing bracket") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names = |defs: &[Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.label()
            );
            assert!(
                text.contains(&entry),
                "unit or direction of {} differs",
                d.name
            );
        }
    }
}
