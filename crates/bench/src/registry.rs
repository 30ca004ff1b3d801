//! The experiments registry: every section the `experiments` binary
//! prints, by name, with the generator that computes it and the
//! printer that renders it.
//!
//! Sections that share a generator (Fig 9–11, Fig 12–14, Fig 16–17,
//! Fig 18–20) sit in one [`Section`] entry, so selecting several of
//! them — or `all` — computes the shared matrix once.
#![allow(clippy::ptr_arg)] // printers share the registry's `fn(&T, Mode)` shape

use hopp_scn::WorkloadSource;
use hopp_sim::SimReport;
use hopp_types::{Nanos, Result};
use hopp_workloads::WorkloadKind;

use crate::experiments::{self as ex, PerfRecord};
use crate::format::{bar_chart, frac, latency_table, pct, render_json, render_table};
use crate::Scale;

/// How sections render: `--json` emits machine-readable rows instead
/// of aligned tables, `--chart` appends ASCII bar charts to the key
/// comparison figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mode {
    /// Rows as JSON instead of tables.
    pub json: bool,
    /// Bar charts after Fig 9 and Fig 22.
    pub chart: bool,
}

impl Mode {
    fn render(self, header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
        let rows: Vec<Vec<String>> = rows.into_iter().collect();
        if self.json {
            render_json(header, &rows)
        } else {
            render_table(header, &rows)
        }
    }

    /// A `## title` heading over one table.
    fn section(
        self,
        title: &str,
        header: &[&str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> String {
        format!("\n## {title}\n\n{}", self.render(header, rows))
    }
}

/// What a generator reads: the run scale and the quality workload axis.
#[derive(Clone, Copy, Debug)]
pub struct Ctx<'a> {
    /// Footprints and seed.
    pub scale: &'a Scale,
    /// The workloads the quality scoreboard runs over.
    pub axis: &'a [WorkloadSource],
}

type Printer<T> = fn(&T, Mode) -> String;

/// A generator and the sections it feeds, by name, in print order.
pub struct Section<T: 'static> {
    generate: fn(&Ctx<'_>) -> Result<T>,
    printers: &'static [(&'static str, Printer<T>)],
}

impl<T> Section<T> {
    const fn new(
        generate: fn(&Ctx<'_>) -> Result<T>,
        printers: &'static [(&'static str, Printer<T>)],
    ) -> Self {
        Section { generate, printers }
    }
}

/// One registry entry, with its data type erased.
pub trait Experiment: Sync {
    /// The section names this entry prints, in print order.
    fn names(&self) -> Vec<&'static str>;

    /// Runs the generator once and renders every section of this
    /// entry, by name.
    ///
    /// # Errors
    ///
    /// Returns the generator's simulation error.
    fn render(&self, ctx: &Ctx<'_>, mode: Mode) -> Result<Vec<(&'static str, String)>>;
}

impl<T> Experiment for Section<T> {
    fn names(&self) -> Vec<&'static str> {
        self.printers.iter().map(|(name, _)| *name).collect()
    }

    fn render(&self, ctx: &Ctx<'_>, mode: Mode) -> Result<Vec<(&'static str, String)>> {
        let data = (self.generate)(ctx)?;
        Ok(self
            .printers
            .iter()
            .map(|(name, print)| (*name, print(&data, mode)))
            .collect())
    }
}

/// Every section, in the order `all` prints them.
pub static EXPERIMENTS: &[&dyn Experiment] = &[
    &Section::new(
        |c| ex::quality_over(c.scale, c.axis),
        &[("quality", quality)],
    ),
    &Section::new(|c| ex::table2(c.scale), &[("table2", table2)]),
    &Section::new(|c| ex::table3(c.scale), &[("table3", table3)]),
    &Section::new(|c| ex::table5(c.scale), &[("table5", table5)]),
    &Section::new(
        |c| ex::fig9_matrix(c.scale),
        &[("fig9", fig9), ("fig10", fig10), ("fig11", fig11)],
    ),
    &Section::new(
        |c| ex::fig12_matrix(c.scale),
        &[("fig12", fig12), ("fig13", fig13), ("fig14", fig14)],
    ),
    &Section::new(|c| ex::fig15(c.scale), &[("fig15", fig15)]),
    &Section::new(
        |c| ex::fig16_17(c.scale),
        &[("fig16", fig16), ("fig17", fig17)],
    ),
    &Section::new(
        |c| ex::fig18_20(c.scale),
        &[("fig18", fig18), ("fig19", fig19), ("fig20", fig20)],
    ),
    &Section::new(|c| ex::fig21(c.scale), &[("fig21", fig21)]),
    &Section::new(
        |c| Ok((ex::fig22(c.scale)?, ex::fig22_volatile(c.scale)?)),
        &[("fig22", fig22)],
    ),
    &Section::new(|c| ex::motivate(c.scale), &[("motivate", motivate)]),
    &Section::new(
        |c| ex::intensity_sweep(c.scale),
        &[("intensity", intensity)],
    ),
    &Section::new(|c| ex::channels_sweep(c.scale), &[("channels", channels)]),
    &Section::new(|c| ex::hugepage_study(c.scale), &[("hugepage", hugepage)]),
    &Section::new(|c| ex::markov_study(c.scale), &[("markov", markov)]),
    &Section::new(|c| ex::reclaim_study(c.scale), &[("reclaim", reclaim)]),
    &Section::new(
        |c| ex::stt_sensitivity(c.scale),
        &[("sensitivity", sensitivity)],
    ),
    &Section::new(|_| ex::scale_robustness(), &[("scale", scale_robustness)]),
    &Section::new(|c| ex::warmup(c.scale), &[("warmup", warmup)]),
    &Section::new(|c| ex::leap_window(c.scale), &[("leapwin", leapwin)]),
    &Section::new(|c| ex::latency_study(c.scale), &[("latency", latency)]),
    &Section::new(|c| ex::fabric_sweep(c.scale), &[("fabric", fabric)]),
    &Section::new(|c| ex::fault_study(c.scale), &[("faults", faults)]),
    &Section::new(|_| Ok(ex::hwcost()), &[("hwcost", hwcost)]),
];

/// Every section name, in registry order.
pub fn section_names() -> Vec<&'static str> {
    EXPERIMENTS.iter().flat_map(|e| e.names()).collect()
}

/// A table row: `first`, then `rest`.
fn row(first: impl Into<String>, rest: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.into()).chain(rest).collect()
}

/// A `first` column followed by one column per sweep point.
fn sweep_header<'a>(first: &'a str, points: &'a [String]) -> Vec<&'a str> {
    std::iter::once(first)
        .chain(points.iter().map(String::as_str))
        .collect()
}

fn table2(data: &Vec<(WorkloadKind, Vec<(u32, f64)>)>, mode: Mode) -> String {
    let ns: Vec<String> = data[0].1.iter().map(|(n, _)| format!("N={n}")).collect();
    let rows = data
        .iter()
        .map(|(kind, series)| row(kind.name(), series.iter().map(|(_, v)| format!("{v:.2}%"))));
    let title = "Table II — hot pages identified / memory accesses (%), by HPD threshold N";
    mode.section(title, &sweep_header("workload", &ns), rows)
}

fn table3(data: &Vec<(WorkloadKind, Vec<(usize, f64)>)>, mode: Mode) -> String {
    let sizes: Vec<String> = data[0].1.iter().map(|(k, _)| format!("{k}KB")).collect();
    let rows = data
        .iter()
        .map(|(kind, series)| row(kind.name(), series.iter().map(|(_, v)| frac(*v))));
    let title = "Table III — RPT cache hit rate by capacity";
    mode.section(title, &sweep_header("workload", &sizes), rows)
}

fn table5(data: &Vec<(WorkloadKind, f64, f64)>, mode: Mode) -> String {
    let rows = data
        .iter()
        .map(|(kind, hpd, rpt)| row(kind.name(), [format!("{hpd:.4}%"), format!("{rpt:.5}%")]));
    let title = "Table V — DRAM bandwidth overhead of HPD writes and RPT queries (%)";
    mode.section(title, &["workload", "HPD", "RPT"], rows)
}

type Fig9 = (Vec<PerfRecord>, Vec<PerfRecord>);

fn fig9((half, quarter): &Fig9, mode: Mode) -> String {
    let fs = |r: &PerfRecord| r.normalized(&r.fastswap);
    let hopp = |r: &PerfRecord| r.normalized(&r.hopp);
    let rows = half.iter().zip(quarter).map(|(h, q)| {
        let cells = [fs(h), hopp(h), fs(q), hopp(q)];
        row(h.workload.name(), cells.map(frac))
    });
    let header = ["workload", "FS@50%", "HoPP@50%", "FS@25%", "HoPP@25%"];
    let mut out = mode.section(
        "Fig 9 — normalized performance, non-JVM workloads",
        &header,
        rows,
    );
    let avg = |f: &dyn Fn(&PerfRecord) -> f64, v: &[PerfRecord]| {
        frac(v.iter().map(f).sum::<f64>() / v.len() as f64)
    };
    out.push_str(&format!(
        "avg@50%: fastswap {} hopp {} | avg@25%: fastswap {} hopp {}\n",
        avg(&fs, half),
        avg(&hopp, half),
        avg(&fs, quarter),
        avg(&hopp, quarter),
    ));
    if mode.chart {
        let items: Vec<(String, f64)> = half
            .iter()
            .flat_map(|r| {
                let name = r.workload.name();
                [
                    (format!("{name} (FS)"), fs(r)),
                    (format!("{name} (HoPP)"), hopp(r)),
                ]
            })
            .collect();
        out.push_str(&format!(
            "\nnormalized performance @50% local:\n{}\n",
            bar_chart(&items, 40)
        ));
    }
    out
}

fn fig10((half, _): &Fig9, mode: Mode) -> String {
    let rows = half.iter().map(|r| {
        row(
            r.workload.name(),
            [r.fastswap.accuracy(), r.hopp.accuracy()].map(pct),
        )
    });
    let title = "Fig 10 — prefetch accuracy, non-JVM workloads (50% local)";
    mode.section(title, &["workload", "Fastswap", "HoPP"], rows)
}

fn fig11((half, _): &Fig9, mode: Mode) -> String {
    let rows = half.iter().map(|r| {
        let cells = [
            r.fastswap.coverage(),
            r.hopp.coverage(),
            r.hopp.coverage_swapcache(),
            r.hopp.coverage_injected(),
        ];
        row(r.workload.name(), cells.map(pct))
    });
    let header = [
        "workload",
        "Fastswap",
        "HoPP total",
        "HoPP swapcache",
        "HoPP DRAM-hit",
    ];
    let title = "Fig 11 — prefetch coverage, non-JVM workloads (50% local)";
    mode.section(title, &header, rows)
}

/// A Fastswap-vs-HoPP table over the Spark matrix.
fn spark_table(
    title: &str,
    recs: &[PerfRecord],
    mode: Mode,
    cell: fn(&PerfRecord, &SimReport) -> String,
) -> String {
    let rows = recs
        .iter()
        .map(|r| row(r.workload.name(), [cell(r, &r.fastswap), cell(r, &r.hopp)]));
    mode.section(title, &["workload", "Fastswap", "HoPP"], rows)
}

fn fig12(recs: &Vec<PerfRecord>, mode: Mode) -> String {
    let title = "Fig 12 — normalized performance, Spark workloads (1/3 local)";
    spark_table(title, recs, mode, |r, run| frac(r.normalized(run)))
}

fn fig13(recs: &Vec<PerfRecord>, mode: Mode) -> String {
    let title = "Fig 13 — prefetch accuracy, Spark workloads";
    spark_table(title, recs, mode, |_, run| pct(run.accuracy()))
}

fn fig14(recs: &Vec<PerfRecord>, mode: Mode) -> String {
    let title = "Fig 14 — prefetch coverage, Spark workloads";
    spark_table(title, recs, mode, |_, run| pct(run.coverage()))
}

fn fig15(data: &Vec<(String, Vec<(WorkloadKind, f64)>)>, mode: Mode) -> String {
    let rows = data.iter().flat_map(|(pair, speedups)| {
        speedups
            .iter()
            .map(move |(kind, s)| vec![pair.clone(), kind.name().to_string(), format!("{s:.2}x")])
    });
    let title = "Fig 15 — per-app speedup (CT_fastswap/CT_hopp) when co-running";
    mode.section(title, &["pair", "app", "speedup"], rows)
}

/// One Depth-N/Fastswap/HoPP column set per workload; `cell` picks the
/// value from (normalized performance, normalized remote accesses).
fn depth_table(
    title: &str,
    data: &[ex::DepthRow],
    mode: Mode,
    cell: fn(f64, f64) -> f64,
) -> String {
    let rows = data.iter().map(|r| {
        row(
            r.workload.name(),
            r.systems.iter().map(|(_, np, rr)| frac(cell(*np, *rr))),
        )
    });
    let header = ["workload", "Depth-16", "Depth-32", "Fastswap", "HoPP"];
    mode.section(title, &header, rows)
}

fn fig16(data: &Vec<ex::DepthRow>, mode: Mode) -> String {
    let title = "Fig 16 — normalized performance: Depth-N vs Fastswap vs HoPP (50% local)";
    depth_table(title, data, mode, |np, _| np)
}

fn fig17(data: &Vec<ex::DepthRow>, mode: Mode) -> String {
    let title = "Fig 17 — remote accesses normalized to Fastswap-without-prefetching";
    depth_table(title, data, mode, |_, rr| rr)
}

/// One per-tier column set per workload.
fn tier_table(
    title: &str,
    header: &[&str],
    data: &[ex::TierRow],
    mode: Mode,
    cells: fn(&ex::TierRow) -> [f64; 3],
) -> String {
    let rows = data
        .iter()
        .map(|r| row(r.workload.name(), cells(r).map(pct)));
    mode.section(title, header, rows)
}

fn fig18(data: &Vec<ex::TierRow>, mode: Mode) -> String {
    let title = "Fig 18 — speedup over Fastswap as tiers are added";
    let header = ["workload", "SSP", "SSP+LSP", "SSP+LSP+RSP"];
    tier_table(title, &header, data, mode, |r| r.speedup)
}

fn fig19(data: &Vec<ex::TierRow>, mode: Mode) -> String {
    let title = "Fig 19 — per-tier prefetch accuracy (full system)";
    let header = ["workload", "SSP", "LSP", "RSP"];
    tier_table(title, &header, data, mode, |r| r.tier_accuracy)
}

fn fig20(data: &Vec<ex::TierRow>, mode: Mode) -> String {
    let title = "Fig 20 — coverage contributed by each tier (full system)";
    let header = ["workload", "SSP", "LSP", "RSP"];
    tier_table(title, &header, data, mode, |r| r.tier_coverage)
}

fn fig21(data: &Vec<ex::ScatterPoint>, mode: Mode) -> String {
    let rows = data.iter().map(|p| {
        let cells = [p.accuracy, p.coverage, p.normalized].map(frac);
        row(
            p.workload.name(),
            std::iter::once(p.system.to_string()).chain(cells),
        )
    });
    let header = ["workload", "system", "accuracy", "coverage", "norm-perf"];
    let title = "Fig 21 — normalized performance vs (accuracy, coverage), 50% local";
    mode.section(title, &header, rows)
}

type Fig22 = (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>);

fn fig22((ablation, volatile): &Fig22, mode: Mode) -> String {
    let rows = |v: &[(&str, f64)]| -> Vec<Vec<String>> {
        v.iter()
            .map(|(name, s)| vec![name.to_string(), pct(*s)])
            .collect()
    };
    let title = "Fig 22 — technique ablation on the §VI-E microbenchmark (speedup vs Fastswap)";
    let mut out = mode.section(title, &["system", "speedup"], rows(ablation));
    if mode.chart {
        let items: Vec<(String, f64)> = ablation.iter().map(|(n, s)| (n.to_string(), *s)).collect();
        out.push_str(&format!("\n{}\n", bar_chart(&items, 30)));
    }
    out.push_str("\nwith periodic 8x latency bursts (§III-E's volatility):\n\n");
    let header = ["system", "speedup vs Fastswap (volatile)"];
    out.push_str(&mode.render(&header, rows(volatile)));
    out
}

fn motivate(data: &Vec<(WorkloadKind, [f64; 2], [f64; 2])>, mode: Mode) -> String {
    let rows = data
        .iter()
        .map(|(kind, leap, full)| row(kind.name(), [leap[0], leap[1], full[0], full[1]].map(pct)));
    let header = [
        "workload",
        "Leap acc",
        "Leap cov",
        "full-trace acc",
        "full-trace cov",
    ];
    let title = "§II-B study — Leap vs full-trace majority prefetching (SSP-only HoPP)";
    mode.section(title, &header, rows)
}

fn intensity(data: &Vec<(WorkloadKind, Vec<(u32, f64, f64, f64)>)>, mode: Mode) -> String {
    let rows = data.iter().flat_map(|(kind, series)| {
        series.iter().map(|(intensity, np, cov_sc, cov_inj)| {
            let cells = [
                intensity.to_string(),
                frac(*np),
                pct(*cov_sc),
                pct(*cov_inj),
            ];
            row(kind.name(), cells)
        })
    });
    let header = [
        "workload",
        "intensity",
        "norm-perf",
        "cov swapcache",
        "cov DRAM-hit",
    ];
    let title = "Extension — prefetch-intensity sweep (§III-E knob; 50% local)";
    mode.section(title, &header, rows)
}

fn channels(data: &Vec<(WorkloadKind, Vec<(usize, f64, f64, f64)>)>, mode: Mode) -> String {
    let rows = data.iter().flat_map(|(kind, series)| {
        series.iter().map(|(ch, ratio, cov, np)| {
            let cells = [ch.to_string(), format!("{ratio:.2}%"), pct(*cov), frac(*np)];
            row(kind.name(), cells)
        })
    });
    let header = ["workload", "channels", "hot ratio", "coverage", "norm-perf"];
    let title = "Extension — interleaved memory channels (§III-B; per-channel N = 8/channels)";
    mode.section(title, &header, rows)
}

fn hugepage(data: &Vec<(WorkloadKind, bool, f64, u64, u64)>, mode: Mode) -> String {
    let rows = data.iter().map(|(kind, batching, np, reads, pages)| {
        let how = if *batching {
            "2MB batches"
        } else {
            "page-by-page"
        };
        let cells = [
            how.to_string(),
            frac(*np),
            reads.to_string(),
            pages.to_string(),
        ];
        row(kind.name(), cells)
    });
    let header = [
        "workload",
        "mode",
        "norm-perf",
        "rdma requests",
        "pages moved",
    ];
    let title = "Extension — huge-page batched prefetch (§IV; 512 pages per request)";
    mode.section(title, &header, rows)
}

fn markov(data: &Vec<(WorkloadKind, Vec<(&'static str, f64, f64, f64)>)>, mode: Mode) -> String {
    let rows = data.iter().flat_map(|(kind, series)| {
        series.iter().map(|(name, acc, cov, np)| {
            row(
                kind.name(),
                [name.to_string(), pct(*acc), pct(*cov), frac(*np)],
            )
        })
    });
    let header = ["workload", "trainer", "accuracy", "coverage", "norm-perf"];
    let title = "Extension — Markov trainer vs adaptive three-tier (§III-D design space)";
    mode.section(title, &header, rows)
}

fn reclaim(data: &Vec<(WorkloadKind, Vec<(&'static str, u64, f64)>)>, mode: Mode) -> String {
    let rows = data.iter().flat_map(|(kind, series)| {
        series.iter().map(|(window, majors, np)| {
            row(
                kind.name(),
                [window.to_string(), majors.to_string(), frac(*np)],
            )
        })
    });
    let header = ["workload", "hot window", "major faults", "norm-perf"];
    let title = "Extension — trace-assisted reclaim (§IV; hot pages get a second chance)";
    mode.section(title, &header, rows)
}

fn sensitivity(data: &Vec<(WorkloadKind, Vec<(usize, u64, f64, f64)>)>, mode: Mode) -> String {
    let rows = data.iter().flat_map(|(kind, series)| {
        series.iter().map(|(l, delta, cov, acc)| {
            row(
                kind.name(),
                [l.to_string(), delta.to_string(), pct(*cov), pct(*acc)],
            )
        })
    });
    let header = ["workload", "L", "delta", "coverage", "accuracy"];
    let title = "Extension — STT sensitivity: history L x clustering distance";
    mode.section(title, &header, rows)
}

fn scale_robustness(data: &Vec<(u64, u64, WorkloadKind, f64, f64)>, mode: Mode) -> String {
    let rows = data.iter().map(|(fp, seed, kind, fs, hp)| {
        let cells = [
            seed.to_string(),
            kind.name().to_string(),
            frac(*fs),
            frac(*hp),
            frac(hp / fs),
        ];
        row(fp.to_string(), cells)
    });
    let header = [
        "footprint",
        "seed",
        "workload",
        "fastswap",
        "hopp",
        "hopp/fastswap",
    ];
    let title = "Extension — scale robustness of the headline comparison";
    mode.section(title, &header, rows)
}

fn warmup(data: &Vec<(&'static str, Vec<u64>)>, mode: Mode) -> String {
    let labels: Vec<String> = (1..=data[0].1.len()).map(|w| format!("w{w}")).collect();
    let rows = data
        .iter()
        .map(|(name, w)| row(*name, w.iter().map(u64::to_string)));
    let title = "Extension — warmup: major faults per run window (§VI-E dynamics)";
    mode.section(title, &sweep_header("system", &labels), rows)
}

fn leapwin(data: &Vec<(WorkloadKind, f64, f64, f64, f64)>, mode: Mode) -> String {
    let rows = data
        .iter()
        .map(|(kind, cf, ca, nf, na)| row(kind.name(), [pct(*cf), pct(*ca), frac(*nf), frac(*na)]));
    let header = [
        "workload",
        "fixed cov",
        "adaptive cov",
        "fixed perf",
        "adaptive perf",
    ];
    let title = "Extension — Leap's adaptive prefetch window vs fixed depth";
    mode.section(title, &header, rows)
}

fn latency(data: &Vec<(&'static str, hopp_obs::LatencySummaries)>, _: Mode) -> String {
    let mut out =
        String::from("\n## Observability — latency distributions (kmeans, 50% local)\n\n");
    for (system, summaries) in data {
        out.push_str(&format!("### {system}\n\n{}\n", latency_table(summaries)));
    }
    out
}

fn fabric(data: &Vec<ex::FabricRow>, mode: Mode) -> String {
    let rows = data.iter().map(|r| {
        let cells = [
            r.placement.to_string(),
            frac(r.normalized),
            r.major_p99.to_string(),
            r.queueing.to_string(),
            r.reads.to_string(),
        ];
        row(r.nodes.to_string(), cells)
    });
    let header = [
        "nodes",
        "placement",
        "norm perf",
        "major p99",
        "queueing",
        "reads",
    ];
    let title = "hopp-fabric — node-count sweep (kmeans, HoPP intensity 4, 25% local)";
    mode.section(title, &header, rows)
}

fn faults(data: &Vec<ex::FaultRow>, mode: Mode) -> String {
    let rows = data.iter().map(|r| {
        let cells = [
            r.system.to_string(),
            frac(r.normalized),
            r.major_p99.to_string(),
            r.failovers.to_string(),
            r.retries.to_string(),
        ];
        row(r.scenario, cells)
    });
    let header = [
        "scenario",
        "system",
        "norm perf",
        "major p99",
        "failovers",
        "retries",
    ];
    let title = "hopp-fabric — fault injection (kmeans, 4 nodes, replication 2, 50% local)";
    mode.section(title, &header, rows)
}

/// The scoreboard only; `cargo xtask gate --update` is what rewrites
/// the tracked `BENCH_quality.json` baseline.
fn quality(data: &Vec<ex::QualityRow>, mode: Mode) -> String {
    let rows = data.iter().map(|r| {
        let cells = [
            r.system.to_string(),
            format!("{:.2}", r.coverage_pct),
            format!("{:.2}", r.accuracy_pct),
            format!("{:.2}", r.pollution_pct),
            Nanos::from_nanos(r.mean_timeliness_ns).to_string(),
        ];
        row(&r.workload, cells)
    });
    let header = [
        "workload",
        "system",
        "coverage%",
        "accuracy%",
        "pollution%",
        "timeliness",
    ];
    let title = "Quality — prefetch coverage/accuracy/pollution scoreboard (50% local)";
    mode.section(title, &header, rows)
}

fn hwcost(data: &[(String, f64, f64); 2], mode: Mode) -> String {
    let rows = data.iter().map(|(name, area, power)| {
        row(name, [format!("{area:.6} mm^2"), format!("{power:.4} mW")])
    });
    let title = "§VI-F — hardware cost (CACTI 3.0, 22nm)";
    mode.section(title, &["module", "area", "static power"], rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_names_are_unique_and_start_with_quality() {
        let names = section_names();
        assert_eq!(names.len(), 32);
        assert_eq!(names.first(), Some(&"quality"));
        assert_eq!(names.last(), Some(&"hwcost"));
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate section {n}");
        }
    }

    #[test]
    fn shared_generators_feed_their_figure_groups() {
        let group = |name: &str| {
            EXPERIMENTS
                .iter()
                .find(|e| e.names().contains(&name))
                .map(|e| e.names())
        };
        assert_eq!(group("fig10"), Some(vec!["fig9", "fig10", "fig11"]));
        assert_eq!(group("fig13"), Some(vec!["fig12", "fig13", "fig14"]));
        assert_eq!(group("fig17"), Some(vec!["fig16", "fig17"]));
        assert_eq!(group("fig20"), Some(vec!["fig18", "fig19", "fig20"]));
    }
}
