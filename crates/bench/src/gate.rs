//! `cargo xtask gate` — the prefetch-quality regression gate.
//!
//! `BENCH_quality.json` at the repository root tracks prefetch
//! coverage, accuracy and pollution per workload × system. Every field
//! is a function of simulated state, so the file is exactly
//! reproducible. The gate re-runs the quality experiment at the scale
//! recorded *inside* the committed file and diffs fresh rows against
//! committed rows, per cell: coverage or accuracy dropping by more than
//! 2 points, or pollution rising by more than 2 points, fails.
//! Timeliness is reported but not gated (it tracks simulated latency
//! config, not prefetcher health).
//!
//! Host throughput is not gated here: the repository benchmark
//! (`benchmark/`, `BENCHMARK.json`) measures it end to end and per
//! layer.
//!
//! Expected regressions are waived *in the baseline file itself*, the
//! same reason-required shape as `hopp-check` waivers:
//!
//! ```json
//! "waivers": [
//!   {"row": "Kmeans-OMP/hopp", "metric": "coverage_pct",
//!    "reason": "trades 3pt coverage for 2x less pollution"}
//! ]
//! ```
//!
//! A waiver with an empty reason fails the gate, and so does a stale
//! waiver that no longer matches any breach — waivers must be removed
//! once the regression they excuse is gone.

use std::path::Path;

use hopp_types::json::{self, Value};

use crate::experiments::{quality, quality_json, QualityRow, Scale};

/// The gated per-row metrics of `BENCH_quality.json`.
const QUALITY_METRICS: [&str; 3] = ["coverage_pct", "accuracy_pct", "pollution_pct"];
/// Absolute percentage-point movement that fails a quality cell.
pub const QUALITY_POINT_LIMIT: f64 = 2.0;

/// One gate breach: a workload × system cell whose fresh value crossed
/// its threshold against the committed baseline, or a broken waiver.
#[derive(Clone, Debug, PartialEq)]
pub struct GateFinding {
    /// `workload/system` cell (or the waiver row for waiver findings).
    pub row: String,
    /// The metric that breached.
    pub metric: String,
    /// Committed value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Human-readable diff line.
    pub detail: String,
}

/// A waiver embedded in a baseline file.
#[derive(Clone, Debug, PartialEq)]
pub struct GateWaiver {
    /// `workload/system` cell the waiver covers.
    pub row: String,
    /// Metric the waiver covers.
    pub metric: String,
    /// Mandatory justification.
    pub reason: String,
}

/// Everything one gate run produced.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Breaches that fail the gate (after waiver settlement).
    pub findings: Vec<GateFinding>,
    /// Breaches excused by a reasoned waiver.
    pub waived: Vec<GateFinding>,
    /// Cells compared against the baseline.
    pub rows_checked: usize,
    /// The rendered per-row diff report.
    pub report: String,
}

impl GateOutcome {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A parsed baseline: its recorded scale, per-cell metric values and
/// waivers.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// The scale recorded in the file's `scale` block.
    pub scale: Scale,
    /// `(workload, system, metric, value)` tuples, one per gated metric
    /// (coverage, accuracy, pollution) per row.
    pub cells: Vec<(String, String, String, f64)>,
    /// Embedded waivers.
    pub waivers: Vec<GateWaiver>,
}

impl Baseline {
    fn value(&self, workload: &str, system: &str, metric: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|(w, s, m, _)| w == workload && s == system && m == metric)
            .map(|&(_, _, _, v)| v)
    }
}

/// Parses a `BENCH_quality.json` document.
///
/// # Errors
///
/// Malformed JSON, a missing `scale` block, a row or waiver without its
/// identifying keys, and a file with no comparable rows are returned as
/// a message.
pub fn parse_baseline(doc: &str) -> Result<Baseline, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let text = |o: &Value, k: &str| o.get(k).and_then(Value::as_str).map(str::to_string);
    let scale = v
        .get("scale")
        .ok_or("baseline has no scale block (is it a BENCH_quality.json file?)")?;
    let int = |k: &str| scale.get(k).and_then(Value::as_u64);
    let footprint = int("footprint").ok_or("scale block has no footprint")?;
    let mut base = Baseline {
        scale: Scale {
            footprint,
            spark_footprint: int("spark_footprint").unwrap_or(footprint),
            seed: int("seed").unwrap_or(Scale::default().seed),
        },
        ..Baseline::default()
    };
    for row in v.get("rows").and_then(Value::as_arr).unwrap_or_default() {
        let (Some(workload), Some(system)) = (text(row, "workload"), text(row, "system")) else {
            return Err("a row lacks its \"workload\" or \"system\"".to_string());
        };
        for m in QUALITY_METRICS {
            if let Some(x) = row.get(m).and_then(Value::as_f64) {
                base.cells
                    .push((workload.clone(), system.clone(), m.to_string(), x));
            }
        }
    }
    for w in v.get("waivers").and_then(Value::as_arr).unwrap_or_default() {
        let (Some(row), Some(metric)) = (text(w, "row"), text(w, "metric")) else {
            return Err("a waiver lacks its \"row\" or \"metric\"".to_string());
        };
        base.waivers.push(GateWaiver {
            row,
            metric,
            reason: text(w, "reason").unwrap_or_default(),
        });
    }
    if base.cells.is_empty() {
        return Err("baseline has no comparable rows".to_string());
    }
    Ok(base)
}

fn quality_cells(rows: &[QualityRow]) -> Vec<(String, String, String, f64)> {
    let mut cells = Vec::new();
    for r in rows {
        for (m, v) in [
            ("coverage_pct", r.coverage_pct),
            ("accuracy_pct", r.accuracy_pct),
            ("pollution_pct", r.pollution_pct),
        ] {
            cells.push((r.workload.clone(), r.system.to_string(), m.to_string(), v));
        }
    }
    cells
}

/// Diffs fresh quality rows against a committed baseline: coverage or
/// accuracy down, or pollution up, by more than
/// [`QUALITY_POINT_LIMIT`] points fails the cell.
pub fn diff_quality(base: &Baseline, fresh: &[QualityRow]) -> (Vec<GateFinding>, usize) {
    let mut findings = Vec::new();
    let mut checked = 0;
    for (workload, system, metric, fresh_v) in &quality_cells(fresh) {
        let Some(base_v) = base.value(workload, system, metric) else {
            continue;
        };
        checked += 1;
        let delta = fresh_v - base_v;
        let breached = if metric == "pollution_pct" {
            delta > QUALITY_POINT_LIMIT
        } else {
            delta < -QUALITY_POINT_LIMIT
        };
        if breached {
            findings.push(GateFinding {
                row: format!("{workload}/{system}"),
                metric: metric.clone(),
                baseline: base_v,
                fresh: *fresh_v,
                detail: format!(
                    "{workload}/{system}: {metric} {fresh_v:.2} vs baseline {base_v:.2} \
                     ({delta:+.2}pt, limit {QUALITY_POINT_LIMIT:.0}pt)"
                ),
            });
        }
    }
    (findings, checked)
}

/// Settles breaches against a baseline's waivers, hopp-check style:
/// a reasoned waiver excuses its matching breach; a reason-less waiver
/// and a waiver matching no breach are themselves findings.
pub fn settle_waivers(
    breaches: Vec<GateFinding>,
    waivers: &[GateWaiver],
) -> (Vec<GateFinding>, Vec<GateFinding>) {
    let mut failing = Vec::new();
    let mut waived = Vec::new();
    let mut used = vec![false; waivers.len()];
    for b in breaches {
        match waivers
            .iter()
            .position(|w| w.row == b.row && w.metric == b.metric)
        {
            Some(i) if !waivers[i].reason.trim().is_empty() => {
                used[i] = true;
                waived.push(b);
            }
            _ => failing.push(b),
        }
    }
    for (i, w) in waivers.iter().enumerate() {
        if w.reason.trim().is_empty() {
            failing.push(GateFinding {
                row: w.row.clone(),
                metric: w.metric.clone(),
                baseline: 0.0,
                fresh: 0.0,
                detail: format!(
                    "{}/{}: waiver has no reason — justify it or remove it",
                    w.row, w.metric
                ),
            });
        } else if !used[i] {
            failing.push(GateFinding {
                row: w.row.clone(),
                metric: w.metric.clone(),
                baseline: 0.0,
                fresh: 0.0,
                detail: format!(
                    "{}/{}: stale waiver — the breach it excused is gone, remove it",
                    w.row, w.metric
                ),
            });
        }
    }
    (failing, waived)
}

fn render(outcome: &GateOutcome) -> String {
    let mut out = String::new();
    for f in &outcome.findings {
        out.push_str(&format!("FAIL  {}\n", f.detail));
    }
    for f in &outcome.waived {
        out.push_str(&format!("waive {}\n", f.detail));
    }
    out.push_str(&format!(
        "gate: {} cell(s) checked, {} breach(es), {} waived\n",
        outcome.rows_checked,
        outcome.findings.len(),
        outcome.waived.len()
    ));
    out
}

/// Runs the gate against the `BENCH_quality.json` baseline in `root`
/// (the workspace root).
///
/// `update` rewrites the baseline from the fresh run instead of diffing
/// (dropping any waivers — an updated baseline has nothing left to
/// excuse).
///
/// # Errors
///
/// An unreadable or unparseable baseline and a failed simulation run
/// are returned as a message; threshold breaches are *not* errors, they
/// are [`GateOutcome::findings`].
pub fn run_gate(root: &Path, update: bool) -> Result<GateOutcome, String> {
    let path = root.join("BENCH_quality.json");
    let shown = path.display();
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{shown}: {e}"))?;
    let base = parse_baseline(&doc).map_err(|e| format!("{shown}: {e}"))?;
    let fresh = quality(&base.scale).map_err(|e| format!("quality: {e}"))?;

    if update {
        std::fs::write(&path, quality_json(&base.scale, &fresh))
            .map_err(|e| format!("{shown}: {e}"))?;
        return Ok(GateOutcome {
            report: format!("gate: rewrote {shown}\n"),
            ..GateOutcome::default()
        });
    }

    let (breaches, rows_checked) = diff_quality(&base, &fresh);
    let (findings, waived) = settle_waivers(breaches, &base.waivers);
    let mut outcome = GateOutcome {
        findings,
        waived,
        rows_checked,
        ..GateOutcome::default()
    };
    outcome.report = render(&outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qrow(workload: &str, system: &'static str, cov: f64, acc: f64, pol: f64) -> QualityRow {
        QualityRow {
            workload: workload.to_string(),
            system,
            accesses: 1_000,
            prefetched: 100,
            prefetch_hits: 90,
            wasted: 10,
            coverage_pct: cov,
            accuracy_pct: acc,
            pollution_pct: pol,
            mean_timeliness_ns: 1_000,
        }
    }

    #[test]
    fn quality_gate_fires_on_coverage_drop_and_pollution_rise_only() {
        let base_rows = vec![qrow("Kmeans-OMP", "hopp", 60.0, 90.0, 10.0)];
        let base = parse_baseline(&quality_json(&Scale::quick(), &base_rows)).unwrap();
        // Within limits: +1.9pt pollution, -1.9pt coverage.
        let ok = vec![qrow("Kmeans-OMP", "hopp", 58.1, 90.0, 11.9)];
        assert!(diff_quality(&base, &ok).0.is_empty());
        // Coverage down 2.5pt and pollution up 2.5pt: two findings.
        let bad = vec![qrow("Kmeans-OMP", "hopp", 57.5, 90.0, 12.5)];
        let (findings, checked) = diff_quality(&base, &bad);
        assert_eq!(checked, 3);
        let metrics: Vec<&str> = findings.iter().map(|f| f.metric.as_str()).collect();
        assert_eq!(metrics, ["coverage_pct", "pollution_pct"], "{findings:?}");
        assert!(findings[0].row == "Kmeans-OMP/hopp");
    }

    #[test]
    fn waivers_need_reasons_and_must_not_go_stale() {
        let breach = GateFinding {
            row: "Kmeans-OMP/hopp".to_string(),
            metric: "coverage_pct".to_string(),
            baseline: 60.0,
            fresh: 55.0,
            detail: "x".to_string(),
        };
        // Reasoned waiver: breach excused.
        let w = GateWaiver {
            row: "Kmeans-OMP/hopp".to_string(),
            metric: "coverage_pct".to_string(),
            reason: "expected: PR trades coverage for pollution".to_string(),
        };
        let (failing, waived) = settle_waivers(vec![breach.clone()], std::slice::from_ref(&w));
        assert!(failing.is_empty());
        assert_eq!(waived.len(), 1);
        // Reason-less waiver: breach stays AND the waiver is a finding.
        let bare = GateWaiver {
            reason: String::new(),
            ..w.clone()
        };
        let (failing, waived) = settle_waivers(vec![breach], &[bare]);
        assert_eq!(failing.len(), 2);
        assert!(waived.is_empty());
        // Stale waiver: no breach left, the waiver itself fails.
        let (failing, _) = settle_waivers(Vec::new(), &[w]);
        assert_eq!(failing.len(), 1);
        assert!(failing[0].detail.contains("stale"));
    }

    #[test]
    fn baseline_parsing_recovers_scale_rows_and_waivers() {
        let rows = vec![
            qrow("Kmeans-OMP", "fastswap", 40.0, 95.0, 5.0),
            qrow("Kmeans-OMP", "hopp", 60.0, 90.0, 10.0),
        ];
        let scale = Scale {
            footprint: 2_048,
            spark_footprint: 1_024,
            seed: 9,
        };
        let doc = quality_json(&scale, &rows).replace(
            "  \"rows\": [",
            "  \"waivers\": [\n    {\"row\": \"Kmeans-OMP/hopp\", \"metric\": \"coverage_pct\", \"reason\": \"known\"}\n  ],\n  \"rows\": [",
        );
        let base = parse_baseline(&doc).unwrap();
        assert_eq!(base.scale.footprint, 2_048);
        assert_eq!(base.scale.spark_footprint, 1_024);
        assert_eq!(base.scale.seed, 9);
        assert_eq!(base.cells.len(), 6);
        assert_eq!(
            base.value("Kmeans-OMP", "hopp", "pollution_pct"),
            Some(10.0)
        );
        assert_eq!(base.waivers.len(), 1);
        assert_eq!(base.waivers[0].reason, "known");
    }

    #[test]
    fn malformed_baselines_are_messages_not_panics() {
        let good = quality_json(&Scale::quick(), &[qrow("Quicksort", "hopp", 1.0, 2.0, 3.0)]);
        assert!(parse_baseline(&good).is_ok());
        for (doc, needle) in [
            (good[..good.len() / 2].to_string(), "byte"),
            ("{\"rows\": []}".to_string(), "no scale block"),
            (good.replace("\"footprint\"", "\"size\""), "no footprint"),
            (good.replace("\"system\"", "\"sys\""), "lacks"),
            (quality_json(&Scale::quick(), &[]), "no comparable rows"),
        ] {
            let err = parse_baseline(&doc).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn the_committed_baseline_parses() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quality.json");
        let doc = std::fs::read_to_string(root).expect("BENCH_quality.json is committed");
        let base = parse_baseline(&doc).expect("committed baseline parses");
        assert_eq!(
            base.cells.len(),
            3 * 8,
            "4 workloads x 2 systems x 3 metrics"
        );
        assert!(base.waivers.is_empty());
    }
}
