//! Plain-text table rendering for the experiments binary.

use hopp_types::json::{self, escape, Value};

/// Renders a table: a header row plus data rows, columns padded to the
/// widest cell.
///
/// # Example
///
/// ```
/// let t = hopp_bench::format::render_table(
///     &["workload", "value"],
///     &[vec!["kmeans".into(), "0.98".into()]],
/// );
/// assert!(t.contains("kmeans"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|\n", rule.join("-|-")));
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Renders the same header/rows as a JSON array of objects (one object
/// per row, keyed by the header). Numeric-looking cells are emitted as
/// JSON numbers so plotting scripts can consume the output directly;
/// everything else is an escaped string.
///
/// # Example
///
/// ```
/// let j = hopp_bench::format::render_json(
///     &["workload", "value"],
///     &[vec!["kmeans".into(), "0.98".into()]],
/// );
/// assert_eq!(j.trim(), r#"[{"workload": "kmeans", "value": 0.98}]"#);
/// ```
pub fn render_json(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        for (j, (key, cell)) in header.iter().zip(row).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", escape(key), json_value(cell)));
        }
        out.push('}');
    }
    out.push_str("]\n");
    out
}

fn json_value(cell: &str) -> String {
    // Cells that are JSON numbers pass through, percentages lose their
    // sign, and everything else (including `NaN`, `inf` and `+1`, which
    // Rust parses as floats but JSON does not) becomes a string.
    let number = |s: &str| matches!(json::parse(s), Ok(Value::Num(_)));
    match cell.strip_suffix('%') {
        _ if number(cell) => cell.to_string(),
        Some(num) if number(num) => num.to_string(),
        _ => format!("\"{}\"", escape(cell)),
    }
}

/// Renders labelled values as a horizontal ASCII bar chart. Bars scale
/// to the largest magnitude; negative values extend left of the axis.
///
/// # Example
///
/// ```
/// let chart = hopp_bench::format::bar_chart(
///     &[("hopp".into(), 0.9), ("fastswap".into(), 0.6)],
///     20,
/// );
/// assert!(chart.contains("hopp"));
/// assert!(chart.lines().count() == 2);
/// ```
pub fn bar_chart(items: &[(String, f64)], width: usize) -> String {
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max_mag = items
        .iter()
        .map(|(_, v)| v.abs())
        .fold(f64::EPSILON, f64::max);
    let has_negative = items.iter().any(|(_, v)| *v < 0.0);
    let mut out = String::new();
    for (label, value) in items {
        let bars = ((value.abs() / max_mag) * width as f64).round() as usize;
        let bar = "#".repeat(bars);
        if has_negative {
            // Two-sided axis: negatives grow left, positives right.
            let pad = if *value < 0.0 { width - bars } else { width };
            out.push_str(&format!(
                "{label:<label_w$} {}{}|{} {value:+.3}
",
                " ".repeat(pad),
                if *value < 0.0 { bar.as_str() } else { "" },
                if *value >= 0.0 { bar.as_str() } else { "" },
            ));
        } else {
            out.push_str(&format!(
                "{label:<label_w$} |{bar} {value:.3}
"
            ));
        }
    }
    out
}

/// Renders a run's five latency histograms as an aligned table: one
/// row per quantity, quantiles in microseconds.
///
/// # Example
///
/// ```
/// let t = hopp_bench::format::latency_table(&Default::default());
/// assert!(t.contains("major_fault"));
/// assert!(t.contains("p99_us"));
/// ```
pub fn latency_table(l: &hopp_obs::LatencySummaries) -> String {
    let us = |ns: f64| format!("{:.3}", ns / 1_000.0);
    let row = |name: &str, s: &hopp_obs::HistogramSummary| -> Vec<String> {
        vec![
            name.to_string(),
            s.count.to_string(),
            us(s.mean),
            us(s.p50 as f64),
            us(s.p90 as f64),
            us(s.p99 as f64),
            us(s.max as f64),
        ]
    };
    render_table(
        &[
            "latency", "count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us",
        ],
        &[
            row("major_fault", &l.major_fault),
            row("timeliness", &l.timeliness),
            row("inflight_wait", &l.inflight_wait),
            row("rdma_read", &l.rdma_read),
            row("rdma_write", &l.rdma_write),
        ],
    )
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a fraction with three decimals.
pub fn frac(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bee"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let lens: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn helpers_format() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(frac(0.12345), "0.123");
    }

    #[test]
    fn latency_table_converts_to_microseconds() {
        let mut h = hopp_obs::Histogram::new();
        h.record(2_000);
        let l = hopp_obs::LatencySummaries {
            major_fault: h.summary(),
            ..Default::default()
        };
        let t = latency_table(&l);
        let fault_row = t
            .lines()
            .find(|l| l.contains("major_fault"))
            .expect("major_fault row");
        assert!(fault_row.contains("2.000"), "{t}");
        assert!(t.contains("rdma_write"));
    }

    #[test]
    fn json_types_cells_sensibly() {
        let j = render_json(
            &["name", "ratio", "pct", "weird"],
            &[vec![
                "a\"b".into(),
                "0.5".into(),
                "12.34%".into(),
                "n/a".into(),
            ]],
        );
        assert!(j.contains(r#""name": "a\"b""#), "{j}");
        assert!(j.contains(r#""ratio": 0.5"#));
        assert!(j.contains(r#""pct": 12.34"#), "percent suffix stripped");
        assert!(j.contains(r#""weird": "n/a""#));
        assert!(json::parse(&j).is_ok(), "{j}");
    }

    #[test]
    fn json_output_parses_even_for_float_like_cells() {
        let cells = ["NaN", "inf", "+1", "1.", "-0.5", "7%", "+3%"];
        let j = render_json(&cells, &[cells.iter().map(|c| c.to_string()).collect()]);
        let doc = json::parse(&j).expect("valid JSON");
        let row = &doc.as_arr().unwrap()[0];
        let as_num = |k: &str| row.get(k).and_then(Value::as_f64);
        assert_eq!(as_num("-0.5"), Some(-0.5));
        assert_eq!(as_num("7%"), Some(7.0));
        for k in ["NaN", "inf", "+1", "1.", "+3%"] {
            assert_eq!(
                row.get(k).and_then(Value::as_str),
                Some(k),
                "{k} stays a string"
            );
        }
    }

    #[test]
    fn json_empty_rows_is_empty_array() {
        assert_eq!(render_json(&["a"], &[]).trim(), "[]");
    }

    #[test]
    fn bar_chart_positive_only() {
        let c = bar_chart(&[("a".into(), 1.0), ("bb".into(), 0.5)], 10);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("|##########"), "{c}");
        assert!(lines[1].contains("|#####"), "{c}");
    }

    #[test]
    fn bar_chart_with_negatives_keeps_one_axis() {
        let c = bar_chart(&[("up".into(), 0.5), ("down".into(), -1.0)], 10);
        // Both lines place their axis at the same column.
        let cols: Vec<usize> = c.lines().map(|l| l.find('|').unwrap()).collect();
        assert_eq!(cols[0], cols[1], "{c}");
        assert!(c.contains("+0.500"));
        assert!(c.contains("-1.000"));
    }

    #[test]
    fn bar_chart_empty_is_empty() {
        assert_eq!(bar_chart(&[], 10), "");
    }
}
