//! Output checks: every run's report must be internally consistent,
//! agree with what the benchmark fed the simulator, and repeat exactly.
//! A failed check marks the run as failed; it never stops the benchmark.

use hopp::scn::fnv1a64;
use hopp::sim::SimReport;

use crate::workloads::Workload;

/// FNV-1a of the report's metrics JSON: equal digests mean the runs
/// simulated exactly the same thing.
pub fn digest(report: &SimReport) -> u64 {
    fnv1a64(report.metrics_json().as_bytes())
}

/// Checks one run's report. `handed_out` is the number of accesses the
/// benchmark's stream taps handed the simulator (over every app), and
/// `expected_digest` the digest of the workload's first run, if there
/// was one. Returns the reasons the run failed (empty: it passed).
pub fn check_run(
    workload: Workload,
    report: &SimReport,
    handed_out: u64,
    expected_digest: Option<u64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let c = &report.counters;
    let classified = c.dram_hits + c.minor_faults + c.major_faults + c.first_touches;
    if c.accesses != classified {
        failures.push(format!(
            "accesses {} != dram hits + minor + major + first touches = {classified}",
            c.accesses
        ));
    }
    if c.accesses != handed_out {
        failures.push(format!(
            "simulated {} accesses but the streams handed out {handed_out}",
            c.accesses
        ));
    }
    let mut ratios = vec![
        ("coverage", report.coverage()),
        ("accuracy", report.accuracy()),
        ("fault-path coverage", report.baseline.coverage),
        ("fault-path accuracy", report.baseline.accuracy),
    ];
    if let Some(h) = &report.hopp {
        ratios.extend([("hopp coverage", h.coverage), ("hopp accuracy", h.accuracy)]);
    }
    for (tier, m) in ["ssp", "lsp", "rsp"]
        .iter()
        .zip(report.hopp_tiers.iter().flatten())
    {
        ratios.extend([(*tier, m.coverage), (*tier, m.accuracy)]);
    }
    for (what, value) in ratios {
        if !(0.0..=1.0).contains(&value) {
            failures.push(format!("{what} {value} outside [0, 1]"));
        }
    }
    if workload.is_hopp() && c.hopp_prefetches == 0 {
        failures.push("HoPP issued no prefetches".to_string());
    }
    if workload.writes() && c.writebacks == 0 {
        failures.push("no dirty page was written back".to_string());
    }
    if let Some(expected) = expected_digest {
        let got = digest(report);
        if got != expected {
            failures.push(format!(
                "report digest {got:#018x} differs from the first run's {expected:#018x}"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{app_specs, streams, Source};
    use hopp::sim::{SimConfig, Simulator};
    use std::cell::Cell;
    use std::rc::Rc;

    fn small_run(workload: Workload) -> (SimReport, u64) {
        let handed_out = Rc::new(Cell::new(0));
        let apps = streams(workload, &Source::Generate, 1_024, 42, &handed_out, None)
            .expect("generated streams");
        let report = Simulator::new(
            SimConfig::with_system(workload.system()),
            app_specs(apps, 1_024),
        )
        .and_then(Simulator::run)
        .expect("small run");
        (report, handed_out.get())
    }

    #[test]
    fn a_clean_run_passes_and_a_tampered_report_fails() {
        let (report, handed_out) = small_run(Workload::TenantsRwHopp);
        let d = digest(&report);
        assert_eq!(
            check_run(Workload::TenantsRwHopp, &report, handed_out, Some(d)),
            Vec::<String>::new()
        );

        let mut lost_access = report.clone();
        lost_access.counters.dram_hits -= 1;
        assert_eq!(
            check_run(Workload::TenantsRwHopp, &lost_access, handed_out, None).len(),
            1
        );
        let mut drifted = report.clone();
        drifted.counters.reclaimed += 1;
        let reasons = check_run(Workload::TenantsRwHopp, &drifted, handed_out, Some(d));
        assert!(reasons[0].contains("digest"), "{reasons:?}");
        let mut bad_accuracy = report.clone();
        if let Some(h) = bad_accuracy.hopp.as_mut() {
            h.accuracy = 1.5;
        }
        assert!(!check_run(Workload::TenantsRwHopp, &bad_accuracy, handed_out, None).is_empty());
        assert!(!check_run(Workload::TenantsRwHopp, &report, handed_out + 1, None).is_empty());
        let mut no_writes = report;
        no_writes.counters.writebacks = 0;
        assert!(!check_run(Workload::TenantsRwHopp, &no_writes, handed_out, None).is_empty());
    }
}
