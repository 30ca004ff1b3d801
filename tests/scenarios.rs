//! End-to-end checks of the hopp-scn contracts (docs/scenarios.md),
//! mirrored in CI by the `scenario` job:
//!
//! * a recorded `.hst` trace replays with *bit-identical* metrics —
//!   for catalogue workloads and DSL scenarios alike;
//! * the widened workload axis (`--full --scenarios`) flows 20+
//!   entries into the quality scoreboard rows;
//! * the sweep cell cache keys on scenario file *contents*: editing a
//!   scenario invalidates its cached cells, renaming it does not.

use std::path::PathBuf;

use hopp_bench::experiments as ex;
use hopp_bench::lab::{self, SweepSpec};
use hopp_bench::Scale;
use hopp_scn::{HstHeader, HstReader, HstTrace, HstWriter, Scenario, WorkloadSource};
use hopp_sim::runner::SOLO_PID;
use hopp_sim::{SimConfig, SystemConfig};
use hopp_workloads::WorkloadKind;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn tiny() -> Scale {
    Scale {
        footprint: 768,
        spark_footprint: 768,
        seed: 5,
    }
}

/// Records `source`'s stream to an in-memory `.hst`, then runs the live
/// stream and the replayed trace through identical simulators and
/// demands byte-identical metrics JSON.
fn assert_replay_bit_identical(source: &WorkloadSource) {
    let scale = tiny();
    let fp = source.footprint(scale.footprint, scale.spark_footprint);

    let mut live_stream = source.build(SOLO_PID, fp, scale.seed);
    let header = HstHeader {
        pid: SOLO_PID,
        footprint_pages: fp,
        seed: scale.seed,
        source: source.name().to_string(),
    };
    let mut writer = HstWriter::new(Vec::new(), &header).expect("write header");
    while let Some(a) = live_stream.next_access() {
        writer.push(&a).expect("encode access");
    }
    let bytes = writer.finish().expect("finish trace");

    let run = |stream: Box<dyn hopp_trace::AccessStream>| {
        hopp_sim::run_stream_with(
            SimConfig::with_system(SystemConfig::hopp_default()),
            SOLO_PID,
            stream,
            fp,
            0.5,
        )
        .expect("simulation succeeds")
    };
    let live = run(source.build(SOLO_PID, fp, scale.seed));
    let mut reader = HstReader::new(bytes.as_slice()).expect("the recorded header decodes");
    assert_eq!(reader.header().source, source.name());
    let trace = HstTrace {
        header: reader.header().clone(),
        accesses: std::iter::from_fn(|| reader.next().expect("the recorded trace decodes"))
            .collect(),
    };
    let replayed = run(Box::new(trace.into_stream()));

    assert_eq!(
        live.metrics_json(),
        replayed.metrics_json(),
        "{}: replayed metrics diverged from the live run",
        source.name()
    );
}

#[test]
fn recorded_catalogue_trace_replays_bit_identically() {
    assert_replay_bit_identical(&WorkloadSource::Catalogue(WorkloadKind::Kmeans));
}

#[test]
fn recorded_scenario_trace_replays_bit_identically() {
    let scn = Scenario::from_file(&repo_path("scenarios/phase-shift.toml"))
        .expect("checked-in scenario parses");
    assert_replay_bit_identical(&WorkloadSource::Scenario(scn));
}

#[test]
fn full_axis_with_scenarios_feeds_twenty_plus_quality_rows() {
    let scenarios = hopp_scn::load_dir(&repo_path("scenarios")).expect("scenarios/ parses");
    assert!(
        scenarios.len() >= 6,
        "expected the checked-in scenario set, got {}",
        scenarios.len()
    );
    let axis = ex::full_bench_workloads(&scenarios);
    assert!(
        axis.len() >= 20,
        "--full --scenarios axis has only {} entries",
        axis.len()
    );

    let rows = ex::quality_over(&tiny(), &axis).expect("quality sweep runs");
    assert_eq!(
        rows.len(),
        axis.len() * ex::quality_systems().len(),
        "one row per (workload, system)"
    );
    let names: std::collections::BTreeSet<&str> =
        rows.iter().map(|r| r.workload.as_str()).collect();
    assert!(
        names.len() >= 20,
        "only {} distinct workloads reached the scoreboard",
        names.len()
    );
    for row in &rows {
        assert!(
            row.accesses > 0,
            "{}/{}: empty run",
            row.workload,
            row.system
        );
    }
}

/// A minimal scenario used by the cache test. `name` is pinned so the
/// cache tag survives a file rename; `length` is the knob the test
/// turns to change the file's contents.
fn tweak_toml(length: u64) -> String {
    format!(
        "[scenario]\nname = \"tweak\"\nseed = 3\nfootprint = 512\n\n\
         [[phase]]\n\n\
         [[phase.mix]]\npattern = \"simple\"\nstart = 0\nlen = {length}\nstride = 1\n"
    )
}

fn scenario_spec(dir: &std::path::Path, file: &str) -> SweepSpec {
    let scn = Scenario::from_file(&dir.join(file)).expect("tweak scenario parses");
    let mut spec = SweepSpec::quick();
    spec.workloads = vec![WorkloadSource::Scenario(scn)];
    spec.seeds = vec![42];
    spec.threads = 1;
    spec.cache_dir = Some(dir.join("cache"));
    spec
}

#[test]
fn editing_a_scenario_invalidates_its_cached_cells_renaming_does_not() {
    let dir = std::env::temp_dir().join(format!("hopp-scn-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("tweak.toml"), tweak_toml(1500)).expect("write scenario");

    let cold = lab::run_sweep(&scenario_spec(&dir, "tweak.toml")).unwrap();
    assert_eq!(cold.cells_failed, 0);
    assert_eq!(cold.cells_cached, 0, "cache directory was not fresh");
    assert!(cold.cells_run > 0);

    // Same path, same bytes: fully cached.
    let warm = lab::run_sweep(&scenario_spec(&dir, "tweak.toml")).unwrap();
    assert_eq!(warm.cells_run, 0, "unchanged scenario re-simulated");
    assert_eq!(warm.cells_cached, cold.cells_run);
    assert_eq!(cold.json, warm.json);

    // New path, same bytes: the tag is (name, content hash), so the
    // rename changes nothing and every cell is still served from cache.
    std::fs::copy(dir.join("tweak.toml"), dir.join("renamed.toml")).expect("copy scenario");
    let renamed = lab::run_sweep(&scenario_spec(&dir, "renamed.toml")).unwrap();
    assert_eq!(renamed.cells_run, 0, "rename alone invalidated the cache");
    assert_eq!(renamed.json, cold.json);

    // Same path, different bytes: every cached cell is invalid.
    std::fs::write(dir.join("tweak.toml"), tweak_toml(1800)).expect("rewrite scenario");
    let edited = lab::run_sweep(&scenario_spec(&dir, "tweak.toml")).unwrap();
    assert_eq!(edited.cells_cached, 0, "stale cells served after an edit");
    assert_eq!(edited.cells_run, cold.cells_run);
    assert_ne!(edited.json, cold.json, "the edit changed the workload");

    let _ = std::fs::remove_dir_all(&dir);
}
