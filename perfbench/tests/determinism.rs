//! Self-checks of the benchmark: the deterministic metrics repeat
//! exactly for one seed, another seed draws other designs, and one pass
//! of each workload emits exactly the metrics `BENCHMARK.json` names,
//! with their units, measuring every layer the workload runs. Run with
//! `cargo test --release`.

use std::path::PathBuf;

use cool_perfbench::{designs, run, Config, Kind, Metric, Report};

/// Metrics that depend only on the seed, never on timing.
const DETERMINISTIC: [&str; 7] = [
    "makespan_cycles",
    "rtl.place_clbs",
    "rtl.place_wirelength",
    "rtl.place_moves",
    "rtl.encoding_candidates",
    "remote.gets",
    "cache.stages_computed",
];

/// The per-layer metrics of the layers a workload runs: never 0 there.
fn own_metrics(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::ColdFlow => &[
            "spec.parse_ms",
            "cost.estimate_ms",
            "partition.ga_ms",
            "schedule.list_ms",
            "stg.build_ms",
            "hls.synth_ms",
            "rtl.encoding_ms",
            "rtl.encoding_candidates",
            "rtl.netlist_vhdl_ms",
            "rtl.place_ms",
            "rtl.place_moves",
            "rtl.place_ns_per_move",
            "rtl.place_clbs",
            "rtl.place_wirelength",
            "codegen.emit_ms",
            "sim.cosim_ms",
            "cache.stages_computed",
        ],
        Kind::Explore => &[
            "cost.estimate_ms",
            "cost.retarget_ms",
            "partition.milp_ms",
            "par.speedup",
            "cache.stages_computed",
        ],
        Kind::WarmStart => &[
            "rtl.place_clbs",
            "rtl.place_wirelength",
            "remote.get_ms",
            "remote.gets",
            "remote.wait_frac",
            "codec.decode_ms",
            "codec.encode_ms",
            "disk.load_ms",
            "disk.store_ms",
            "disk.bytes",
            "cache.lookup_ms",
        ],
    }
}

/// `(name, unit)` of every metric in the list `list` of `BENCHMARK.json`,
/// sorted.
fn declared(list: &str) -> Vec<(String, String)> {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark");
    let body = manifest
        .split_once(&format!("\"{list}\": ["))
        .and_then(|(_, rest)| rest.split_once(']'))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no list {list}"))
        .0;
    let field = |entry: &str, key: &str| {
        entry
            .split_once(&format!("\"{key}\": \""))
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(value, _)| value.to_string())
            .unwrap_or_else(|| panic!("{list} entry without {key}: {entry}"))
    };
    let mut metrics: Vec<(String, String)> = body
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect();
    metrics.sort();
    metrics
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut names: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    names.sort();
    names
}

fn one_traced_pass(kind: Kind, seed: u64, tag: &str) -> Report {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", kind.name()));
    let config = Config {
        kind,
        seed,
        seconds: 0.0,
        trace: true,
    };
    let report = run(&config, work.clone()).expect("set-up succeeds");
    assert!(!work.exists(), "the run leaves its work directory behind");
    assert!(report.correct(), "{}: {:?}", kind.name(), report.failures);
    report
}

fn check_workload(kind: Kind) {
    let first = one_traced_pass(kind, 7, "a");
    let second = one_traced_pass(kind, 7, "b");
    for name in DETERMINISTIC {
        assert_eq!(
            first.metric(name),
            second.metric(name),
            "{}: {name} differs between two runs of one seed",
            kind.name()
        );
    }

    assert_eq!(
        emitted(&second.end_to_end),
        declared("end_to_end"),
        "{}: end-to-end metrics",
        kind.name()
    );
    assert_eq!(
        emitted(&second.per_layer),
        declared("per_layer"),
        "{}: per-layer metrics",
        kind.name()
    );
    for m in second.end_to_end.iter().chain(&second.per_layer) {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            kind.name(),
            m.name,
            m.value
        );
    }
    for name in own_metrics(kind) {
        assert_ne!(
            second.metric(name),
            Some(0.0),
            "{}: {name} is not measured",
            kind.name()
        );
    }
}

#[test]
fn cold_flow_repeats_and_emits_every_metric() {
    check_workload(Kind::ColdFlow);
}

#[test]
fn explore_repeats_and_emits_every_metric() {
    check_workload(Kind::Explore);
}

#[test]
fn warm_start_repeats_and_emits_every_metric() {
    check_workload(Kind::WarmStart);
}

#[test]
fn another_seed_draws_other_designs() {
    for rotation in [designs::cold_rotation, designs::explore_rotation] {
        assert_eq!(rotation(3), rotation(3));
        let specs = |seed| {
            let mut s: Vec<String> = rotation(seed).into_iter().map(|d| d.spec).collect();
            s.sort();
            s
        };
        assert_ne!(specs(3), specs(4));
    }
}
