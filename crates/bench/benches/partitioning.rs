//! Bench: the engine's `partition` stage — exact MILP, MILP+heuristic
//! and GA partitioning time on random DAGs of growing size (ABL1 backing
//! data), plus the parallel branch & bound: on a branching instance the
//! multi-worker solve must return the identical colouring and, on
//! multi-core hosts, beat the serial one wall-clock.

use std::hint::black_box;

use cool_bench::harness::Group;
use cool_cost::CostModel;
use cool_ir::Objective;
use cool_partition::{genetic, heuristic, milp, GaOptions, HeuristicOptions, MilpOptions};
use cool_spec::workloads::{random_dag, RandomDagConfig};

fn main() {
    let target = cool_bench::paper_board();
    let mut group = Group::new("partitioning");
    for nodes in [8usize, 12, 16] {
        let graph = random_dag(RandomDagConfig {
            nodes,
            seed: 7,
            ..Default::default()
        });
        let cost = CostModel::new(&graph, &target);
        group.bench(&format!("milp/{nodes}"), || {
            black_box(milp::partition(&graph, &cost, &MilpOptions::default()).unwrap())
        });
    }

    // Parallel branch & bound on a genuinely branching instance (the
    // default weights above solve at the root; a low communication
    // weight makes the relaxation fractional, ~97 B&B nodes).
    let graph = random_dag(RandomDagConfig {
        nodes: 14,
        seed: 7,
        ..Default::default()
    });
    let cost = CostModel::new(&graph, &target);
    let branching = |jobs: usize| MilpOptions {
        objective: Objective::blend(1.0, 0.3, 0.01),
        jobs,
        ..Default::default()
    };
    let jobs_n = cool_ir::par::effective_jobs(0, usize::MAX).max(4);
    let mut serial_res = None;
    let mut parallel_res = None;
    let serial = group
        .bench("milp-branching/jobs=1", || {
            serial_res = Some(black_box(
                milp::partition(&graph, &cost, &branching(1)).unwrap(),
            ));
        })
        .clone();
    let parallel = group
        .bench(&format!("milp-branching/jobs={jobs_n}"), || {
            parallel_res = Some(black_box(
                milp::partition(&graph, &cost, &branching(jobs_n)).unwrap(),
            ));
        })
        .clone();
    let (serial_res, parallel_res) = (serial_res.unwrap(), parallel_res.unwrap());
    assert_eq!(
        serial_res.mapping, parallel_res.mapping,
        "parallel MILP must return the serial colouring"
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let quick = std::env::var("COOL_BENCH_QUICK").is_ok_and(|v| v == "1");
    let speedup = serial.mean.as_secs_f64() / parallel.mean.as_secs_f64().max(1e-12);
    println!("parallel MILP on {cores} core(s): speedup {speedup:.2}x (colouring identical)");
    if cores > 1 && speedup <= 1.0 {
        // Single-iteration smoke runs are too noisy for a hard bound.
        assert!(quick, "parallel MILP did not beat serial on {cores} cores");
        eprintln!("warning: parallel MILP did not beat serial despite {cores} cores");
    }
    for nodes in [16usize, 32, 48] {
        let graph = random_dag(RandomDagConfig {
            nodes,
            seed: 7,
            ..Default::default()
        });
        let cost = CostModel::new(&graph, &target);
        group.bench(&format!("heuristic/{nodes}"), || {
            black_box(heuristic::partition(&graph, &cost, &HeuristicOptions::default()).unwrap())
        });
        let ga = GaOptions {
            population: 16,
            generations: 10,
            ..Default::default()
        };
        group.bench(&format!("genetic/{nodes}"), || {
            black_box(genetic::partition(&graph, &cost, &ga).unwrap())
        });
    }
}
