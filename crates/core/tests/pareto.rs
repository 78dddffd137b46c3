//! The `FlowSession::pareto` epsilon-constraint sweep contracts.
//!
//! * **Determinism** — a sweep is byte-identical (report and CSV) at
//!   `jobs = 1` and `jobs = 4`: points run on scoped workers but land
//!   in input (budget) order, and each point solves intra-point serial
//!   whenever the fan-out is the parallel axis.
//! * **Single estimation** — the cost model is estimated exactly once
//!   in the spec→cost prefix; every point's own `cost` stage appears
//!   as [`CacheOutcome::Seeded`], never as an execution.
//! * **Warm re-runs** — a second sweep over the same shared
//!   [`StageCache`] computes 0 stages and reproduces the same bytes.
//! * **Dominance** — `non_dominated()` is exactly the weak-dominance
//!   filter over (makespan, total CLBs), duplicates kept.
//! * **Truncation honesty** — node-limit-truncated MILP points carry
//!   `Some(gap)` and the report/CSV say so.
//! * **Certified reuse** — a point finished from a looser point's
//!   certified MILP optimum equals a fresh `milp::partition` of that
//!   point, at `jobs = 1` and `jobs = 2`.

use cool_core::{CacheOutcome, FlowError, FlowOptions, FlowSession, Partitioner, StageCache};
use cool_cost::{CommScheme, CostModel};
use cool_ir::{BudgetConstraint, Objective, Target};
use cool_partition::{milp, MilpOptions};
use cool_spec::workloads::{self, random_dag, RandomDagConfig};

fn budgets(clbs: &[u32]) -> Vec<BudgetConstraint> {
    clbs.iter().copied().map(BudgetConstraint::new).collect()
}

fn sweep(
    g: &cool_ir::PartitioningGraph,
    options: &FlowOptions,
    jobs: usize,
    cache: Option<&StageCache>,
    clbs: &[u32],
) -> cool_core::ParetoFront {
    let mut session = FlowSession::new(g)
        .target(Target::fuzzy_board())
        .options(options.clone())
        .jobs(jobs);
    if let Some(cache) = cache {
        session = session.cache(cache.clone());
    }
    session.pareto(budgets(clbs)).unwrap()
}

// ---------------------------------------------------------------------
// Validation.

#[test]
fn empty_budgets_and_multiple_targets_are_session_errors() {
    let g = workloads::equalizer(2);
    match FlowSession::new(&g)
        .target(Target::fuzzy_board())
        .options(FlowOptions::quick())
        .pareto([])
    {
        Err(FlowError::Session(why)) => assert!(why.contains("no budgets"), "{why}"),
        other => panic!("expected Session error, got {other:?}"),
    }
    match FlowSession::new(&g)
        .targets([Target::fuzzy_board(), Target::fuzzy_board()])
        .options(FlowOptions::quick())
        .pareto(budgets(&[32]))
    {
        Err(FlowError::Session(why)) => {
            assert!(why.contains("one base board"), "{why}");
        }
        other => panic!("expected Session error, got {other:?}"),
    }
    match FlowSession::new(&g)
        .options(FlowOptions::quick())
        .pareto(budgets(&[32]))
    {
        Err(FlowError::Session(why)) => assert!(why.contains("no target"), "{why}"),
        other => panic!("expected Session error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Determinism and single estimation.

#[test]
fn sweep_is_byte_identical_at_jobs_1_and_4() {
    let g = workloads::equalizer(4);
    let options = FlowOptions::quick();
    let clbs = [8, 32, 96, 196];
    let serial = sweep(&g, &options, 1, None, &clbs);
    let parallel = sweep(&g, &options, 4, None, &clbs);
    assert_eq!(serial.report(), parallel.report());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    // Input order: point i carries budget i.
    for (point, &budget) in serial.points().iter().zip(&clbs) {
        assert_eq!(point.budget.max_clbs_per_fpga, budget);
    }
}

#[test]
fn cost_is_estimated_once_and_every_point_is_seeded() {
    let g = workloads::equalizer(4);
    let front = sweep(&g, &FlowOptions::quick(), 4, None, &[16, 64, 196]);
    assert_eq!(front.len(), 3);
    assert_eq!(front.cost_estimations(), 1);
    assert!(
        front
            .estimation_trace()
            .records()
            .iter()
            .any(|r| r.name == "cost"),
        "the estimation prefix must have run cost:\n{}",
        front.estimation_trace().to_table()
    );
    for point in front.points() {
        assert!(
            point
                .trace()
                .records()
                .iter()
                .any(|r| r.name == "cost" && r.cache == CacheOutcome::Seeded),
            "every point must see the retargeted model as seeded:\n{}",
            point.trace().to_table()
        );
    }
    let report = front.report();
    assert!(
        report.contains("estimated 1 time(s) for 3 point(s)"),
        "{report}"
    );
}

#[test]
fn warm_rerun_over_a_shared_cache_computes_zero_stages() {
    let g = workloads::equalizer(4);
    let options = FlowOptions::quick();
    let cache = StageCache::default();
    let clbs = [16, 64, 196];
    let cold = sweep(&g, &options, 2, Some(&cache), &clbs);
    assert!(cold.computed_stages() > 0, "a cold sweep must compute");
    let warm = sweep(&g, &options, 2, Some(&cache), &clbs);
    assert_eq!(
        warm.computed_stages(),
        0,
        "a warm re-run must restore everything:\n{}",
        warm.report()
    );
    assert_eq!(warm.to_csv(), cold.to_csv());
    assert!(
        warm.report().contains("0 stage(s) computed"),
        "{}",
        warm.report()
    );
}

// ---------------------------------------------------------------------
// Dominance.

#[test]
fn non_dominated_is_exactly_the_weak_dominance_filter() {
    let g = workloads::fir(12);
    let front = sweep(&g, &FlowOptions::quick(), 2, None, &[4, 8, 16, 48, 96, 196]);
    assert!(!front.non_dominated().is_empty(), "a front is never empty");
    let metrics: Vec<(u64, u32)> = front
        .points()
        .iter()
        .map(|p| (p.makespan(), p.total_clbs()))
        .collect();
    for (i, point) in front.points().iter().enumerate() {
        let (m, a) = metrics[i];
        let dominated = metrics
            .iter()
            .enumerate()
            .any(|(j, &(mj, aj))| j != i && mj <= m && aj <= a && (mj < m || aj < a));
        assert_eq!(
            point.dominated,
            dominated,
            "point {i} ({m} cycles, {a} CLBs) has the wrong dominance flag:\n{}",
            front.report()
        );
    }
    // The report's front column agrees with the flags.
    let report = front.report();
    for point in front.non_dominated() {
        assert!(!point.dominated);
        assert!(report.contains('*'), "{report}");
    }
}

// ---------------------------------------------------------------------
// Truncation honesty.

/// The branching 8-node DAG from the optimality battery: under a low
/// communication weight its MILP root relaxation is fractional, and
/// `max_nodes = 12` truncates the branch & bound with an incumbent.
#[test]
fn truncated_points_carry_their_gap() {
    let g = random_dag(RandomDagConfig {
        nodes: 8,
        seed: 7,
        ..Default::default()
    });
    let options = FlowOptions {
        partitioner: Partitioner::Milp(MilpOptions {
            objective: Objective::blend(1.0, 0.1, 0.05),
            max_nodes: 12,
            ..Default::default()
        }),
        ..FlowOptions::quick()
    };
    // Budget 196 reproduces the stock fuzzy board, where max_nodes = 12
    // reliably truncates; looser budgets ride along.
    let front = sweep(&g, &options, 1, None, &[196]);
    assert_eq!(front.truncated_points(), 1, "{}", front.report());
    let point = &front.points()[0];
    assert!(point.is_truncated());
    let gap = point.gap().expect("a truncated point must carry its gap");
    assert!(gap >= 0.0, "gap {gap} must be a sane ratio");
    let report = front.report();
    assert!(report.contains("node-limit truncated"), "{report}");
    assert!(report.contains("warning:"), "{report}");
    let csv = front.to_csv();
    let row = csv.lines().nth(1).unwrap();
    assert!(
        row.contains(&format!("{gap:.6}")),
        "the CSV gap column must quantify the truncation: {row}"
    );
}

#[test]
fn objective_override_is_reflected_in_the_front_label() {
    let g = workloads::equalizer(2);
    let options = FlowOptions::quick().with_objective(Objective::Area);
    let front = sweep(&g, &options, 1, None, &[32, 96]);
    assert_eq!(front.objective(), "area");
    assert!(
        front.report().contains("objective area"),
        "{}",
        front.report()
    );
}

// ---------------------------------------------------------------------
// Certified reuse.

fn milp_sweep_options(scheme: CommScheme) -> FlowOptions {
    FlowOptions {
        partitioner: Partitioner::Milp(MilpOptions::default()),
        scheme,
        ..FlowOptions::default()
    }
}

/// `count` seeded budgets in `4..=196`, duplicates allowed.
fn seeded_budgets(seed: u64, count: usize) -> Vec<u32> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..count)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            4 + (x % 193) as u32
        })
        .collect()
}

/// Every point of a sweep — reused or solved, at `jobs` 1 and 2 — is the
/// partition a fresh solve of that point returns, `work_units`
/// included. Small designs only: under `direct`, `fir` from 6 taps and
/// `state_machine(6, 2)` expand trees of hundreds to thousands of nodes
/// per point. The random DAGs also run on the single-FPGA board, where
/// an optimum with hardware in use has no mirror image to tie with: it
/// can be certified and then no longer fit a tighter point.
#[test]
fn certified_reuse_matches_fresh_solves_at_every_point() {
    let mut cases: Vec<(cool_ir::PartitioningGraph, Target)> = [
        workloads::equalizer(2),
        workloads::equalizer(3),
        workloads::fir(3),
        workloads::fir(4),
        workloads::iir(1),
        workloads::iir(2),
        workloads::incremental(3, 7),
        workloads::incremental(4, 11),
        workloads::state_machine(2, 2),
        workloads::multirate(4, 2, 1),
    ]
    .into_iter()
    .map(|g| (g, Target::fuzzy_board()))
    .collect();
    for (nodes, seed) in [(8, 1), (8, 2), (8, 3), (8, 4), (10, 2)] {
        let g = random_dag(RandomDagConfig {
            nodes,
            inputs: 2,
            outputs: 2,
            seed,
        });
        cases.push((g.clone(), Target::fuzzy_board()));
        cases.push((g, Target::minimal()));
    }
    let (mut points, mut reused) = (0, 0);
    for (i, (g, board)) in cases.iter().enumerate() {
        let cost = CostModel::new(g, board);
        let clbs = seeded_budgets(i as u64, 6);
        for scheme in [CommScheme::MemoryMapped, CommScheme::Direct] {
            let sweep = |jobs: usize| {
                FlowSession::new(g)
                    .target(board.clone())
                    .options(milp_sweep_options(scheme))
                    .jobs(jobs)
                    .pareto(budgets(&clbs))
                    .unwrap()
            };
            let (serial, parallel) = (sweep(1), sweep(2));
            let point_options = MilpOptions {
                scheme,
                ..MilpOptions::default()
            };
            for ((a, b), &clb) in serial.points().iter().zip(parallel.points()).zip(&clbs) {
                let target = BudgetConstraint::new(clb).apply(board);
                let fresh = milp::partition(g, &cost.retarget(&target), &point_options).unwrap();
                let what = format!(
                    "{} on {} FPGA(s) under {scheme:?} @{clb}",
                    g.name(),
                    board.hw.len()
                );
                assert_eq!(a.partition, fresh, "{what}, jobs 1");
                assert_eq!(b.partition, fresh, "{what}, jobs 2");
            }
            assert_eq!(
                serial.milp_solves() + serial.milp_reused(),
                clbs.len(),
                "every point of a cold sweep either solves or reuses"
            );
            points += clbs.len();
            reused += serial.milp_reused();
        }
    }
    assert!(
        reused * 2 >= points,
        "the certificate must keep firing: {reused} of {points} points reused"
    );
}

/// The benchmark's `explore` sweep (15 budgets `16..128:8`) of each of
/// its eight designs solves the loosest point and reuses that optimum
/// at the other 14 at `jobs` 1; a warm re-sweep restores every point
/// and does neither.
#[test]
fn explore_sweeps_solve_once_and_reuse_fourteen_times() {
    let designs = [
        workloads::equalizer(8),
        workloads::fir(16),
        workloads::dct8(),
        workloads::incremental(8, 2),
        workloads::incremental(16, 19),
        workloads::state_machine(6, 2),
        workloads::multirate(8, 3, 2),
        random_dag(RandomDagConfig {
            nodes: 24,
            inputs: 3,
            outputs: 2,
            seed: 1,
        }),
    ];
    let clbs: Vec<u32> = (16..=128).step_by(8).collect();
    let options = milp_sweep_options(CommScheme::MemoryMapped);
    for g in &designs {
        let cache = StageCache::default();
        let cold = sweep(g, &options, 1, Some(&cache), &clbs);
        assert_eq!(
            (cold.milp_solves(), cold.milp_reused()),
            (1, 14),
            "{}",
            g.name()
        );
        let warm = sweep(g, &options, 1, Some(&cache), &clbs);
        assert_eq!(
            (warm.milp_solves(), warm.milp_reused()),
            (0, 0),
            "{}",
            g.name()
        );
        assert_eq!(warm.to_csv(), cold.to_csv());
    }
}
