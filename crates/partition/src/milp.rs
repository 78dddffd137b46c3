//! Exact MILP partitioning (after Niemann & Marwedel, DAES 1997).
//!
//! Decision variables `x[n][r] ∈ {0,1}` assign function node `n` to
//! resource `r`; continuous indicators `y[e] ∈ [0,1]` capture whether edge
//! `e` is *cut* (its endpoints sit on different resources), linearized as
//! `y_e ≥ x[u][r] − x[v][r]` for every resource `r`. Primary I/O nodes are
//! fixed on the first processor (they are serviced by the synthesized I/O
//! controller). Per-FPGA CLB capacities bound the hardware side.
//!
//! The objective is the classical weighted proxy
//! `Σ time·exec + Σ comm·cut + Σ area·hw`: exact makespan would require
//! scheduling variables, which the original formulation also approximates.
//! The returned mapping is re-evaluated with the real list scheduler.

use cool_cost::{CommScheme, CostModel};
use cool_ilp::{Cmp, Problem, SolveOptions, VarId};
use cool_ir::{NodeKind, Objective, PartitioningGraph, Resource};

use crate::{Algorithm, PartitionError, PartitionResult};

/// Objective and limits for the MILP partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpOptions {
    /// What to minimize. Resolves to the `(time, comm, area)` weight
    /// triple of the proxy objective via [`Objective::weights`]; the
    /// default [`Objective::Makespan`] reproduces the historical
    /// weights `(1.0, 1.0, 0.05)` exactly.
    pub objective: Objective,
    /// Branch & bound node limit.
    pub max_nodes: usize,
    /// Simplex pivot budget per LP relaxation. Under steepest-edge
    /// pricing even degenerate low-comm-weight instances
    /// stay far from this; exhausting the budget surfaces as a truthful
    /// [`cool_ilp::IlpError::PivotLimit`] (never a spurious `Unbounded`).
    pub max_pivots: usize,
    /// Communication scheme assumed for edge costs. The engine threads
    /// `FlowOptions::scheme` through here.
    pub scheme: CommScheme,
    /// Worker threads for the branch & bound search (`1` = serial, `0` =
    /// all cores). The engine threads `FlowOptions::jobs` through here.
    /// Never changes the returned colouring of a *completed* solve, only
    /// wall-clock; a node-limit-truncated incumbent can depend on worker
    /// scheduling (and says so via `Optimality::LimitReached`).
    pub jobs: usize,
}

impl Default for MilpOptions {
    fn default() -> MilpOptions {
        MilpOptions {
            objective: Objective::Makespan,
            max_nodes: 50_000,
            max_pivots: cool_ilp::simplex::DEFAULT_MAX_PIVOTS,
            scheme: CommScheme::MemoryMapped,
            jobs: 1,
        }
    }
}

/// The quantified optimality gap a truncated solve carries, `None` for
/// completed ones (the gap is 0 by proof, and reports should not print a
/// vacuous "within 0 %").
pub(crate) fn truncation_gap(sol: &cool_ilp::Solution) -> Option<f64> {
    (sol.status == cool_ilp::Status::LimitReached).then(|| sol.optimality_gap())
}

/// Partition `g` by solving the MILP exactly.
///
/// # Errors
///
/// [`PartitionError::Infeasible`] when no assignment satisfies the CLB
/// budgets, [`PartitionError::Ilp`] for solver limits.
pub fn partition(
    g: &PartitioningGraph,
    cost: &CostModel,
    options: &MilpOptions,
) -> Result<PartitionResult, PartitionError> {
    let target = cost.target();
    let resources = target.resources();
    let r_count = resources.len();
    let functions = g.function_nodes();
    let (time_weight, comm_weight, area_weight) = options.objective.weights();

    let mut p = Problem::minimize();
    // x[n][r] for function nodes only; dense index into `functions`.
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(functions.len());
    for &n in &functions {
        let mut row = Vec::with_capacity(r_count);
        for &r in &resources {
            let exec = cost.exec_cycles(n, r) as f64;
            let area = match r {
                Resource::Hardware(_) => cost.hw_area_clbs(n) as f64,
                Resource::Software(_) => 0.0,
            };
            row.push(p.add_binary(time_weight * exec + area_weight * area));
        }
        // Exactly one resource per node.
        let terms: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Cmp::Eq, 1.0);
        x.push(row);
    }

    // CLB capacity per hardware resource.
    for (h, hw) in target.hw.iter().enumerate() {
        let r_index = resources
            .iter()
            .position(|&r| r == Resource::Hardware(h))
            .expect("hardware resource enumerated");
        let terms: Vec<(VarId, f64)> = functions
            .iter()
            .enumerate()
            .map(|(fi, &n)| (x[fi][r_index], f64::from(cost.hw_area_clbs(n))))
            .collect();
        p.add_constraint(&terms, Cmp::Le, f64::from(hw.clb_capacity));
    }

    // Cut indicators. I/O nodes are fixed on Software(0) == resources[0].
    let fun_index = |n: cool_ir::NodeId| functions.iter().position(|&f| f == n);
    for (_, e) in g.edges() {
        let u = fun_index(e.src);
        let v = fun_index(e.dst);
        let comm = comm_weight * cost.comm_cycles(e, options.scheme) as f64;
        if comm == 0.0 {
            continue;
        }
        let y = p.add_continuous(0.0, 1.0, comm);
        match (u, v) {
            (Some(ui), Some(vi)) => {
                for (&xu, &xv) in x[ui].iter().zip(&x[vi]).take(r_count) {
                    p.add_constraint(&[(y, 1.0), (xu, -1.0), (xv, 1.0)], Cmp::Ge, 0.0);
                    p.add_constraint(&[(y, 1.0), (xv, -1.0), (xu, 1.0)], Cmp::Ge, 0.0);
                }
            }
            (Some(ui), None) => {
                // Consumer fixed on resources[0]: cut iff u not on r0.
                p.add_constraint(&[(y, 1.0), (x[ui][0], 1.0)], Cmp::Ge, 1.0);
            }
            (None, Some(vi)) => {
                p.add_constraint(&[(y, 1.0), (x[vi][0], 1.0)], Cmp::Ge, 1.0);
            }
            (None, None) => {
                // Both I/O: same resource, never cut.
            }
        }
    }

    let sol = p.solve(&SolveOptions {
        max_nodes: options.max_nodes,
        max_pivots: options.max_pivots,
        jobs: options.jobs,
    })?;

    // Extract mapping.
    let mut mapping = crate::all_software(g);
    for (fi, &n) in functions.iter().enumerate() {
        let ri = (0..r_count)
            .find(|&ri| sol.int_value(x[fi][ri]) == 1)
            .ok_or_else(|| {
                PartitionError::Infeasible(format!("MILP produced no assignment for {n}"))
            })?;
        mapping.assign(n, resources[ri]);
    }
    for (id, node) in g.nodes() {
        if node.kind() != NodeKind::Function {
            mapping.assign(id, Resource::Software(0));
        }
    }

    // Canonical unit labels: interchangeable hardware units (same CLB
    // budget, same per-node execution cost) make every colouring one
    // representative of a label-permutation orbit, and which
    // representative the B&B lands on depends on the LP pivot path.
    // Relabelling each orbit in first-hosted-node order is cost-neutral
    // (identical units) and collapses the orbit to one canonical
    // mapping. A post-pass is deliberate: model-level symmetry rows
    // make the LPs pathologically degenerate.
    let n_hw = target.hw.len();
    let mut orbit_of: Vec<usize> = (0..n_hw).collect();
    for h in 1..n_hw {
        orbit_of[h] = (0..h)
            .find(|&o| {
                orbit_of[o] == o
                    && target.hw[o].clb_capacity == target.hw[h].clb_capacity
                    && functions.iter().all(|&n| {
                        cost.exec_cycles(n, Resource::Hardware(o))
                            == cost.exec_cycles(n, Resource::Hardware(h))
                    })
            })
            .unwrap_or(h);
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_hw];
    for h in 0..n_hw {
        members[orbit_of[h]].push(h);
    }
    let mut relabel: Vec<Option<usize>> = vec![None; n_hw];
    let mut cursor = vec![0usize; n_hw];
    for &n in &functions {
        if let Resource::Hardware(h) = mapping.resource(n) {
            let root = orbit_of[h];
            let new = *relabel[h].get_or_insert_with(|| {
                let label = members[root][cursor[root]];
                cursor[root] += 1;
                label
            });
            if new != h {
                mapping.assign(n, Resource::Hardware(new));
            }
        }
    }

    let (makespan, hw_area) = crate::evaluate(g, &mapping, cost, options.scheme)?;
    Ok(PartitionResult {
        mapping,
        algorithm: Algorithm::Milp,
        // A node-limit-truncated incumbent is NOT the MILP optimum; the
        // claim must travel with the result rather than being dropped
        // here (which is exactly what used to happen).
        optimality: sol.status.into(),
        gap: truncation_gap(&sol),
        makespan,
        hw_area,
        work_units: sol.nodes_explored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_ir::Target;
    use cool_spec::workloads;

    #[test]
    fn partitions_small_equalizer() {
        let g = workloads::equalizer(2);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(&g, &cost, &MilpOptions::default()).unwrap();
        assert!(res.makespan > 0);
        // Feasible: respects both FPGA budgets.
        for (used, hw) in res.hw_area.iter().zip(&cost.target().hw) {
            assert!(*used <= hw.clb_capacity);
        }
    }

    #[test]
    fn beats_or_matches_all_software() {
        let g = workloads::equalizer(2);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(&g, &cost, &MilpOptions::default()).unwrap();
        let all_sw = crate::all_software(&g);
        let (sw_makespan, _) =
            crate::evaluate(&g, &all_sw, &cost, CommScheme::MemoryMapped).unwrap();
        // The proxy objective does not guarantee makespan dominance, but on
        // this tiny DSP-friendly design it must not be absurdly worse.
        assert!(
            res.makespan <= sw_makespan * 2,
            "{} vs {sw_makespan}",
            res.makespan
        );
    }

    #[test]
    fn respects_tight_area_budget() {
        let g = workloads::equalizer(2);
        let mut target = Target::fuzzy_board();
        target.hw[0].clb_capacity = 1; // nothing fits
        target.hw[1].clb_capacity = 1;
        let cost = CostModel::new(&g, &target);
        let res = partition(&g, &cost, &MilpOptions::default()).unwrap();
        assert_eq!(res.hardware_nodes(&g), 0, "nothing can fit 1 CLB");
    }

    #[test]
    fn pivot_exhaustion_reports_pivot_limit_on_large_graph() {
        // Regression, part 1: a degenerate low-comm-weight MILP past 20
        // graph nodes used to surface a pivot-limit exhaustion as
        // `Unbounded` (a partitioning MILP is never unbounded — every
        // variable is a bounded binary or a [0,1] cut indicator). With a
        // starved pivot budget the error must be the truthful
        // `PivotLimit`.
        let g = workloads::random_dag(cool_spec::workloads::RandomDagConfig {
            nodes: 24,
            seed: 11,
            ..Default::default()
        });
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let starved = MilpOptions {
            objective: Objective::blend(1.0, 0.01, 0.05),
            max_pivots: 10,
            ..Default::default()
        };
        let err = partition(&g, &cost, &starved).unwrap_err();
        assert!(
            matches!(
                err,
                crate::PartitionError::Ilp(cool_ilp::IlpError::PivotLimit)
            ),
            "starved pivots must report PivotLimit, got: {err}"
        );
    }

    #[test]
    fn degenerate_instance_solves_to_optimality_under_default_budgets() {
        // Regression, part 2 (tightened from "reports PivotLimit
        // honestly"): with steepest-edge pricing a >20-node degenerate
        // low-comm-weight instance no longer walks Bland's rule toward
        // the 100k budget — it must solve to *proven optimality* under
        // the unmodified default budgets. The instance is the committed CI smoke spec
        // (`examples/specs/degenerate21.cool`); it is the calibrated
        // fast point of the degenerate family the PR-5 test drew from —
        // the family's harder members take minutes even post-rework
        // (tree size, not pivots), which a unit test cannot afford.
        let g = workloads::random_dag(cool_spec::workloads::RandomDagConfig {
            nodes: 21,
            seed: 75,
            ..Default::default()
        });
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let defaults = MilpOptions {
            objective: Objective::blend(1.0, 0.05, 0.05),
            ..Default::default()
        };
        let res = partition(&g, &cost, &defaults).unwrap();
        assert_eq!(
            res.optimality,
            crate::Optimality::Optimal,
            "degenerate 21-node instance must solve to proven optimality"
        );
    }

    #[test]
    fn truncated_solve_quantifies_its_gap() {
        // A truncated exact solve carries the frontier's best remaining
        // bound out as a relative gap, and the label says "within x %".
        let g = workloads::random_dag(cool_spec::workloads::RandomDagConfig {
            nodes: 8,
            seed: 7,
            ..Default::default()
        });
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let truncated = MilpOptions {
            objective: Objective::blend(1.0, 0.1, 0.05),
            max_nodes: 12,
            ..Default::default()
        };
        let res = partition(&g, &cost, &truncated).unwrap();
        assert_eq!(res.optimality, crate::Optimality::LimitReached);
        let gap = res.gap.expect("truncated solves carry a gap");
        assert!(gap >= 0.0, "gap {gap}");
        assert!(
            res.optimality_label().contains("within"),
            "{}",
            res.optimality_label()
        );
        // A completed solve carries no gap and a plain label.
        let complete = partition(&g, &cost, &MilpOptions::default()).unwrap();
        assert_eq!(complete.gap, None);
        assert_eq!(complete.optimality_label(), "optimal");
    }

    #[test]
    fn comm_weight_discourages_cuts() {
        let g = workloads::equalizer(2);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let heavy = MilpOptions {
            objective: Objective::blend(1.0, 1000.0, 0.05),
            ..Default::default()
        };
        let res = partition(&g, &cost, &heavy).unwrap();
        // With overwhelming comm penalty everything lands on one resource.
        let cut = res.mapping.cut_edges(&g).len();
        assert_eq!(cut, 0, "expected an uncut partition, got {cut} cut edges");
    }
}
