//! The simplex's anti-cycling guard: a cycling-prone degenerate
//! instance must terminate far under the pivot budget with steepest
//! edge still doing the bulk of the work — the stall counter may
//! *visit* Bland's rule, never move in.

use cool_ilp::simplex::{solve_lp_opts, LpOptions, SimplexWorkspace, DEFAULT_MAX_PIVOTS};
use cool_ilp::{Cmp, Problem, VarId};

#[test]
fn cycling_prone_instance_terminates_without_permanent_bland_fallback() {
    // A nested stack of mutually redundant capacity rows — the classic
    // shape that stalls naive Dantzig pricing in degenerate pivots. The
    // LP must terminate far under the budget, and the stall counter must
    // have handed at most a minority of pivots to Bland's rule: the
    // fallback is an escape hatch that re-arms, not a one-way door.
    let mut p = Problem::minimize();
    let n = 16;
    let vars: Vec<VarId> = (0..n).map(|_| p.add_continuous(0.0, 1.0, -1.0)).collect();
    for k in 1..=n {
        let terms: Vec<(VarId, f64)> = vars.iter().take(k).map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Cmp::Le, k as f64 / 2.0);
        // A parallel family of scaled duplicates thickens the degeneracy.
        let scaled: Vec<(VarId, f64)> = vars.iter().take(k).map(|&v| (v, 2.0)).collect();
        p.add_constraint(&scaled, Cmp::Le, k as f64);
    }
    let mut ws = SimplexWorkspace::new();
    let sol = solve_lp_opts(&p, &[], &mut ws, &LpOptions::default())
        .expect("degenerate stack is feasible");
    assert!(sol.objective.is_finite());
    let stats = ws.stats();
    assert!(
        stats.pivots < DEFAULT_MAX_PIVOTS / 10,
        "degenerate stack must terminate far under the budget: {stats:?}"
    );
    assert!(
        stats.bland_pivots <= stats.pivots / 2,
        "Bland fallback must not take over the solve: {stats:?}"
    );
}
