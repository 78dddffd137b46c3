//! A small mixed integer linear programming (MILP) substrate.
//!
//! COOL performs hardware/software partitioning by solving a MILP
//! (Niemann & Marwedel, *An Algorithm for Hardware/Software Partitioning
//! using Mixed Integer Linear Programming*, DAES 1997 — reference \[4\] of
//! the reproduced paper). No MILP solver exists in the allowed dependency
//! set, so this crate implements one from scratch:
//!
//! * a **two-phase dense primal simplex** for the LP relaxation
//!   ([`simplex`]) on a flat stride-indexed tableau, with steepest-edge
//!   pricing and a Bland's-rule fallback while the objective stalls,
//!   basis warm starts for re-solves one bound flip apart, and
//!   row-parallel pricing/update kernels, and
//! * **branch & bound** over the binary variables ([`branch_bound`]),
//!   most-fractional branching, best-bound pruning and node limits,
//!   child LPs warm-started from the parent's optimal basis; parallel
//!   under [`SolveOptions::jobs`] with deterministic best-bound
//!   merging (lower objective first, lexicographically smallest
//!   assignment on ties), so the returned [`Solution`] is identical for
//!   every worker count.
//!
//! The solver is deliberately sized for co-design instances (hundreds of
//! variables and constraints), not for industrial LPs.
//!
//! # Example
//!
//! ```
//! use cool_ilp::{Cmp, Problem, SolveOptions};
//!
//! # fn main() -> Result<(), cool_ilp::IlpError> {
//! // Knapsack: max 3a + 4b  s.t. 2a + 3b <= 4  ==  min -3a - 4b.
//! let mut p = Problem::minimize();
//! let a = p.add_binary(-3.0);
//! let b = p.add_binary(-4.0);
//! p.add_constraint(&[(a, 2.0), (b, 3.0)], Cmp::Le, 4.0);
//! let sol = p.solve(&SolveOptions::default())?;
//! assert_eq!(sol.objective.round() as i64, -4); // picks b
//! # Ok(())
//! # }
//! ```

pub mod branch_bound;
pub mod simplex;

use std::fmt;

/// Comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `sum a_i x_i <= b`
    Le,
    /// `sum a_i x_i >= b`
    Ge,
    /// `sum a_i x_i == b`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        })
    }
}

/// Index of a decision variable within one [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of the variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Kind and bounds of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarKind {
    /// Binary 0/1 variable (subject to branch & bound).
    Binary,
    /// Continuous variable with inclusive bounds `lo <= x <= hi`, `lo >= 0`.
    Continuous {
        /// Lower bound (must be >= 0; shift your model if necessary).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal (within tolerances).
    Optimal,
    /// No feasible assignment exists.
    Infeasible,
    /// The relaxation is unbounded below.
    Unbounded,
    /// Node or iteration limit hit; `Solution` carries the incumbent if any.
    LimitReached,
}

/// Errors surfaced by the solver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IlpError {
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The simplex pivot budget ([`SolveOptions::max_pivots`]) was
    /// exhausted before an LP solve terminated. Distinct from
    /// [`IlpError::Unbounded`]: an unbounded ray is a property of the
    /// *model*, while a pivot-limit exhaustion is a property of the
    /// *search* (degenerate instances cycling through near-tie bases), and
    /// the remedies differ — reformulate vs. raise the budget.
    PivotLimit,
    /// The node limit was exhausted before any integer-feasible solution
    /// was found.
    NoIncumbent,
    /// A constraint referenced an unknown variable id.
    UnknownVar(usize),
    /// A continuous variable was declared with `lo > hi` or `lo < 0`.
    BadBounds {
        /// The offending variable.
        var: usize,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Infeasible => f.write_str("problem is infeasible"),
            IlpError::Unbounded => f.write_str("objective is unbounded"),
            IlpError::PivotLimit => {
                f.write_str("simplex pivot limit exhausted (degenerate instance; raise max_pivots)")
            }
            IlpError::NoIncumbent => {
                f.write_str("node limit reached before an integer solution was found")
            }
            IlpError::UnknownVar(v) => write!(f, "constraint references unknown variable x{v}"),
            IlpError::BadBounds { var } => write!(f, "variable x{var} has invalid bounds"),
        }
    }
}

impl std::error::Error for IlpError {}

/// A MILP in minimization form.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) costs: Vec<f64>,
    pub(crate) kinds: Vec<VarKind>,
    pub(crate) constraints: Vec<Constraint>,
}

/// Knobs for [`Problem::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Maximum branch & bound nodes to explore.
    pub max_nodes: usize,
    /// Maximum simplex pivots per LP solve. Exhausting the budget surfaces
    /// as [`IlpError::PivotLimit`] (degenerate instances cycling through
    /// near-tie bases), never as a spurious [`IlpError::Unbounded`].
    pub max_pivots: usize,
    /// Worker threads for the branch & bound search (`1` = serial, `0` =
    /// all available cores). For a search that runs to completion
    /// ([`Status::Optimal`]) the returned objective, values and status
    /// are identical for every worker count — only wall-clock and
    /// `nodes_explored` change — thanks to the deterministic best-bound
    /// merge in [`branch_bound`]. A node-limit-truncated search returns
    /// whatever incumbent the budget reached, which under `jobs > 1`
    /// depends on worker scheduling (and is flagged
    /// [`Status::LimitReached`]).
    pub jobs: usize,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            max_nodes: 200_000,
            max_pivots: simplex::DEFAULT_MAX_PIVOTS,
            jobs: 1,
        }
    }
}

/// The result of a successful solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Objective value of the returned assignment.
    pub objective: f64,
    /// Value per variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Whether optimality was proven or a limit intervened.
    pub status: Status,
    /// The best (lowest) LP bound among the subtrees the search had not
    /// finished exploring when it stopped — a valid lower bound on the
    /// true optimum. Equal to `objective` for a completed
    /// ([`Status::Optimal`]) solve; strictly informative for
    /// [`Status::LimitReached`], where `objective - best_bound` bounds how
    /// far the incumbent can be from optimal. (For a truncated solve under
    /// `jobs > 1` the value depends on worker scheduling, exactly like the
    /// incumbent itself.)
    pub best_bound: f64,
    /// Branch & bound nodes explored.
    pub nodes_explored: usize,
    /// Total simplex pivots priced across every LP the search solved
    /// (primal and dual; warm-start basis refactorizations excluded).
    /// Diagnostic only — like `nodes_explored` it varies with `jobs`
    /// even when the solution does not.
    pub pivots: usize,
}

impl Solution {
    /// The value of `v`, rounded to the nearest integer (for binaries).
    #[must_use]
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.0].round() as i64
    }

    /// The raw value of `v`.
    #[must_use]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Relative optimality gap: how far (as a fraction of the larger of
    /// the incumbent's and the bound's magnitudes — the standard MIP gap
    /// normalization, which stays meaningful when the incumbent objective
    /// is near zero) the true optimum can lie below the returned
    /// incumbent, derived from [`Solution::best_bound`]. `0.0` for a
    /// completed solve; "the incumbent is within `gap × 100` % of
    /// optimal" for a truncated one.
    #[must_use]
    pub fn optimality_gap(&self) -> f64 {
        let slack = (self.objective - self.best_bound).max(0.0);
        if slack == 0.0 {
            0.0
        } else {
            slack / self.objective.abs().max(self.best_bound.abs()).max(1e-9)
        }
    }
}

impl Problem {
    /// Create an empty minimization problem.
    #[must_use]
    pub fn minimize() -> Problem {
        Problem::default()
    }

    /// Add a binary decision variable with objective coefficient `cost`.
    pub fn add_binary(&mut self, cost: f64) -> VarId {
        self.costs.push(cost);
        self.kinds.push(VarKind::Binary);
        VarId(self.costs.len() - 1)
    }

    /// Add a continuous variable `lo <= x <= hi` with coefficient `cost`.
    ///
    /// Bounds are validated at solve time ([`IlpError::BadBounds`]).
    pub fn add_continuous(&mut self, lo: f64, hi: f64, cost: f64) -> VarId {
        self.costs.push(cost);
        self.kinds.push(VarKind::Continuous { lo, hi });
        VarId(self.costs.len() - 1)
    }

    /// Add the linear constraint `sum coeff*var cmp rhs`.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.iter().map(|&(v, c)| (v.0, c)).collect(),
            cmp,
            rhs,
        });
    }

    /// Number of decision variables.
    #[must_use]
    pub fn var_count(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Solve to proven optimality (or until the node limit).
    ///
    /// # Errors
    ///
    /// [`IlpError::Infeasible`] / [`IlpError::Unbounded`] for hopeless
    /// models, [`IlpError::NoIncumbent`] if the node limit is hit before
    /// any integer-feasible point is found, [`IlpError::UnknownVar`] /
    /// [`IlpError::BadBounds`] for malformed models.
    pub fn solve(&self, options: &SolveOptions) -> Result<Solution, IlpError> {
        self.check()?;
        branch_bound::solve(self, options)
    }

    fn check(&self) -> Result<(), IlpError> {
        for (i, k) in self.kinds.iter().enumerate() {
            if let VarKind::Continuous { lo, hi } = k {
                if *lo < 0.0 || lo > hi {
                    return Err(IlpError::BadBounds { var: i });
                }
            }
        }
        for c in &self.constraints {
            for &(v, _) in &c.terms {
                if v >= self.costs.len() {
                    return Err(IlpError::UnknownVar(v));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_optimum() {
        let mut p = Problem::minimize();
        let a = p.add_binary(-3.0);
        let b = p.add_binary(-4.0);
        p.add_constraint(&[(a, 2.0), (b, 3.0)], Cmp::Le, 4.0);
        let sol = p.solve(&SolveOptions::default()).unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.objective.round() as i64, -4);
        assert_eq!(sol.int_value(b), 1);
        assert_eq!(sol.int_value(a), 0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        p.add_constraint(&[(a, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(
            p.solve(&SolveOptions::default()).unwrap_err(),
            IlpError::Infeasible
        );
    }

    #[test]
    fn bad_bounds_detected() {
        let mut p = Problem::minimize();
        let _ = p.add_continuous(5.0, 1.0, 0.0);
        assert!(matches!(
            p.solve(&SolveOptions::default()),
            Err(IlpError::BadBounds { .. })
        ));
    }

    #[test]
    fn unknown_var_detected() {
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        let ghost = VarId(7);
        p.add_constraint(&[(a, 1.0), (ghost, 1.0)], Cmp::Le, 1.0);
        assert_eq!(
            p.solve(&SolveOptions::default()).unwrap_err(),
            IlpError::UnknownVar(7)
        );
    }

    #[test]
    fn continuous_lp() {
        // min -x - y  s.t. x + y <= 10, x in [0,6], y in [0,7] => -10.
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 6.0, -1.0);
        let y = p.add_continuous(0.0, 7.0, -1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        let sol = p.solve(&SolveOptions::default()).unwrap();
        assert!(
            (sol.objective + 10.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn equality_constraints() {
        // min x + y  s.t. x + y = 5, x - y = 1  => (3, 2), objective 5.
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 100.0, 1.0);
        let y = p.add_continuous(0.0, 100.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let sol = p.solve(&SolveOptions::default()).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
        assert!((sol.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn assignment_milp() {
        // Assign 3 items to 2 bins minimizing cost, each item exactly once,
        // bin capacity 2 items.
        let costs = [[1.0, 3.0], [2.0, 1.0], [3.0, 2.0]];
        let mut p = Problem::minimize();
        let mut x = Vec::new();
        for item_costs in costs {
            let row: Vec<VarId> = item_costs.iter().map(|&c| p.add_binary(c)).collect();
            p.add_constraint(&[(row[0], 1.0), (row[1], 1.0)], Cmp::Eq, 1.0);
            x.push(row);
        }
        for bin in 0..2 {
            let terms: Vec<(VarId, f64)> = x.iter().map(|row| (row[bin], 1.0)).collect();
            p.add_constraint(&terms, Cmp::Le, 2.0);
        }
        let sol = p.solve(&SolveOptions::default()).unwrap();
        // Optimal: item0->bin0 (1), item1->bin1 (1), item2->bin1 (2) = 4.
        assert_eq!(sol.objective.round() as i64, 4);
    }
}
