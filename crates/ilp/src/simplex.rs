//! Two-phase dense simplex for the LP relaxation — flat tableau,
//! steepest-edge pricing, basis warm starts, row-parallel kernels.
//!
//! The tableau is one row-major `Vec<f64>` (stride-indexed) inside a
//! [`SimplexWorkspace`], so every pivot and pricing pass is a contiguous
//! slice operation instead of a `Vec<Vec<f64>>` pointer chase, and the
//! backing buffers are recycled across calls: branch & bound threads one
//! workspace through every node of its search, which removes both the
//! allocation churn *and* the cache misses of the MILP partitioners.
//!
//! Four solver paths share the build:
//!
//! * **Cold two-phase primal** ([`solve_lp_opts`]): phase 1 drives the
//!   infeasibilities out, phase 2 optimizes. The entering column is
//!   chosen by steepest edge — `d_j² / (1 + ‖B⁻¹A_j‖²)`, which takes
//!   orders of magnitude fewer pivots than Bland's rule on degenerate
//!   instances — with a no-objective-progress counter that falls back
//!   to Bland's rule after `STALL_LIMIT` stalled pivots (and re-engages
//!   steepest edge once the objective moves again), so termination
//!   stays guaranteed without paying Bland's walk everywhere. Artificial variables are *virtual*:
//!   a row that cannot start on its slack carries a "marker" basis entry
//!   instead of a stored column — phase 1 never prices the artificials
//!   (they may only leave), so their columns need not exist, which cuts
//!   the tableau width from `n + 2m + 1` to `n + m + 1`.
//! * **Warm dual** ([`solve_lp_warm`]): branch & bound re-solves a child
//!   LP from the parent's optimal basis. The parent basis stays *dual*
//!   feasible after a bound flip, so the child usually re-solves in a
//!   handful of dual pivots instead of a cold two-phase solve. Marker
//!   entries (dependent rows) are accepted and stay inert. Any numerical
//!   trouble — a singular re-factorization, an inconsistent dependent
//!   row, or a dual repair that overruns its pivot cap — falls back to
//!   the cold path, deterministically.
//! * **In-place delta re-solve** (`solve_lp_delta`): the immediate
//!   child on the depth-first hot path narrows exactly one bound on top
//!   of the tableau the workspace *already holds*, so the rebuild and
//!   re-factorization are skipped entirely: the RHS update is `O(m)`
//!   straight from two stored tableau columns, followed by the same
//!   capped dual repair.
//! * **Row-parallel kernels** ([`LpOptions::jobs`]): the pricing pass
//!   (reduced costs + steepest-edge norms in one traversal) and the pivot
//!   update fan rows out over scoped worker threads. Determinism is the
//!   invariant: partial sums are accumulated over **fixed chunk
//!   boundaries** (`CHUNK` rows) and reduced in chunk-index order for
//!   *every* job count — serial runs use the identical chunked fold — so
//!   the solve is bit-for-bit identical at jobs 1/2/4.
//!
//! The column layout is uniform and fixing-independent — `n` structurals,
//! one slack per row, the RHS — so a basis (a set of column indices)
//! stored at a parent node stays meaningful for every child rebuild.

use crate::{Cmp, IlpError, Problem, VarKind};

/// Result of one LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective of the relaxation.
    pub objective: f64,
    /// Value per original decision variable.
    pub values: Vec<f64>,
}

/// Extra bounds imposed by branch & bound: `(var, lo, hi)`.
pub(crate) type Fixing = (usize, f64, f64);

const EPS: f64 = 1e-9;

/// Reduced-cost tolerance: `d_j < -PRICE_TOL` makes a column an entering
/// candidate (primal) and `rhs_i < -PRICE_TOL` a leaving candidate (dual).
const PRICE_TOL: f64 = 1e-7;

/// Default per-LP pivot budget ([`crate::SolveOptions::max_pivots`]).
/// The steepest-edge/Bland fallback pair guarantees termination, but a
/// budget still bounds pathological instances; exhausting it surfaces as
/// [`IlpError::PivotLimit`] — a property of the search, not the model.
pub const DEFAULT_MAX_PIVOTS: usize = 100_000;

/// Consecutive pivots without objective progress before steepest-edge
/// pricing hands the entering choice to Bland's rule. Bland's rule is
/// provably cycle-free, and every strict objective improvement hands
/// control back to steepest edge, so the fallback engages only while an
/// instance is actually stalled — never permanently.
const STALL_LIMIT: usize = 256;

/// Objective must drop by more than this to count as progress for the
/// anti-cycling counter.
const PROGRESS_EPS: f64 = 1e-9;

/// Fixed row-chunk width of the parallel kernels. Partial sums are
/// always accumulated per chunk and folded in chunk-index order — at
/// every job count, serial included — so floating-point results are
/// bit-identical no matter how many workers split the rows.
const CHUNK: usize = 64;

/// Minimum tableau cells (`rows × priced columns`) before a pass is
/// worth fanning out over scoped threads: below this, spawn overhead
/// eats the win and the chunked fold runs on the calling thread.
const PAR_MIN_CELLS: usize = 1 << 18;

/// Tolerance for declaring a dependent (marker-basic) row inconsistent
/// with the current bounds, and for declaring a warm pivot singular.
const WARM_TOL: f64 = 1e-7;

/// Harris ratio-test expansion: both ratio tests first compute the
/// tightest ratio *relaxed by this tolerance*, then pivot on the
/// largest-magnitude element within the relaxed limit. Degenerate ties
/// (ratio 0) are rife in partitioning LPs, and a plain
/// min-ratio/lowest-index rule happily pivots on an elimination-noise
/// element barely above [`EPS`] — one such pivot scales the tableau by
/// ~1e8 and the solve silently returns garbage. Preferring the largest
/// pivot bounds the per-step feasibility drift by this tolerance while
/// keeping every comparison exact, so the choice stays deterministic.
const HARRIS_TOL: f64 = 1e-7;

/// The uniqueness certificate's two thresholds: a reduced cost or basic
/// value at most `CERT_ZERO` counts as zero, one at least `CERT_CLEAR`
/// as clearly positive. A value in between is too close to call, and
/// the certificate declines.
const CERT_ZERO: f64 = 1e-9;
const CERT_CLEAR: f64 = 1e-6;

/// One normalized constraint row of the standard-form build.
#[derive(Debug)]
struct Row {
    coeffs: Vec<f64>,
    cmp: Cmp,
    rhs: f64,
}

/// Hand out the next pooled row, zeroed to `n` coefficient columns.
/// Rows are recycled across solves: only `used` grows the pool, so a
/// warm workspace rebuilds the standard form without allocating.
fn next_row<'a>(rows: &'a mut Vec<Row>, used: &mut usize, n: usize) -> &'a mut Row {
    if *used == rows.len() {
        rows.push(Row {
            coeffs: Vec::new(),
            cmp: Cmp::Le,
            rhs: 0.0,
        });
    }
    let row = &mut rows[*used];
    *used += 1;
    row.coeffs.clear();
    row.coeffs.resize(n, 0.0);
    row.cmp = Cmp::Le;
    row.rhs = 0.0;
    row
}

/// Knobs of one LP solve (the per-call subset of
/// [`crate::SolveOptions`]).
#[derive(Debug, Clone, Copy)]
pub struct LpOptions {
    /// Pivot budget per simplex phase; exhaustion is
    /// [`IlpError::PivotLimit`].
    pub max_pivots: usize,
    /// Worker threads for the row-parallel pricing/update kernels
    /// (`1` = serial; results are bit-identical for every value).
    pub jobs: usize,
}

impl Default for LpOptions {
    fn default() -> LpOptions {
        LpOptions {
            max_pivots: DEFAULT_MAX_PIVOTS,
            jobs: 1,
        }
    }
}

/// Cumulative pivot accounting of a workspace (across all solves since
/// the last [`SimplexWorkspace::reset_stats`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SimplexStats {
    /// Priced pivots: primal (both phases) plus dual.
    pub pivots: usize,
    /// Of `pivots`: primal pivots taken while the Bland anti-cycling
    /// fallback was engaged.
    pub bland_pivots: usize,
    /// Of `pivots`: dual-simplex pivots of warm/delta re-solves.
    pub dual_pivots: usize,
    /// Mechanical Gauss–Jordan pivots spent re-factorizing a warm basis
    /// or driving phase-1 markers out (not priced, not budget-counted).
    pub refactor_pivots: usize,
    /// Solves that re-factorized a caller-provided basis.
    pub warm_solves: usize,
    /// Solves that updated the held tableau in place (one bound delta).
    pub delta_solves: usize,
    /// Solves that built the cold two-phase start.
    pub cold_solves: usize,
    /// Warm/delta solves that had to restart cold (stale or singular
    /// basis, inconsistent dependent row, or dual-repair pivot cap).
    pub warm_fallbacks: usize,
}

/// Reusable scratch buffers for the LP solver.
///
/// A fresh workspace is an empty set of buffers; every solve resizes
/// them to the instance at hand and leaves the capacity behind for the
/// next call. Branch & bound gives each worker one workspace and
/// threads it through all its B&B nodes, so the per-node tableau build
/// costs no allocations after the first node.
///
/// After a successful solve the workspace additionally *holds* that
/// solve's final tableau, and remembers which `(problem shape, fixings)`
/// it belongs to: [`SimplexWorkspace::delta_applicable`] tells a caller
/// whether the next solve can run as an in-place `solve_lp_delta`.
#[derive(Debug, Default)]
pub struct SimplexWorkspace {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Row buffer pool; only the first `rows_used` entries are live.
    rows: Vec<Row>,
    rows_used: usize,
    /// Flat row-major tableau: `m` rows of `width` columns.
    tab: Vec<f64>,
    basis: Vec<usize>,
    cost: Vec<f64>,
    /// Reduced-cost vector `d` (pricing scratch).
    reduced: Vec<f64>,
    /// Steepest-edge column norms `γ` (pricing scratch).
    gamma: Vec<f64>,
    /// Per-chunk partial sums of the pricing pass (`n_chunks × cols`).
    chunk_d: Vec<f64>,
    chunk_g: Vec<f64>,
    /// Copy of the normalized pivot row for the parallel update pass.
    prow: Vec<f64>,
    /// Whether the held tableau is the final state of a successful solve
    /// (and therefore a valid base for `solve_lp_delta`).
    state_valid: bool,
    /// The fixings of the held tableau's solve.
    state_fixings: Vec<Fixing>,
    /// Geometry of the held tableau (`n` variables, `m` rows).
    state_n: usize,
    state_m: usize,
    stats: SimplexStats,
}

impl SimplexWorkspace {
    /// An empty workspace (buffers grow on first use).
    #[must_use]
    pub fn new() -> SimplexWorkspace {
        SimplexWorkspace::default()
    }

    /// The optimal basis of the last successful solve: one column index
    /// per tableau row (dependent rows report their virtual marker
    /// column). Feed it back through [`solve_lp_warm`] to re-solve a
    /// neighbouring LP (one bound flip away) in a handful of dual pivots.
    #[must_use]
    pub fn basis(&self) -> &[usize] {
        &self.basis
    }

    /// Whether `fixings` extends the held solve's fixings by exactly one
    /// entry — the precondition for `solve_lp_delta` (which must also
    /// see the *same* [`Problem`]).
    #[must_use]
    pub fn delta_applicable(&self, fixings: &[Fixing]) -> bool {
        self.state_valid
            && fixings.len() == self.state_fixings.len() + 1
            && fixings[..self.state_fixings.len()] == self.state_fixings[..]
    }

    /// Cumulative pivot accounting since construction or the last
    /// [`SimplexWorkspace::reset_stats`].
    #[must_use]
    pub fn stats(&self) -> SimplexStats {
        self.stats
    }

    /// Zero the pivot accounting.
    pub fn reset_stats(&mut self) {
        self.stats = SimplexStats::default();
    }

    /// Record that the held tableau is the final state of a successful
    /// solve of `(b, fixings)`.
    fn commit_state(&mut self, b: &Build, fixings: &[Fixing]) {
        self.state_valid = true;
        self.state_n = b.n;
        self.state_m = b.m;
        self.state_fixings.clear();
        self.state_fixings.extend_from_slice(fixings);
    }
}

/// Geometry of one tableau build. The column layout is uniform and
/// independent of the fixings: `0..n` structurals, `n..n+m` one slack
/// per row (zero column for `Eq` rows), `n+m` the RHS. Columns at
/// `width..width+m` are *virtual markers* — one per row, never stored,
/// never priced — standing in for the phase-1 artificial of a row whose
/// slack cannot serve as the start basis. A basis is a set of column
/// indices, so it stays meaningful across rebuilds with different
/// fixings — the load-bearing property behind warm starts.
#[derive(Debug, Clone, Copy)]
struct Build {
    n: usize,
    m: usize,
    /// RHS column index (`n + m`).
    rhs_col: usize,
    /// Row width: structurals, slacks and the RHS (`n + m + 1`).
    width: usize,
}

impl Build {
    /// The virtual marker column of `row` (basis entry only — the
    /// column itself is never materialized).
    fn marker(&self, row: usize) -> usize {
        self.width + row
    }

    fn for_state(ws: &SimplexWorkspace) -> Build {
        let (n, m) = (ws.state_n, ws.state_m);
        Build {
            n,
            m,
            rhs_col: n + m,
            width: n + m + 1,
        }
    }
}

/// Solve the LP relaxation of `p` with additional variable fixings,
/// allocating fresh scratch buffers.
///
/// Binary variables are relaxed to `[0, 1]` unless a fixing narrows them.
///
/// # Errors
///
/// [`IlpError::Infeasible`] when phase 1 cannot reach feasibility,
/// [`IlpError::Unbounded`] when phase 2 finds an unbounded ray.
pub fn solve_lp(p: &Problem, fixings: &[Fixing]) -> Result<LpSolution, IlpError> {
    solve_lp_opts(
        p,
        fixings,
        &mut SimplexWorkspace::new(),
        &LpOptions::default(),
    )
}

/// [`solve_lp`] with caller-provided scratch buffers; identical results,
/// no per-call tableau allocations once the workspace is warm.
///
/// # Errors
///
/// Same as [`solve_lp`].
pub fn solve_lp_with(
    p: &Problem,
    fixings: &[Fixing],
    ws: &mut SimplexWorkspace,
) -> Result<LpSolution, IlpError> {
    solve_lp_opts(p, fixings, ws, &LpOptions::default())
}

/// Cold solve: build the two-phase tableau and run primal simplex under
/// the given pivot budget and kernel job count.
///
/// # Errors
///
/// [`IlpError::Infeasible`] / [`IlpError::Unbounded`] for hopeless
/// relaxations, [`IlpError::PivotLimit`] when a phase exhausts
/// `opts.max_pivots`.
pub fn solve_lp_opts(
    p: &Problem,
    fixings: &[Fixing],
    ws: &mut SimplexWorkspace,
    opts: &LpOptions,
) -> Result<LpSolution, IlpError> {
    ws.state_valid = false;
    let b = build_tableau(p, fixings, ws, true)?;
    ws.stats.cold_solves += 1;

    // Phase 1: minimize the (virtual) artificial sum — the total RHS of
    // the marker-basic rows. Marker columns are never priced, so they
    // can only leave the basis; no storage for them is needed.
    let needs_phase1 = ws.basis.iter().any(|&c| c >= b.width);
    if needs_phase1 {
        ws.cost.clear();
        ws.cost.resize(b.width + b.m, 0.0);
        for i in 0..b.m {
            ws.cost[b.marker(i)] = 1.0;
        }
        let obj = run_primal(ws, &b, opts)?;
        if obj > 1e-6 {
            return Err(IlpError::Infeasible);
        }
        drive_out_markers(ws, &b, opts.jobs);
    }

    // Phase 2: original costs on the shifted structurals. Marker columns
    // are never priced, so they cannot re-enter.
    phase2_costs(p, ws, &b);
    run_primal(ws, &b, opts)?;
    let sol = extract(p, ws, &b);
    ws.commit_state(&b, fixings);
    Ok(sol)
}

/// Warm solve: rebuild the tableau for the (re-bounded) instance,
/// re-factorize the caller's basis, repair primal feasibility with a
/// pivot-capped dual simplex, then polish with primal phase 2. Falls
/// back to [`solve_lp_opts`] — deterministically — when the basis is
/// stale, numerically singular for the new bounds, inconsistent on a
/// dependent row, or when the dual repair overruns its cap.
///
/// # Errors
///
/// Same as [`solve_lp_opts`].
pub fn solve_lp_warm(
    p: &Problem,
    fixings: &[Fixing],
    ws: &mut SimplexWorkspace,
    opts: &LpOptions,
    warm_basis: &[usize],
) -> Result<LpSolution, IlpError> {
    ws.state_valid = false;
    let b = build_tableau(p, fixings, ws, false)?;
    // A usable basis names one structural-or-slack column — or the row's
    // virtual marker (dependent row) — per tableau row.
    let usable = warm_basis.len() == b.m
        && warm_basis
            .iter()
            .all(|&c| c < b.rhs_col || (c >= b.width && c < b.width + b.m));
    if !usable {
        ws.stats.warm_fallbacks += 1;
        return solve_lp_opts(p, fixings, ws, opts);
    }
    ws.stats.warm_solves += 1;

    // Re-factorize: Gauss–Jordan the stored basis back into an
    // identity. The stored entries are treated as a column *set*, not a
    // column-per-row prescription — each column (ascending order)
    // pivots into the largest-magnitude entry among still-unassigned
    // rows, i.e. partial pivoting restricted to the basis columns.
    // Pivoting column c at row r in fixed row order would demand every
    // leading minor of that ordering be nonsingular, which structured
    // bases (assignment rows) routinely violate; the set view only
    // needs the basis matrix itself to be nonsingular. These pivots are
    // mechanical (no pricing scan, not budget-counted), and every
    // compare is exact, so the factorization is deterministic.
    let mut cols: Vec<usize> = warm_basis
        .iter()
        .copied()
        .filter(|&c| c < b.rhs_col)
        .collect();
    cols.sort_unstable();
    let mut row_used = vec![false; b.m];
    for &col in &cols {
        let mut best: Option<(f64, usize)> = None;
        for (ri, used) in row_used.iter().enumerate() {
            if !used {
                let a = ws.tab[ri * b.width + col].abs();
                if a > WARM_TOL && best.map_or(true, |(ba, _)| a > ba) {
                    best = Some((a, ri));
                }
            }
        }
        let Some((_, ri)) = best else {
            // Singular for the new bounds (or a duplicated column):
            // restart cold. The trigger depends only on deterministic
            // arithmetic, so the fallback is the same on every run.
            ws.stats.warm_solves -= 1;
            ws.stats.warm_fallbacks += 1;
            return solve_lp_opts(p, fixings, ws, opts);
        };
        pivot_flat(ws, &b, ri, col, opts.jobs);
        ws.basis[ri] = col;
        row_used[ri] = true;
        ws.stats.refactor_pivots += 1;
    }
    for (ri, used) in row_used.iter().enumerate() {
        if !used {
            ws.basis[ri] = b.marker(ri);
        }
    }
    // A marker row is a dependent row: its active entries eliminated to
    // ~0 when the basis was stored. If its residual RHS is not ~0 under
    // the *new* bounds the stored basis does not address this instance —
    // restart cold rather than risking a bogus verdict.
    for ri in 0..b.m {
        if ws.basis[ri] >= b.width && ws.tab[ri * b.width + b.rhs_col].abs() > 1e-6 {
            ws.stats.warm_solves -= 1;
            ws.stats.warm_fallbacks += 1;
            return solve_lp_opts(p, fixings, ws, opts);
        }
    }

    phase2_costs(p, ws, &b);
    if !run_dual(ws, &b, opts)? {
        // Dual repair overran its pivot cap — rare, but the cold path is
        // both the correctness and the determinism anchor.
        ws.stats.warm_fallbacks += 1;
        return solve_lp_opts(p, fixings, ws, opts);
    }
    run_primal(ws, &b, opts)?;
    let sol = extract(p, ws, &b);
    ws.commit_state(&b, fixings);
    Ok(sol)
}

/// Delta solve: the workspace already holds the final tableau of a
/// successful solve of the same [`Problem`] whose fixings are a strict
/// prefix of `fixings` with exactly one new entry
/// (see [`SimplexWorkspace::delta_applicable`]). The new bound is folded
/// into the held tableau's RHS in `O(m)` — `B⁻¹Δb` is a combination of
/// two *stored* tableau columns — so no rebuild and no re-factorization
/// happen at all; the capped dual repair then restores feasibility.
///
/// # Errors
///
/// Same as [`solve_lp_opts`].
pub(crate) fn solve_lp_delta(
    p: &Problem,
    fixings: &[Fixing],
    ws: &mut SimplexWorkspace,
    opts: &LpOptions,
) -> Result<LpSolution, IlpError> {
    debug_assert!(
        ws.delta_applicable(fixings),
        "caller must gate on delta_applicable"
    );
    debug_assert_eq!(p.costs.len(), ws.state_n, "delta across different problems");
    let b = Build::for_state(ws);
    let &(v, l, h) = fixings.last().expect("delta fixing");

    let new_lo = ws.lo[v].max(l);
    let new_hi = ws.hi[v].min(h);
    if new_lo > new_hi + EPS {
        // Nothing was touched: the held state is still the parent's.
        return Err(IlpError::Infeasible);
    }
    let d_lo = new_lo - ws.lo[v];
    let d_hi = new_hi - ws.hi[v];
    ws.state_valid = false;
    ws.stats.delta_solves += 1;

    // Δb of the built system is `-Δlo·A'_v + Δhi·e_ub(v)` (every built
    // row's RHS was shifted by `-a_rv·lo_v`, and the upper-bound row of
    // `v` — row `C + v`, never sign-flipped — has RHS `hi_v - lo_v`).
    // `B⁻¹Δb` therefore reads straight off the held tableau: column `v`
    // and the slack column of the upper-bound row.
    let c = b.m - b.n + v; // row index of v's upper-bound row (C + v)
    let ub_slack = b.n + c;
    for ri in 0..b.m {
        let row = ri * b.width;
        let delta = -d_lo * ws.tab[row + v] + d_hi * ws.tab[row + ub_slack];
        ws.tab[row + b.rhs_col] += delta;
    }
    ws.lo[v] = new_lo;
    ws.hi[v] = new_hi;

    phase2_costs(p, ws, &b);
    if !run_dual(ws, &b, opts)? {
        ws.stats.warm_fallbacks += 1;
        return solve_lp_opts(p, fixings, ws, opts);
    }
    run_primal(ws, &b, opts)?;
    let sol = extract(p, ws, &b);
    ws.commit_state(&b, fixings);
    Ok(sol)
}

/// Whether the optimal vertex whose final tableau the workspace holds is
/// the *unique* optimum of its LP, decided on that tableau alone.
///
/// Only the nonbasic columns `Z` with zero reduced cost can move without
/// raising the objective (the all-zero slack columns of `Eq` rows move
/// nothing and are left out), and a move along `u ≥ 0` over `Z` stays
/// feasible exactly when it lowers no basic variable that already sits
/// at zero — the degenerate rows `D` (dependent, marker-basic rows
/// excepted). So the vertex is unique iff no `u ∈ [0,1]^Z` with `Σu = 1`
/// has `t[D,Z]·u ≤ 0`, which a tiny LP of this same simplex decides.
/// `false` whenever the tableau is not clearly optimal or a reduced cost
/// or basic value is too close to zero to call.
pub(crate) fn held_optimum_is_unique(ws: &mut SimplexWorkspace, jobs: usize) -> bool {
    if !ws.state_valid {
        return false;
    }
    let b = Build::for_state(ws);
    price_pass(ws, &b, false, jobs);
    let mut basic = vec![false; b.rhs_col];
    for &c in ws.basis.iter().filter(|&&c| c < b.rhs_col) {
        basic[c] = true;
    }
    let mut zero = Vec::new();
    for (j, &d) in ws.reduced.iter().enumerate() {
        if basic[j] || (j >= b.n && ws.rows[j - b.n].cmp == Cmp::Eq) {
            continue;
        }
        if d < -PRICE_TOL || (d > CERT_ZERO && d < CERT_CLEAR) {
            return false;
        }
        if d <= CERT_ZERO {
            zero.push(j);
        }
    }
    if zero.is_empty() {
        return true;
    }
    let mut cone = Problem::minimize();
    let u: Vec<_> = zero
        .iter()
        .map(|_| cone.add_continuous(0.0, 1.0, 0.0))
        .collect();
    let simplex: Vec<_> = u.iter().map(|&v| (v, 1.0)).collect();
    cone.add_constraint(&simplex, Cmp::Eq, 1.0);
    for ri in (0..b.m).filter(|&ri| ws.basis[ri] < b.width) {
        let row = &ws.tab[ri * b.width..(ri + 1) * b.width];
        let value = row[b.rhs_col];
        if value > CERT_ZERO && value < CERT_CLEAR {
            return false;
        }
        if value <= CERT_ZERO {
            let terms: Vec<_> = zero
                .iter()
                .zip(&u)
                .filter(|&(&j, _)| row[j].abs() > EPS)
                .map(|(&j, &v)| (v, row[j]))
                .collect();
            if !terms.is_empty() {
                cone.add_constraint(&terms, Cmp::Le, 0.0);
            }
        }
    }
    matches!(solve_lp(&cone, &[]), Err(IlpError::Infeasible))
}

/// Install the phase-2 cost vector (original costs on the structurals,
/// zero on slacks, RHS and markers).
fn phase2_costs(p: &Problem, ws: &mut SimplexWorkspace, b: &Build) {
    ws.cost.clear();
    ws.cost.resize(b.width + b.m, 0.0);
    ws.cost[..b.n].copy_from_slice(&p.costs);
}

/// Drive phase-1 markers out of the basis where possible; a row whose
/// active part eliminated to all-zero is redundant — its marker stays
/// (harmless: phase-2 cost 0, RHS ~0, and markers are never priced).
fn drive_out_markers(ws: &mut SimplexWorkspace, b: &Build, jobs: usize) {
    for ri in 0..b.m {
        if ws.basis[ri] >= b.width {
            let row = &ws.tab[ri * b.width..ri * b.width + b.rhs_col];
            if let Some(col) = (0..b.rhs_col).find(|&c| row[c].abs() > EPS) {
                pivot_flat(ws, b, ri, col, jobs);
                ws.basis[ri] = col;
                ws.stats.refactor_pivots += 1;
            }
        }
    }
}

/// Build the standard-form tableau into the workspace. With
/// `install_basis` the cold-start basis (slack where possible, marker
/// elsewhere) is installed; without it the caller installs a basis by
/// re-factorization.
fn build_tableau(
    p: &Problem,
    fixings: &[Fixing],
    ws: &mut SimplexWorkspace,
    install_basis: bool,
) -> Result<Build, IlpError> {
    let n = p.costs.len();

    // Effective bounds per variable.
    ws.lo.clear();
    ws.lo.resize(n, 0.0);
    ws.hi.clear();
    ws.hi.resize(n, 0.0);
    for (i, k) in p.kinds.iter().enumerate() {
        match *k {
            VarKind::Binary => {
                ws.lo[i] = 0.0;
                ws.hi[i] = 1.0;
            }
            VarKind::Continuous { lo: l, hi: h } => {
                ws.lo[i] = l;
                ws.hi[i] = h;
            }
        }
    }
    for &(v, l, h) in fixings {
        ws.lo[v] = ws.lo[v].max(l);
        ws.hi[v] = ws.hi[v].min(h);
        if ws.lo[v] > ws.hi[v] + EPS {
            return Err(IlpError::Infeasible);
        }
    }

    // Shift x = lo + x', x' in [0, hi-lo]; x' >= 0 suits standard form.
    // Rows: original constraints (rhs adjusted by lo), plus x' <= hi-lo
    // upper-bound rows for every variable — the row *count* and order
    // are fixing-independent, which keeps a stored basis addressable
    // across rebuilds.
    ws.rows_used = 0;
    for c in &p.constraints {
        let row = next_row(&mut ws.rows, &mut ws.rows_used, n);
        row.cmp = c.cmp;
        row.rhs = c.rhs;
        for &(v, a) in &c.terms {
            row.coeffs[v] += a;
            row.rhs -= a * ws.lo[v];
        }
    }
    for i in 0..n {
        let range = ws.hi[i] - ws.lo[i];
        let row = next_row(&mut ws.rows, &mut ws.rows_used, n);
        row.coeffs[i] = 1.0;
        // Fixed variables (range ~ 0) are substituted away via lo; force
        // x' = 0 with an upper-bound row of rhs 0 (cheap to always add).
        row.rhs = if range <= EPS { 0.0 } else { range };
    }

    let m = ws.rows_used;
    // Normalize to rhs >= 0 (flip rows; the slack sign flips with them).
    for r in ws.rows[..m].iter_mut() {
        if r.rhs < 0.0 {
            for a in r.coeffs.iter_mut() {
                *a = -*a;
            }
            r.rhs = -r.rhs;
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let b = Build {
        n,
        m,
        rhs_col: n + m,
        width: n + m + 1,
    };

    ws.tab.clear();
    ws.tab.resize(m * b.width, 0.0);
    ws.basis.clear();
    ws.basis.resize(m, usize::MAX);
    for ri in 0..m {
        let r = &ws.rows[ri];
        let t = &mut ws.tab[ri * b.width..(ri + 1) * b.width];
        t[..n].copy_from_slice(&r.coeffs);
        t[b.rhs_col] = r.rhs;
        // Slack of row ri lives in column n + ri: +1 for <=, -1 for >=
        // (post-normalization), absent for equalities.
        let slack = match r.cmp {
            Cmp::Le => 1.0,
            Cmp::Ge => -1.0,
            Cmp::Eq => 0.0,
        };
        t[n + ri] = slack;
        if install_basis {
            ws.basis[ri] = if slack > 0.0 { n + ri } else { b.marker(ri) };
        }
    }
    Ok(b)
}

/// Extract the solution at the current basis.
fn extract(p: &Problem, ws: &SimplexWorkspace, b: &Build) -> LpSolution {
    let mut values = vec![0.0f64; b.n];
    for ri in 0..b.m {
        let c = ws.basis[ri];
        if c < b.n {
            values[c] = ws.tab[ri * b.width + b.rhs_col];
        }
    }
    for (v, l) in values.iter_mut().zip(&ws.lo) {
        *v += l;
    }
    let objective: f64 = values.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
    LpSolution { objective, values }
}

/// Objective of the cost vector at the current basic solution
/// (`Σ c_B · rhs`), used by the stall counter and the phase-1 test.
fn basis_objective(ws: &SimplexWorkspace, b: &Build) -> f64 {
    let mut obj = 0.0;
    for ri in 0..b.m {
        let cb = ws.cost[ws.basis[ri]];
        if cb != 0.0 {
            obj += cb * ws.tab[ri * b.width + b.rhs_col];
        }
    }
    obj
}

/// Primal simplex on the current tableau/basis with the workspace cost
/// vector. Prices the real columns (`0..rhs_col`); marker columns are
/// virtual and can only leave. Returns the objective at the final basis.
fn run_primal(ws: &mut SimplexWorkspace, b: &Build, opts: &LpOptions) -> Result<f64, IlpError> {
    let mut bland = false;
    let mut stall = 0usize;
    let mut last_obj = basis_objective(ws, b);
    for _ in 0..opts.max_pivots {
        price_pass(ws, b, !bland, opts.jobs);
        let entering = if bland {
            // Bland's rule: the lowest-index improving column.
            (0..b.rhs_col).find(|&j| ws.reduced[j] < -PRICE_TOL)
        } else {
            // Steepest edge: maximize d² / (1 + ‖B⁻¹A_j‖²), exact
            // compare, lowest index on ties — deterministic.
            let mut best: Option<(f64, usize)> = None;
            for j in 0..b.rhs_col {
                let d = ws.reduced[j];
                if d < -PRICE_TOL {
                    let score = d * d / ws.gamma[j];
                    if best.map_or(true, |(s, _)| score > s) {
                        best = Some((score, j));
                    }
                }
            }
            best.map(|(_, j)| j)
        };
        let Some(entering) = entering else {
            return Ok(basis_objective(ws, b));
        };
        let Some(leaving) = ratio_test(ws, b, entering) else {
            return Err(IlpError::Unbounded);
        };
        pivot_flat(ws, b, leaving, entering, opts.jobs);
        ws.basis[leaving] = entering;
        ws.stats.pivots += 1;
        if bland {
            ws.stats.bland_pivots += 1;
        }
        // Anti-cycling: a strict objective drop re-arms steepest edge;
        // STALL_LIMIT stalled pivots in a row engage Bland's rule, whose
        // cycle-freedom guarantees the stall eventually breaks (or the
        // phase terminates).
        let obj = basis_objective(ws, b);
        if obj < last_obj - PROGRESS_EPS {
            stall = 0;
            bland = false;
        } else {
            stall += 1;
            if stall >= STALL_LIMIT {
                bland = true;
            }
        }
        last_obj = obj;
    }
    // Pivot budget exhausted: the search ran out, not the model — report
    // it truthfully instead of masquerading as an unbounded objective.
    Err(IlpError::PivotLimit)
}

/// Dual simplex: starting from a dual-feasible basis (a parent's
/// optimum), drive negative basic values out until the solution is
/// primal feasible — at which point it is optimal. The child of a
/// branch & bound bound flip typically needs only a handful of pivots,
/// so the pass is capped at `2m + 100` pivots: `Ok(false)` reports an
/// overrun and the caller restarts cold (deterministically), which keeps
/// [`IlpError::PivotLimit`] a primal-budget-only verdict.
///
/// Marker-basic (dependent) rows are inert here: their active entries
/// and RHS are ~0, so they are never selected to leave, and their slack
/// re-entering through the ratio test is sound — marker-basic only means
/// that slack currently sits nonbasic at zero.
fn run_dual(ws: &mut SimplexWorkspace, b: &Build, opts: &LpOptions) -> Result<bool, IlpError> {
    let cap = 2 * b.m + 100;
    for _ in 0..cap {
        // Leaving row: most negative basic value, exact compare, lowest
        // row index on ties.
        let mut leaving: Option<(f64, usize)> = None;
        for ri in 0..b.m {
            let v = ws.tab[ri * b.width + b.rhs_col];
            if v < -PRICE_TOL && leaving.map_or(true, |(best, _)| v < best) {
                leaving = Some((v, ri));
            }
        }
        let Some((_, leaving)) = leaving else {
            return Ok(true);
        };
        // Entering column: the dual ratio test `d_j / -t[r][j]` over
        // negative row entries, Harris style — pass 1 the tightest
        // ratio relaxed by HARRIS_TOL, pass 2 the largest-magnitude
        // element within the limit (lowest index on exact ties). The
        // degenerate d_j = 0 ties this pass exists to repair are exactly
        // where a plain min-ratio rule would pivot on noise. No
        // candidate at all means the row proves infeasibility.
        price_pass(ws, b, false, opts.jobs);
        let row = &ws.tab[leaving * b.width..leaving * b.width + b.rhs_col];
        let mut limit: Option<f64> = None;
        for (j, &a) in row.iter().enumerate() {
            if a < -EPS {
                let relaxed = (ws.reduced[j].max(0.0) + HARRIS_TOL) / -a;
                if limit.map_or(true, |l| relaxed < l) {
                    limit = Some(relaxed);
                }
            }
        }
        let Some(limit) = limit else {
            return Err(IlpError::Infeasible);
        };
        let mut entering: Option<(f64, usize)> = None;
        for (j, &a) in row.iter().enumerate() {
            if a < -EPS {
                let ratio = ws.reduced[j].max(0.0) / -a;
                if ratio <= limit && entering.map_or(true, |(best, _)| a < best) {
                    entering = Some((a, j));
                }
            }
        }
        let Some((_, entering)) = entering else {
            return Err(IlpError::Infeasible);
        };
        pivot_flat(ws, b, leaving, entering, opts.jobs);
        ws.basis[leaving] = entering;
        ws.stats.pivots += 1;
        ws.stats.dual_pivots += 1;
    }
    Ok(false)
}

/// Primal ratio test on `entering`, Harris style: pass 1 finds the
/// tightest ratio relaxed by [`HARRIS_TOL`]; pass 2 pivots on the
/// largest-magnitude eligible element within that limit (smallest basis
/// index on exact magnitude ties). Every compare is exact, so the
/// argmin is deterministic and identical at every job count.
fn ratio_test(ws: &SimplexWorkspace, b: &Build, entering: usize) -> Option<usize> {
    let mut limit: Option<f64> = None;
    for ri in 0..b.m {
        let a = ws.tab[ri * b.width + entering];
        if a > EPS {
            let relaxed = (ws.tab[ri * b.width + b.rhs_col] + HARRIS_TOL) / a;
            if limit.map_or(true, |l| relaxed < l) {
                limit = Some(relaxed);
            }
        }
    }
    let limit = limit?;
    let mut best: Option<(f64, usize, usize)> = None;
    for ri in 0..b.m {
        let a = ws.tab[ri * b.width + entering];
        if a > EPS {
            let ratio = ws.tab[ri * b.width + b.rhs_col] / a;
            // Larger pivot first, smaller basis index on exact ties.
            let key = (-a, ws.basis[ri]);
            if ratio <= limit && best.map_or(true, |(na, bi, _)| key < (na, bi)) {
                best = Some((key.0, key.1, ri));
            }
        }
    }
    best.map(|(_, _, ri)| ri)
}

/// The pricing pass: one row-major traversal computing the reduced-cost
/// vector `d_j = c_j − Σ_i c_{B_i}·t[i][j]` and (when `want_gamma`) the
/// steepest-edge norms `γ_j = 1 + Σ_i t[i][j]²` for the real columns
/// `0..rhs_col`.
///
/// Rows are split into `CHUNK`-sized chunks with *fixed* boundaries;
/// each chunk's partial sums are accumulated independently (possibly on
/// a worker thread) and folded in chunk-index order. Serial and
/// parallel runs execute the identical additions in the identical
/// order, so the pass is bit-deterministic for every job count.
fn price_pass(ws: &mut SimplexWorkspace, b: &Build, want_gamma: bool, jobs: usize) {
    let active = b.rhs_col;
    let n_chunks = b.m.div_ceil(CHUNK).max(1);
    ws.chunk_d.clear();
    ws.chunk_d.resize(n_chunks * active, 0.0);
    ws.chunk_g.clear();
    if want_gamma {
        ws.chunk_g.resize(n_chunks * active, 0.0);
    }

    {
        let tab = &ws.tab;
        let basis = &ws.basis;
        let cost = &ws.cost;
        let width = b.width;
        let m = b.m;
        let accumulate = |chunk: usize, acc_d: &mut [f64], acc_g: &mut [f64]| {
            let r0 = chunk * CHUNK;
            let r1 = (r0 + CHUNK).min(m);
            for ri in r0..r1 {
                let row = &tab[ri * width..ri * width + active];
                let cb = cost[basis[ri]];
                if cb != 0.0 {
                    for (d, &t) in acc_d.iter_mut().zip(row) {
                        *d += cb * t;
                    }
                }
                if want_gamma {
                    for (g, &t) in acc_g.iter_mut().zip(row) {
                        *g += t * t;
                    }
                }
            }
        };

        let parallel = jobs > 1 && n_chunks > 1 && b.m * active >= PAR_MIN_CELLS;
        if parallel {
            // Hand each worker a fixed round-robin set of chunk slices;
            // the chunk *boundaries* (and therefore every partial sum)
            // are identical to the serial path.
            let workers = jobs.min(n_chunks);
            // One (chunk index, d accumulator, gamma accumulator) task
            // list per worker.
            type WorkerTasks<'t> = Vec<(usize, &'t mut [f64], &'t mut [f64])>;
            let mut parts: Vec<WorkerTasks<'_>> = (0..workers).map(|_| Vec::new()).collect();
            let mut g_chunks: Vec<Option<&mut [f64]>> = if want_gamma {
                ws.chunk_g.chunks_mut(active).map(Some).collect()
            } else {
                (0..n_chunks).map(|_| None).collect()
            };
            for (c, d_chunk) in ws.chunk_d.chunks_mut(active).enumerate() {
                let g_chunk = g_chunks[c].take().map_or(&mut [][..], |g| g);
                parts[c % workers].push((c, d_chunk, g_chunk));
            }
            std::thread::scope(|scope| {
                for part in parts {
                    scope.spawn(|| {
                        let mut part = part;
                        for (c, acc_d, acc_g) in part.iter_mut() {
                            accumulate(*c, acc_d, acc_g);
                        }
                    });
                }
            });
        } else {
            let mut g_iter = ws.chunk_g.chunks_mut(active);
            for (c, acc_d) in ws.chunk_d.chunks_mut(active).enumerate() {
                let acc_g = if want_gamma {
                    g_iter.next().expect("gamma chunk per d chunk")
                } else {
                    &mut []
                };
                accumulate(c, acc_d, acc_g);
            }
        }
    }

    // Chunk-ordered fold — always serial, always the same order.
    ws.reduced.clear();
    ws.reduced.extend_from_slice(&ws.cost[..active]);
    for acc in ws.chunk_d.chunks(active) {
        for (d, &a) in ws.reduced.iter_mut().zip(acc) {
            *d -= a;
        }
    }
    if want_gamma {
        ws.gamma.clear();
        ws.gamma.resize(active, 1.0);
        for acc in ws.chunk_g.chunks(active) {
            for (g, &a) in ws.gamma.iter_mut().zip(acc) {
                *g += a;
            }
        }
    }
}

/// One pivot on `(row, col)`: normalize the pivot row, then eliminate
/// the column from every other row. The elimination always reads a
/// *copy* of the normalized pivot row, so the serial loop and the
/// row-parallel fan-out perform the identical arithmetic; rows are
/// independent, making the parallel result trivially equal to the
/// serial one.
fn pivot_flat(ws: &mut SimplexWorkspace, b: &Build, row: usize, col: usize, jobs: usize) {
    let width = b.width;
    let pv = ws.tab[row * width + col];
    debug_assert!(pv.abs() > EPS, "pivot on (near-)zero element");
    {
        let prow = &mut ws.tab[row * width..(row + 1) * width];
        for v in prow.iter_mut() {
            *v /= pv;
        }
        ws.prow.clear();
        ws.prow.extend_from_slice(prow);
    }
    let prow = &ws.prow;
    let eliminate = |ri: usize, r: &mut [f64]| {
        let factor = r[col];
        if ri != row && factor.abs() > EPS {
            for (v, &p) in r.iter_mut().zip(prow) {
                *v -= factor * p;
            }
        }
    };
    let parallel = jobs > 1 && b.m * width >= PAR_MIN_CELLS;
    if parallel {
        let workers = jobs.min(b.m);
        let mut parts: Vec<Vec<(usize, &mut [f64])>> = (0..workers).map(|_| Vec::new()).collect();
        for (ri, chunk) in ws.tab.chunks_mut(width).enumerate() {
            parts[ri % workers].push((ri, chunk));
        }
        std::thread::scope(|scope| {
            for part in parts {
                scope.spawn(|| {
                    let mut part = part;
                    for (ri, chunk) in part.iter_mut() {
                        eliminate(*ri, chunk);
                    }
                });
            }
        });
    } else {
        for (ri, chunk) in ws.tab.chunks_mut(width).enumerate() {
            eliminate(ri, chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

    #[test]
    fn simple_max_as_min() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => min -3x - 2y = -12 (x=4,y=0).
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 100.0, -3.0);
        let y = p.add_continuous(0.0, 100.0, -2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let sol = solve_lp(&p, &[]).unwrap();
        assert!(
            (sol.objective + 12.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.values[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn chained_delta_solves_track_cold_on_degenerate_assignment() {
        // 30 items × 3 identical bins with equal assignment costs and
        // cut-style coupling rows — a maximally degenerate LP whose
        // duals tie everywhere, exactly the regime where the dual
        // repair of a chained delta solve once pivoted on an
        // elimination-noise element and silently returned a corrupted
        // tableau (objective far below the true optimum, equality rows
        // violated). Every step of a branch-and-bound-style fixing
        // chain must match a cold solve of the same fixings and return
        // a point that satisfies every constraint.
        let items = 30usize;
        let bins = 3usize;
        let mut p = Problem::minimize();
        let mut x: Vec<Vec<crate::VarId>> = Vec::new();
        for _ in 0..items {
            let row: Vec<_> = (0..bins).map(|_| p.add_binary(1.0)).collect();
            let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Cmp::Eq, 1.0);
            x.push(row);
        }
        let cap = items.div_ceil(bins) as f64;
        for b in 0..bins {
            let terms: Vec<_> = x.iter().map(|row| (row[b], 1.0)).collect();
            p.add_constraint(&terms, Cmp::Le, cap);
        }
        type Row = (Vec<(usize, f64)>, Cmp, f64);
        let mut rows: Vec<Row> = Vec::new();
        for row in &x {
            rows.push((row.iter().map(|v| (v.index(), 1.0)).collect(), Cmp::Eq, 1.0));
        }
        for b in 0..bins {
            rows.push((
                x.iter().map(|row| (row[b].index(), 1.0)).collect(),
                Cmp::Le,
                cap,
            ));
        }
        for i in 1..items {
            let y = p.add_continuous(0.0, 1.0, 0.25);
            for (&u, &v) in x[i - 1].iter().zip(&x[i]) {
                p.add_constraint(&[(y, 1.0), (u, -1.0), (v, 1.0)], Cmp::Ge, 0.0);
                p.add_constraint(&[(y, 1.0), (v, -1.0), (u, 1.0)], Cmp::Ge, 0.0);
                rows.push((
                    vec![(y.index(), 1.0), (u.index(), -1.0), (v.index(), 1.0)],
                    Cmp::Ge,
                    0.0,
                ));
                rows.push((
                    vec![(y.index(), 1.0), (v.index(), -1.0), (u.index(), 1.0)],
                    Cmp::Ge,
                    0.0,
                ));
            }
        }

        let opts = LpOptions::default();
        let mut ws = SimplexWorkspace::new();
        solve_lp_opts(&p, &[], &mut ws, &opts).unwrap();
        let mut fix: Vec<Fixing> = Vec::new();
        for i in 0..items {
            fix.push((x[i][i % bins].index(), 1.0, 1.0));
            let delta = solve_lp_delta(&p, &fix, &mut ws, &opts).unwrap();
            let mut ws_cold = SimplexWorkspace::new();
            let cold = solve_lp_opts(&p, &fix, &mut ws_cold, &opts).unwrap();
            assert!(
                (delta.objective - cold.objective).abs() < 1e-6,
                "step {i}: delta objective {} != cold {}",
                delta.objective,
                cold.objective
            );
            for (ri, (terms, cmp, rhs)) in rows.iter().enumerate() {
                let lhs: f64 = terms.iter().map(|&(v, a)| a * delta.values[v]).sum();
                let ok = match cmp {
                    Cmp::Le => lhs <= rhs + 1e-6,
                    Cmp::Ge => lhs >= rhs - 1e-6,
                    Cmp::Eq => (lhs - rhs).abs() <= 1e-6,
                };
                assert!(
                    ok,
                    "step {i}: delta point violates row {ri}: {lhs} {cmp:?} {rhs}"
                );
            }
        }
        let stats = ws.stats();
        assert_eq!(
            stats.delta_solves, items,
            "every step must take the delta path"
        );
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // min x s.t. x >= 3  => 3.
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 10.0, 1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 3.0);
        let sol = solve_lp(&p, &[]).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_phase1() {
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 1.0, 1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 5.0);
        assert_eq!(solve_lp(&p, &[]).unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn fixings_narrow_bounds() {
        let mut p = Problem::minimize();
        let x = p.add_binary(-1.0);
        // Relaxation alone would take x = 1; fix to 0.
        let sol = solve_lp(&p, &[(0, 0.0, 0.0)]).unwrap();
        assert!(sol.values[0].abs() < 1e-9);
        let _ = x;
    }

    #[test]
    fn contradictory_fixings_infeasible() {
        let mut p = Problem::minimize();
        let _x = p.add_binary(1.0);
        assert_eq!(
            solve_lp(&p, &[(0, 1.0, 1.0), (0, 0.0, 0.0)]).unwrap_err(),
            IlpError::Infeasible
        );
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x s.t. -x <= -2  (i.e. x >= 2).
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 10.0, 1.0);
        p.add_constraint(&[(x, -1.0)], Cmp::Le, -2.0);
        let sol = solve_lp(&p, &[]).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y, x in [2, 5], y in [1, 4], x + y >= 4 => 4 at (3,1) or (2,2).
        let mut p = Problem::minimize();
        let x = p.add_continuous(2.0, 5.0, 1.0);
        let y = p.add_continuous(1.0, 4.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let sol = solve_lp(&p, &[]).unwrap();
        assert!(
            (sol.objective - 4.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!(sol.values[0] >= 2.0 - 1e-9);
        assert!(sol.values[1] >= 1.0 - 1e-9);
    }

    #[test]
    fn warm_workspace_matches_fresh_solves() {
        // One workspace across differently-shaped problems must give the
        // same answers as fresh per-call buffers.
        let mut ws = SimplexWorkspace::new();
        for vars in [1usize, 3, 2, 5] {
            let mut p = Problem::minimize();
            let ids: Vec<_> = (0..vars)
                .map(|i| p.add_continuous(0.0, 10.0, -((i + 1) as f64)))
                .collect();
            let terms: Vec<_> = ids.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Cmp::Le, 4.0);
            p.add_constraint(&[(ids[0], 1.0)], Cmp::Ge, 1.0);
            let fresh = solve_lp(&p, &[]).unwrap();
            let warm = solve_lp_with(&p, &[], &mut ws).unwrap();
            assert_eq!(fresh.values, warm.values, "vars={vars}");
            assert!((fresh.objective - warm.objective).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Several redundant constraints; the solver must still terminate.
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 10.0, -1.0);
        for _ in 0..5 {
            p.add_constraint(&[(x, 1.0)], Cmp::Le, 7.0);
        }
        let sol = solve_lp(&p, &[]).unwrap();
        assert!((sol.objective + 7.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_from_own_basis_is_a_noop_resolve() {
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 100.0, -3.0);
        let y = p.add_continuous(0.0, 100.0, -2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let mut ws = SimplexWorkspace::new();
        let cold = solve_lp_with(&p, &[], &mut ws).unwrap();
        let basis = ws.basis().to_vec();
        ws.reset_stats();
        let warm = solve_lp_warm(&p, &[], &mut ws, &LpOptions::default(), &basis).unwrap();
        assert_eq!(cold.values, warm.values);
        assert_eq!(
            ws.stats().pivots,
            0,
            "re-solving the same LP needs no priced pivot"
        );
        assert_eq!(ws.stats().warm_solves, 1);
        assert_eq!(ws.stats().warm_fallbacks, 0);
    }

    #[test]
    fn warm_start_accepts_marker_bases_from_dependent_rows() {
        // Duplicated equality rows leave a dependent row marker-basic in
        // the stored basis; a warm re-solve must accept it, not fall back.
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 10.0, 1.0);
        let y = p.add_continuous(0.0, 10.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        let mut ws = SimplexWorkspace::new();
        let cold = solve_lp_with(&p, &[], &mut ws).unwrap();
        let basis = ws.basis().to_vec();
        assert!(
            basis.iter().any(|&c| c > p.costs.len() + 4),
            "expected a marker entry in {basis:?}"
        );
        ws.reset_stats();
        let warm = solve_lp_warm(&p, &[], &mut ws, &LpOptions::default(), &basis).unwrap();
        assert!((cold.objective - warm.objective).abs() < 1e-9);
        assert_eq!(ws.stats().warm_solves, 1);
        assert_eq!(ws.stats().warm_fallbacks, 0);
    }

    #[test]
    fn warm_start_after_bound_flip_matches_cold() {
        // Branch & bound's exact pattern: parent LP, then children with
        // one binary fixed each way. Objective must agree with the cold
        // child's to LP tolerance.
        for seed in 0..10u64 {
            let mut p = Problem::minimize();
            let n = 7;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_binary(-(((seed * 11 + i as u64 * 5) % 9) as f64) - 0.5))
                .collect();
            let weights: Vec<f64> = (0..n)
                .map(|i| ((seed * 3 + i as u64 * 7) % 6 + 1) as f64)
                .collect();
            let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
            p.add_constraint(&terms, Cmp::Le, weights.iter().sum::<f64>() / 2.0);
            let mut ws = SimplexWorkspace::new();
            solve_lp_with(&p, &[], &mut ws).unwrap();
            let parent = ws.basis().to_vec();
            for fix in [0.0, 1.0] {
                let fixings = [(0usize, fix, fix)];
                let cold = solve_lp(&p, &fixings);
                let warm = solve_lp_warm(&p, &fixings, &mut ws, &LpOptions::default(), &parent);
                match (cold, warm) {
                    (Ok(c), Ok(w)) => {
                        assert!(
                            (c.objective - w.objective).abs() < 1e-7,
                            "seed {seed} fix {fix}: cold {} warm {}",
                            c.objective,
                            w.objective
                        );
                    }
                    (Err(ce), Err(we)) => assert_eq!(ce, we, "seed {seed} fix {fix}"),
                    (c, w) => panic!("seed {seed} fix {fix}: cold {c:?} vs warm {w:?}"),
                }
            }
        }
    }

    #[test]
    fn delta_resolve_matches_cold_after_each_narrowing() {
        // The DFS hot path: solve, then repeatedly push one more fixing
        // and delta-re-solve in place; every step must match a cold solve
        // of the same fixings.
        for seed in 0..10u64 {
            let mut p = Problem::minimize();
            let n = 7;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_binary(-(((seed * 13 + i as u64 * 3) % 9) as f64) - 0.5))
                .collect();
            let weights: Vec<f64> = (0..n)
                .map(|i| ((seed * 5 + i as u64 * 11) % 6 + 1) as f64)
                .collect();
            let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
            p.add_constraint(&terms, Cmp::Le, weights.iter().sum::<f64>() / 2.0);
            p.add_constraint(&[(vars[0], 1.0), (vars[1], 1.0)], Cmp::Ge, 1.0);
            let mut ws = SimplexWorkspace::new();
            solve_lp_with(&p, &[], &mut ws).unwrap();
            let mut fixings: Vec<Fixing> = Vec::new();
            for step in 0..4usize {
                let v = (seed as usize + step * 2) % n;
                let val = ((seed as usize + step) % 2) as f64;
                fixings.push((v, val, val));
                assert!(ws.delta_applicable(&fixings), "seed {seed} step {step}");
                let delta = solve_lp_delta(&p, &fixings, &mut ws, &LpOptions::default());
                let cold = solve_lp(&p, &fixings);
                match (&cold, &delta) {
                    (Ok(c), Ok(d)) => assert!(
                        (c.objective - d.objective).abs() < 1e-7,
                        "seed {seed} step {step}: cold {} delta {}",
                        c.objective,
                        d.objective
                    ),
                    (Err(ce), Err(de)) => assert_eq!(ce, de, "seed {seed} step {step}"),
                    (c, d) => panic!("seed {seed} step {step}: cold {c:?} vs delta {d:?}"),
                }
                if delta.is_err() {
                    break;
                }
            }
        }
    }

    #[test]
    fn delta_applicable_tracks_state() {
        let mut p = Problem::minimize();
        let _x = p.add_binary(-1.0);
        let _y = p.add_binary(-2.0);
        let mut ws = SimplexWorkspace::new();
        assert!(!ws.delta_applicable(&[(0, 0.0, 0.0)]));
        solve_lp_with(&p, &[], &mut ws).unwrap();
        assert!(ws.delta_applicable(&[(0, 0.0, 0.0)]));
        // Two new fixings at once is not a delta.
        assert!(!ws.delta_applicable(&[(0, 0.0, 0.0), (1, 1.0, 1.0)]));
        let fix = [(0usize, 0.0, 0.0)];
        solve_lp_delta(&p, &fix, &mut ws, &LpOptions::default()).unwrap();
        // Prefix must match the held state, extended by one.
        assert!(ws.delta_applicable(&[(0, 0.0, 0.0), (1, 1.0, 1.0)]));
        assert!(!ws.delta_applicable(&[(1, 1.0, 1.0)]));
    }

    #[test]
    fn warm_start_with_garbage_basis_falls_back_cold() {
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 10.0, -1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 7.0);
        let mut ws = SimplexWorkspace::new();
        // Wrong length and out-of-range columns both fall back.
        let sol = solve_lp_warm(&p, &[], &mut ws, &LpOptions::default(), &[0, 1, 2, 3, 4, 5]);
        assert!((sol.unwrap().objective + 7.0).abs() < 1e-6);
        let cold = solve_lp_with(&p, &[], &mut ws).unwrap();
        let dup = vec![0usize; ws.basis().len()];
        let sol = solve_lp_warm(&p, &[], &mut ws, &LpOptions::default(), &dup).unwrap();
        assert!((sol.objective - cold.objective).abs() < 1e-9);
        assert!(ws.stats().warm_fallbacks >= 1);
    }

    #[test]
    fn parallel_kernels_are_bit_identical() {
        // A problem big enough to clear PAR_MIN_CELLS so the kernels
        // genuinely fan out, solved at jobs 1 and 4: bit-identical.
        let build = || {
            let mut p = Problem::minimize();
            let n = 260;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_continuous(0.0, 3.0, -(((i * 7) % 11) as f64) - 1.0))
                .collect();
            for c in 0..n / 2 {
                let terms: Vec<_> = vars
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i + c) % 3 != 0)
                    .map(|(i, &v)| (v, ((i * 5 + c) % 7 + 1) as f64))
                    .collect();
                p.add_constraint(&terms, Cmp::Le, (40 + (c * 13) % 60) as f64);
            }
            p
        };
        let p = build();
        let mut ws = SimplexWorkspace::new();
        let serial = solve_lp_opts(
            &p,
            &[],
            &mut ws,
            &LpOptions {
                jobs: 1,
                ..LpOptions::default()
            },
        )
        .unwrap();
        let parallel = solve_lp_opts(
            &p,
            &[],
            &mut ws,
            &LpOptions {
                jobs: 4,
                ..LpOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            serial.objective.to_bits(),
            parallel.objective.to_bits(),
            "objective must be bit-identical across kernel job counts"
        );
        let sb: Vec<u64> = serial.values.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = parallel.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, pb);
    }

    #[test]
    fn warm_child_resolves_in_fewer_pivots_than_cold() {
        // An 8×8 assignment LP (totally unimodular, so the root is
        // integral). Forbid one assignment the root uses, then re-solve
        // that child cold and warm-started from the root basis: the
        // warm start must repair the basis, never restart cold, and
        // spend fewer priced pivots than the cold two-phase solve.
        let n = 8;
        let mut p = Problem::minimize();
        let vars: Vec<Vec<_>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| p.add_binary(((i * 31 + j * 17) % 19) as f64 + 1.0))
                    .collect()
            })
            .collect();
        for (i, row_vars) in vars.iter().enumerate() {
            let row: Vec<_> = row_vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&row, Cmp::Eq, 1.0);
            let col: Vec<_> = vars.iter().map(|r| (r[i], 1.0)).collect();
            p.add_constraint(&col, Cmp::Eq, 1.0);
        }
        let opts = LpOptions::default();
        let mut ws = SimplexWorkspace::new();
        let root = solve_lp_opts(&p, &[], &mut ws, &opts).unwrap();
        let root_basis = ws.basis().to_vec();
        let banned = root
            .values
            .iter()
            .position(|&v| v > 0.5)
            .expect("an assignment LP uses at least one variable");
        let child = [(banned, 0.0, 0.0)];

        ws.reset_stats();
        let cold = solve_lp_opts(&p, &child, &mut ws, &opts).unwrap();
        let cold_pivots = ws.stats().pivots;
        ws.reset_stats();
        let warm = solve_lp_warm(&p, &child, &mut ws, &opts, &root_basis).unwrap();
        let warm_stats = ws.stats();
        assert_eq!(
            (warm_stats.warm_solves, warm_stats.warm_fallbacks),
            (1, 0),
            "the root basis must be repairable on a one-bound child: {warm_stats:?}"
        );
        assert!(
            warm_stats.pivots < cold_pivots,
            "warm start must repair in fewer pivots than a cold restart \
             ({} vs {cold_pivots})",
            warm_stats.pivots
        );
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn stall_counter_engages_and_releases_bland() {
        // A degenerate cluster of redundant rows: the solve must finish
        // well under the budget, and if the fallback ever engaged it
        // must not have taken over the whole solve.
        let mut p = Problem::minimize();
        let n = 12;
        let vars: Vec<_> = (0..n).map(|_| p.add_continuous(0.0, 1.0, -1.0)).collect();
        for k in 1..=n {
            let terms: Vec<_> = vars.iter().take(k).map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Cmp::Le, k as f64 / 2.0);
        }
        let mut ws = SimplexWorkspace::new();
        let sol = solve_lp_with(&p, &[], &mut ws).unwrap();
        assert!(sol.objective.is_finite());
        let stats = ws.stats();
        assert!(stats.pivots < DEFAULT_MAX_PIVOTS / 10);
        assert!(
            stats.bland_pivots < stats.pivots.max(1),
            "steepest edge must do real work: {stats:?}"
        );
    }
}
