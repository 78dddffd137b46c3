//! Branch & bound over binary variables — parallel, with deterministic
//! best-bound merging.
//!
//! Each node solves the LP relaxation under the accumulated 0/1 fixings,
//! branches on the most fractional binary, and explores the branch
//! suggested by rounding first (which tends to find incumbents early on
//! partitioning instances). Under `SolveOptions::jobs > 1` the tree is
//! explored by scoped worker threads: each worker owns a
//! [`SimplexWorkspace`], pulls subtrees from a shared best-bound
//! frontier, runs depth-first locally, and — once its DFS stack is deep
//! enough — splits the shallowest pending subtree back onto the frontier
//! for idle workers.
//!
//! # Determinism
//!
//! For a search that runs to completion, the returned [`Solution`]
//! (objective, values, status) is identical for every `jobs` value;
//! only wall-clock and `nodes_explored` change. (A node-limit-truncated
//! search necessarily returns whatever incumbent the budget reached,
//! which under `jobs > 1` depends on worker scheduling — callers can
//! tell by `Status::LimitReached`, and the flow engine declines to
//! cache such results.) Two disciplines make the completed case true:
//!
//! * **Total-order incumbent merging.** Candidate incumbents are
//!   compared exactly: lower objective wins, and an exactly-equal
//!   objective falls through to the lexicographically smallest value
//!   vector (which on the binary variables is the lexicographically
//!   smallest assignment). Exact comparison — no tolerance — is what
//!   makes the merge a total order, so the surviving incumbent is the
//!   minimum of the candidate set, independent of publication order.
//!   (A tolerance-based tie-break is not transitive and would make the
//!   winner depend on arrival order.)
//! * **Tie-preserving pruning.** A subtree is pruned only when its LP
//!   bound is *strictly worse* than the incumbent by more than
//!   `TIE_EPS`. Any assignment that ties the optimum has LP bounds at
//!   most its own objective along its whole path, so its subtree is
//!   never pruned and every run — serial or parallel — examines every
//!   tied optimum. The candidate set over which the total order picks
//!   its minimum is therefore the same for every worker schedule.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::simplex::{
    solve_lp_delta, solve_lp_opts, solve_lp_warm, Fixing, LpOptions, SimplexWorkspace,
};
use crate::{IlpError, Problem, Solution, SolveOptions, Status, VarKind};

/// The basis a node hands its children for warm starts: one column
/// index per tableau row, shared (both children and possibly an
/// offloaded frontier copy reference the same parent basis).
type WarmBasis = Arc<Vec<usize>>;

/// Bound slack within which a subtree may still contain a solution that
/// ties the incumbent (floating-point noise in the LP bound is orders of
/// magnitude below this for co-design-sized instances). Subtrees are
/// pruned only when their bound exceeds `incumbent + TIE_EPS`.
const TIE_EPS: f64 = 1e-6;

/// Integrality tolerance: a binary within this of an integer counts as
/// integral, both for branching and for snapping incumbents.
const INT_TOL: f64 = 1e-6;

/// A worker starts offering subtrees to the shared frontier once its
/// local DFS stack holds at least this many pending nodes.
const OFFLOAD_MIN_STACK: usize = 4;

/// When offloading, a worker keeps at least this many pending nodes for
/// itself (the deepest ones; the shallowest — largest — subtrees are
/// what idle workers want).
const OFFLOAD_KEEP: usize = 2;

/// One unexplored subtree: the fixings that define it and the LP
/// objective of its parent (a valid lower bound for everything below).
struct OpenSubtree {
    bound: f64,
    /// Monotonic tag: orders equal-bound subtrees oldest-first so the
    /// frontier pop is fully defined (not load-bearing for determinism —
    /// the merge discipline is — but it keeps exploration sensible).
    seq: u64,
    fixings: Vec<Fixing>,
    /// The parent's optimal basis: the subtree's root LP differs from
    /// the parent LP by one bound flip, so the dual simplex re-solves it
    /// from here in a handful of pivots. Determinism note: the basis is
    /// a pure function of the fixing path from the root (each node's LP
    /// inputs are path-local), so warm starts never make the solve
    /// depend on worker scheduling.
    basis: WarmBasis,
}

impl PartialEq for OpenSubtree {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for OpenSubtree {}

impl PartialOrd for OpenSubtree {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpenSubtree {
    /// Inverted so the max-heap pops the *smallest* bound (best-bound
    /// first), oldest `seq` on ties. Bounds are never NaN.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .bound
            .partial_cmp(&self.bound)
            .expect("LP bounds are finite")
            .then(other.seq.cmp(&self.seq))
    }
}

/// Frontier state guarded by one mutex: the best-bound heap plus the
/// number of workers currently expanding a popped subtree (`active`),
/// which is what distinguishes "momentarily empty" from "exhausted".
struct Frontier {
    heap: BinaryHeap<OpenSubtree>,
    active: usize,
    /// Set when the search is over: exhausted, node limit, or error.
    stop: bool,
}

/// Everything the workers share.
struct Shared<'a> {
    p: &'a Problem,
    max_nodes: usize,
    /// Per-node LP knobs. Kernel `jobs` is 1 here: inside the tree the
    /// parallelism budget is spent on concurrent *nodes*, not on row
    /// kernels (the root LP, solved before workers exist, gets the full
    /// kernel budget instead).
    lp_opts: LpOptions,
    jobs: usize,
    frontier: Mutex<Frontier>,
    /// Mirror of `frontier.heap.len()`, maintained under the frontier
    /// lock but readable without it, so `maybe_offload` can skip the
    /// lock entirely on the (common) nodes where the frontier is
    /// already stocked. Staleness only delays or skips one offload.
    frontier_len: AtomicUsize,
    work_ready: Condvar,
    /// The merged incumbent under the deterministic total order.
    best: Mutex<Option<(f64, Vec<f64>)>>,
    /// `best`'s objective as bits, for lock-free pruning reads.
    bound_bits: AtomicU64,
    nodes: AtomicUsize,
    /// Total priced pivots across every worker's LPs (diagnostic: like
    /// `nodes`, the value depends on pruning timing under `jobs > 1`).
    pivots: AtomicUsize,
    seq: AtomicU64,
    limit_hit: AtomicBool,
    stopped: AtomicBool,
    error: Mutex<Option<IlpError>>,
    /// The best (lowest) LP bound among subtrees abandoned when the
    /// search stopped early — workers drain their private DFS stacks
    /// into this on the way out, and `solve` folds in whatever is left
    /// on the shared frontier. Together they lower-bound the true
    /// optimum of everything the truncated search never visited.
    remaining_bound: Mutex<Option<f64>>,
}

impl<'a> Shared<'a> {
    fn new(p: &'a Problem, options: &SolveOptions, jobs: usize, root: OpenSubtree) -> Shared<'a> {
        let mut heap = BinaryHeap::new();
        heap.push(root);
        Shared {
            p,
            max_nodes: options.max_nodes,
            lp_opts: LpOptions {
                max_pivots: options.max_pivots,
                jobs: 1,
            },
            jobs,
            frontier_len: AtomicUsize::new(heap.len()),
            frontier: Mutex::new(Frontier {
                heap,
                active: 0,
                stop: false,
            }),
            work_ready: Condvar::new(),
            best: Mutex::new(None),
            bound_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            nodes: AtomicUsize::new(0),
            pivots: AtomicUsize::new(0),
            seq: AtomicU64::new(1),
            limit_hit: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            error: Mutex::new(None),
            remaining_bound: Mutex::new(None),
        }
    }

    /// Pop the best-bound subtree, waiting while other workers may still
    /// split work back. `None` means the search is over.
    fn acquire(&self) -> Option<OpenSubtree> {
        let mut f = self.frontier.lock().expect("frontier poisoned");
        loop {
            if f.stop {
                return None;
            }
            if let Some(sub) = f.heap.pop() {
                f.active += 1;
                self.frontier_len.store(f.heap.len(), Ordering::Relaxed);
                return Some(sub);
            }
            if f.active == 0 {
                f.stop = true;
                self.work_ready.notify_all();
                return None;
            }
            f = self.work_ready.wait(f).expect("frontier poisoned");
        }
    }

    /// Mark the previously acquired subtree fully expanded.
    fn release(&self) {
        let mut f = self.frontier.lock().expect("frontier poisoned");
        f.active -= 1;
        if f.active == 0 && f.heap.is_empty() {
            f.stop = true;
        }
        // Wake waiters either way: the search may be over, or this
        // worker may have offloaded subtrees they should pick up.
        self.work_ready.notify_all();
    }

    /// `true` once the bound proves `bound` cannot contain anything
    /// better than (or exactly tying) the incumbent.
    fn prunable(&self, bound: f64) -> bool {
        bound > f64::from_bits(self.bound_bits.load(Ordering::Relaxed)) + TIE_EPS
    }

    /// Merge a candidate incumbent under the deterministic total order:
    /// strictly lower objective first, then lexicographically smaller
    /// value vector on exact objective ties.
    ///
    /// Candidates are canonicalized first: every coordinate within
    /// [`INT_TOL`] of an integer is snapped to that exact integer and the
    /// objective is recomputed from the snapped point. An integral-LP
    /// point arrives with path-dependent float noise (±1 ulp-scale
    /// residue that differs between warm/cold/delta solve paths); the
    /// point it *represents* does not. Comparing exact integer points is
    /// what makes the merged incumbent — and the downstream artifacts —
    /// identical across job counts, not merely equal in objective.
    fn offer_incumbent(&self, values: Vec<f64>) {
        let mut values = values;
        for v in values.iter_mut() {
            let r = v.round();
            if (*v - r).abs() <= INT_TOL {
                // `round` preserves the sign of -1e-17: normalize -0.0.
                *v = if r == 0.0 { 0.0 } else { r };
            }
        }
        let objective: f64 = values.iter().zip(&self.p.costs).map(|(x, c)| x * c).sum();
        let mut best = self.best.lock().expect("incumbent poisoned");
        let better = match best.as_ref() {
            None => true,
            Some((bo, bv)) => match objective.partial_cmp(bo).expect("objectives are finite") {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => lex_smaller(&values, bv),
            },
        };
        if better {
            self.bound_bits
                .store(objective.to_bits(), Ordering::Relaxed);
            *best = Some((objective, values));
        }
    }

    /// Record the LP bound of a subtree the stopping search abandons
    /// unexplored (keeps the minimum — the tightest claim "the optimum is
    /// at least this" the frontier supports).
    fn report_remaining(&self, bound: f64) {
        let mut r = self.remaining_bound.lock().expect("remaining poisoned");
        *r = Some(r.map_or(bound, |b| b.min(bound)));
    }

    /// Stop every worker (node limit or error).
    fn stop_all(&self) {
        self.stopped.store(true, Ordering::Relaxed);
        let mut f = self.frontier.lock().expect("frontier poisoned");
        f.stop = true;
        self.work_ready.notify_all();
    }

    fn fail(&self, e: IlpError) {
        let mut err = self.error.lock().expect("error slot poisoned");
        err.get_or_insert(e);
        drop(err);
        self.stop_all();
    }
}

/// Strict lexicographic `a < b` over equal-length value vectors.
fn lex_smaller(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.partial_cmp(y).expect("values are finite") {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// The most fractional binary of an LP point: the one closest to 0.5,
/// lowest index on ties. `None` when every binary is integral.
fn most_fractional(p: &Problem, values: &[f64]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, k) in p.kinds.iter().enumerate() {
        if matches!(k, VarKind::Binary) {
            let v = values[i];
            if (v - v.round()).abs() > INT_TOL {
                let score = 0.5 - (0.5 - (v - v.floor())).abs(); // closer to 0.5 = higher
                if best.map_or(true, |(s, _)| score > s) {
                    best = Some((score, i));
                }
            }
        }
    }
    best.map(|(_, i)| i)
}

/// One worker: pull subtrees from the frontier, expand depth-first with
/// a private workspace, split excess stack back to the frontier.
fn worker(shared: &Shared<'_>, ws: &mut SimplexWorkspace) {
    while let Some(sub) = shared.acquire() {
        expand_subtree(shared, ws, sub);
        shared.release();
    }
    shared
        .pivots
        .fetch_add(ws.stats().pivots, Ordering::Relaxed);
}

/// Depth-first expansion of one subtree. The local stack holds
/// `(parent LP bound, fixings, parent basis)` triples; entry 0 is the
/// shallowest.
fn expand_subtree(shared: &Shared<'_>, ws: &mut SimplexWorkspace, sub: OpenSubtree) {
    let mut stack: Vec<(f64, Vec<Fixing>, WarmBasis)> = vec![(sub.bound, sub.fixings, sub.basis)];
    // Whether the node popped *next* is the near child just pushed by the
    // node solved *last* — the only case where the workspace still holds
    // the parent's final tableau and the in-place delta re-solve applies.
    // The flag is a pure function of the DFS structure (set only when a
    // node pushes children, consumed by the immediately following pop),
    // never of incumbent timing or worker scheduling: a node's solve
    // method — and therefore its exact LP result — is identical on every
    // run and at every job count.
    let mut delta_ok = false;
    while let Some((bound, fixings, basis)) = stack.pop() {
        let use_delta = std::mem::take(&mut delta_ok);
        if shared.stopped.load(Ordering::Relaxed) {
            // Abandoning this node and the pending stack: their bounds
            // are what the truncated solve's optimality gap is made of.
            shared.report_remaining(bound);
            drain_remaining(shared, &stack);
            return;
        }
        // The parent bound may have gone stale while this node waited.
        if shared.prunable(bound) {
            continue;
        }
        if shared.nodes.fetch_add(1, Ordering::Relaxed) >= shared.max_nodes {
            shared.limit_hit.store(true, Ordering::Relaxed);
            shared.stop_all();
            shared.report_remaining(bound);
            drain_remaining(shared, &stack);
            return;
        }
        // Solve the node's LP. Near children (popped straight after
        // their parent by the same worker — guaranteed: offloading takes
        // from the *bottom* of the stack and keeps OFFLOAD_KEEP ≥ 2
        // entries) re-solve the held parent tableau in place with one
        // bound delta; far children re-factorize the stored parent basis
        // and repair with dual simplex. Both paths fall back to a cold
        // two-phase solve — on deterministic triggers only — when the
        // basis is stale.
        let solved = if use_delta && ws.delta_applicable(&fixings) {
            solve_lp_delta(shared.p, &fixings, ws, &shared.lp_opts)
        } else {
            solve_lp_warm(shared.p, &fixings, ws, &shared.lp_opts, &basis)
        };
        let lp = match solved {
            Ok(lp) => lp,
            Err(IlpError::Infeasible) => continue,
            Err(e) => {
                shared.fail(e);
                return;
            }
        };
        if shared.prunable(lp.objective) {
            continue;
        }
        let Some(branch_var) = most_fractional(shared.p, &lp.values) else {
            // Integer feasible: candidate incumbent.
            shared.offer_incumbent(lp.values);
            continue;
        };
        // Depth-first: push the less likely branch first so the rounded
        // branch is explored next. Both children warm-start from this
        // node's optimal basis.
        let node_basis: WarmBasis = Arc::new(ws.basis().to_vec());
        let v = lp.values[branch_var];
        let (first, second) = if v >= 0.5 { (1.0, 0.0) } else { (0.0, 1.0) };
        let mut far = fixings.clone();
        far.push((branch_var, second, second));
        stack.push((lp.objective, far, node_basis.clone()));
        let mut near = fixings;
        near.push((branch_var, first, first));
        stack.push((lp.objective, near, node_basis));
        // The workspace holds this node's final tableau and the near
        // child sits on top of the stack: the next pop may delta-solve.
        delta_ok = true;
        maybe_offload(shared, &mut stack);
    }
}

/// Report every still-pending subtree of an abandoned DFS stack, pruned
/// entries excluded (a bound already beyond the incumbent cannot widen
/// the gap — the incumbent only ever improves, so the exclusion stays
/// valid for the final incumbent too).
fn drain_remaining(shared: &Shared<'_>, stack: &[(f64, Vec<Fixing>, WarmBasis)]) {
    for &(bound, _, _) in stack {
        if !shared.prunable(bound) {
            shared.report_remaining(bound);
        }
    }
}

/// Split the shallowest pending subtrees back onto the shared frontier
/// when this worker's stack is deep and the frontier is running dry.
/// The lock-free length mirror keeps the common already-stocked case
/// off the frontier mutex (this runs once per expanded node).
fn maybe_offload(shared: &Shared<'_>, stack: &mut Vec<(f64, Vec<Fixing>, WarmBasis)>) {
    if shared.jobs <= 1
        || stack.len() < OFFLOAD_MIN_STACK
        || shared.frontier_len.load(Ordering::Relaxed) >= shared.jobs
    {
        return;
    }
    let mut f = shared.frontier.lock().expect("frontier poisoned");
    while f.heap.len() < shared.jobs && stack.len() > OFFLOAD_KEEP {
        let (bound, fixings, basis) = stack.remove(0);
        f.heap.push(OpenSubtree {
            bound,
            seq: shared.seq.fetch_add(1, Ordering::Relaxed),
            fixings,
            basis,
        });
        shared.work_ready.notify_one();
    }
    shared.frontier_len.store(f.heap.len(), Ordering::Relaxed);
}

pub(crate) fn solve(p: &Problem, options: &SolveOptions) -> Result<Solution, IlpError> {
    // A workspace for the root relaxation, reused by the serial path (and
    // by the first parallel worker): each LP rebuilds its tableau inside
    // the same buffers instead of reallocating per node.
    let mut ws = SimplexWorkspace::new();

    let jobs = match options.jobs {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };

    // Root relaxation: early Infeasible/Unbounded/PivotLimit detection,
    // and the root subtree's bound. The tree workers don't exist yet, so
    // the whole `jobs` budget goes to the row-parallel simplex kernels —
    // this is where a root-integral instance (one node, no tree) gets
    // its parallel speedup. The kernels are bit-deterministic, so the
    // root solve is identical at every job count.
    let root_opts = LpOptions {
        max_pivots: options.max_pivots,
        jobs,
    };
    let root = solve_lp_opts(p, &[], &mut ws, &root_opts)?;
    let root_basis: WarmBasis = Arc::new(ws.basis().to_vec());

    let shared = Shared::new(
        p,
        options,
        jobs,
        OpenSubtree {
            bound: root.objective,
            seq: 0,
            fixings: Vec::new(),
            basis: root_basis,
        },
    );
    // Root dive: a deterministic rounding heuristic, run serially before
    // any worker exists. Starting from the root relaxation, repeatedly
    // fix the most fractional binary to its rounded value and re-solve
    // with the in-place delta path; if the dive bottoms out on an
    // all-integral LP, that point is a feasible incumbent — offered
    // through the same total-order merge, it seeds pruning from node one.
    // Tie-preserving pruning keeps the final Solution identical with or
    // without the seed; only `nodes_explored` (a diagnostic) shrinks.
    {
        let mut dive_fix: Vec<Fixing> = Vec::new();
        let mut lp = root;
        let n_bin = p
            .kinds
            .iter()
            .filter(|k| matches!(k, VarKind::Binary))
            .count();
        for _ in 0..=n_bin {
            let Some(branch_var) = most_fractional(p, &lp.values) else {
                shared.offer_incumbent(lp.values);
                break;
            };
            let r = lp.values[branch_var].round();
            dive_fix.push((branch_var, r, r));
            match solve_lp_delta(p, &dive_fix, &mut ws, &root_opts) {
                Ok(next) => lp = next,
                // The dive is a heuristic: any failure (infeasible leaf,
                // pivot trouble) just means no early incumbent.
                Err(_) => break,
            }
        }
    }

    // Count the root solve's and dive's pivots once, here; the workspace
    // stats are reset so the serial worker (which reuses `ws`) reports
    // only its own tree pivots.
    shared
        .pivots
        .fetch_add(ws.stats().pivots, Ordering::Relaxed);
    ws.reset_stats();

    if jobs <= 1 {
        worker(&shared, &mut ws);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut ws = SimplexWorkspace::new();
                    worker(&shared, &mut ws);
                });
            }
        });
    }

    if let Some(e) = shared.error.lock().expect("error slot poisoned").take() {
        return Err(e);
    }
    let limit_hit = shared.limit_hit.load(Ordering::Relaxed);
    // The counter over-counts by the nodes rejected after the limit
    // fired; the number actually expanded never exceeds the limit.
    let nodes = shared.nodes.load(Ordering::Relaxed).min(shared.max_nodes);
    // The subtrees nobody ever acquired are still on the frontier heap;
    // fold their bounds in with what the workers drained on the way out.
    let remaining = {
        let drained = *shared.remaining_bound.lock().expect("remaining poisoned");
        let f = shared.frontier.lock().expect("frontier poisoned");
        f.heap
            .iter()
            .map(|s| s.bound)
            .fold(drained, |acc, b| Some(acc.map_or(b, |a| a.min(b))))
    };
    let pivots = shared.pivots.load(Ordering::Relaxed);
    let best = shared.best.lock().expect("incumbent poisoned").take();
    match best {
        Some((objective, values)) => Ok(Solution {
            objective,
            values,
            status: if limit_hit {
                Status::LimitReached
            } else {
                Status::Optimal
            },
            // A completed search proved its incumbent: the bound IS the
            // objective. A truncated one is bounded by the best subtree
            // it abandoned (when nothing was abandoned — the limit fired
            // on the very last node — the incumbent is proven after all).
            best_bound: if limit_hit {
                remaining.map_or(objective, |b| b.min(objective))
            } else {
                objective
            },
            nodes_explored: nodes,
            pivots,
        }),
        None if limit_hit => Err(IlpError::NoIncumbent),
        None => Err(IlpError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, Problem, SolveOptions, Status};

    /// Brute-force a pure-binary problem by enumeration.
    fn brute_force(p: &Problem) -> Option<f64> {
        let n = p.var_count();
        assert!(n <= 20);
        let mut best: Option<f64> = None;
        'outer: for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
            for c in &p.constraints {
                let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v]).sum();
                let ok = match c.cmp {
                    Cmp::Le => lhs <= c.rhs + 1e-9,
                    Cmp::Ge => lhs >= c.rhs - 1e-9,
                    Cmp::Eq => (lhs - c.rhs).abs() < 1e-9,
                };
                if !ok {
                    continue 'outer;
                }
            }
            let obj: f64 = x.iter().zip(&p.costs).map(|(v, c)| v * c).sum();
            if best.map(|b| obj < b).unwrap_or(true) {
                best = Some(obj);
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_knapsacks() {
        // A family of deterministic small knapsacks.
        for seed in 0..10u64 {
            let mut p = Problem::minimize();
            let mut vars = Vec::new();
            let n = 8;
            for i in 0..n {
                let value = ((seed * 7 + i as u64 * 13) % 10 + 1) as f64;
                vars.push(p.add_binary(-value));
            }
            let weights: Vec<f64> = (0..n)
                .map(|i| ((seed * 5 + i as u64 * 11) % 8 + 1) as f64)
                .collect();
            let cap = weights.iter().sum::<f64>() / 2.0;
            let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
            p.add_constraint(&terms, Cmp::Le, cap);
            let sol = p.solve(&SolveOptions::default()).unwrap();
            let expected = brute_force(&p).unwrap();
            assert!(
                (sol.objective - expected).abs() < 1e-6,
                "seed {seed}: got {}, expected {expected}",
                sol.objective
            );
            assert_eq!(sol.status, Status::Optimal);
        }
    }

    #[test]
    fn matches_brute_force_with_equalities() {
        for seed in 0..6u64 {
            let mut p = Problem::minimize();
            let n = 6;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_binary(((seed + i as u64 * 3) % 7) as f64 - 3.0))
                .collect();
            // Exactly 3 variables set.
            let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            p.add_constraint(&terms, Cmp::Eq, 3.0);
            let sol = p.solve(&SolveOptions::default()).unwrap();
            let expected = brute_force(&p).unwrap();
            assert!(
                (sol.objective - expected).abs() < 1e-6,
                "seed {seed}: got {}, expected {expected}",
                sol.objective
            );
        }
    }

    #[test]
    fn pivot_limit_is_reported_as_pivot_limit_not_unbounded() {
        // A >20-variable degenerate instance: many redundant tie-making
        // constraints force long Bland walks. With a starved pivot budget
        // the solver must say "pivot limit", never the old lie
        // "unbounded" — the remedies differ (raise budget vs fix model).
        let mut p = Problem::minimize();
        let vars: Vec<_> = (0..24)
            .map(|i| p.add_binary(-1.0 - (i % 3) as f64))
            .collect();
        for w in 1..=6u64 {
            let terms: Vec<_> = vars.iter().map(|&v| (v, w as f64)).collect();
            p.add_constraint(&terms, Cmp::Le, 12.0 * w as f64);
        }
        let starved = p.solve(&SolveOptions {
            max_pivots: 3,
            ..SolveOptions::default()
        });
        assert_eq!(
            starved.unwrap_err(),
            crate::IlpError::PivotLimit,
            "a starved pivot budget must surface as PivotLimit"
        );
        // The same model with the default budget solves fine — the limit
        // was a property of the search, not the model.
        let ok = p.solve(&SolveOptions::default()).unwrap();
        assert_eq!(ok.status, Status::Optimal);
    }

    #[test]
    fn truncated_solve_carries_best_remaining_bound() {
        // A knapsack whose root relaxation is fractional, truncated after
        // a handful of nodes: the solution must carry a usable lower
        // bound — brute-force optimum sandwiched between bound and
        // incumbent — so reports can say "within x %".
        let mut p = Problem::minimize();
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_binary(-(((i * 7) % 11) as f64) - 1.5))
            .collect();
        let weights: Vec<f64> = (0..n).map(|i| ((i * 5) % 7 + 2) as f64).collect();
        let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        p.add_constraint(&terms, Cmp::Le, weights.iter().sum::<f64>() / 2.0);
        // The first node budget that leaves an incumbent behind while
        // still truncating the search (scanning keeps the test robust to
        // branching-order details).
        let truncated = (2..60)
            .find_map(|max_nodes| {
                p.solve(&SolveOptions {
                    max_nodes,
                    ..SolveOptions::default()
                })
                .ok()
                .filter(|s| s.status == Status::LimitReached)
            })
            .expect("some budget truncates with an incumbent");
        let optimum = brute_force(&p).unwrap();
        assert!(
            truncated.best_bound <= optimum + 1e-6,
            "best_bound {} must lower-bound the optimum {optimum}",
            truncated.best_bound
        );
        assert!(
            optimum <= truncated.objective + 1e-6,
            "incumbent {} must upper-bound the optimum {optimum}",
            truncated.objective
        );
        assert!(truncated.optimality_gap() >= 0.0);
        // The completed solve closes the gap entirely.
        let complete = p.solve(&SolveOptions::default()).unwrap();
        assert_eq!(complete.status, Status::Optimal);
        assert_eq!(complete.best_bound.to_bits(), complete.objective.to_bits());
        assert_eq!(complete.optimality_gap(), 0.0);
    }

    #[test]
    fn node_limit_respected() {
        let mut p = Problem::minimize();
        let n = 16;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_binary(-((i % 5) as f64) - 0.5))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, Cmp::Le, (n / 2) as f64);
        let sol = p.solve(&SolveOptions {
            max_nodes: 3,
            ..SolveOptions::default()
        });
        // Either found an incumbent within 3 nodes (LimitReached/Optimal) or
        // reports NoIncumbent; all are acceptable, crash is not.
        if let Ok(s) = sol {
            assert!(s.nodes_explored <= 3);
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -y - 10 b  s.t. y <= 4 + 6 b, y <= 8, b binary.
        // b=1: y=8, obj -18. b=0: y=4, obj -4. Optimal -18.
        let mut p = Problem::minimize();
        let y = p.add_continuous(0.0, 8.0, -1.0);
        let b = p.add_binary(-10.0);
        p.add_constraint(&[(y, 1.0), (b, -6.0)], Cmp::Le, 4.0);
        let sol = p.solve(&SolveOptions::default()).unwrap();
        assert!(
            (sol.objective + 18.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert_eq!(sol.int_value(b), 1);
    }

    #[test]
    fn symmetric_optima_resolve_to_lexicographically_smallest() {
        // min -a - b s.t. 2a + 2b <= 3: the LP root is fractional (1.5
        // items fit), and the two integer optima (1,0) and (0,1) tie at
        // objective -1. The tie-preserving pruning explores both, and
        // the deterministic merge must keep the lexicographically
        // smallest assignment — (0,1) — for every job count. (The old
        // first-found-wins acceptance returned whichever branch the DFS
        // happened to reach first.)
        for jobs in [1usize, 2, 4] {
            let mut p = Problem::minimize();
            let a = p.add_binary(-1.0);
            let b = p.add_binary(-1.0);
            p.add_constraint(&[(a, 2.0), (b, 2.0)], Cmp::Le, 3.0);
            let sol = p
                .solve(&SolveOptions {
                    jobs,
                    ..SolveOptions::default()
                })
                .unwrap();
            assert_eq!(sol.objective, -1.0, "jobs={jobs}");
            assert_eq!(
                (sol.int_value(a), sol.int_value(b)),
                (0, 1),
                "jobs={jobs}: tie must break to the lex-smallest assignment"
            );
            assert_eq!(sol.status, Status::Optimal);
        }
    }

    #[test]
    fn wider_symmetry_is_deterministic_across_jobs() {
        // 2.5 identical items fit, so every 2-of-4 subset ties at -4 and
        // the root LP is fractional: a thicket of alternate optima. The
        // returned assignment must be bit-identical for every job count.
        let solve_at = |jobs: usize| {
            let mut p = Problem::minimize();
            let vars: Vec<_> = (0..4).map(|_| p.add_binary(-2.0)).collect();
            let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
            p.add_constraint(&terms, Cmp::Le, 5.0);
            p.solve(&SolveOptions {
                jobs,
                ..SolveOptions::default()
            })
            .unwrap()
        };
        let serial = solve_at(1);
        assert_eq!(serial.objective, -4.0);
        assert_eq!(serial.values.iter().filter(|&&v| v > 0.5).count(), 2);
        for jobs in [2usize, 3, 4] {
            let par = solve_at(jobs);
            let serial_bits: Vec<u64> = serial.values.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u64> = par.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(par_bits, serial_bits, "jobs={jobs}");
            assert_eq!(par.status, serial.status, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_matches_serial_bytes() {
        // The full Solution-relevant surface (objective bits, value
        // bits, status) must agree across job counts.
        for seed in 0..5u64 {
            let mut p = Problem::minimize();
            let n = 9;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_binary(((seed * 11 + i as u64 * 5) % 9) as f64 - 4.0))
                .collect();
            let weights: Vec<f64> = (0..n)
                .map(|i| ((seed * 3 + i as u64 * 7) % 6 + 1) as f64)
                .collect();
            let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
            p.add_constraint(&terms, Cmp::Le, weights.iter().sum::<f64>() / 2.0);
            let serial = p
                .solve(&SolveOptions {
                    jobs: 1,
                    ..SolveOptions::default()
                })
                .unwrap();
            for jobs in [2usize, 4] {
                let par = p
                    .solve(&SolveOptions {
                        jobs,
                        ..SolveOptions::default()
                    })
                    .unwrap();
                assert_eq!(
                    par.objective.to_bits(),
                    serial.objective.to_bits(),
                    "seed {seed} jobs {jobs}"
                );
                let serial_bits: Vec<u64> = serial.values.iter().map(|v| v.to_bits()).collect();
                let par_bits: Vec<u64> = par.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(par_bits, serial_bits, "seed {seed} jobs {jobs}");
                assert_eq!(par.status, serial.status, "seed {seed} jobs {jobs}");
            }
        }
    }
}
