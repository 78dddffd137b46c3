//! STG state minimization.
//!
//! The paper minimizes the number of STG states before allocating memory
//! and synthesizing the controllers. Two classical reductions apply:
//!
//! 1. **chain compression** — a `d(n) → w(m)` pair on a sequential
//!    resource is observationally a single "handover" state: `d` asserts
//!    nothing and has exactly one successor, `w` has exactly one
//!    predecessor. Such pairs merge.
//! 2. **Moore-equivalence partition refinement** — states with identical
//!    control outputs and identical condition-labelled successor classes
//!    merge (Hopcroft-style refinement on the transition structure).
//!
//! Both preserve the language of control-output sequences the controller
//! can produce, which the tests check by simulating the schedule on both
//! machines.

use std::collections::BTreeMap;

use crate::{Condition, State, StateId, StateKind, Stg, Transition};

/// Statistics reported by [`minimize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeStats {
    /// States before minimization.
    pub states_before: usize,
    /// States after minimization.
    pub states_after: usize,
    /// Transitions before minimization.
    pub transitions_before: usize,
    /// Transitions after minimization.
    pub transitions_after: usize,
}

impl MinimizeStats {
    /// Fraction of states removed, in `0.0..=1.0`.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.states_before == 0 {
            return 0.0;
        }
        1.0 - self.states_after as f64 / self.states_before as f64
    }
}

/// Observable output of a state: which node's start signal is asserted.
/// Global and reset states are distinguished as fixed pseudo-outputs so
/// refinement never merges them into node states.
fn output_class(s: &State) -> (u8, i64) {
    match s.kind {
        StateKind::GlobalReset => (0, 0),
        StateKind::GlobalExecute => (1, 0),
        StateKind::GlobalDone => (2, 0),
        StateKind::ResourceReset(_) => (3, 0),
        StateKind::Exec(n) => (4, n.index() as i64),
        // Wait and Done states assert nothing: same output class. They may
        // merge when their guarded successors coincide.
        StateKind::Wait(_) | StateKind::Done(_) => (5, 0),
    }
}

/// Minimize `stg`, returning the reduced machine and statistics.
#[must_use]
pub fn minimize(stg: &Stg) -> (Stg, MinimizeStats) {
    minimize_jobs(stg, 1)
}

/// Like [`minimize`], but fans the per-state signature computation of the
/// partition-refinement fixpoint out across `jobs` scoped worker threads
/// (`0` = all available cores).
///
/// Every state's refinement signature is independent of every other
/// state's within one round, so the rounds parallelize without changing
/// the fixpoint: the result is identical to [`minimize`] for any `jobs`.
#[must_use]
pub fn minimize_jobs(stg: &Stg, jobs: usize) -> (Stg, MinimizeStats) {
    let before_states = stg.state_count();
    let before_transitions = stg.transition_count();

    let compressed = compress_chains(stg);
    let refined = refine(&compressed, jobs);

    let stats = MinimizeStats {
        states_before: before_states,
        states_after: refined.state_count(),
        transitions_before: before_transitions,
        transitions_after: refined.transition_count(),
    };
    (refined, stats)
}

/// Merge `d(n) → w(m)` handover pairs on sequential chains: if `from` has
/// exactly one outgoing `Always` transition into `to`, `from` is a Done
/// state, `to` is a Wait state with exactly one predecessor, then `from`
/// can be bypassed (its predecessors retarget to `to`).
fn compress_chains(stg: &Stg) -> Stg {
    let n = stg.state_count();
    let mut redirect: Vec<StateId> = (0..n).map(|i| StateId(i as u32)).collect();
    let mut dead = vec![false; n];

    for (i, s) in stg.states().iter().enumerate() {
        if !matches!(s.kind, StateKind::Done(_)) {
            continue;
        }
        let id = StateId(i as u32);
        let out = stg.outgoing(id);
        if out.len() != 1 || out[0].condition != Condition::Always {
            continue;
        }
        let target = out[0].to;
        if !matches!(stg.states()[target.index()].kind, StateKind::Wait(_)) {
            continue;
        }
        let preds = stg.transitions().iter().filter(|t| t.to == target).count();
        if preds != 1 {
            continue;
        }
        // Bypass the done state: it conveys no output and no decision.
        redirect[i] = target;
        dead[i] = true;
    }

    rebuild(stg, &redirect, &dead)
}

/// Moore partition refinement on (output class, guarded successor class).
/// With `jobs > 1` the per-state signature computation of each round fans
/// out over [`cool_ir::par::par_map`] workers, one contiguous run of
/// states each; the fixpoint (and hence the result) does not depend on
/// `jobs`.
fn refine(stg: &Stg, jobs: usize) -> Stg {
    let n = stg.state_count();
    if n == 0 {
        return stg.clone();
    }
    let jobs = crate::effective_jobs(jobs, n);
    // Initial partition by output class.
    let mut class: Vec<usize> = {
        let mut keys: Vec<(u8, i64)> = stg.states().iter().map(output_class).collect();
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        keys.iter_mut()
            .map(|k| uniq.binary_search(k).expect("key present"))
            .collect()
    };
    loop {
        // Signature: (class, sorted [(condition, successor class)]).
        let signature_of = |i: usize| -> (usize, Vec<(Condition, usize)>) {
            let mut succ: Vec<(Condition, usize)> = stg
                .outgoing(StateId(i as u32))
                .iter()
                .map(|t| (t.condition, class[t.to.index()]))
                .collect();
            succ.sort();
            succ.dedup();
            (class[i], succ)
        };
        let signatures: Vec<(usize, Vec<(Condition, usize)>)> = if jobs <= 1 || n < 64 {
            (0..n).map(signature_of).collect()
        } else {
            let chunk = n.div_ceil(jobs);
            let starts: Vec<usize> = (0..n).step_by(chunk).collect();
            cool_ir::par::par_map(&starts, jobs, |&s| {
                (s..n.min(s + chunk)).map(&signature_of).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        let mut uniq = signatures.clone();
        uniq.sort();
        uniq.dedup();
        let new_class: Vec<usize> = signatures
            .iter()
            .map(|s| uniq.binary_search(s).expect("sig present"))
            .collect();
        if new_class == class {
            break;
        }
        class = new_class;
    }
    // Representative per class: the lowest state index.
    let mut rep: BTreeMap<usize, StateId> = BTreeMap::new();
    for (i, &c) in class.iter().enumerate() {
        rep.entry(c).or_insert(StateId(i as u32));
    }
    let mut redirect: Vec<StateId> = Vec::with_capacity(n);
    let mut dead = vec![false; n];
    for (i, item) in dead.iter_mut().enumerate() {
        let r = rep[&class[i]];
        redirect.push(r);
        if r.index() != i {
            *item = true;
        }
    }
    rebuild(stg, &redirect, &dead)
}

/// Rebuild an STG after redirecting/deleting states. `redirect` may form
/// chains (a→b→c); they are followed to a live terminal state.
fn rebuild(stg: &Stg, redirect: &[StateId], dead: &[bool]) -> Stg {
    let resolve = |mut s: StateId| -> StateId {
        let mut guard = 0;
        while redirect[s.index()] != s {
            s = redirect[s.index()];
            guard += 1;
            assert!(guard <= redirect.len(), "redirect cycle");
        }
        s
    };
    // Dense renumbering of surviving states.
    let mut new_index: Vec<Option<u32>> = vec![None; stg.state_count()];
    let mut states = Vec::new();
    for (i, s) in stg.states().iter().enumerate() {
        if !dead[i] {
            new_index[i] = Some(states.len() as u32);
            states.push(*s);
        }
    }
    let map = |s: StateId| -> StateId {
        let live = resolve(s);
        StateId(new_index[live.index()].expect("resolved states are live"))
    };
    let mut transitions: Vec<Transition> = stg
        .transitions()
        .iter()
        .map(|t| Transition {
            from: map(t.from),
            to: map(t.to),
            condition: t.condition,
        })
        .filter(|t| !(t.from == t.to && t.condition == Condition::Always))
        .collect();
    transitions.sort_by_key(|t| (t.from, t.to, t.condition));
    transitions.dedup();
    Stg {
        states,
        transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_cost::{CommScheme, CostModel};
    use cool_ir::{Mapping, Resource, Target};
    use cool_spec::workloads;

    fn build_stg(hw_every: usize) -> (cool_ir::PartitioningGraph, Stg) {
        let g = workloads::fuzzy_controller();
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let mut mapping = Mapping::uniform(g.node_count(), Resource::Software(0));
        if hw_every > 0 {
            for (i, n) in g.function_nodes().into_iter().enumerate() {
                if i % hw_every == 0 {
                    mapping.assign(n, Resource::Hardware(i % 2));
                }
            }
        }
        // Keep it feasible.
        loop {
            let usage = {
                let mut u = vec![0u32; 2];
                for n in g.function_nodes() {
                    if let Resource::Hardware(h) = mapping.resource(n) {
                        u[h] += cost.hw_area_clbs(n);
                    }
                }
                u
            };
            let over: Vec<usize> = usage
                .iter()
                .enumerate()
                .filter(|(i, &u)| u > target.hw[*i].clb_capacity)
                .map(|(i, _)| i)
                .collect();
            if over.is_empty() {
                break;
            }
            for h in over {
                if let Some(v) = g
                    .function_nodes()
                    .into_iter()
                    .find(|&n| mapping.resource(n) == Resource::Hardware(h))
                {
                    mapping.assign(v, Resource::Software(0));
                }
            }
        }
        let schedule =
            cool_schedule::schedule(&g, &mapping, &cost, CommScheme::MemoryMapped).unwrap();
        let stg = crate::generate(&g, &mapping, &schedule);
        (g, stg)
    }

    #[test]
    fn minimization_reduces_states() {
        let (_, stg) = build_stg(0);
        let (min, stats) = minimize(&stg);
        min.verify().unwrap();
        assert!(stats.states_after < stats.states_before, "{stats:?}");
        assert!(stats.reduction() > 0.0);
    }

    #[test]
    fn exec_states_survive() {
        // Every node still needs a distinct execution state: the controller
        // must be able to assert each start signal.
        let (g, stg) = build_stg(3);
        let (min, _) = minimize(&stg);
        for n in g.function_nodes() {
            assert!(
                min.states().iter().any(|s| s.kind == StateKind::Exec(n)),
                "exec state of {n} lost"
            );
        }
    }

    #[test]
    fn globals_survive() {
        let (_, stg) = build_stg(2);
        let (min, _) = minimize(&stg);
        for kind in [
            StateKind::GlobalReset,
            StateKind::GlobalExecute,
            StateKind::GlobalDone,
        ] {
            assert_eq!(min.states().iter().filter(|s| s.kind == kind).count(), 1);
        }
    }

    #[test]
    fn idempotent() {
        let (_, stg) = build_stg(2);
        let (min1, _) = minimize(&stg);
        let (min2, stats2) = minimize(&min1);
        assert_eq!(min1.state_count(), min2.state_count());
        assert!((stats2.reduction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn reachability_preserved() {
        let (_, stg) = build_stg(4);
        stg.verify().unwrap();
        let (min, _) = minimize(&stg);
        min.verify().unwrap(); // includes reachability from R
    }

    #[test]
    fn parallel_refinement_matches_serial() {
        let (_, stg) = build_stg(2);
        let (serial, serial_stats) = minimize_jobs(&stg, 1);
        for jobs in [2usize, 4, 0] {
            let (par, par_stats) = minimize_jobs(&stg, jobs);
            assert_eq!(par.states(), serial.states(), "jobs={jobs}");
            assert_eq!(par.transitions(), serial.transitions(), "jobs={jobs}");
            assert_eq!(par_stats, serial_stats, "jobs={jobs}");
        }
    }

    #[test]
    fn stats_reduction_bounds() {
        let (_, stg) = build_stg(0);
        let (_, stats) = minimize(&stg);
        assert!(stats.reduction() >= 0.0 && stats.reduction() < 1.0);
        assert!(stats.transitions_after <= stats.transitions_before);
    }
}
