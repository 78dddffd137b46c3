//! FSM state-encoding optimization.
//!
//! Logic synthesis of the communicating controllers (Oscar + Synopsys in
//! the paper) spends most of its time searching implementation spaces.
//! This module reproduces the state-assignment part: given the system
//! controller's STG, it searches binary state encodings that minimize the
//! total Hamming distance across transitions — the classical proxy for
//! next-state logic size. The search effort is configurable and is what
//! makes hardware synthesis dominate end-to-end flow time, as the paper
//! reports (> 90 %).

use cool_stg::Stg;

use crate::adjacency::Adjacency;

/// A state assignment: one binary code per state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateEncoding {
    /// Code per state, indexed like the STG's states.
    pub codes: Vec<u32>,
    /// Bits per code.
    pub bits: u32,
    /// Total Hamming distance over all transitions (lower = cheaper
    /// next-state logic).
    pub cost: u64,
    /// Number of candidate encodings examined.
    pub candidates_tried: usize,
}

/// Cost of an assignment: sum of Hamming distances across transitions.
#[must_use]
pub fn encoding_cost(stg: &Stg, codes: &[u32]) -> u64 {
    stg.transitions()
        .iter()
        .map(|t| u64::from((codes[t.from.index()] ^ codes[t.to.index()]).count_ones()))
        .sum()
}

/// Search a good binary encoding for the STG's states.
///
/// Deterministic: `effort` is split across up to [`ENCODING_STREAMS`]
/// independent seeded search streams; each stream explores random swap
/// mutations plus a greedy pairwise-improvement pass per candidate,
/// keeping the cheapest (ties broken by stream index). `effort = 0`
/// returns the identity encoding.
#[must_use]
pub fn optimize_encoding(stg: &Stg, effort: u32) -> StateEncoding {
    optimize_encoding_jobs(stg, effort, 1)
}

/// Number of independent search streams [`optimize_encoding_jobs`]
/// splits its effort across. Fixed (never derived from the jobs knob) so
/// that the result is identical for every worker count.
pub const ENCODING_STREAMS: u32 = 8;

/// Like [`optimize_encoding`], but running the independent search
/// streams on `jobs` scoped worker threads (`0` = all cores).
///
/// Stream count and seeds depend only on `effort`, so the returned
/// encoding is identical for every `jobs` value; only wall-clock
/// changes.
#[must_use]
pub fn optimize_encoding_jobs(stg: &Stg, effort: u32, jobs: usize) -> StateEncoding {
    let n = stg.state_count();
    let bits = if n <= 1 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    };
    let streams = ENCODING_STREAMS.min(effort.max(1));
    let base = effort / streams;
    let rem = effort % streams;
    let runs: Vec<(u32, u64)> = (0..streams)
        .map(|k| {
            let stream_effort = base + u32::from(k < rem);
            // SplitMix64 over the stream index; stream 0 keeps the
            // historical constant so low-effort searches stay comparable.
            let mut z = 0x9e37_79b9_7f4a_7c15u64
                .wrapping_add(u64::from(k).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (
                stream_effort,
                if k == 0 {
                    0x9e37_79b9_7f4a_7c15
                } else {
                    z ^ (z >> 31)
                },
            )
        })
        .collect();

    let results: Vec<StreamResult> =
        cool_ir::par::par_map(&runs, jobs, |&(e, s)| search_stream(stg, e, s));

    let tried: usize = results.iter().map(|(_, _, t)| t).sum::<usize>() - (results.len() - 1);
    let (codes, cost, _) = results
        .into_iter()
        .enumerate()
        .min_by_key(|(k, (_, cost, _))| (*cost, *k))
        .map(|(_, r)| r)
        .expect("at least one stream");
    StateEncoding {
        codes,
        bits,
        cost,
        candidates_tried: tried,
    }
}

/// Result of one search stream: `(codes, cost, candidates tried)`.
type StreamResult = (Vec<u32>, u64, usize);

/// One sequential search stream: `effort × states` random swap mutations
/// of the stream's best, each followed by a greedy adjacent-swap pass.
/// Every swap is priced from the transitions at the two swapped states.
fn search_stream(stg: &Stg, effort: u32, seed: u64) -> StreamResult {
    let n = stg.state_count();
    let neighbours = Adjacency::new(
        n,
        stg.transitions()
            .iter()
            .map(|t| (t.from.index(), t.to.index())),
    );
    let identity: Vec<u32> = (0..n as u32).collect();
    let mut best = identity.clone();
    let mut best_cost = encoding_cost(stg, &best);
    let mut tried = 1usize;

    let mut rng_state = seed | 1;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    let rounds = effort as usize * n;
    let mut candidate = identity;
    for _ in 0..rounds {
        // Random swap mutation of the current best.
        candidate.copy_from_slice(&best);
        let i = (next() % n.max(1) as u64) as usize;
        let j = (next() % n.max(1) as u64) as usize;
        let mut cost = recost(best_cost, swap_delta(&neighbours, &candidate, i, j));
        candidate.swap(i, j);
        // Greedy improvement: try swapping each adjacent pair once.
        for k in 0..n.saturating_sub(1) {
            let delta = swap_delta(&neighbours, &candidate, k, k + 1);
            if delta < 0 {
                candidate.swap(k, k + 1);
                cost = recost(cost, delta);
            }
            tried += 1;
        }
        if cost < best_cost {
            best_cost = cost;
            best.copy_from_slice(&candidate);
        }
        tried += 1;
    }
    debug_assert_eq!(best_cost, encoding_cost(stg, &best));
    (best, best_cost, tried)
}

/// `cost` changed by `delta`.
fn recost(cost: u64, delta: i64) -> u64 {
    cost.checked_add_signed(delta)
        .expect("a total Hamming distance is never negative")
}

/// Change in total Hamming distance when states `p` and `q` swap codes.
/// A transition between `p` and `q` keeps its distance.
fn swap_delta(neighbours: &Adjacency, codes: &[u32], p: usize, q: usize) -> i64 {
    let recoded = |state: usize, partner: usize, code: u32| -> i64 {
        neighbours
            .of(state)
            .iter()
            .filter(|&&o| o != partner)
            .map(|&o| {
                i64::from((code ^ codes[o]).count_ones())
                    - i64::from((codes[state] ^ codes[o]).count_ones())
            })
            .sum()
    };
    recoded(p, q, codes[q]) + recoded(q, p, codes[p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_cost::{CommScheme, CostModel};
    use cool_ir::{Mapping, Resource, Target};
    use cool_spec::workloads;

    fn stg() -> Stg {
        stg_of(&workloads::equalizer(4), Resource::Software(0))
    }

    /// The minimized STG of `g` with every node mapped to `resource`.
    fn stg_of(g: &cool_ir::PartitioningGraph, resource: Resource) -> Stg {
        let target = Target::fuzzy_board();
        let cost = CostModel::new(g, &target);
        let mapping = Mapping::uniform(g.node_count(), resource);
        let sched = cool_schedule::schedule(g, &mapping, &cost, CommScheme::MemoryMapped).unwrap();
        let (min, _) = cool_stg::minimize(&cool_stg::generate(g, &mapping, &sched));
        min
    }

    /// The search stream as it was before swaps were priced from the
    /// transitions at the swapped states: every candidate's cost is
    /// recomputed over all transitions.
    fn reference_search_stream(stg: &Stg, effort: u32, seed: u64) -> StreamResult {
        let n = stg.state_count();
        let identity: Vec<u32> = (0..n as u32).collect();
        let mut best = identity.clone();
        let mut best_cost = encoding_cost(stg, &best);
        let mut tried = 1usize;

        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };

        let rounds = effort as usize * n;
        let mut candidate = identity;
        for _ in 0..rounds {
            candidate.copy_from_slice(&best);
            let i = (next() % n.max(1) as u64) as usize;
            let j = (next() % n.max(1) as u64) as usize;
            candidate.swap(i, j);
            let mut cost = encoding_cost(stg, &candidate);
            for k in 0..n.saturating_sub(1) {
                candidate.swap(k, k + 1);
                let c2 = encoding_cost(stg, &candidate);
                if c2 < cost {
                    cost = c2;
                } else {
                    candidate.swap(k, k + 1);
                }
                tried += 1;
            }
            if cost < best_cost {
                best_cost = cost;
                best.copy_from_slice(&candidate);
            }
            tried += 1;
        }
        (best, best_cost, tried)
    }

    #[test]
    fn search_stream_matches_the_reference_search() {
        let stgs = [
            stg(),
            stg_of(&workloads::equalizer(4), Resource::Hardware(0)),
            stg_of(&workloads::fuzzy_controller(), Resource::Software(0)),
            stg_of(&workloads::fir(6), Resource::Hardware(1)),
            stg_of(&workloads::dct8(), Resource::Software(0)),
            stg_of(&workloads::state_machine(6, 2), Resource::Software(0)),
        ];
        for (k, s) in stgs.iter().enumerate() {
            // Efforts from none to the default per-stream effort (40).
            for effort in [0, 1, 2, 3, 5, 8, 13, 40] {
                for seed in [0x9e37_79b9_7f4a_7c15, u64::from(effort) * 31 + k as u64] {
                    assert_eq!(
                        search_stream(s, effort, seed),
                        reference_search_stream(s, effort, seed),
                        "STG {k} ({} states, {} transitions), effort {effort}, seed {seed}",
                        s.state_count(),
                        s.transition_count()
                    );
                }
            }
        }
    }

    #[test]
    fn codes_are_a_permutation() {
        let s = stg();
        let enc = optimize_encoding(&s, 4);
        let mut codes = enc.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), s.state_count(), "codes must be unique");
    }

    #[test]
    fn more_effort_never_hurts() {
        let s = stg();
        let low = optimize_encoding(&s, 1);
        let high = optimize_encoding(&s, 8);
        assert!(high.cost <= low.cost);
        assert!(high.candidates_tried > low.candidates_tried);
    }

    #[test]
    fn cost_matches_manual_computation() {
        let s = stg();
        let enc = optimize_encoding(&s, 2);
        assert_eq!(enc.cost, encoding_cost(&s, &enc.codes));
    }

    #[test]
    fn deterministic() {
        let s = stg();
        assert_eq!(optimize_encoding(&s, 3), optimize_encoding(&s, 3));
    }

    #[test]
    fn zero_effort_is_identity() {
        let s = stg();
        let enc = optimize_encoding(&s, 0);
        assert_eq!(enc.codes, (0..s.state_count() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_invariant() {
        let s = stg();
        let serial = optimize_encoding_jobs(&s, 24, 1);
        for jobs in [2usize, 4, 0] {
            assert_eq!(optimize_encoding_jobs(&s, 24, jobs), serial, "jobs={jobs}");
        }
        // And the single-threaded entry point is the jobs=1 result.
        assert_eq!(optimize_encoding(&s, 24), serial);
    }
}
