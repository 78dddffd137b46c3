//! CLB placement for the XC4000-class FPGAs — the place-and-route
//! stand-in.
//!
//! The paper's flow ends with Xilinx implementation of the synthesized
//! VHDL on two XC4005 devices, and that back-end work is what made
//! "hardware synthesis consume more than 90 % of the design time". This
//! module reproduces the placement half: cells (one per CLB of every
//! hardware block and controller) are placed on the device's CLB grid by
//! simulated annealing minimizing total half-perimeter wirelength (HPWL).
//! Every net joins two cells, so a net's HPWL is the Manhattan distance
//! between them. Routing is approximated by the final HPWL (a standard
//! proxy).

use std::fmt;

use crate::adjacency::Adjacency;

/// A placement problem: `cells` CLBs connected by two-pin `nets` on a
/// `width × height` CLB grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementProblem {
    /// Number of cells (CLBs) to place.
    pub cells: usize,
    /// Nets as pairs of cell indices.
    pub nets: Vec<[usize; 2]>,
    /// Grid width in CLB sites (14 for the XC4005).
    pub width: u16,
    /// Grid height in CLB sites (14 for the XC4005).
    pub height: u16,
}

impl PlacementProblem {
    /// Build the placement problem for one FPGA of a synthesized design:
    /// each hardware block contributes its CLB count as a chained cluster,
    /// and one star net ties every block's first CLB to the datapath
    /// controller cluster.
    ///
    /// `block_clbs` lists the CLB count of each hardware block on this
    /// device; `controller_clbs` is the datapath controller's size.
    #[must_use]
    pub fn for_device(
        block_clbs: &[u32],
        controller_clbs: u32,
        width: u16,
        height: u16,
    ) -> PlacementProblem {
        let mut nets: Vec<[usize; 2]> = Vec::new();
        let mut first_cell_of_block = Vec::new();
        let mut next = 0usize;
        for &clbs in block_clbs {
            let n = clbs.max(1) as usize;
            first_cell_of_block.push(next);
            // Chain net per block: datapath CLBs are locally connected.
            for i in 0..n.saturating_sub(1) {
                nets.push([next + i, next + i + 1]);
            }
            next += n;
        }
        let ctrl_start = next;
        let ctrl = controller_clbs.max(1) as usize;
        for i in 0..ctrl.saturating_sub(1) {
            nets.push([ctrl_start + i, ctrl_start + i + 1]);
        }
        next += ctrl;
        // Star: controller drives every block (start/done handshakes).
        for &f in &first_cell_of_block {
            nets.push([ctrl_start, f]);
        }
        PlacementProblem {
            cells: next,
            nets,
            width,
            height,
        }
    }

    /// `true` if the problem fits the grid.
    #[must_use]
    pub fn fits(&self) -> bool {
        self.cells <= usize::from(self.width) * usize::from(self.height)
    }
}

/// The result of annealing a [`PlacementProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Site of each cell as `(x, y)`.
    pub positions: Vec<(u16, u16)>,
    /// Final total half-perimeter wirelength.
    pub wirelength: u64,
    /// Initial (pre-annealing) wirelength, for the improvement report.
    pub initial_wirelength: u64,
    /// Annealing moves attempted.
    pub moves: usize,
}

impl Placement {
    /// Fractional wirelength improvement over the initial placement.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.initial_wirelength == 0 {
            return 0.0;
        }
        1.0 - self.wirelength as f64 / self.initial_wirelength as f64
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placement: {} cells, HPWL {} (from {}, {:.0} % better), {} moves",
            self.positions.len(),
            self.wirelength,
            self.initial_wirelength,
            self.improvement() * 100.0,
            self.moves
        )
    }
}

/// Manhattan distance between two sites.
fn manhattan(a: (u16, u16), b: (u16, u16)) -> u32 {
    u32::from(a.0.abs_diff(b.0)) + u32::from(a.1.abs_diff(b.1))
}

/// Total HPWL of an assignment.
#[must_use]
pub fn wirelength(problem: &PlacementProblem, positions: &[(u16, u16)]) -> u64 {
    problem
        .nets
        .iter()
        .map(|&[a, b]| u64::from(manhattan(positions[a], positions[b])))
        .sum()
}

/// Place by simulated annealing. `effort` scales the move budget
/// (`effort × cells × 32` moves); deterministic for equal inputs.
///
/// # Panics
///
/// Panics if the problem does not fit the grid.
#[must_use]
pub fn anneal(problem: &PlacementProblem, effort: u32, seed: u64) -> Placement {
    assert!(
        problem.fits(),
        "{} cells exceed the {}x{} grid",
        problem.cells,
        problem.width,
        problem.height
    );
    let sites = usize::from(problem.width) * usize::from(problem.height);
    // Site `y × width + x` is at `(x, y)`.
    let xy: Vec<(u16, u16)> = (0..problem.height)
        .flat_map(|y| (0..problem.width).map(move |x| (x, y)))
        .collect();
    // site_of_cell / cell_of_site bookkeeping; initial placement row-major.
    let mut pos: Vec<usize> = (0..problem.cells).collect();
    let mut occupant: Vec<Option<usize>> = (0..sites)
        .map(|s| if s < problem.cells { Some(s) } else { None })
        .collect();
    let positions = |pos: &[usize]| -> Vec<(u16, u16)> { pos.iter().map(|&s| xy[s]).collect() };

    let initial_wl = wirelength(problem, &positions(&pos));
    let mut current = initial_wl as i64;

    let mut rng = seed | 1;
    let mut next_u64 = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    // A move changes only the nets of the cells it moves, so its delta
    // is the change in length of their connections to unmoved cells.
    let neighbours = Adjacency::new(problem.cells, problem.nets.iter().map(|&[a, b]| (a, b)));
    // Length change of `cell`'s nets when it goes from `from` to `to`,
    // leaving out its nets to `partner`: two cells that swap sites keep
    // the distance between them.
    let shift = |cell: usize, partner: Option<usize>, from, to, pos: &[usize]| -> i64 {
        neighbours
            .of(cell)
            .iter()
            .filter(|&&n| Some(n) != partner)
            .map(|&n| {
                let site = xy[pos[n]];
                i64::from(manhattan(to, site)) - i64::from(manhattan(from, site))
            })
            .sum()
    };

    let moves = effort as usize * problem.cells * 32;
    let mut temperature = (problem.width + problem.height) as f64;
    let cooling = if moves > 0 {
        (0.005f64 / temperature).powf(1.0 / moves as f64)
    } else {
        1.0
    };

    for _ in 0..moves {
        let cell = (next_u64() % problem.cells as u64) as usize;
        let target_site = (next_u64() % sites as u64) as usize;
        let old_site = pos[cell];
        if target_site == old_site {
            temperature *= cooling;
            continue;
        }
        let other = occupant[target_site];
        let (from, to) = (xy[old_site], xy[target_site]);
        let delta = shift(cell, other, from, to, &pos)
            + other.map_or(0, |o| shift(o, Some(cell), to, from, &pos));
        let accept = delta <= 0 || {
            let p = (-(delta as f64) / temperature.max(1e-9)).exp();
            (next_u64() % 1_000_000) as f64 / 1_000_000.0 < p
        };
        if accept {
            pos[cell] = target_site;
            if let Some(o) = other {
                pos[o] = old_site;
            }
            occupant[old_site] = other;
            occupant[target_site] = Some(cell);
            current += delta;
        }
        temperature *= cooling;
    }

    let final_positions = positions(&pos);
    debug_assert_eq!(current as u64, wirelength(problem, &final_positions));
    Placement {
        positions: final_positions,
        wirelength: current as u64,
        initial_wirelength: initial_wl,
        moves,
    }
}

/// Number of independent chains [`anneal_multistart`] splits its move
/// budget across. Fixed (never derived from the jobs knob) so that the
/// result is identical for every worker count.
pub const MULTISTART_CHAINS: u32 = 8;

/// Deterministic multi-start annealing: split `effort` across up to
/// [`MULTISTART_CHAINS`] independent seeded chains, keep the best final
/// placement (ties broken by chain index).
///
/// A single annealing chain is a sequential Markov process and cannot be
/// parallelized without changing its trajectory; independent restarts
/// can. The chain count and per-chain seeds depend only on `effort` and
/// `seed`, so the returned placement is byte-identical for every `jobs`
/// value — `jobs` (`0` = all cores) only spreads the chains across
/// scoped worker threads. The total move budget matches a single
/// [`anneal`] call of the same `effort`.
///
/// # Panics
///
/// Panics if the problem does not fit the grid.
#[must_use]
pub fn anneal_multistart(
    problem: &PlacementProblem,
    effort: u32,
    seed: u64,
    jobs: usize,
) -> Placement {
    let chains = MULTISTART_CHAINS.min(effort.max(1));
    let base = effort / chains;
    let rem = effort % chains;
    let runs: Vec<(u32, u64)> = (0..chains)
        .map(|k| {
            let chain_effort = base + u32::from(k < rem);
            // SplitMix64 over (seed, k): decorrelates chains cheaply.
            let mut z = seed
                .wrapping_add(u64::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (chain_effort, z ^ (z >> 31))
        })
        .collect();

    let results: Vec<Placement> =
        cool_ir::par::par_map(&runs, jobs, |&(e, s)| anneal(problem, e, s));

    let total_moves: usize = results.iter().map(|p| p.moves).sum();
    let mut best = results
        .into_iter()
        .enumerate()
        .min_by_key(|(k, p)| (p.wirelength, *k))
        .map(|(_, p)| p)
        .expect("at least one chain");
    best.moves = total_moves;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_ir::rng::StdRng;

    /// The anneal as it was before moves were priced from neighbour
    /// lists: every move recomputes the bounding box of each net of the
    /// moved cells, through a site-to-coordinate division.
    fn reference_anneal(problem: &PlacementProblem, effort: u32, seed: u64) -> Placement {
        assert!(problem.fits());
        let sites = usize::from(problem.width) * usize::from(problem.height);
        let mut pos: Vec<usize> = (0..problem.cells).collect();
        let mut occupant: Vec<Option<usize>> = (0..sites)
            .map(|s| if s < problem.cells { Some(s) } else { None })
            .collect();
        let coord = |site: usize| -> (u16, u16) {
            (
                (site % usize::from(problem.width)) as u16,
                (site / usize::from(problem.width)) as u16,
            )
        };
        let positions =
            |pos: &[usize]| -> Vec<(u16, u16)> { pos.iter().map(|&s| coord(s)).collect() };

        let initial_wl = wirelength(problem, &positions(&pos));
        let mut current = initial_wl as i64;

        let mut rng = seed | 1;
        let mut next_u64 = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };

        let mut nets_of_cell: Vec<Vec<usize>> = vec![Vec::new(); problem.cells];
        for (ni, net) in problem.nets.iter().enumerate() {
            for &c in net {
                nets_of_cell[c].push(ni);
            }
        }
        let net_wl = |net: &[usize], pos: &[usize]| -> i64 {
            let (mut xmin, mut xmax, mut ymin, mut ymax) = (u16::MAX, 0u16, u16::MAX, 0u16);
            for &c in net {
                let (x, y) = coord(pos[c]);
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
            i64::from(xmax - xmin) + i64::from(ymax - ymin)
        };

        let moves = effort as usize * problem.cells * 32;
        let mut temperature = (problem.width + problem.height) as f64;
        let cooling = if moves > 0 {
            (0.005f64 / temperature).powf(1.0 / moves as f64)
        } else {
            1.0
        };

        for _ in 0..moves {
            let cell = (next_u64() % problem.cells as u64) as usize;
            let target_site = (next_u64() % sites as u64) as usize;
            let old_site = pos[cell];
            if target_site == old_site {
                temperature *= cooling;
                continue;
            }
            let other = occupant[target_site];
            let mut affected: Vec<usize> = nets_of_cell[cell].clone();
            if let Some(o) = other {
                affected.extend_from_slice(&nets_of_cell[o]);
            }
            affected.sort_unstable();
            affected.dedup();
            let before: i64 = affected
                .iter()
                .map(|&ni| net_wl(&problem.nets[ni], &pos))
                .sum();
            pos[cell] = target_site;
            if let Some(o) = other {
                pos[o] = old_site;
            }
            let after: i64 = affected
                .iter()
                .map(|&ni| net_wl(&problem.nets[ni], &pos))
                .sum();
            let delta = after - before;
            let accept = delta <= 0 || {
                let p = (-(delta as f64) / temperature.max(1e-9)).exp();
                (next_u64() % 1_000_000) as f64 / 1_000_000.0 < p
            };
            if accept {
                occupant[old_site] = other;
                occupant[target_site] = Some(cell);
                current += delta;
            } else {
                pos[cell] = old_site;
                if let Some(o) = other {
                    pos[o] = target_site;
                }
            }
            temperature *= cooling;
        }

        let final_positions = positions(&pos);
        assert_eq!(current as u64, wirelength(problem, &final_positions));
        Placement {
            positions: final_positions,
            wirelength: current as u64,
            initial_wirelength: initial_wl,
            moves,
        }
    }

    /// Chain, star and random two-pin problems from one cell up to a
    /// full grid, on the XC4005's square grid and on an oblong one, with
    /// the efforts each is annealed at. The random nets include
    /// self-loops and repeated pairs. A debug build anneals a full grid
    /// at the default per-chain effort (96) in about a second, so that
    /// effort runs on the small problems, the full grid's random nets
    /// and the chain that leaves one site empty.
    fn oracle_battery() -> Vec<(PlacementProblem, Vec<u32>)> {
        let mut rng = StdRng::seed_from_u64(0x91ace);
        let mut battery = Vec::new();
        for (width, height) in [(14u16, 14u16), (9, 4)] {
            let full = usize::from(width) * usize::from(height);
            for cells in [1, 2, 3, 17, full / 2, full - 1, full] {
                let chain = (1..cells).map(|i| [i - 1, i]).collect();
                let star = (1..cells).map(|i| [0, i]).collect();
                let random = (0..2 * cells)
                    .map(|_| [rng.random_range(0..cells), rng.random_range(0..cells)])
                    .collect();
                for (kind, nets) in [("chain", chain), ("star", star), ("random", random)] {
                    let long = cells <= 17
                        || (kind, cells) == ("random", full)
                        || (kind, cells) == ("chain", full - 1);
                    let efforts = if long {
                        vec![0, 1, 7, 96]
                    } else {
                        vec![0, 1, 7]
                    };
                    let problem = PlacementProblem {
                        cells,
                        nets,
                        width,
                        height,
                    };
                    battery.push((problem, efforts));
                }
            }
        }
        battery.push((
            PlacementProblem::for_device(&[40, 25, 1], 30, 14, 14),
            vec![0, 1, 7],
        ));
        battery
    }

    #[test]
    fn anneal_matches_the_reference_anneal() {
        for (k, (p, efforts)) in oracle_battery().iter().enumerate() {
            for &effort in efforts {
                let seeds = if effort == 96 { 1..2 } else { 1..3 };
                for seed in seeds.map(|s| s * 0x9e37 + k as u64) {
                    assert_eq!(
                        anneal(p, effort, seed),
                        reference_anneal(p, effort, seed),
                        "{} cells on {}x{}, {} nets, effort {effort}, seed {seed}",
                        p.cells,
                        p.width,
                        p.height,
                        p.nets.len()
                    );
                }
            }
        }
    }

    #[test]
    fn multistart_is_jobs_invariant() {
        let cells = 60;
        let p = PlacementProblem {
            cells,
            nets: (1..cells).map(|i| [0, i]).collect(),
            width: 14,
            height: 14,
        };
        let serial = anneal_multistart(&p, 32, 42, 1);
        for jobs in [2usize, 4, 0] {
            let par = anneal_multistart(&p, 32, 42, jobs);
            assert_eq!(par.positions, serial.positions, "jobs={jobs}");
            assert_eq!(par.wirelength, serial.wirelength, "jobs={jobs}");
            assert_eq!(par.moves, serial.moves, "jobs={jobs}");
        }
        assert!(serial.wirelength <= serial.initial_wirelength);
    }

    #[test]
    fn multistart_move_budget_matches_single_anneal() {
        let cells = 30;
        let p = PlacementProblem {
            cells,
            nets: (1..cells).map(|i| [0, i]).collect(),
            width: 14,
            height: 14,
        };
        let single = anneal(&p, 16, 7);
        let multi = anneal_multistart(&p, 16, 7, 1);
        assert_eq!(multi.moves, single.moves);
    }

    fn chain_problem(cells: usize) -> PlacementProblem {
        PlacementProblem {
            cells,
            nets: (0..cells - 1).map(|i| [i, i + 1]).collect(),
            width: 14,
            height: 14,
        }
    }

    #[test]
    fn annealing_improves_scattered_chain() {
        // A chain scattered row-major already has decent locality; scramble
        // via a star problem instead: all cells tied to cell 0.
        let cells = 60;
        let p = PlacementProblem {
            cells,
            nets: (1..cells).map(|i| [0, i]).collect(),
            width: 14,
            height: 14,
        };
        let placed = anneal(&p, 8, 42);
        assert!(
            placed.wirelength <= placed.initial_wirelength,
            "{} > {}",
            placed.wirelength,
            placed.initial_wirelength
        );
    }

    #[test]
    fn placement_is_a_permutation_of_sites() {
        let p = chain_problem(50);
        let placed = anneal(&p, 4, 1);
        let mut seen = std::collections::BTreeSet::new();
        for &(x, y) in &placed.positions {
            assert!(x < p.width && y < p.height);
            assert!(seen.insert((x, y)), "two cells on one site");
        }
    }

    #[test]
    fn deterministic() {
        let p = chain_problem(30);
        assert_eq!(anneal(&p, 4, 9), anneal(&p, 4, 9));
    }

    #[test]
    fn wirelength_matches_positions() {
        let p = chain_problem(10);
        let placed = anneal(&p, 2, 3);
        assert_eq!(placed.wirelength, wirelength(&p, &placed.positions));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overfull_grid_rejected() {
        let p = PlacementProblem {
            cells: 300,
            nets: vec![],
            width: 14,
            height: 14,
        };
        let _ = anneal(&p, 1, 0);
    }

    #[test]
    fn for_device_builds_star_and_chains() {
        let p = PlacementProblem::for_device(&[5, 3], 4, 14, 14);
        assert_eq!(p.cells, 12);
        // Chains: 4 + 2 + 3 edges, star: 2 edges.
        assert_eq!(p.nets.len(), 4 + 2 + 3 + 2);
        assert!(p.fits());
    }

    #[test]
    fn more_effort_does_not_worsen_result() {
        let cells = 80;
        let p = PlacementProblem {
            cells,
            nets: (1..cells).map(|i| [i / 2, i]).collect(),
            width: 14,
            height: 14,
        };
        let low = anneal(&p, 1, 7);
        let high = anneal(&p, 16, 7);
        assert!(
            high.wirelength <= low.wirelength + low.wirelength / 4,
            "high-effort placement much worse: {} vs {}",
            high.wirelength,
            low.wirelength
        );
    }
}
