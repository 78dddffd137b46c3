//! Genetic-algorithm partitioning.
//!
//! Chromosomes assign one resource index to every function node. Under
//! the default [`Objective::Makespan`], fitness is the *real*
//! list-scheduler makespan plus a steep penalty per CLB of area
//! violation, so the GA optimizes exactly what the paper's schedule
//! executes; the other objectives re-rank the same evaluated schedule
//! by area or cut communication volume (lexicographically, with
//! makespan breaking ties). Each distinct chromosome is evaluated once
//! per run, and the chromosomes a generation brings that the run has not
//! seen yet fan out over [`cool_ir::par::par_map`] workers.

use std::collections::{HashMap, HashSet};

use cool_cost::{CommScheme, CostModel};
use cool_ir::rng::StdRng;
use cool_ir::{Mapping, NodeId, Objective, PartitioningGraph, Resource};

use crate::{Algorithm, PartitionError, PartitionResult};

/// Genetic-algorithm knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GaOptions {
    /// Individuals per generation.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Communication scheme assumed by the fitness schedule. The flow
    /// engine sets it from `FlowOptions::scheme`.
    pub scheme: CommScheme,
    /// What fitness minimizes (see the module docs for the ranking each
    /// variant induces).
    pub objective: Objective,
    /// Worker threads for fitness evaluation (`1` = serial, `0` = all
    /// cores). The flow engine sets it from `FlowOptions::jobs`; the
    /// result is identical for every value.
    pub jobs: usize,
}

impl Default for GaOptions {
    fn default() -> GaOptions {
        GaOptions {
            population: 32,
            generations: 40,
            seed: 42,
            scheme: CommScheme::MemoryMapped,
            objective: Objective::Makespan,
            jobs: 1,
        }
    }
}

/// Tournament size for selection.
const TOURNAMENT: usize = 3;

/// Penalty in cycles per CLB of FPGA over-subscription.
const AREA_PENALTY: u64 = 50;

/// A lexicographic fitness key: smaller is fitter, the second component
/// breaks ties in the first. [`Objective::Makespan`] keeps the second
/// component at zero, so default runs rank exactly as the scalar
/// fitness always did.
type Fitness = (u64, u64);

/// Partition `g` with a genetic algorithm.
///
/// Always returns an area-feasible mapping: infeasible survivors are
/// repaired by demoting their largest hardware nodes to software.
///
/// # Errors
///
/// Propagates scheduling failures (unreachable for validated graphs).
pub fn partition(
    g: &PartitioningGraph,
    cost: &CostModel,
    options: &GaOptions,
) -> Result<PartitionResult, PartitionError> {
    let functions = g.function_nodes();
    let genes = functions.len();
    let resources = cost.target().resources();
    let r_count = resources.len();
    let mut rng = StdRng::seed_from_u64(options.seed);
    // Per-gene mutation probability: one gene per child on average.
    let mutation = 1.0 / genes.max(1) as f64;

    // Initial population: all-software, all-hardware-round-robin, randoms.
    let mut pop: Vec<Vec<u8>> = Vec::with_capacity(options.population);
    pop.push(vec![0u8; genes]);
    if r_count > 1 {
        pop.push((0..genes).map(|i| (1 + i % (r_count - 1)) as u8).collect());
    }
    while pop.len() < options.population.max(4) {
        pop.push(
            (0..genes)
                .map(|_| rng.random_range(0..r_count) as u8)
                .collect(),
        );
    }

    // Fitness is a function of the chromosome alone, so elites and
    // repeated children reuse the value their first evaluation found.
    let mut seen: HashMap<Vec<u8>, Fitness> = HashMap::new();
    let mut evaluate = |pop: &[Vec<u8>]| -> Vec<Fitness> {
        let mut queued = HashSet::new();
        let fresh: Vec<&Vec<u8>> = pop
            .iter()
            .filter(|&c| !seen.contains_key(c) && queued.insert(c))
            .collect();
        let fits = cool_ir::par::par_map(&fresh, options.jobs, |chrom: &&Vec<u8>| {
            let mapping = decode(g, &functions, &resources, chrom);
            fitness(g, &mapping, cost, options)
        });
        seen.extend(fresh.into_iter().cloned().zip(fits));
        pop.iter().map(|c| seen[c]).collect()
    };

    let mut fitnesses: Vec<Fitness> = evaluate(&pop);
    let mut best = best_of(&pop, &fitnesses);

    for _gen in 0..options.generations {
        let mut next: Vec<Vec<u8>> = Vec::with_capacity(pop.len());
        // Elitism: carry the champion.
        next.push(best.0.clone());
        while next.len() < pop.len() {
            let a = tournament(&pop, &fitnesses, &mut rng);
            let b = tournament(&pop, &fitnesses, &mut rng);
            let mut child: Vec<u8> = (0..genes)
                .map(|i| {
                    if rng.random_range(0..2) == 0 {
                        pop[a][i]
                    } else {
                        pop[b][i]
                    }
                })
                .collect();
            for gene in child.iter_mut() {
                if rng.random_f64() < mutation {
                    *gene = rng.random_range(0..r_count) as u8;
                }
            }
            next.push(child);
        }
        pop = next;
        fitnesses = evaluate(&pop);
        let gen_best = best_of(&pop, &fitnesses);
        if gen_best.1 < best.1 {
            best = gen_best;
        }
    }

    // Decode and repair the champion to guaranteed feasibility.
    let mut mapping = decode(g, &functions, &resources, &best.0);
    repair(g, &mut mapping, cost);
    let (makespan, hw_area) = crate::evaluate(g, &mapping, cost, options.scheme)?;
    Ok(PartitionResult {
        mapping,
        algorithm: Algorithm::Genetic,
        optimality: crate::Optimality::Heuristic,
        gap: None,
        makespan,
        hw_area,
        work_units: options.population * (options.generations + 1),
    })
}

fn decode(
    g: &PartitioningGraph,
    functions: &[NodeId],
    resources: &[Resource],
    chrom: &[u8],
) -> Mapping {
    let mut m = crate::all_software(g);
    for (i, &n) in functions.iter().enumerate() {
        m.assign(n, resources[chrom[i] as usize % resources.len()]);
    }
    m
}

fn fitness(
    g: &PartitioningGraph,
    mapping: &Mapping,
    cost: &CostModel,
    options: &GaOptions,
) -> Fitness {
    let usage = crate::area_usage(g, mapping, cost);
    let violation: u64 = usage
        .iter()
        .zip(&cost.target().hw)
        .map(|(&used, hw)| u64::from(used.saturating_sub(hw.clb_capacity)))
        .sum();
    let Ok(s) = cool_schedule::schedule(g, mapping, cost, options.scheme) else {
        return (u64::MAX / 2, u64::MAX / 2);
    };
    let makespan = s.makespan();
    let penalty = violation * AREA_PENALTY;
    let area: u64 = usage.iter().map(|&a| u64::from(a)).sum();
    let comm = || -> u64 {
        mapping
            .cut_edges(g)
            .iter()
            .map(|(_, e)| cost.comm_cycles(e, options.scheme))
            .sum()
    };
    match options.objective {
        Objective::Makespan => (makespan + penalty, 0),
        Objective::Area => (area + penalty, makespan),
        Objective::CommVolume => (comm() + penalty, makespan),
        Objective::Blend { .. } => {
            let (tw, cw, aw) = options.objective.weights();
            let blended =
                tw * makespan as f64 + cw * comm() as f64 + aw * area as f64 + penalty as f64;
            // A finite non-negative f64's bit pattern is order-preserving
            // as a u64, so the blend ranks without losing precision.
            (blended.max(0.0).to_bits(), makespan)
        }
    }
}

fn tournament(pop: &[Vec<u8>], fit: &[Fitness], rng: &mut StdRng) -> usize {
    let mut best = rng.random_range(0..pop.len());
    for _ in 1..TOURNAMENT {
        let c = rng.random_range(0..pop.len());
        if fit[c] < fit[best] {
            best = c;
        }
    }
    best
}

fn best_of(pop: &[Vec<u8>], fit: &[Fitness]) -> (Vec<u8>, Fitness) {
    let (i, &f) = fit
        .iter()
        .enumerate()
        .min_by_key(|&(_, f)| *f)
        .expect("population is never empty");
    (pop[i].clone(), f)
}

/// Demote the largest hardware nodes to software until all CLB budgets
/// hold. Terminates because software has no area constraint.
fn repair(g: &PartitioningGraph, mapping: &mut Mapping, cost: &CostModel) {
    loop {
        let usage = crate::area_usage(g, mapping, cost);
        let over: Vec<usize> = usage
            .iter()
            .zip(&cost.target().hw)
            .enumerate()
            .filter(|(_, (&used, hw))| used > hw.clb_capacity)
            .map(|(i, _)| i)
            .collect();
        if over.is_empty() {
            return;
        }
        for h in over {
            // Largest node on the oversubscribed FPGA.
            let victim = g
                .function_nodes()
                .into_iter()
                .filter(|&n| mapping.resource(n) == Resource::Hardware(h))
                .max_by_key(|&n| cost.hw_area_clbs(n));
            if let Some(v) = victim {
                mapping.assign(v, Resource::Software(0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_ir::Target;
    use cool_spec::workloads;

    fn quick_options() -> GaOptions {
        GaOptions {
            population: 12,
            generations: 8,
            ..Default::default()
        }
    }

    #[test]
    fn ga_is_reproducible() {
        let g = workloads::equalizer(4);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let a = partition(&g, &cost, &quick_options()).unwrap();
        let b = partition(&g, &cost, &quick_options()).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn ga_beats_random_start() {
        let g = workloads::fuzzy_controller();
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(&g, &cost, &quick_options()).unwrap();
        // Never worse than the all-software baseline it was seeded with.
        let all_sw = crate::all_software(&g);
        let (sw, _) = crate::evaluate(&g, &all_sw, &cost, CommScheme::MemoryMapped).unwrap();
        assert!(
            res.makespan <= sw,
            "GA {} vs all-software {sw}",
            res.makespan
        );
    }

    #[test]
    fn ga_respects_area() {
        let g = workloads::fuzzy_controller();
        let mut target = Target::fuzzy_board();
        target.hw[0].clb_capacity = 60;
        target.hw[1].clb_capacity = 60;
        let cost = CostModel::new(&g, &target);
        let res = partition(&g, &cost, &quick_options()).unwrap();
        for (used, hw) in res.hw_area.iter().zip(&target.hw) {
            assert!(used <= &hw.clb_capacity);
        }
    }

    #[test]
    fn parallel_and_serial_fitness_agree() {
        let g = workloads::equalizer(4);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let serial = partition(
            &g,
            &cost,
            &GaOptions {
                jobs: 1,
                ..quick_options()
            },
        )
        .unwrap();
        let parallel = partition(
            &g,
            &cost,
            &GaOptions {
                jobs: 4,
                ..quick_options()
            },
        )
        .unwrap();
        assert_eq!(serial.mapping, parallel.mapping);
    }

    #[test]
    fn area_objective_drives_hardware_to_zero() {
        // Under the area objective the seeded all-software individual
        // (zero CLBs) is unbeatable, so the champion must use no
        // hardware at all — a behavioural check that the declared
        // objective actually steers selection.
        let g = workloads::equalizer(4);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(
            &g,
            &cost,
            &GaOptions {
                objective: Objective::Area,
                ..quick_options()
            },
        )
        .unwrap();
        assert_eq!(res.hardware_nodes(&g), 0);
        assert!(res.hw_area.iter().all(|&a| a == 0));
    }

    #[test]
    fn comm_objective_eliminates_cuts() {
        // Primary I/O is pinned to sw0, so the only zero-communication
        // mappings are fully software — the comm objective must find one.
        let g = workloads::equalizer(4);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(
            &g,
            &cost,
            &GaOptions {
                objective: Objective::CommVolume,
                ..quick_options()
            },
        )
        .unwrap();
        assert_eq!(res.mapping.cut_edges(&g).len(), 0);
    }

    #[test]
    fn pure_time_blend_agrees_with_makespan_preset() {
        // `blend:1,0,0` induces exactly the preset's ranking (primary =
        // makespan + penalty, all ties resolve to the same index), so
        // the two runs must select the same champion.
        let g = workloads::equalizer(4);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let preset = partition(&g, &cost, &quick_options()).unwrap();
        let blended = partition(
            &g,
            &cost,
            &GaOptions {
                objective: Objective::blend(1.0, 0.0, 0.0),
                ..quick_options()
            },
        )
        .unwrap();
        assert_eq!(preset.mapping, blended.mapping);
        assert_eq!(preset.makespan, blended.makespan);
    }

    #[test]
    fn repair_fixes_oversubscription() {
        let g = workloads::fuzzy_controller();
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let mut m = crate::all_hardware(&g, 1); // everything on fpga0: way over
        repair(&g, &mut m, &cost);
        let usage = crate::area_usage(&g, &m, &cost);
        assert!(usage[0] <= cost.target().hw[0].clb_capacity);
    }
}
