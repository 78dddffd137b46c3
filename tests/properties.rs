//! Property-based tests over the co-design pipeline's invariants.
//!
//! The container builds without registry access, so instead of proptest
//! these properties run over deterministic seeded case streams drawn
//! from [`cool_repro::ir::rng::StdRng`]: every case is reproducible from
//! its printed seed.

use std::collections::BTreeMap;

use cool_repro::cost::{CommScheme, CostModel};
use cool_repro::ir::rng::StdRng;
use cool_repro::ir::{Mapping, Resource, Target};
use cool_repro::spec::workloads::{random_dag, RandomDagConfig};

fn case_graph(rng: &mut StdRng) -> cool_repro::ir::PartitioningGraph {
    let nodes = rng.random_range(4..28);
    let seed = rng.random_range(0..500) as u64;
    random_dag(RandomDagConfig {
        nodes,
        inputs: 3,
        outputs: 2,
        seed,
    })
}

fn case_choices(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.random_range(1..16);
    (0..len).map(|_| rng.random_range(0..8) as u8).collect()
}

/// An arbitrary area-feasible mapping for a graph on the fuzzy board.
fn feasible_mapping(
    g: &cool_repro::ir::PartitioningGraph,
    cost: &CostModel,
    choices: &[u8],
) -> Mapping {
    let target = cost.target();
    let mut m = Mapping::uniform(g.node_count(), Resource::Software(0));
    let mut usage = vec![0u32; target.hw.len()];
    for (i, n) in g.function_nodes().into_iter().enumerate() {
        let c = choices[i % choices.len()] as usize % (1 + target.hw.len());
        if c > 0 {
            let h = c - 1;
            let area = cost.hw_area_clbs(n);
            if usage[h] + area <= target.hw[h].clb_capacity {
                usage[h] += area;
                m.assign(n, Resource::Hardware(h));
            }
        }
    }
    m
}

/// Any feasible mapping schedules without violating precedence,
/// processor exclusivity or bus exclusivity.
#[test]
fn schedules_always_verify() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for case in 0..24 {
        let g = case_graph(&mut rng);
        let choices = case_choices(&mut rng);
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let m = feasible_mapping(&g, &cost, &choices);
        let s = cool_repro::schedule::schedule(&g, &m, &cost, CommScheme::MemoryMapped).unwrap();
        assert!(s.verify(&g, &m).is_ok(), "case {case} ({})", g.name());
    }
}

/// STG generation + minimization preserves well-formedness and never
/// drops an execution state.
#[test]
fn stg_minimization_is_safe() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for case in 0..24 {
        let g = case_graph(&mut rng);
        let choices = case_choices(&mut rng);
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let m = feasible_mapping(&g, &cost, &choices);
        let s = cool_repro::schedule::schedule(&g, &m, &cost, CommScheme::MemoryMapped).unwrap();
        let stg = cool_repro::stg::generate(&g, &m, &s);
        assert!(stg.verify().is_ok(), "case {case}");
        let (min, stats) = cool_repro::stg::minimize(&stg);
        assert!(min.verify().is_ok(), "case {case}");
        assert!(stats.states_after <= stats.states_before, "case {case}");
        for n in g.function_nodes() {
            assert!(
                min.states()
                    .iter()
                    .any(|st| st.kind == cool_repro::stg::StateKind::Exec(n)),
                "case {case}: exec state of {n} lost"
            );
        }
    }
}

/// Memory allocation: one cell per cut edge, no overlap (sequential),
/// and the packed allocator never uses more bytes.
#[test]
fn memory_allocators_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for case in 0..24 {
        let g = case_graph(&mut rng);
        let choices = case_choices(&mut rng);
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let m = feasible_mapping(&g, &cost, &choices);
        let s = cool_repro::schedule::schedule(&g, &m, &cost, CommScheme::MemoryMapped).unwrap();
        let seq = cool_repro::stg::allocate_memory(&g, &m, &target.memory, target.bus.width_bits)
            .unwrap();
        let packed = cool_repro::stg::allocate_memory_packed(
            &g,
            &m,
            &s,
            &target.memory,
            target.bus.width_bits,
        )
        .unwrap();
        assert_eq!(seq.cell_count(), m.cut_edges(&g).len(), "case {case}");
        assert_eq!(packed.cell_count(), seq.cell_count(), "case {case}");
        assert!(packed.bytes_used() <= seq.bytes_used(), "case {case}");
        let mut cells: Vec<_> = seq.cells().to_vec();
        cells.sort_by_key(|c| c.address);
        for pair in cells.windows(2) {
            assert!(
                pair[0].address + pair[0].bytes <= pair[1].address,
                "case {case}"
            );
        }
    }
}

/// The co-simulator matches the reference evaluator for every feasible
/// mapping and random inputs (functional correctness of co-synthesis).
#[test]
fn simulation_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for case in 0..24 {
        let g = case_graph(&mut rng);
        let choices = case_choices(&mut rng);
        let (a, b, c) = (
            rng.random_range(0..2000) as i64 - 1000,
            rng.random_range(0..2000) as i64 - 1000,
            rng.random_range(0..2000) as i64 - 1000,
        );
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let m = feasible_mapping(&g, &cost, &choices);
        let s = cool_repro::schedule::schedule(&g, &m, &cost, CommScheme::MemoryMapped).unwrap();
        let map = cool_repro::stg::allocate_memory(&g, &m, &target.memory, target.bus.width_bits)
            .unwrap();
        let sim =
            cool_repro::sim::Simulator::new(&g, &m, &s, &map, &cost, CommScheme::MemoryMapped);
        let inputs: BTreeMap<String, i64> = [("in0", a), ("in1", b), ("in2", c)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let run = sim.run(&inputs).unwrap();
        let reference = cool_repro::ir::eval::evaluate(&g, &inputs).unwrap();
        assert_eq!(run.outputs, reference, "case {case}");
    }
}

/// The GA always returns an area-feasible mapping.
#[test]
fn genetic_always_feasible() {
    for seed in (0u64..100).step_by(7) {
        let g = random_dag(RandomDagConfig {
            nodes: 14,
            seed,
            ..Default::default()
        });
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let opts = cool_repro::partition::GaOptions {
            population: 8,
            generations: 3,
            seed,
            ..Default::default()
        };
        let res = cool_repro::partition::genetic::partition(&g, &cost, &opts).unwrap();
        for (used, hw) in res.hw_area.iter().zip(&target.hw) {
            assert!(used <= &hw.clb_capacity, "seed {seed}");
        }
    }
}

/// Spec printing round-trips semantically for random graphs.
#[test]
fn spec_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for case in 0..24 {
        let seed = rng.random_range(0..200) as u64;
        let (a, b, c) = (
            rng.random_range(0..100) as i64 - 50,
            rng.random_range(0..100) as i64 - 50,
            rng.random_range(0..100) as i64 - 50,
        );
        let g = random_dag(RandomDagConfig {
            nodes: 10,
            seed,
            ..Default::default()
        });
        let text = cool_repro::spec::print_spec(&g);
        let parsed = cool_repro::spec::parse(&text).unwrap();
        let inputs: BTreeMap<String, i64> = [("in0", a), ("in1", b), ("in2", c)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(
            cool_repro::ir::eval::evaluate(&g, &inputs).unwrap(),
            cool_repro::ir::eval::evaluate(&parsed, &inputs).unwrap(),
            "case {case} (seed {seed})"
        );
    }
}

/// The ILP solver agrees with brute force on random small knapsacks.
#[test]
fn ilp_matches_brute_force() {
    use cool_repro::ilp::{Cmp, Problem, SolveOptions};
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    for case in 0..64 {
        let n = rng.random_range(3..9);
        let values: Vec<u32> = (0..n).map(|_| rng.random_range(1..20) as u32).collect();
        let cap_frac = 0.2 + 0.7 * rng.random_f64();
        let weights: Vec<f64> = values.iter().map(|&v| f64::from(v % 7 + 1)).collect();
        let cap = weights.iter().sum::<f64>() * cap_frac;
        let mut p = Problem::minimize();
        let vars: Vec<_> = values
            .iter()
            .map(|&v| p.add_binary(-f64::from(v)))
            .collect();
        let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        p.add_constraint(&terms, Cmp::Le, cap);
        let sol = p.solve(&SolveOptions::default()).unwrap();
        // Brute force.
        let mut best = 0f64;
        for mask in 0u32..(1 << n) {
            let (mut val, mut w) = (0f64, 0f64);
            for i in 0..n {
                if (mask >> i) & 1 == 1 {
                    val += f64::from(values[i]);
                    w += weights[i];
                }
            }
            if w <= cap + 1e-9 && val > best {
                best = val;
            }
        }
        assert!(
            (sol.objective + best).abs() < 1e-6,
            "case {case}: solver {} vs brute {best}",
            -sol.objective
        );
    }
}
