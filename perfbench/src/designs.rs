//! Seeded design rotations. The seed draws the `incremental` designs'
//! scale constants (so their specs and cache keys differ per seed), the
//! rotation order and the co-simulation inputs. Family sizes and the
//! random DAGs' topologies are fixed: one 8-node DAG's flow time varies
//! 3x between topologies, which would swamp the run-to-run spread the
//! bounds are checked against, so every seed gives the same mix of work.

use cool_ir::rng::StdRng;
use cool_ir::PartitioningGraph;
use cool_spec::workloads::{self, RandomDagConfig};

/// One design of a rotation, as the program receives it: spec text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    /// The design name the spec declares.
    pub name: String,
    /// The specification text (`cool_spec::print_spec` of the generator).
    pub spec: String,
}

impl Design {
    fn of(g: &PartitioningGraph) -> Design {
        Design {
            name: g.name().to_string(),
            spec: cool_spec::print_spec(g),
        }
    }
}

fn random_dag(nodes: usize) -> PartitioningGraph {
    workloads::random_dag(RandomDagConfig {
        nodes,
        inputs: 3,
        outputs: 2,
        seed: 1,
    })
}

fn scale(rng: &mut StdRng) -> i64 {
    2 + rng.random_range(0..1000) as i64
}

fn shuffled(mut graphs: Vec<PartitioningGraph>, rng: &mut StdRng) -> Vec<Design> {
    for i in (1..graphs.len()).rev() {
        graphs.swap(i, rng.random_range(0..i + 1));
    }
    graphs.iter().map(Design::of).collect()
}

/// The `cold_flow` (and `warm_start`) rotation: eight small designs
/// from the `equalizer`, `fir`, `iir` and `incremental` families, plus
/// `dct8` and an 8-node random DAG. The all-software designs under
/// 100 ms (`equalizer(2)`, `iir(1)`, `incremental(4)`) are left out:
/// host noise doubled their latency between runs.
#[must_use]
pub fn cold_rotation(seed: u64) -> Vec<Design> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01d_f10e);
    let graphs = vec![
        workloads::equalizer(4),
        workloads::fir(4),
        workloads::fir(6),
        workloads::iir(2),
        workloads::incremental(6, scale(&mut rng)),
        workloads::incremental(8, scale(&mut rng)),
        workloads::dct8(),
        random_dag(8),
    ];
    shuffled(graphs, &mut rng)
}

/// The `explore` rotation: eight mid-size designs of 20–48 nodes, each
/// swept over the full budget ladder.
#[must_use]
pub fn explore_rotation(seed: u64) -> Vec<Design> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe7_9107e);
    let graphs = vec![
        workloads::equalizer(8),
        workloads::fir(16),
        workloads::dct8(),
        workloads::incremental(8, scale(&mut rng)),
        workloads::incremental(16, scale(&mut rng)),
        workloads::state_machine(6, 2),
        workloads::multirate(8, 3, 2),
        random_dag(24),
    ];
    shuffled(graphs, &mut rng)
}

/// Parse every design of a rotation from its spec text.
///
/// # Errors
///
/// The parser's error for the first spec it rejects.
pub fn parse(rotation: &[Design]) -> Result<Vec<PartitioningGraph>, String> {
    rotation
        .iter()
        .map(|d| cool_spec::parse(&d.spec).map_err(|e| e.to_string()))
        .collect()
}

/// Seeded co-simulation inputs for every primary input of `g`.
#[must_use]
pub fn sim_inputs(g: &PartitioningGraph, seed: u64) -> std::collections::BTreeMap<String, i64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_0001);
    g.primary_inputs()
        .into_iter()
        .map(|id| {
            let name = g.node(id).expect("primary inputs exist").name().to_string();
            (name, rng.random_range(0..2001) as i64 - 1000)
        })
        .collect()
}
