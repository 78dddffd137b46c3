//! MILP + heuristic partitioning: communication-guided clustering followed
//! by an exact solve over the clusters.
//!
//! The exact MILP is exponential in the node count; COOL's pragmatic
//! variant first merges tightly-communicating neighbours into clusters
//! (keeping each cluster small enough to remain hardware-assignable), then
//! solves the cluster-level MILP exactly, and finally expands clusters back
//! to nodes. Quality degrades gracefully with the cluster budget while
//! runtime drops dramatically — the trade `abl1_partitioners` measures.

use std::collections::BTreeMap;

use cool_cost::CostModel;
use cool_ir::{NodeId, NodeKind, PartitioningGraph, Resource};

use crate::milp::MilpOptions;
use crate::{Algorithm, PartitionError, PartitionResult};

/// Options for the clustering heuristic.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicOptions {
    /// Merge until at most this many clusters remain.
    pub max_clusters: usize,
    /// MILP options for the reduced solve.
    pub milp: MilpOptions,
}

impl Default for HeuristicOptions {
    fn default() -> HeuristicOptions {
        HeuristicOptions {
            max_clusters: 12,
            milp: MilpOptions::default(),
        }
    }
}

/// Partition `g` with clustering + exact MILP on the clusters.
///
/// # Errors
///
/// Same failure modes as [`crate::milp::partition`].
pub fn partition(
    g: &PartitioningGraph,
    cost: &CostModel,
    options: &HeuristicOptions,
) -> Result<PartitionResult, PartitionError> {
    let functions = g.function_nodes();
    if functions.len() <= options.max_clusters {
        // Small enough for the exact solver directly.
        let mut res = crate::milp::partition(g, cost, &options.milp)?;
        res.algorithm = Algorithm::Heuristic;
        return Ok(res);
    }

    // --- 1. Cluster: union-find over function nodes, merging the heaviest
    // communication edges first, subject to an area cap per cluster. ---
    let cap = cost
        .target()
        .hw
        .iter()
        .map(|h| h.clb_capacity)
        .max()
        .unwrap_or(u32::MAX)
        / 2; // keep clusters at half an FPGA so packing stays flexible
    let mut uf = UnionFind::new(g.node_count());
    let mut cluster_area: Vec<u32> = (0..g.node_count())
        .map(|i| cost.hw_area_clbs(NodeId::from_index(i)))
        .collect();

    let mut edges: Vec<(u64, NodeId, NodeId)> = g
        .edges()
        .filter(|(_, e)| is_function(g, e.src) && is_function(g, e.dst))
        .map(|(_, e)| (cost.comm_cycles(e, options.milp.scheme), e.src, e.dst))
        .collect();
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut cluster_count = functions.len();
    for (_, u, v) in edges {
        if cluster_count <= options.max_clusters {
            break;
        }
        let (ru, rv) = (uf.find(u.index()), uf.find(v.index()));
        if ru == rv {
            continue;
        }
        if cluster_area[ru].saturating_add(cluster_area[rv]) > cap {
            continue;
        }
        let merged = uf.union(ru, rv);
        cluster_area[merged] = cluster_area[ru] + cluster_area[rv];
        cluster_count -= 1;
    }
    // If area caps blocked us above the target, merge smallest pairs of
    // clusters regardless of adjacency (still respecting the cap).
    while cluster_count > options.max_clusters {
        let mut roots: Vec<usize> = functions.iter().map(|&n| uf.find(n.index())).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.sort_by_key(|&r| cluster_area[r]);
        let mut merged_any = false;
        'search: for i in 0..roots.len() {
            for j in i + 1..roots.len() {
                if cluster_area[roots[i]].saturating_add(cluster_area[roots[j]]) <= cap {
                    let m = uf.union(roots[i], roots[j]);
                    cluster_area[m] = cluster_area[roots[i]] + cluster_area[roots[j]];
                    cluster_count -= 1;
                    merged_any = true;
                    break 'search;
                }
            }
        }
        if !merged_any {
            break; // cannot merge further; solve what we have
        }
    }

    // --- 2. Cluster membership and inter-cluster communication. ---
    let mut root_to_cluster: BTreeMap<usize, usize> = BTreeMap::new();
    for &n in &functions {
        let r = uf.find(n.index());
        let next = root_to_cluster.len();
        root_to_cluster.entry(r).or_insert(next);
    }
    let k = root_to_cluster.len();
    let mut cluster_members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for &n in &functions {
        let c = root_to_cluster[&uf.find(n.index())];
        cluster_members[c].push(n);
    }
    // Communication summed per cluster pair, and per cluster towards the
    // primary I/O pinned on the first processor.
    let mut inter: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut io_cut: BTreeMap<usize, u64> = BTreeMap::new();
    for (_, e) in g.edges() {
        let cu = cluster_of(&uf, &root_to_cluster, g, e.src);
        let cv = cluster_of(&uf, &root_to_cluster, g, e.dst);
        let w = cost.comm_cycles(e, options.milp.scheme);
        match (cu, cv) {
            (Some(a), Some(b)) if a != b => {
                *inter.entry((a.min(b), a.max(b))).or_insert(0) += w;
            }
            (Some(a), None) | (None, Some(a)) => {
                *io_cut.entry(a).or_insert(0) += w;
            }
            _ => {}
        }
    }

    // --- 3. Reduced MILP over clusters: per-cluster exec and area are
    // the members' sums. ---
    let target = cost.target();
    let resources = target.resources();
    let r_count = resources.len();
    let (time_weight, comm_weight, area_weight) = options.milp.objective.weights();
    let mut p = cool_ilp::Problem::minimize();
    let mut x: Vec<Vec<cool_ilp::VarId>> = Vec::with_capacity(k);
    for members in cluster_members.iter().take(k) {
        let mut row = Vec::with_capacity(r_count);
        for &r in &resources {
            let exec: u64 = members.iter().map(|&n| cost.exec_cycles(n, r)).sum();
            let area: u32 = match r {
                Resource::Hardware(_) => members.iter().map(|&n| cost.hw_area_clbs(n)).sum(),
                Resource::Software(_) => 0,
            };
            row.push(p.add_binary(time_weight * exec as f64 + area_weight * f64::from(area)));
        }
        let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&terms, cool_ilp::Cmp::Eq, 1.0);
        x.push(row);
    }
    for (h, hw) in target.hw.iter().enumerate() {
        let ri = resources
            .iter()
            .position(|&r| r == Resource::Hardware(h))
            .expect("hw enumerated");
        let terms: Vec<_> = (0..k)
            .map(|c| {
                let area: u32 = cluster_members[c]
                    .iter()
                    .map(|&n| cost.hw_area_clbs(n))
                    .sum();
                (x[c][ri], f64::from(area))
            })
            .collect();
        p.add_constraint(&terms, cool_ilp::Cmp::Le, f64::from(hw.clb_capacity));
    }
    for (&(a, b), &w) in &inter {
        let y = p.add_continuous(0.0, 1.0, comm_weight * w as f64);
        for (&xa, &xb) in x[a].iter().zip(&x[b]).take(r_count) {
            p.add_constraint(&[(y, 1.0), (xa, -1.0), (xb, 1.0)], cool_ilp::Cmp::Ge, 0.0);
            p.add_constraint(&[(y, 1.0), (xb, -1.0), (xa, 1.0)], cool_ilp::Cmp::Ge, 0.0);
        }
    }
    for (&c, &w) in &io_cut {
        let y = p.add_continuous(0.0, 1.0, comm_weight * w as f64);
        p.add_constraint(&[(y, 1.0), (x[c][0], 1.0)], cool_ilp::Cmp::Ge, 1.0);
    }
    let sol = p.solve(&cool_ilp::SolveOptions {
        max_nodes: options.milp.max_nodes,
        max_pivots: options.milp.max_pivots,
        jobs: options.milp.jobs,
    })?;

    // --- 4. Expand clusters back to nodes. ---
    let mut mapping = crate::all_software(g);
    for c in 0..k {
        let ri = (0..r_count)
            .find(|&ri| sol.int_value(x[c][ri]) == 1)
            .ok_or_else(|| PartitionError::Infeasible(format!("cluster {c} unassigned")))?;
        for &n in &cluster_members[c] {
            mapping.assign(n, resources[ri]);
        }
    }
    let (makespan, hw_area) = crate::evaluate(g, &mapping, cost, options.milp.scheme)?;
    Ok(PartitionResult {
        mapping,
        algorithm: Algorithm::Heuristic,
        // Clustering already forfeits node-level optimality, but a
        // truncated reduced solve is strictly worse than a completed
        // one — keep the stronger warning when the limit bit.
        optimality: if sol.status == cool_ilp::Status::LimitReached {
            crate::Optimality::LimitReached
        } else {
            crate::Optimality::Heuristic
        },
        // The gap quantifies the *reduced* solve only — node-level
        // optimality is already forfeited by clustering — but a bound on
        // the cluster MILP still tells the user how truncated the
        // truncation was.
        gap: crate::milp::truncation_gap(&sol),
        makespan,
        hw_area,
        work_units: sol.nodes_explored,
    })
}

fn is_function(g: &PartitioningGraph, n: NodeId) -> bool {
    g.node(n)
        .map(|x| x.kind() == NodeKind::Function)
        .unwrap_or(false)
}

fn cluster_of(
    uf: &UnionFind,
    root_to_cluster: &BTreeMap<usize, usize>,
    g: &PartitioningGraph,
    n: NodeId,
) -> Option<usize> {
    if is_function(g, n) {
        root_to_cluster.get(&uf.find_const(n.index())).copied()
    } else {
        None
    }
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<std::cell::Cell<usize>>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).map(std::cell::Cell::new).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        self.find_const(i)
    }

    fn find_const(&self, mut i: usize) -> usize {
        while self.parent[i].get() != i {
            let p = self.parent[i].get();
            self.parent[i].set(self.parent[p].get());
            i = self.parent[i].get();
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[rb].set(ra);
        ra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_cost::CommScheme;
    use cool_ir::Target;
    use cool_spec::workloads;

    #[test]
    fn small_graph_delegates_to_exact() {
        let g = workloads::equalizer(2);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(&g, &cost, &HeuristicOptions::default()).unwrap();
        assert_eq!(res.algorithm, Algorithm::Heuristic);
        assert!(res.makespan > 0);
    }

    #[test]
    fn fuzzy_controller_partitions_quickly() {
        let g = workloads::fuzzy_controller();
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let res = partition(&g, &cost, &HeuristicOptions::default()).unwrap();
        // Feasible area.
        for (used, hw) in res.hw_area.iter().zip(&cost.target().hw) {
            assert!(*used <= hw.clb_capacity);
        }
    }

    #[test]
    fn cluster_budget_caps_milp_size() {
        let g = workloads::random_dag(cool_spec::workloads::RandomDagConfig {
            nodes: 40,
            seed: 3,
            ..Default::default()
        });
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let opts = HeuristicOptions {
            max_clusters: 8,
            ..Default::default()
        };
        let res = partition(&g, &cost, &opts).unwrap();
        let (makespan, _) =
            crate::evaluate(&g, &res.mapping, &cost, CommScheme::MemoryMapped).unwrap();
        assert_eq!(makespan, res.makespan);
    }

    #[test]
    fn union_find_merges() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(1), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
    }
}
