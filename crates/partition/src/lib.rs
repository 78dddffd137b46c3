//! Hardware/software partitioning — the three algorithms of COOL.
//!
//! The paper couples partitioning with co-synthesis; partitioning itself is
//! "either based on mixed integer linear programming (MILP), a combination
//! of MILP and a heuristic, or on genetic algorithms". This crate
//! implements all three on the same cost model:
//!
//! * [`milp`] — the exact formulation (after reference \[4\]): binary
//!   assignment variables, per-FPGA CLB capacity constraints, linearized
//!   cut indicators for communication cost, solved by [`cool_ilp`];
//! * [`heuristic`] — MILP + heuristic: communication-guided clustering
//!   shrinks the graph until the exact solver is cheap, then the cluster
//!   solution is expanded;
//! * [`genetic`] — a genetic algorithm whose fitness is the *actual* list
//!   scheduler makespan (plus area-violation penalties), with
//!   scoped-thread-parallel population evaluation.
//!
//! All partitioners return a [`PartitionResult`] containing the coloured
//! graph ([`cool_ir::Mapping`]) and solver statistics, and all guarantee
//! area-feasible mappings (or report infeasibility).

pub mod genetic;
pub mod heuristic;
pub mod milp;

use std::fmt;

use cool_cost::{CommScheme, CostModel};
use cool_ir::codec::{Codec, CodecError, Decoder, Encoder};
use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::{Mapping, NodeKind, PartitioningGraph, Resource};

pub use genetic::GaOptions;
pub use heuristic::HeuristicOptions;
pub use milp::MilpOptions;

impl ContentHash for MilpOptions {
    /// `jobs` is deliberately excluded: the parallel branch & bound's
    /// deterministic merge makes a *completed* solve identical for
    /// every worker count, so the knob changes wall-clock only — and
    /// the engine never caches the one exception, limit-truncated
    /// results.
    fn content_hash(&self, h: &mut ContentHasher) {
        self.objective.content_hash(h);
        h.write_usize(self.max_nodes);
        h.write_usize(self.max_pivots);
        self.scheme.content_hash(h);
    }
}

impl ContentHash for HeuristicOptions {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_usize(self.max_clusters);
        self.milp.content_hash(h);
    }
}

impl ContentHash for GaOptions {
    /// `jobs` is deliberately excluded: population evaluation is
    /// order-preserving, so the worker count changes wall-clock only,
    /// never the returned colouring.
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_usize(self.population);
        h.write_usize(self.generations);
        h.write_u64(self.seed);
        self.scheme.content_hash(h);
        self.objective.content_hash(h);
    }
}

/// Errors common to all partitioners.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PartitionError {
    /// No area-feasible assignment exists (e.g. a node larger than every
    /// FPGA and no processor allowed).
    Infeasible(String),
    /// The underlying MILP solver failed.
    Ilp(cool_ilp::IlpError),
    /// The graph/mapping combination is structurally invalid.
    Ir(cool_ir::IrError),
    /// Scheduling the candidate failed.
    Schedule(cool_schedule::ScheduleError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Infeasible(why) => write!(f, "partitioning infeasible: {why}"),
            PartitionError::Ilp(e) => write!(f, "MILP solver failed: {e}"),
            PartitionError::Ir(e) => write!(f, "invalid input: {e}"),
            PartitionError::Schedule(e) => write!(f, "candidate scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::Ilp(e) => Some(e),
            PartitionError::Ir(e) => Some(e),
            PartitionError::Schedule(e) => Some(e),
            PartitionError::Infeasible(_) => None,
        }
    }
}

impl From<cool_ilp::IlpError> for PartitionError {
    fn from(e: cool_ilp::IlpError) -> PartitionError {
        match e {
            cool_ilp::IlpError::Infeasible => {
                PartitionError::Infeasible("MILP proved no feasible assignment".to_string())
            }
            other => PartitionError::Ilp(other),
        }
    }
}

impl From<cool_ir::IrError> for PartitionError {
    fn from(e: cool_ir::IrError) -> PartitionError {
        PartitionError::Ir(e)
    }
}

impl From<cool_schedule::ScheduleError> for PartitionError {
    fn from(e: cool_schedule::ScheduleError) -> PartitionError {
        PartitionError::Schedule(e)
    }
}

/// Which algorithm produced a result (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact MILP.
    Milp,
    /// Clustering + MILP.
    Heuristic,
    /// Genetic algorithm.
    Genetic,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::Milp => "milp",
            Algorithm::Heuristic => "milp+heuristic",
            Algorithm::Genetic => "genetic",
        })
    }
}

/// What a partitioner can claim about its result's optimality.
///
/// The paper's selling point is *exact* partitioning via MILP — but a
/// branch & bound truncated by its node limit returns an incumbent that
/// is merely feasible. That distinction must survive into the result
/// (and the flow trace, and the CLI), or a truncated solve silently
/// masquerades as the optimum exactly on the large instances where the
/// limit bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Optimality {
    /// Proven optimal for the solver's objective (the MILP's weighted
    /// load proxy, not necessarily the schedule makespan).
    Optimal,
    /// The branch & bound node limit truncated the solve; the returned
    /// colouring is feasible but may be suboptimal.
    LimitReached,
    /// No optimality claim: genetic search, clustering heuristics and
    /// caller-fixed mappings.
    Heuristic,
}

impl fmt::Display for Optimality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Optimality::Optimal => "optimal",
            Optimality::LimitReached => "node-limit truncated",
            Optimality::Heuristic => "heuristic",
        })
    }
}

impl From<cool_ilp::Status> for Optimality {
    /// Map a solver status onto the claim it supports. `Infeasible` and
    /// `Unbounded` never reach a `PartitionResult` (they surface as
    /// errors), so they conservatively map to `Heuristic`.
    fn from(status: cool_ilp::Status) -> Optimality {
        match status {
            cool_ilp::Status::Optimal => Optimality::Optimal,
            cool_ilp::Status::LimitReached => Optimality::LimitReached,
            cool_ilp::Status::Infeasible | cool_ilp::Status::Unbounded => Optimality::Heuristic,
        }
    }
}

impl ContentHash for Optimality {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_u8(match self {
            Optimality::Optimal => 0,
            Optimality::LimitReached => 1,
            Optimality::Heuristic => 2,
        });
    }
}

impl Codec for Optimality {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            Optimality::Optimal => 0,
            Optimality::LimitReached => 1,
            Optimality::Heuristic => 2,
        });
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(Optimality::Optimal),
            1 => Ok(Optimality::LimitReached),
            2 => Ok(Optimality::Heuristic),
            tag => Err(CodecError::InvalidTag {
                type_name: "Optimality",
                tag,
            }),
        }
    }
}

/// The outcome of one partitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionResult {
    /// The node colouring.
    pub mapping: Mapping,
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// What the algorithm can claim about the colouring's optimality
    /// (for MILP variants: whether branch & bound proved its objective
    /// optimal or was truncated by the node limit).
    pub optimality: Optimality,
    /// Relative optimality gap of a node-limit-truncated MILP solve: the
    /// best remaining LP bound of the abandoned branch & bound frontier
    /// says the incumbent's solver objective is within `gap × 100` % of
    /// the true optimum. `Some` exactly when `optimality` is
    /// [`Optimality::LimitReached`]; `None` for completed solves (gap 0
    /// by proof) and for the heuristic/fixed paths (no bound exists).
    pub gap: Option<f64>,
    /// Makespan of the colouring under the list scheduler, system cycles.
    pub makespan: u64,
    /// CLB usage per hardware resource.
    pub hw_area: Vec<u32>,
    /// Solver work: B&B nodes for MILP variants, generations×population
    /// for the GA.
    pub work_units: usize,
}

impl PartitionResult {
    /// Human-readable optimality claim, with the quantified gap when a
    /// truncated solve carried one out of the frontier: `"optimal"`,
    /// `"node-limit truncated, within 3.2 %"`, `"heuristic"`. This is
    /// what reports and warnings print.
    #[must_use]
    pub fn optimality_label(&self) -> String {
        match (self.optimality, self.gap) {
            (Optimality::LimitReached, Some(gap)) => {
                format!("{}, within {:.1} %", self.optimality, gap * 100.0)
            }
            (o, _) => o.to_string(),
        }
    }

    /// Nodes mapped to hardware (function nodes only).
    #[must_use]
    pub fn hardware_nodes(&self, g: &PartitioningGraph) -> usize {
        self.mapping.hardware_node_count(g)
    }

    /// Nodes mapped to software (function nodes only).
    #[must_use]
    pub fn software_nodes(&self, g: &PartitioningGraph) -> usize {
        self.mapping.software_node_count(g)
    }
}

impl ContentHash for Algorithm {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_u8(match self {
            Algorithm::Milp => 0,
            Algorithm::Heuristic => 1,
            Algorithm::Genetic => 2,
        });
    }
}

impl ContentHash for PartitionResult {
    /// `work_units` and `gap` are deliberately excluded: at `jobs > 1`
    /// the number of branch & bound nodes explored — and, for truncated
    /// solves, the best bound left on the abandoned frontier — vary with
    /// worker scheduling even when the colouring does not, and this
    /// digest feeds the engine's slot-digest table — and through it every
    /// downstream stage's cache key. Including them would make
    /// byte-identical runs miss each other's cache entries. (Both still
    /// travel in the [`Codec`] encoding; they are data, just not
    /// identity.)
    fn content_hash(&self, h: &mut ContentHasher) {
        self.mapping.content_hash(h);
        self.algorithm.content_hash(h);
        self.optimality.content_hash(h);
        h.write_u64(self.makespan);
        self.hw_area.content_hash(h);
    }
}

impl Codec for Algorithm {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            Algorithm::Milp => 0,
            Algorithm::Heuristic => 1,
            Algorithm::Genetic => 2,
        });
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(Algorithm::Milp),
            1 => Ok(Algorithm::Heuristic),
            2 => Ok(Algorithm::Genetic),
            tag => Err(CodecError::InvalidTag {
                type_name: "Algorithm",
                tag,
            }),
        }
    }
}

impl Codec for PartitionResult {
    fn encode(&self, e: &mut Encoder) {
        self.mapping.encode(e);
        self.algorithm.encode(e);
        self.optimality.encode(e);
        self.gap.encode(e);
        e.put_u64(self.makespan);
        self.hw_area.encode(e);
        e.put_usize(self.work_units);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PartitionResult {
            mapping: Mapping::decode(d)?,
            algorithm: Algorithm::decode(d)?,
            optimality: Optimality::decode(d)?,
            gap: Option::decode(d)?,
            makespan: d.take_u64()?,
            hw_area: Vec::decode(d)?,
            work_units: d.take_usize()?,
        })
    }
}

/// Evaluate a candidate mapping: makespan via the real list scheduler and
/// CLB usage per hardware resource.
///
/// # Errors
///
/// Propagates scheduling errors; returns `Infeasible` if an FPGA budget is
/// exceeded.
pub fn evaluate(
    g: &PartitioningGraph,
    mapping: &Mapping,
    cost: &CostModel,
    scheme: CommScheme,
) -> Result<(u64, Vec<u32>), PartitionError> {
    let hw_area = area_usage(g, mapping, cost);
    for (i, (&used, hw)) in hw_area.iter().zip(&cost.target().hw).enumerate() {
        if used > hw.clb_capacity {
            return Err(PartitionError::Infeasible(format!(
                "hw{i} needs {used} CLBs, capacity {}",
                hw.clb_capacity
            )));
        }
    }
    let sched = cool_schedule::schedule(g, mapping, cost, scheme)?;
    Ok((sched.makespan(), hw_area))
}

/// CLB usage per hardware resource under `mapping`.
#[must_use]
pub fn area_usage(g: &PartitioningGraph, mapping: &Mapping, cost: &CostModel) -> Vec<u32> {
    let mut usage = vec![0u32; cost.target().hw.len()];
    for (id, node) in g.nodes() {
        if node.kind() != NodeKind::Function {
            continue;
        }
        if let Resource::Hardware(h) = mapping.resource(id) {
            usage[h] += cost.hw_area_clbs(id);
        }
    }
    usage
}

/// Baseline mapping: everything on the first processor (always feasible).
#[must_use]
pub fn all_software(g: &PartitioningGraph) -> Mapping {
    Mapping::uniform(g.node_count(), Resource::Software(0))
}

/// Baseline mapping: all function nodes spread round-robin across hardware
/// resources (primary I/O stays on software by convention). May be
/// area-infeasible; check with [`evaluate`].
#[must_use]
pub fn all_hardware(g: &PartitioningGraph, hw_count: usize) -> Mapping {
    let mut m = all_software(g);
    if hw_count == 0 {
        return m;
    }
    for (i, id) in g.function_nodes().into_iter().enumerate() {
        m.assign(id, Resource::Hardware(i % hw_count));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_ir::Target;
    use cool_spec::workloads;

    #[test]
    fn all_software_is_feasible() {
        let g = workloads::fuzzy_controller();
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let m = all_software(&g);
        let (makespan, area) = evaluate(&g, &m, &cost, CommScheme::MemoryMapped).unwrap();
        assert!(makespan > 0);
        assert_eq!(area, vec![0, 0]);
    }

    #[test]
    fn area_usage_counts_hw_nodes() {
        let g = workloads::equalizer(4);
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let m = all_hardware(&g, 2);
        let usage = area_usage(&g, &m, &cost);
        assert!(usage[0] > 0 && usage[1] > 0);
        let total: u32 = usage.iter().sum();
        assert_eq!(total, cost.total_area(&g.function_nodes()));
    }

    #[test]
    fn infeasible_area_detected() {
        // Pile every fuzzy node onto one 196-CLB FPGA: cannot fit.
        let g = workloads::fuzzy_controller();
        let cost = CostModel::new(&g, &Target::fuzzy_board());
        let mut m = all_software(&g);
        for id in g.function_nodes() {
            m.assign(id, Resource::Hardware(0));
        }
        assert!(matches!(
            evaluate(&g, &m, &cost, CommScheme::MemoryMapped),
            Err(PartitionError::Infeasible(_))
        ));
    }
}
