//! The stage abstraction of the flow engine.
//!
//! A [`Stage`] is one named, individually timed, individually testable
//! unit of the COOL design flow (spec → cost → partition → schedule →
//! stg → hls → rtl → codegen → sim-prep). Stages communicate only
//! through the typed [`FlowContext`]: each stage reads the artifacts its
//! producers left there and deposits its own. The
//! [`Engine`](crate::engine::Engine) owns ordering and timing.

use cool_codegen::CProgram;
use cool_cost::CostModel;
use cool_hls::HlsDesign;
use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::{Mapping, NodeId, PartitioningGraph, Resource, Target};
use cool_partition::PartitionResult;
use cool_rtl::encoding::StateEncoding;
use cool_rtl::place::Placement;
use cool_rtl::{Netlist, SystemController};
use cool_schedule::StaticSchedule;
use cool_stg::{MemoryMap, MinimizeStats, Stg};

use crate::cache::ArtifactSlot;
use crate::{FlowError, FlowOptions};

/// One named unit of the design flow.
///
/// Implementations must be deterministic for equal context contents
/// (including `options.jobs`, which may change wall-clock but never
/// artifacts) — the engine's determinism tests rely on it.
pub trait Stage {
    /// Stable stage name, used for timing records and trace tables.
    fn name(&self) -> &'static str;

    /// Execute the stage: read producer artifacts from `cx`, deposit this
    /// stage's artifacts into `cx`.
    ///
    /// # Errors
    ///
    /// Any stage failure, wrapped in [`FlowError`]; reading an artifact
    /// whose producer has not run yields
    /// [`FlowError::MissingArtifact`].
    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError>;

    /// Content digest of every input this stage reads *beyond* the graph
    /// and the artifact slots declared in [`Stage::reads`] (both already
    /// covered by the engine's dependency-DAG key): the target fields and
    /// option knobs that influence this stage's output. Returning `Some`
    /// makes the stage cacheable by the
    /// [`StageCache`](crate::cache::StageCache); returning `None` opts
    /// this stage out. Downstream stages stay cacheable either way —
    /// their keys cover the *content* of the artifacts they read, not
    /// the provenance.
    ///
    /// The default digests the full target and every artifact-relevant
    /// [`FlowOptions`] field (`jobs` excluded — it never changes
    /// artifacts). That is sound for a *field-less* stage honouring the
    /// determinism contract; a stage that carries its own configuration
    /// MUST override this and digest those fields too, or two
    /// differently-configured instances will share cache keys. The
    /// standard stages override it with the precise input set they
    /// read, which is what lets sweep candidates that differ only in,
    /// say, FPGA area budgets still share their `spec` prefix.
    ///
    /// Cacheable stages must only *fill empty* context slots; a stage
    /// that mutates artifacts in place must return `None` (debug builds
    /// fail such a run with [`FlowError::Consistency`]).
    fn cache_key(&self, cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = ContentHasher::new();
        cx.target.content_hash(&mut h);
        cx.options.content_hash(&mut h);
        Some(h.finish())
    }

    /// The artifact slots this stage reads. The engine folds the content
    /// digest of exactly these slots into the stage's cache key, which is
    /// what turns the key structure into a dependency DAG: a change that
    /// re-runs `hls` does not invalidate `stg`, because `stg` does not
    /// read anything `hls` writes.
    ///
    /// The default — every slot — is sound for any stage (it can only
    /// over-invalidate). Overriding with a *subset* is a promise: the
    /// stage's `run` must not observe any slot outside the returned
    /// list, or stale cache hits become possible. Inputs outside the
    /// slot system (graph, target, options) are covered by the engine's
    /// key seed and by [`Stage::cache_key`].
    fn reads(&self) -> &'static [ArtifactSlot] {
        &ArtifactSlot::ALL
    }

    /// The artifact slots this stage may fill. Purely a safety
    /// declaration: after a miss the engine checks the slots actually
    /// deposited against this list and fails the run with
    /// [`FlowError::Consistency`] on a mismatch (an undeclared write
    /// means the declarations — possibly including `reads` — are wrong,
    /// and a wrong entry must never be served). The default — every
    /// slot — accepts anything.
    fn writes(&self) -> &'static [ArtifactSlot] {
        &ArtifactSlot::ALL
    }
}

/// The typed blackboard the stages communicate through.
///
/// Inputs (`graph`, `target`, `options`) are borrowed for the whole run;
/// every artifact slot starts empty and is filled by exactly one standard
/// stage. The `artifact()`/accessor methods return
/// [`FlowError::MissingArtifact`] when a consumer outruns its producer,
/// which turns mis-ordered custom engines into a diagnosable error
/// instead of a panic.
#[derive(Debug)]
pub struct FlowContext<'a> {
    /// The input specification.
    pub graph: &'a PartitioningGraph,
    /// The target board.
    pub target: &'a Target,
    /// All flow knobs.
    pub options: &'a FlowOptions,

    /// Cost model (produced by `cost`, or pre-seeded for sweeps).
    pub cost: Option<CostModel>,
    /// Partitioning outcome (produced by `partition`).
    pub partition: Option<PartitionResult>,
    /// Static schedule (produced by `schedule`).
    pub schedule: Option<StaticSchedule>,
    /// Raw STG (produced by `stg`).
    pub stg: Option<Stg>,
    /// Minimized STG (produced by `stg`).
    pub stg_minimized: Option<Stg>,
    /// Minimization statistics (produced by `stg`).
    pub minimize_stats: Option<MinimizeStats>,
    /// Communication memory map (produced by `stg`).
    pub memory_map: Option<MemoryMap>,
    /// Hardware-mapped function nodes in graph order (produced by `hls`).
    pub hw_nodes: Option<Vec<NodeId>>,
    /// Full-effort HLS designs, parallel to `hw_nodes` (produced by
    /// `hls`).
    pub hls_designs: Option<Vec<HlsDesign>>,
    /// Synthesized system controller (produced by `rtl`).
    pub controller: Option<SystemController>,
    /// Optimized controller state encoding (produced by `rtl`).
    pub encoding: Option<StateEncoding>,
    /// Generated netlist (produced by `rtl`).
    pub netlist: Option<Netlist>,
    /// Emitted VHDL units `(file name, source)` (produced by `rtl`).
    pub vhdl: Option<Vec<(String, String)>>,
    /// CLB placements per FPGA hosting logic (produced by `rtl`).
    pub placements: Option<Vec<(Resource, Placement)>>,
    /// Generated C programs (produced by `codegen`).
    pub c_programs: Option<Vec<CProgram>>,

    /// The node-level cache tier, injected by the engine when a
    /// [`StageCache`](crate::cache::StageCache) is attached. Stages that
    /// work per node (`hls`, `stg`, `rtl`) consult it to reuse clean
    /// nodes' artifacts; `None` means "compute everything fresh".
    pub node_cache: Option<crate::cache::StageCache>,
    /// Node-level cache activity deposited by stages as they run, as
    /// `(stage name, delta)`; the engine drains these into the matching
    /// [`StageRecord`](crate::timing::StageRecord)s.
    pub node_deltas: Vec<(&'static str, crate::timing::NodeDelta)>,
}

impl<'a> FlowContext<'a> {
    /// An empty context over the given inputs.
    #[must_use]
    pub fn new(
        graph: &'a PartitioningGraph,
        target: &'a Target,
        options: &'a FlowOptions,
    ) -> FlowContext<'a> {
        FlowContext {
            graph,
            target,
            options,
            cost: None,
            partition: None,
            schedule: None,
            stg: None,
            stg_minimized: None,
            minimize_stats: None,
            memory_map: None,
            hw_nodes: None,
            hls_designs: None,
            controller: None,
            encoding: None,
            netlist: None,
            vhdl: None,
            placements: None,
            c_programs: None,
            node_cache: None,
            node_deltas: Vec::new(),
        }
    }

    /// An empty context pre-seeded with a cost model, so the `cost` stage
    /// becomes a no-op. This is the sharing seam for sweeps that evaluate
    /// many partitions of one graph: estimation runs once, not once per
    /// candidate.
    #[must_use]
    pub fn with_cost(
        graph: &'a PartitioningGraph,
        target: &'a Target,
        options: &'a FlowOptions,
        cost: CostModel,
    ) -> FlowContext<'a> {
        let mut cx = FlowContext::new(graph, target, options);
        cx.cost = Some(cost);
        cx
    }

    fn artifact<'s, T>(slot: &'s Option<T>, what: &'static str) -> Result<&'s T, FlowError> {
        slot.as_ref().ok_or(FlowError::MissingArtifact(what))
    }

    /// The cost model, or [`FlowError::MissingArtifact`].
    pub fn cost(&self) -> Result<&CostModel, FlowError> {
        Self::artifact(&self.cost, "cost model")
    }

    /// The partitioning outcome, or [`FlowError::MissingArtifact`].
    pub fn partition(&self) -> Result<&PartitionResult, FlowError> {
        Self::artifact(&self.partition, "partition result")
    }

    /// The node→resource mapping, or [`FlowError::MissingArtifact`].
    pub fn mapping(&self) -> Result<&Mapping, FlowError> {
        Ok(&self.partition()?.mapping)
    }

    /// The static schedule, or [`FlowError::MissingArtifact`].
    pub fn schedule(&self) -> Result<&StaticSchedule, FlowError> {
        Self::artifact(&self.schedule, "static schedule")
    }

    /// The minimized STG, or [`FlowError::MissingArtifact`].
    pub fn stg_minimized(&self) -> Result<&Stg, FlowError> {
        Self::artifact(&self.stg_minimized, "minimized STG")
    }

    /// The memory map, or [`FlowError::MissingArtifact`].
    pub fn memory_map(&self) -> Result<&MemoryMap, FlowError> {
        Self::artifact(&self.memory_map, "memory map")
    }

    /// Hardware-mapped function nodes, or [`FlowError::MissingArtifact`].
    pub fn hw_nodes(&self) -> Result<&[NodeId], FlowError> {
        Self::artifact(&self.hw_nodes, "hardware node list").map(Vec::as_slice)
    }

    /// The HLS designs, or [`FlowError::MissingArtifact`].
    pub fn hls_designs(&self) -> Result<&[HlsDesign], FlowError> {
        Self::artifact(&self.hls_designs, "HLS designs").map(Vec::as_slice)
    }

    /// The system controller, or [`FlowError::MissingArtifact`].
    pub fn controller(&self) -> Result<&SystemController, FlowError> {
        Self::artifact(&self.controller, "system controller")
    }

    /// The netlist, or [`FlowError::MissingArtifact`].
    pub fn netlist(&self) -> Result<&Netlist, FlowError> {
        Self::artifact(&self.netlist, "netlist")
    }
}
