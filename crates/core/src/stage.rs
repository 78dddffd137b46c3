//! The stage abstraction of the flow engine.
//!
//! A [`Stage`] is one named, individually timed, individually testable
//! unit of the COOL design flow (spec → cost → partition → schedule →
//! stg → hls → rtl → codegen → sim-prep). Stages communicate only
//! through the typed [`FlowContext`]: each stage reads the [`Artifacts`]
//! its producers left there and deposits its own. The
//! [`Engine`](crate::engine::Engine) owns ordering and timing.

use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::{PartitioningGraph, Target};

use crate::cache::{ArtifactSlot, Artifacts};
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
/// Inputs (`graph`, `target`, `options`) are borrowed for the whole run.
/// The [`Artifacts`] start empty (or with a pre-seeded cost model) and
/// every slot is filled by exactly one standard stage; their accessors
/// return [`FlowError::MissingArtifact`] when a consumer outruns its
/// producer, which turns mis-ordered custom engines into a diagnosable
/// error instead of a panic.
#[derive(Debug)]
pub struct FlowContext<'a> {
    /// The input specification.
    pub graph: &'a PartitioningGraph,
    /// The target board.
    pub target: &'a Target,
    /// All flow knobs.
    pub options: &'a FlowOptions,
    /// The artifact slots the stages read and fill.
    pub artifacts: Artifacts,
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
    /// A context over the given inputs with every artifact slot empty.
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
            artifacts: Artifacts::default(),
            node_cache: None,
            node_deltas: Vec::new(),
        }
    }
}
