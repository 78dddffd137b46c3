//! The [`FlowSession`] builder — the single entry point of the COOL
//! flow.
//!
//! One specification explored across boards, partial flows, caches and
//! cost models used to be a cross-product of `run_flow*` free functions
//! whose knobs did not compose (there was no cached run with a fixed
//! mapping, and multi-board evaluation meant hand-rolling candidate
//! lists). A session composes them all:
//!
//! ```
//! use cool_core::FlowSession;
//! use cool_ir::Target;
//! use cool_spec::workloads;
//!
//! # fn main() -> Result<(), cool_core::FlowError> {
//! let graph = workloads::equalizer(2);
//! let artifacts = FlowSession::new(&graph)
//!     .target(Target::fuzzy_board())
//!     .options(cool_core::FlowOptions::quick())
//!     .run()?;
//! let inputs = cool_ir::eval::input_map([("x0", 10), ("x1", 5), ("x2", 1)]);
//! let result = artifacts.simulate(&inputs)?;
//! assert_eq!(result.outputs, cool_ir::eval::evaluate(&graph, &inputs)?);
//! # Ok(())
//! # }
//! ```
//!
//! * [`FlowSession::run`] — the complete flow on one board, byte-identical
//!   to the retired `run_flow*` family for equivalent inputs.
//! * [`FlowSession::run_to`] — a partial flow: stop after any
//!   [`ArtifactSlot`]'s producer and get a typed [`PartialArtifacts`].
//!   The executed prefix is byte-identical to the same prefix of a full
//!   run.
//! * [`FlowSession::run_family`] — first-class multi-board runs: one
//!   [`FamilyArtifacts`] spanning a board family, the cost model
//!   estimated **once** and [`CostModel::retarget`]-ed per board, boards
//!   evaluated on scoped workers in input order, and a comparative
//!   [`FamilyArtifacts::report`].
//!
//! Invalid combinations (no target, a seeded cost model whose board is
//! inventory-incompatible with the session target, a mapping sized for a
//! different graph) fail fast with [`FlowError::Session`] before any
//! stage runs.

use cool_cost::CostModel;
use cool_ir::{BudgetConstraint, Mapping, PartitioningGraph, Target};
use cool_partition::{Optimality, PartitionResult};

use crate::cache::{ArtifactSlot, Artifacts};
use crate::engine::{Engine, MilpMemo};
use crate::stage::FlowContext;
use crate::timing::FlowTrace;
use crate::{FlowArtifacts, FlowError, FlowOptions, Partitioner, StageCache};

/// A configured (but not yet executed) exploration of one specification:
/// the builder over every knob of the flow. See the [module
/// docs](crate::session) for the three ways to run one.
#[derive(Debug, Clone)]
pub struct FlowSession<'a> {
    graph: &'a PartitioningGraph,
    targets: Vec<Target>,
    options: FlowOptions,
    jobs: Option<usize>,
    cache: Option<StageCache>,
    cost: Option<CostModel>,
    mapping: Option<Mapping>,
}

impl<'a> FlowSession<'a> {
    /// A session over `graph` with default [`FlowOptions`], no target
    /// yet, and no cache. Configure with the chainable builders, then
    /// call one of [`run`](FlowSession::run),
    /// [`run_to`](FlowSession::run_to) or
    /// [`run_family`](FlowSession::run_family).
    #[must_use]
    pub fn new(graph: &'a PartitioningGraph) -> FlowSession<'a> {
        FlowSession {
            graph,
            targets: Vec::new(),
            options: FlowOptions::default(),
            jobs: None,
            cache: None,
            cost: None,
            mapping: None,
        }
    }

    /// The single board to implement the specification on (replaces any
    /// previously configured target list).
    #[must_use]
    pub fn target(mut self, target: Target) -> FlowSession<'a> {
        self.targets = vec![target];
        self
    }

    /// A board *family* to implement the specification on, for
    /// [`run_family`](FlowSession::run_family). Boards must share their
    /// processor/hardware inventory and clocks (the
    /// [`CostModel::retarget`] contract) — typically the same board with
    /// different CLB or memory budgets. Replaces any previously
    /// configured target(s).
    #[must_use]
    pub fn targets(mut self, targets: impl IntoIterator<Item = Target>) -> FlowSession<'a> {
        self.targets = targets.into_iter().collect();
        self
    }

    /// All flow knobs at once (partitioner, scheme, synthesis efforts,
    /// jobs). The dedicated builders — [`jobs`](FlowSession::jobs),
    /// [`with_mapping`](FlowSession::with_mapping),
    /// [`with_cost`](FlowSession::with_cost) — always take precedence
    /// over the corresponding fields of `options`, regardless of call
    /// order.
    #[must_use]
    pub fn options(mut self, options: FlowOptions) -> FlowSession<'a> {
        self.options = options;
        self
    }

    /// Worker threads for the parallel stages (and for the board fan-out
    /// of [`run_family`](FlowSession::run_family)): `1` = serial, `0` =
    /// all cores. Never changes a generated byte, only wall-clock.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> FlowSession<'a> {
        self.jobs = Some(jobs);
        self
    }

    /// Attach a content-addressed stage cache: stages whose
    /// dependency-DAG content key already executed (in this session or
    /// any other holding a clone) are skipped and restored. The cache's
    /// own constructors pick its tiers: [`StageCache::default`] keeps
    /// entries in memory, [`StageCache::persistent`] adds a disk tier that
    /// separate *processes* share, and [`StageCache::with_remote`] adds a
    /// `coold` daemon as the fleet tier.
    #[must_use]
    pub fn cache(mut self, cache: StageCache) -> FlowSession<'a> {
        self.cache = Some(cache);
        self
    }

    /// Seed the session with an already-built cost model, so the `cost`
    /// stage becomes a pass-through (recorded as
    /// [`CacheOutcome::Seeded`](crate::CacheOutcome::Seeded) in the trace)
    /// instead of re-estimating.
    ///
    /// The model's embedded board must be [`CostModel::retarget`]
    /// compatible with the session target(s): same inventory and clocks.
    /// A compatible model whose *budgets* differ is retargeted
    /// automatically (estimates do not depend on budgets); an
    /// incompatible one is an invalid combination and fails the run with
    /// [`FlowError::Session`].
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> FlowSession<'a> {
        self.cost = Some(cost);
        self
    }

    /// Skip partitioning: implement the caller's node→resource colouring
    /// (overrides the partitioner configured via
    /// [`options`](FlowSession::options)). The mapping must cover exactly
    /// this session's graph.
    #[must_use]
    pub fn with_mapping(mut self, mapping: Mapping) -> FlowSession<'a> {
        self.mapping = Some(mapping);
        self
    }

    // ------------------------------------------------------------------
    // Execution.

    /// Run the complete flow on the session's single target.
    ///
    /// # Errors
    ///
    /// [`FlowError::Session`] for invalid configurations (no target, more
    /// than one — call [`run_family`](FlowSession::run_family) —,
    /// incompatible seeded cost model, wrong-sized mapping); otherwise any
    /// stage's failure, exactly as the engine reports it.
    pub fn run(self) -> Result<FlowArtifacts, FlowError> {
        let (target, artifacts, trace) = self.run_single(None)?;
        FlowArtifacts::new(
            self.graph.clone(),
            target,
            self.options.scheme,
            artifacts,
            trace,
        )
    }

    /// Run the flow only until `stop` is produced: the prefix of the
    /// standard stage graph up to and including the stage that writes the
    /// requested artifact slot. The executed prefix is byte-identical to
    /// the same prefix of a full [`run`](FlowSession::run) — stopping
    /// early changes nothing about the stages that did run — and a
    /// pre-seeded slot (e.g. [`with_cost`](FlowSession::with_cost) +
    /// `run_to(ArtifactSlot::Cost)`) stops before its producer.
    ///
    /// # Errors
    ///
    /// Same as [`run`](FlowSession::run).
    pub fn run_to(self, stop: ArtifactSlot) -> Result<PartialArtifacts, FlowError> {
        let (target, artifacts, trace) = self.run_single(Some(stop))?;
        Ok(PartialArtifacts {
            graph: self.graph.clone(),
            target,
            stop,
            trace,
            artifacts,
        })
    }

    /// Implement the specification on every configured board
    /// ([`targets`](FlowSession::targets)) and return one artifact set
    /// spanning the family.
    ///
    /// The cost model is estimated **once** — by the first board's flow,
    /// or taken from [`with_cost`](FlowSession::with_cost) — and
    /// [`CostModel::retarget`]-ed to every other board, whose `cost`
    /// stages then run as seeded pass-throughs (visible per board as
    /// [`CacheOutcome::Seeded`](crate::CacheOutcome::Seeded) in the
    /// traces, and counted by [`FamilyArtifacts::cost_estimations`]).
    /// The remaining boards evaluate on up to `jobs` scoped workers;
    /// results come back in input order for every job count, and each
    /// board's artifacts are byte-identical to a standalone
    /// [`run`](FlowSession::run) of the same inputs.
    ///
    /// # Errors
    ///
    /// [`FlowError::Session`] when no target is configured, when the
    /// boards are not mutually retarget-compatible, or for the other
    /// invalid combinations of [`run`](FlowSession::run); otherwise the
    /// first failing board's error (in input order).
    pub fn run_family(self) -> Result<FamilyArtifacts, FlowError> {
        if self.targets.is_empty() {
            return Err(FlowError::Session(
                "no target configured; call .targets([..]) before .run_family()".to_string(),
            ));
        }
        for (i, t) in self.targets.iter().enumerate().skip(1) {
            if !retarget_compatible(&self.targets[0], t) {
                return Err(FlowError::Session(format!(
                    "board #{i} is not retarget-compatible with board #0 (the family shares \
                     one estimated cost model, which requires identical processor/hardware \
                     inventories, clocks and instruction-timing classes; budgets may differ)"
                )));
            }
        }
        let options = self.resolved_options()?;
        let seed = self.seed(&self.targets[0])?;
        let (estimation, runs) = fan_out(
            self.graph,
            &self.targets,
            &options,
            self.cache.as_ref(),
            seed,
            None,
            &MilpMemo::default(),
        )?;
        let boards = runs
            .into_iter()
            .zip(self.targets)
            .map(|((artifacts, trace), target)| {
                FlowArtifacts::new(self.graph.clone(), target, options.scheme, artifacts, trace)
            })
            .collect::<Result<_, _>>()?;
        Ok(FamilyArtifacts { boards, estimation })
    }

    /// Epsilon-constraint design-space exploration: sweep the session's
    /// single board over `budgets` — each point constrains every FPGA's
    /// CLB capacity ([`BudgetConstraint::apply`]) — optimize the
    /// declared objective at every point, and return the resulting
    /// [`ParetoFront`] over (makespan, total CLB usage).
    ///
    /// The sweep is engineered like
    /// [`run_family`](FlowSession::run_family): the cost model is
    /// estimated **once** — by the first point's spec→cost prefix, or
    /// taken from [`with_cost`](FlowSession::with_cost) — and
    /// [`CostModel::retarget`]-ed to every point, whose `cost` stages
    /// run as seeded pass-throughs
    /// ([`CacheOutcome::Seeded`](crate::CacheOutcome::Seeded), counted by
    /// [`ParetoFront::cost_estimations`]). Points run their
    /// spec→partition prefix on up to `jobs` scoped workers, loosest
    /// budget first, and come back in input order for every job count,
    /// so the front is byte-identical at any `jobs`; one shared
    /// [`StageCache`] (when configured) serves all points. Under the
    /// exact partitioner a point finishes from a looser point's
    /// certified optimum when that optimum provably is its own
    /// ([`ParetoFront::milp_reused`]). Node-limit-truncated points
    /// carry their optimality [`gap`](ParetoPoint::gap).
    ///
    /// # Errors
    ///
    /// [`FlowError::Session`] when no target or more than one target is
    /// configured, or when `budgets` is empty; otherwise the first
    /// failing point's error (in input order).
    pub fn pareto(
        self,
        budgets: impl IntoIterator<Item = BudgetConstraint>,
    ) -> Result<ParetoFront, FlowError> {
        let budgets: Vec<BudgetConstraint> = budgets.into_iter().collect();
        if budgets.is_empty() {
            return Err(FlowError::Session(
                "no budgets configured; pass at least one BudgetConstraint to .pareto(..)"
                    .to_string(),
            ));
        }
        let base = self.single_target(".pareto(..)", "sweeps budgets of one base board")?;
        let options = self.resolved_options()?;
        let targets: Vec<Target> = budgets.iter().map(|b| b.apply(base)).collect();
        // Budget-only target changes are retarget-compatible by
        // construction, so no pairwise check is needed.
        let seed = self.seed(&targets[0])?;
        let memo = MilpMemo::default();
        let (estimation, runs) = fan_out(
            self.graph,
            &targets,
            &options,
            self.cache.as_ref(),
            seed,
            Some(ArtifactSlot::Partition),
            &memo,
        )?;
        let (milp_solves, milp_reused) = memo.counts();
        let mut points = budgets
            .into_iter()
            .zip(runs)
            .map(|(budget, (artifacts, trace))| {
                ParetoPoint::new(budget, self.graph, &artifacts, trace)
            })
            .collect::<Result<Vec<_>, _>>()?;
        mark_dominated(&mut points);
        Ok(ParetoFront {
            design: self.graph.name().to_string(),
            objective: declared_objective(&options),
            points,
            estimation,
            proxy: milp_proxy(&options),
            milp_solves,
            milp_reused,
        })
    }

    // ------------------------------------------------------------------
    // Resolution helpers.

    /// The session options with the `jobs` and mapping overrides applied
    /// and the mapping validated against the graph.
    fn resolved_options(&self) -> Result<FlowOptions, FlowError> {
        let mut options = self.options.clone();
        if let Some(jobs) = self.jobs {
            options.jobs = jobs;
        }
        if let Some(mapping) = &self.mapping {
            if mapping.len() != self.graph.node_count() {
                return Err(FlowError::Session(format!(
                    "with_mapping: the mapping covers {} node(s) but the graph `{}` has {} — \
                     it was built for a different graph",
                    mapping.len(),
                    self.graph.name(),
                    self.graph.node_count(),
                )));
            }
            options.partitioner = Partitioner::Fixed(mapping.clone());
        }
        Ok(options)
    }

    /// The session's one target, for the entry point `call`; with several
    /// configured, `hint` tells the caller why that is an error.
    fn single_target(&self, call: &str, hint: &str) -> Result<&Target, FlowError> {
        match self.targets.as_slice() {
            [target] => Ok(target),
            [] => Err(FlowError::Session(format!(
                "no target configured; call .target(..) before {call}"
            ))),
            many => Err(FlowError::Session(format!(
                "{} targets configured; {call} {hint}",
                many.len()
            ))),
        }
    }

    /// The seeded cost model, if any, retargeted to `target`; an error
    /// when it was estimated for a board `target` is not
    /// retarget-compatible with.
    fn seed(&self, target: &Target) -> Result<Option<CostModel>, FlowError> {
        let Some(cost) = &self.cost else {
            return Ok(None);
        };
        if !retarget_compatible(cost.target(), target) {
            return Err(FlowError::Session(
                "with_cost: the seeded cost model was estimated for a board with a different \
                 processor/hardware inventory, clocks or instruction-timing classes than the \
                 session target; per-node estimates do not transfer — estimate a fresh model \
                 (budget-only differences are retargeted automatically)"
                    .to_string(),
            ));
        }
        Ok(Some(cost.retarget(target)))
    }

    /// The shared leg of [`run`](FlowSession::run) and
    /// [`run_to`](FlowSession::run_to): validate a single-target session
    /// and run the standard engine up to `stop`.
    fn run_single(
        &self,
        stop: Option<ArtifactSlot>,
    ) -> Result<(Target, Artifacts, FlowTrace), FlowError> {
        let target = self.single_target(
            ".run()/.run_to(..)",
            "implement one board — use .run_family() for a board family",
        )?;
        let options = self.resolved_options()?;
        let cost = self.seed(target)?;
        let (artifacts, trace) = run_engine(
            self.graph,
            target,
            &options,
            self.cache.as_ref(),
            cost,
            stop,
            None,
        )?;
        Ok((target.clone(), artifacts, trace))
    }
}

/// One run of the standard engine — `cache` attached and the cost slot
/// seeded with `cost` when given — up to the producer of `stop`, or the
/// whole flow for `None`. Every [`FlowSession`] path runs through it.
fn run_engine(
    graph: &PartitioningGraph,
    target: &Target,
    options: &FlowOptions,
    cache: Option<&StageCache>,
    cost: Option<CostModel>,
    stop: Option<ArtifactSlot>,
    memo: Option<&MilpMemo>,
) -> Result<(Artifacts, FlowTrace), FlowError> {
    let mut engine = Engine::standard();
    if let Some(cache) = cache {
        engine = engine.with_cache(cache.clone());
    }
    let mut cx = FlowContext::new(graph, target, options);
    cx.artifacts.cost = cost;
    cx.milp_memo = memo;
    let trace = engine.run_until(&mut cx, stop)?;
    Ok((cx.artifacts, trace))
}

/// The fan-out behind [`FlowSession::run_family`] and
/// [`FlowSession::pareto`]. Phase 1 estimates the cost model once: the
/// spec→cost prefix over `targets[0]` (a pass-through when `seed` brings
/// a model), whose trace is the evidence the `cost_estimations` counters
/// read. Phase 2 runs every target up to `stop`, seeded with a
/// [`CostModel::retarget`] of that model — budgets do not affect the
/// per-node estimates — on up to `jobs` workers, all lent `memo`. They
/// start in descending total CLB capacity, so a tight point usually
/// finds a looser point's MILP certificate already there; results come
/// back in input order, and the first failing target's error (in input
/// order) fails the fan-out.
fn fan_out(
    graph: &PartitioningGraph,
    targets: &[Target],
    options: &FlowOptions,
    cache: Option<&StageCache>,
    seed: Option<CostModel>,
    stop: Option<ArtifactSlot>,
    memo: &MilpMemo,
) -> Result<(FlowTrace, Vec<(Artifacts, FlowTrace)>), FlowError> {
    let (estimated, estimation) = run_engine(
        graph,
        &targets[0],
        options,
        cache,
        seed,
        Some(ArtifactSlot::Cost),
        None,
    )?;
    let cost = estimated.cost()?;
    // The jobs budget is spent once, not squared: with several targets
    // in flight the fan-out gets the workers and each target's stages
    // run serial (jobs never changes an artifact, only wall-clock, so
    // every result stays byte-identical to a standalone run).
    let per_target = FlowOptions {
        jobs: if targets.len() > 1 { 1 } else { options.jobs },
        ..options.clone()
    };
    // Loosest first, dispatched to every worker at once: a serial first
    // round of the loosest point would idle the others, and it is the
    // deepest tree where hardware pays.
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse(targets[i].hw.iter().map(|h| h.clb_capacity).sum::<u32>())
    });
    let runs = cool_ir::par::par_map(&order, options.jobs, |&i| {
        let target = &targets[i];
        run_engine(
            graph,
            target,
            &per_target,
            cache,
            Some(cost.retarget(target)),
            stop,
            Some(memo),
        )
    });
    let mut runs: Vec<_> = order.into_iter().zip(runs).collect();
    runs.sort_unstable_by_key(|&(i, _)| i);
    Ok((
        estimation,
        runs.into_iter()
            .map(|(_, run)| run)
            .collect::<Result<_, _>>()?,
    ))
}

/// `true` when `b` can be produced from a cost model estimated on `a`
/// via [`CostModel::retarget`]: identical processor/hardware inventories,
/// clocks and instruction-timing classes — everything the per-node
/// estimates read (budgets — CLB capacities, memory size — may differ,
/// the estimates do not depend on them).
fn retarget_compatible(a: &Target, b: &Target) -> bool {
    a.processors.len() == b.processors.len()
        && a.hw.len() == b.hw.len()
        && a.processors
            .iter()
            .zip(&b.processors)
            .all(|(x, y)| (x.clock_mhz - y.clock_mhz).abs() < f64::EPSILON && x.timing == y.timing)
        && a.hw
            .iter()
            .zip(&b.hw)
            .all(|(x, y)| (x.clock_mhz - y.clock_mhz).abs() < f64::EPSILON)
}

/// How many of `traces` executed the `cost` stage for real (as opposed
/// to a seeded pass-through or a cache restore).
fn cost_estimations<'t>(traces: impl Iterator<Item = &'t FlowTrace>) -> usize {
    traces
        .filter(|trace| {
            trace
                .records()
                .iter()
                .any(|r| r.name == "cost" && r.cache.computed())
        })
        .count()
}

// ----------------------------------------------------------------------
// Partial artifacts.

/// What a partial flow ([`FlowSession::run_to`]) produced: the typed
/// [`Artifacts`] of the executed prefix, whose accessors return
/// [`FlowError::MissingArtifact`] for slots downstream of the stop
/// point, so consumers get a diagnosable error instead of an `Option`
/// dance or a panic.
#[derive(Debug, Clone)]
pub struct PartialArtifacts {
    graph: PartitioningGraph,
    target: Target,
    stop: ArtifactSlot,
    trace: FlowTrace,
    artifacts: Artifacts,
}

impl PartialArtifacts {
    /// The input specification.
    #[must_use]
    pub fn graph(&self) -> &PartitioningGraph {
        &self.graph
    }

    /// The target board.
    #[must_use]
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The slot this partial run stopped after.
    #[must_use]
    pub fn stop(&self) -> ArtifactSlot {
        self.stop
    }

    /// The timing journal of the executed prefix.
    #[must_use]
    pub fn trace(&self) -> &FlowTrace {
        &self.trace
    }

    /// The artifacts the prefix produced (or restored); the slots past
    /// the stop point are empty.
    #[must_use]
    pub fn artifacts(&self) -> &Artifacts {
        &self.artifacts
    }
}

// ----------------------------------------------------------------------
// Family artifacts.

/// One artifact set spanning a board family: every board's complete
/// [`FlowArtifacts`], in the input order of
/// [`FlowSession::targets`], plus the comparative accessors the
/// multi-board workflow exists for.
#[derive(Debug, Clone)]
pub struct FamilyArtifacts {
    boards: Vec<FlowArtifacts>,
    /// Trace of the family's estimation prefix (spec→cost over board 0):
    /// the one place a family run may actually estimate.
    estimation: FlowTrace,
}

impl FamilyArtifacts {
    /// Every board's artifacts, in input order.
    #[must_use]
    pub fn boards(&self) -> &[FlowArtifacts] {
        &self.boards
    }

    /// Number of boards in the family.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boards.len()
    }

    /// `true` for an empty family (never produced by
    /// [`FlowSession::run_family`], which requires a target).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boards.is_empty()
    }

    /// The `i`-th board's artifacts (input order).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&FlowArtifacts> {
        self.boards.get(i)
    }

    /// Iterate the boards in input order.
    pub fn iter(&self) -> std::slice::Iter<'_, FlowArtifacts> {
        self.boards.iter()
    }

    /// Consume the family into the per-board artifact list.
    #[must_use]
    pub fn into_boards(self) -> Vec<FlowArtifacts> {
        self.boards
    }

    /// Index of the best board: lowest schedule makespan, ties broken by
    /// lowest total CLB usage (less hardware for the same speed), then by
    /// input order. Deterministic for every job count because the
    /// per-board artifacts are.
    #[must_use]
    pub fn best_index(&self) -> usize {
        (0..self.boards.len())
            .min_by_key(|&i| {
                let art = &self.boards[i];
                let clbs: u32 = art.partition.hw_area.iter().sum();
                (art.partition.makespan, clbs, i)
            })
            .unwrap_or(0)
    }

    /// The best board's artifacts (see
    /// [`best_index`](FamilyArtifacts::best_index)).
    ///
    /// # Panics
    ///
    /// Panics on an empty family, which
    /// [`FlowSession::run_family`] never produces.
    #[must_use]
    pub fn best(&self) -> &FlowArtifacts {
        &self.boards[self.best_index()]
    }

    /// The trace of the family's estimation prefix (spec→cost over
    /// board 0). Empty when the caller seeded a cost model (nothing had
    /// to run); `cost` appears as a cache hit when a shared cache
    /// already held the estimate.
    #[must_use]
    pub fn estimation_trace(&self) -> &FlowTrace {
        &self.estimation
    }

    /// How many times the family actually *executed* cost estimation:
    /// the estimation prefix plus any board whose `cost` stage ran for
    /// real (as opposed to a seeded pass-through or a cache restore).
    /// [`FlowSession::run_family`]'s contract is that this is at most
    /// 1 — the evidence lives in the recorded [`FlowTrace`]s, not in a
    /// self-reported counter.
    #[must_use]
    pub fn cost_estimations(&self) -> usize {
        cost_estimations(
            std::iter::once(&self.estimation).chain(self.boards.iter().map(|art| &art.trace)),
        )
    }

    /// Boards whose MILP partition was node-limit truncated.
    #[must_use]
    pub fn truncated_boards(&self) -> usize {
        self.boards
            .iter()
            .filter(|a| a.partition.optimality == cool_partition::Optimality::LimitReached)
            .count()
    }

    /// The comparative family report: one row per board (makespan,
    /// partition shape, per-FPGA CLB usage, optimality with the
    /// quantified gap for truncated solves), the best-board summary, and
    /// the shared-cost-model accounting.
    #[must_use]
    pub fn report(&self) -> String {
        let mut s = String::new();
        let design = self.boards.first().map_or("(empty)", |a| a.graph.name());
        s.push_str(&format!(
            "board family report — design `{design}`, {} board(s)\n",
            self.boards.len()
        ));
        let table = crate::TextTable::new(vec![
            crate::Col::right(3, ""),
            crate::Col::left(28, ""),
            crate::Col::right(6, ""),
            crate::Col::right(6, ""),
            crate::Col::right(10, ""),
            crate::Col::right(12, " "),
        ]);
        let header: Vec<String> = ["#", "board", "sw", "hw", "makespan", "CLBs"]
            .into_iter()
            .map(String::from)
            .collect();
        s.push_str(&table.row(&header, " partition"));
        for (i, art) in self.boards.iter().enumerate() {
            let budgets: Vec<String> = art
                .target
                .hw
                .iter()
                .map(|h| format!("{}/{}", h.name, h.clb_capacity))
                .collect();
            let used: Vec<String> = art
                .partition
                .hw_area
                .iter()
                .map(ToString::to_string)
                .collect();
            s.push_str(&table.row(
                &[
                    i.to_string(),
                    budgets.join("+"),
                    art.partition.software_nodes(&art.graph).to_string(),
                    art.partition.hardware_nodes(&art.graph).to_string(),
                    art.partition.makespan.to_string(),
                    used.join("+"),
                ],
                &format!(" {}", art.partition.optimality_label()),
            ));
        }
        let best = self.best_index();
        let best_art = &self.boards[best];
        s.push_str(&format!(
            "best board: #{best} (makespan {} cycles ≈ {:.2} µs, {} CLB(s) used)\n",
            best_art.partition.makespan,
            best_art.cost.cycles_to_us(best_art.partition.makespan),
            best_art.partition.hw_area.iter().sum::<u32>(),
        ));
        s.push_str(&format!(
            "cost model: estimated {} time(s) for {} board(s) (retargeted to the rest)\n",
            self.cost_estimations(),
            self.boards.len()
        ));
        let truncated = self.truncated_boards();
        if truncated > 0 {
            s.push_str(&format!(
                "warning: {truncated} board(s) carry node-limit-truncated MILP partitions\n"
            ));
        }
        s
    }
}

impl<'f> IntoIterator for &'f FamilyArtifacts {
    type Item = &'f FlowArtifacts;
    type IntoIter = std::slice::Iter<'f, FlowArtifacts>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for FamilyArtifacts {
    type Item = FlowArtifacts;
    type IntoIter = std::vec::IntoIter<FlowArtifacts>;

    fn into_iter(self) -> Self::IntoIter {
        self.boards.into_iter()
    }
}

// ----------------------------------------------------------------------
// Pareto sweeps.

/// Display label of the objective a sweep actually optimizes: the
/// flow-level override when set, otherwise whatever the configured
/// partitioner's own options declare.
fn declared_objective(options: &FlowOptions) -> String {
    match (&options.objective, &options.partitioner) {
        (Some(o), _) => o.to_string(),
        (None, Partitioner::Milp(m)) => m.objective.to_string(),
        (None, Partitioner::Heuristic(h)) => h.milp.objective.to_string(),
        (None, Partitioner::Genetic(g)) => g.objective.to_string(),
        (None, Partitioner::Fixed(_)) => "fixed".to_string(),
    }
}

/// The `(time, comm, area)` weights the exact partitioner minimizes —
/// the only partitioner whose points can read `optimal`.
fn milp_proxy(options: &FlowOptions) -> Option<(f64, f64, f64)> {
    match &options.partitioner {
        Partitioner::Milp(m) => Some(options.objective.unwrap_or(m.objective).weights()),
        _ => None,
    }
}

/// One evaluated point of a [`FlowSession::pareto`] sweep.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The area budget this point was solved under.
    pub budget: BudgetConstraint,
    /// The full partitioning outcome (mapping, makespan, per-FPGA CLB
    /// usage, optimality claim and gap).
    pub partition: PartitionResult,
    /// The makespan in microseconds under the point's retargeted cost
    /// model.
    pub makespan_us: f64,
    /// Function nodes mapped to software.
    pub software_nodes: usize,
    /// Function nodes mapped to hardware.
    pub hardware_nodes: usize,
    /// `true` when another sweep point weakly dominates this one
    /// (no worse in both makespan and total CLB usage, strictly better
    /// in at least one). The non-dominated points are the front.
    pub dominated: bool,
    trace: FlowTrace,
}

impl ParetoPoint {
    fn new(
        budget: BudgetConstraint,
        graph: &PartitioningGraph,
        artifacts: &Artifacts,
        trace: FlowTrace,
    ) -> Result<ParetoPoint, FlowError> {
        let partition = artifacts.partition()?.clone();
        let makespan_us = artifacts.cost()?.cycles_to_us(partition.makespan);
        let software_nodes = partition.software_nodes(graph);
        let hardware_nodes = partition.hardware_nodes(graph);
        Ok(ParetoPoint {
            budget,
            partition,
            makespan_us,
            software_nodes,
            hardware_nodes,
            dominated: false,
            trace,
        })
    }

    /// Schedule makespan, system cycles.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.partition.makespan
    }

    /// Total CLB usage across the point's hardware resources.
    #[must_use]
    pub fn total_clbs(&self) -> u32 {
        self.partition.hw_area.iter().sum()
    }

    /// Relative optimality gap of a node-limit-truncated MILP solve:
    /// `Some` exactly when the solver gave up with
    /// [`Optimality::LimitReached`], in which case the point's objective
    /// is only proven to be within `gap × 100` % of the true optimum —
    /// treat its position on the front accordingly.
    #[must_use]
    pub fn gap(&self) -> Option<f64> {
        self.partition.gap
    }

    /// `true` for a node-limit-truncated solve (see
    /// [`gap`](ParetoPoint::gap)).
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.partition.optimality == Optimality::LimitReached
    }

    /// The timing journal of this point's spec→partition prefix.
    #[must_use]
    pub fn trace(&self) -> &FlowTrace {
        &self.trace
    }
}

/// Mark every point that is weakly dominated by another (minimizing
/// makespan and total CLB usage; duplicates do not dominate each other).
fn mark_dominated(points: &mut [ParetoPoint]) {
    let metrics: Vec<(u64, u32)> = points
        .iter()
        .map(|p| (p.makespan(), p.total_clbs()))
        .collect();
    for (i, p) in points.iter_mut().enumerate() {
        let (m, a) = metrics[i];
        p.dominated = metrics
            .iter()
            .enumerate()
            .any(|(j, &(mj, aj))| j != i && mj <= m && aj <= a && (mj < m || aj < a));
    }
}

/// The outcome of one [`FlowSession::pareto`] sweep: every evaluated
/// point in input (budget) order with its dominance flag, plus the
/// evidence of the sweep's single cost estimation.
#[derive(Debug, Clone)]
pub struct ParetoFront {
    design: String,
    objective: String,
    points: Vec<ParetoPoint>,
    estimation: FlowTrace,
    /// The `(time, comm, area)` weights of the exact partitioner's proxy
    /// objective; `None` for the other partitioners.
    proxy: Option<(f64, f64, f64)>,
    milp_solves: usize,
    milp_reused: usize,
}

impl ParetoFront {
    /// Every evaluated point, in input (budget) order.
    #[must_use]
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of evaluated points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` for an empty sweep (never produced by
    /// [`FlowSession::pareto`], which requires a budget).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The dominance-filtered front: every non-dominated point, in
    /// input order.
    #[must_use]
    pub fn non_dominated(&self) -> Vec<&ParetoPoint> {
        self.points.iter().filter(|p| !p.dominated).collect()
    }

    /// The objective label the sweep optimized (e.g. `makespan`,
    /// `blend:1,0.3,0.05`).
    #[must_use]
    pub fn objective(&self) -> &str {
        &self.objective
    }

    /// The trace of the sweep's estimation prefix (spec→cost over the
    /// first point's board).
    #[must_use]
    pub fn estimation_trace(&self) -> &FlowTrace {
        &self.estimation
    }

    /// How many times the sweep actually *executed* cost estimation —
    /// the contract is at most 1, evidenced by the recorded traces:
    /// every point's `cost` stage must appear as
    /// [`CacheOutcome::Seeded`](crate::CacheOutcome::Seeded) (or a cache
    /// restore), never as an execution.
    #[must_use]
    pub fn cost_estimations(&self) -> usize {
        cost_estimations(
            std::iter::once(&self.estimation).chain(self.points.iter().map(|p| &p.trace)),
        )
    }

    /// Stages that actually executed across the whole sweep (estimation
    /// prefix + every point): cache restores and seeded pass-throughs
    /// do not count, so a fully warm re-run reports 0.
    #[must_use]
    pub fn computed_stages(&self) -> usize {
        self.estimation.stages_computed()
            + self
                .points
                .iter()
                .map(|p| p.trace.stages_computed())
                .sum::<usize>()
    }

    /// Points whose MILP partition was node-limit truncated.
    #[must_use]
    pub fn truncated_points(&self) -> usize {
        self.points.iter().filter(|p| p.is_truncated()).count()
    }

    /// Exact-partitioner (`milp`) solves the sweep ran. Points restored
    /// from the cache neither solve nor reuse, so a warm re-sweep reads
    /// 0. Like branch & bound node counts, this depends on `jobs`: the
    /// points in flight together solve before any can reuse the others'
    /// certificates. The partitions never depend on it, which is why
    /// neither [`report`](ParetoFront::report) nor
    /// [`to_csv`](ParetoFront::to_csv) prints it.
    #[must_use]
    pub fn milp_solves(&self) -> usize {
        self.milp_solves
    }

    /// Points the sweep finished from a looser point's certified MILP
    /// optimum instead of solving: the root relaxation's unique
    /// integral optimum, which fits the tighter budget and is what a
    /// fresh solve returns. `jobs`-dependent like
    /// [`milp_solves`](ParetoFront::milp_solves).
    #[must_use]
    pub fn milp_reused(&self) -> usize {
        self.milp_reused
    }

    /// The comparative sweep report: one row per point (budget,
    /// partition shape, makespan, CLB usage, front membership,
    /// optimality with the quantified gap for truncated solves) plus
    /// the sweep accounting the CI smoke greps for.
    #[must_use]
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "pareto sweep — design `{}`, objective {}, {} point(s)\n",
            self.design,
            self.objective,
            self.points.len()
        ));
        let table = crate::TextTable::new(vec![
            crate::Col::right(3, ""),
            crate::Col::right(8, ""),
            crate::Col::right(6, ""),
            crate::Col::right(6, ""),
            crate::Col::right(10, ""),
            crate::Col::right(8, ""),
            crate::Col::right(5, " "),
        ]);
        let header: Vec<String> = ["#", "budget", "sw", "hw", "makespan", "CLBs", "front"]
            .into_iter()
            .map(String::from)
            .collect();
        s.push_str(&table.row(&header, " optimality"));
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&table.row(
                &[
                    i.to_string(),
                    p.budget.to_string(),
                    p.software_nodes.to_string(),
                    p.hardware_nodes.to_string(),
                    p.makespan().to_string(),
                    p.total_clbs().to_string(),
                    if p.dominated { "-" } else { "*" }.to_string(),
                ],
                &format!(" {}", p.partition.optimality_label()),
            ));
        }
        if let Some((t, c, a)) = self.proxy {
            if self
                .points
                .iter()
                .any(|p| p.partition.optimality == Optimality::Optimal)
            {
                s.push_str(&format!(
                    "optimal: proven for the MILP proxy {t}·Σ exec + {c}·Σ comm·cut + \
                     {a}·Σ area; makespan is that mapping's list-scheduled makespan\n"
                ));
            }
        }
        s.push_str(&format!(
            "pareto sweep: {} point(s), {} non-dominated, {} stage(s) computed\n",
            self.points.len(),
            self.non_dominated().len(),
            self.computed_stages()
        ));
        s.push_str(&format!(
            "cost model: estimated {} time(s) for {} point(s) (retargeted to the rest)\n",
            self.cost_estimations(),
            self.points.len()
        ));
        let truncated = self.truncated_points();
        if truncated > 0 {
            s.push_str(&format!(
                "warning: {truncated} point(s) carry node-limit-truncated MILP partitions — \
                 their optimality gap bounds how far off the front they may sit\n"
            ));
        }
        s
    }

    /// The sweep as CSV (one row per point, input order), for plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "budget,makespan_cycles,makespan_us,clbs,software_nodes,hardware_nodes,optimality,gap,non_dominated\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "{},{},{:.3},{},{},{},{},{},{}\n",
                p.budget.max_clbs_per_fpga,
                p.makespan(),
                p.makespan_us,
                p.total_clbs(),
                p.software_nodes,
                p.hardware_nodes,
                p.partition.optimality,
                p.gap().map(|g| format!("{g:.6}")).unwrap_or_default(),
                !p.dominated
            ));
        }
        s
    }
}
