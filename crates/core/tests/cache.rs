//! Stage-cache integration tests: the hard invariant is that warm-cache
//! artifacts are byte-identical to cold runs at every job count, and
//! that content keys are stable, collision-free and LRU-bounded.

use cool_core::engine::{
    CodegenStage, CostStage, HlsStage, PartitionStage, RtlStage, ScheduleStage, SimPrepStage,
    SpecStage, StgStage,
};
use cool_core::{
    Engine, FlowArtifacts, FlowContext, FlowError, FlowOptions, FlowSession, Partitioner, Stage,
    StageCache,
};
use cool_cost::CostModel;
use cool_ir::Target;
use cool_partition::GaOptions;
use cool_spec::workloads;

/// Every generated byte of a flow run, in deterministic order.
fn generated_bytes(art: &FlowArtifacts) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (name, source) in &art.vhdl {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(source.as_bytes());
    }
    for p in &art.c_programs {
        bytes.extend_from_slice(p.file_name.as_bytes());
        bytes.extend_from_slice(p.source.as_bytes());
    }
    bytes
}

fn run_flow(
    g: &cool_ir::PartitioningGraph,
    target: &Target,
    options: &FlowOptions,
) -> Result<FlowArtifacts, FlowError> {
    FlowSession::new(g)
        .target(target.clone())
        .options(options.clone())
        .run()
}

fn run_flow_cached(
    g: &cool_ir::PartitioningGraph,
    target: &Target,
    options: &FlowOptions,
    cache: &StageCache,
) -> Result<FlowArtifacts, FlowError> {
    FlowSession::new(g)
        .target(target.clone())
        .options(options.clone())
        .cache(cache.clone())
        .run()
}

/// The res2 shape in miniature: one spec across a family of FPGA area
/// budgets, estimation paid once and retargeted per board.
fn budget_family(
    graph: &cool_ir::PartitioningGraph,
    budgets: &[u32],
    jobs: usize,
    cache: Option<&StageCache>,
) -> Vec<FlowArtifacts> {
    let options = FlowOptions {
        partitioner: Partitioner::Genetic(GaOptions {
            population: 8,
            generations: 4,
            ..GaOptions::default()
        }),
        ..FlowOptions::quick()
    };
    let boards = budgets.iter().map(|&budget| {
        let mut target = Target::fuzzy_board();
        target.hw[0].clb_capacity = budget;
        target.hw[1].clb_capacity = budget;
        target
    });
    let mut session = FlowSession::new(graph)
        .targets(boards)
        .options(options)
        .jobs(jobs);
    if let Some(cache) = cache {
        session = session.cache(cache.clone());
    }
    session.run_family().unwrap().into_boards()
}

#[test]
fn warm_cache_flow_is_byte_identical_and_all_hits() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let cache = StageCache::default();
    let cold = run_flow_cached(&g, &target, &options, &cache).unwrap();
    assert_eq!(cold.trace.cache_hits(), 0);
    assert_eq!(cold.trace.cache_misses(), 9);
    let warm = run_flow_cached(&g, &target, &options, &cache).unwrap();
    assert_eq!(warm.trace.cache_hits(), 9, "{}", warm.trace.to_table());
    assert_eq!(generated_bytes(&cold), generated_bytes(&warm));
    assert_eq!(cold.partition.mapping, warm.partition.mapping);
    // The plain uncached entry point agrees byte-for-byte too.
    let uncached = run_flow(&g, &target, &options).unwrap();
    assert_eq!(generated_bytes(&uncached), generated_bytes(&warm));
}

#[test]
fn stage_keys_are_stable_across_engine_instances() {
    // A second engine over a fresh but equal context must reproduce the
    // first engine's keys exactly: all nine stages hit.
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let cache = StageCache::default();
    let mut cx = FlowContext::new(&g, &target, &options);
    Engine::standard()
        .with_cache(cache.clone())
        .run(&mut cx)
        .unwrap();
    let g2 = workloads::equalizer(2);
    let target2 = target.clone();
    let options2 = options.clone();
    let mut cx2 = FlowContext::new(&g2, &target2, &options2);
    let trace = Engine::standard()
        .with_cache(cache.clone())
        .run(&mut cx2)
        .unwrap();
    assert_eq!(trace.cache_hits(), 9, "{}", trace.to_table());
}

#[test]
fn res2_style_family_cached_matches_uncached_at_jobs_1() {
    let graph = workloads::fuzzy_controller();
    let budgets = [0u32, 96, 196];

    let uncached = budget_family(&graph, &budgets, 1, None);
    let cache = StageCache::default();
    let cached = budget_family(&graph, &budgets, 1, Some(&cache));

    for (a, b) in uncached.iter().zip(&cached) {
        assert_eq!(generated_bytes(a), generated_bytes(b));
    }
    // Strictly fewer stage executions than the cache-disabled family:
    // the budget-independent `spec` prefix is computed once, not per
    // board. Hit counters prove it.
    let stats = cache.stats();
    let uncached_runs = budgets.len() * 9;
    assert!(stats.hits > 0, "{}", stats.summary());
    assert!(
        (stats.misses as usize) < uncached_runs,
        "cached family must execute fewer stages than the {uncached_runs} uncached runs: {}",
        stats.summary()
    );
    // Every stage of every board is looked up, plus the two lookups of
    // the family's spec→cost estimation prefix — except each board's
    // seeded `cost` pass-through, which no tier holds and none is asked.
    assert_eq!(
        stats.hits as usize + stats.misses as usize,
        uncached_runs + 2 - budgets.len()
    );
}

#[test]
fn res2_style_family_deterministic_and_cached_at_jobs_4() {
    let graph = workloads::fuzzy_controller();
    let budgets = [0u32, 96, 196];
    let serial = budget_family(&graph, &budgets, 1, None);

    let cache = StageCache::default();
    let first = budget_family(&graph, &budgets, 4, Some(&cache));
    let warm = budget_family(&graph, &budgets, 4, Some(&cache));

    // Results come back in input order for every job count, and the
    // warm parallel pass is byte-identical to the cold serial family.
    for ((cold, first), warm) in serial.iter().zip(&first).zip(&warm) {
        assert_eq!(generated_bytes(cold), generated_bytes(first));
        assert_eq!(generated_bytes(cold), generated_bytes(warm));
        assert_eq!(cold.partition.mapping, warm.partition.mapping);
        // Warm pass: every stage of every board restored, except the
        // seeded `cost` pass-through — it deposits nothing, so the
        // engine deliberately never caches it (re-running it is free).
        assert_eq!(warm.trace.cache_hits(), 8, "{}", warm.trace.to_table());
        assert_eq!(warm.trace.seeded_stages(), 1, "{}", warm.trace.to_table());
    }
    let stats = cache.stats();
    assert!(
        (stats.misses as usize) < 2 * budgets.len() * 9,
        "two cached passes must execute fewer stages than two uncached families: {}",
        stats.summary()
    );
}

#[test]
fn tiny_lru_bound_evicts_but_stays_correct() {
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    // Three slots for nine stages: the cache thrashes, correctness must
    // not depend on residency.
    let cache = StageCache::new(3);
    let cold = run_flow_cached(&g, &target, &options, &cache).unwrap();
    let second = run_flow_cached(&g, &target, &options, &cache).unwrap();
    assert_eq!(generated_bytes(&cold), generated_bytes(&second));
    let stats = cache.stats();
    assert!(stats.evictions > 0, "{}", stats.summary());
    assert!(stats.entries <= 3, "{}", stats.summary());
}

#[test]
fn distinct_specs_never_collide_on_stage_keys() {
    // Seeded property loop: every distinct random spec must produce a
    // distinct spec-stage key. A collision would silently restore the
    // wrong graph's artifacts, so zero hits and one entry per spec is
    // the required outcome.
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let cache = StageCache::new(4096);
    let mut specs = 0usize;
    for nodes in [6usize, 9, 14, 21] {
        for seed in 0..12u64 {
            let graph = workloads::random_dag(workloads::RandomDagConfig {
                nodes,
                seed,
                ..Default::default()
            });
            let engine = Engine::new(vec![Box::new(SpecStage)]).with_cache(cache.clone());
            let mut cx = FlowContext::new(&graph, &target, &options);
            engine.run(&mut cx).unwrap();
            specs += 1;
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "key collision between distinct specs");
    assert_eq!(stats.entries, specs);
}

/// The README's worked example: a custom lint stage spliced between
/// `schedule` and `stg` that participates in caching via `cache_key`.
struct ScheduleLintStage {
    max_makespan: u64,
}

impl Stage for ScheduleLintStage {
    fn name(&self) -> &'static str {
        "schedule-lint"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let schedule = cx.artifacts.schedule()?;
        if schedule.makespan() > self.max_makespan {
            return Err(FlowError::Consistency(format!(
                "makespan {} exceeds lint bound {}",
                schedule.makespan(),
                self.max_makespan,
            )));
        }
        Ok(())
    }

    fn cache_key(&self, _cx: &FlowContext<'_>) -> Option<u128> {
        let mut h = cool_ir::ContentHasher::new();
        h.write_u64(self.max_makespan);
        Some(h.finish())
    }
}

fn lint_engine(max_makespan: u64) -> Engine {
    Engine::new(vec![
        Box::new(SpecStage),
        Box::new(CostStage),
        Box::new(PartitionStage),
        Box::new(ScheduleStage),
        Box::new(ScheduleLintStage { max_makespan }),
        Box::new(StgStage),
        Box::new(HlsStage),
        Box::new(RtlStage),
        Box::new(CodegenStage),
        Box::new(SimPrepStage),
    ])
}

#[test]
fn custom_lint_stage_runs_and_participates_in_caching() {
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let cache = StageCache::default();

    let mut cx = FlowContext::new(&g, &target, &options);
    let trace = lint_engine(u64::MAX)
        .with_cache(cache.clone())
        .run(&mut cx)
        .unwrap();
    assert!(trace.stage_names().contains(&"schedule-lint"));

    // Warm run: the lint (and everything else) restores from cache.
    let mut cx2 = FlowContext::new(&g, &target, &options);
    let warm = lint_engine(u64::MAX)
        .with_cache(cache.clone())
        .run(&mut cx2)
        .unwrap();
    assert_eq!(warm.cache_hits(), 10, "{}", warm.to_table());

    // A different lint bound is a different key for the lint stage —
    // and for nothing else: the lint writes no artifacts, so under the
    // dependency-DAG keys every other stage's inputs are unchanged and
    // all nine standard stages hit.
    let mut cx3 = FlowContext::new(&g, &target, &options);
    let relint = lint_engine(u64::MAX - 1)
        .with_cache(cache.clone())
        .run(&mut cx3)
        .unwrap();
    assert_eq!(relint.cache_hits(), 9, "{}", relint.to_table());

    // And a violated bound fails inside the named stage.
    let mut cx4 = FlowContext::new(&g, &target, &options);
    let err = lint_engine(0).run(&mut cx4).unwrap_err();
    assert!(matches!(err, FlowError::Consistency(_)), "{err}");
}

/// A stage that *mutates* an existing artifact in place. Whether it is
/// cacheable is the test's choice: per the `Stage::cache_key` contract,
/// mutating stages must return `None`.
struct DoubleEffortStage {
    cacheable: bool,
}

impl Stage for DoubleEffortStage {
    fn name(&self) -> &'static str {
        "double-effort"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        let partition = cx
            .artifacts
            .partition
            .as_mut()
            .ok_or(FlowError::MissingArtifact("partition result"))?;
        // Mutate a digest-visible field (work_units is deliberately
        // outside the content hash, so bumping it would be invisible to
        // the mutation check).
        partition.makespan += 1;
        Ok(())
    }

    fn cache_key(&self, _cx: &FlowContext<'_>) -> Option<u128> {
        self.cacheable.then_some(7)
    }
}

fn mutating_engine(cacheable: bool) -> Engine {
    Engine::new(vec![
        Box::new(SpecStage),
        Box::new(CostStage),
        Box::new(PartitionStage),
        Box::new(DoubleEffortStage { cacheable }),
        Box::new(ScheduleStage),
        Box::new(StgStage),
        Box::new(HlsStage),
        Box::new(RtlStage),
        Box::new(CodegenStage),
        Box::new(SimPrepStage),
    ])
}

#[test]
fn uncacheable_mutating_stage_keeps_downstream_sound_and_cacheable() {
    // An in-place mutator that (correctly) opts out of caching: the
    // engine rebuilds the slot-digest table after it runs, so the
    // downstream stages cache on the *mutated* content and a warm run
    // stays byte-identical to the cold run.
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let cache = StageCache::default();

    let mut cx = FlowContext::new(&g, &target, &options);
    let cold_trace = mutating_engine(false)
        .with_cache(cache.clone())
        .run(&mut cx)
        .unwrap();
    let cold_makespan = cx.artifacts.partition.as_ref().unwrap().makespan;
    assert_eq!(cold_trace.cache_misses(), 9, "{}", cold_trace.to_table());

    let mut cx2 = FlowContext::new(&g, &target, &options);
    let warm_trace = mutating_engine(false)
        .with_cache(cache.clone())
        .run(&mut cx2)
        .unwrap();
    // Everything but the opted-out mutator restores from cache...
    assert_eq!(warm_trace.cache_hits(), 9, "{}", warm_trace.to_table());
    // ...and the mutation is applied on top, exactly as in the cold run.
    assert_eq!(
        cx2.artifacts.partition.as_ref().unwrap().makespan,
        cold_makespan
    );
    assert_eq!(cx.artifacts.vhdl, cx2.artifacts.vhdl);
    assert_eq!(cx.artifacts.c_programs, cx2.artifacts.c_programs);
}

/// A stage that fills a slot it does not declare in `writes()`.
struct UndeclaredWriterStage;

impl Stage for UndeclaredWriterStage {
    fn name(&self) -> &'static str {
        "undeclared-writer"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), FlowError> {
        cx.artifacts.cost = Some(CostModel::new(cx.graph, cx.target));
        Ok(())
    }

    fn cache_key(&self, _cx: &FlowContext<'_>) -> Option<u128> {
        Some(1)
    }

    fn writes(&self) -> &'static [cool_core::ArtifactSlot] {
        &[]
    }
}

/// Run `engine` under a fresh cache and return its consistency error.
fn consistency_error(engine: Engine) -> String {
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let mut cx = FlowContext::new(&g, &target, &options);
    match engine.with_cache(StageCache::default()).run(&mut cx) {
        Err(FlowError::Consistency(why)) => why,
        other => panic!("expected a consistency error, got {other:?}"),
    }
}

#[test]
fn undeclared_write_is_a_consistency_error() {
    // Silently refusing to cache would hide the broken declaration
    // forever; every build — release included — rejects the stage.
    let why = consistency_error(Engine::new(vec![
        Box::new(SpecStage),
        Box::new(UndeclaredWriterStage),
    ]));
    assert!(
        why.contains("filled the artifact slot `cost` without declaring it"),
        "{why}"
    );
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the mutated-slot re-hash runs in debug builds only"
)]
fn cacheable_mutating_stage_violates_contract_and_is_a_consistency_error() {
    // The same mutator claiming to be cacheable is a contract violation
    // (its delta would be empty and the recorded digests stale); debug
    // builds catch it mechanically instead of caching wrong entries.
    let why = consistency_error(mutating_engine(true));
    assert!(
        why.contains("mutated the already-filled artifact slot `partition`"),
        "{why}"
    );
}

#[test]
fn option_changes_miss_only_downstream_stages() {
    // Changing the communication scheme must invalidate every stage that
    // reads it (partition and schedule key on it; stg/rtl/codegen read
    // the schedule artifact, which embeds it) while the
    // scheme-independent spec/cost prefix hits. `hls` misses too: the
    // GA optimizes under the flow's scheme, finds a different partition
    // under `Direct`, and `hls` reads the partition artifact.
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let mmio = FlowOptions::quick();
    let direct = FlowOptions {
        scheme: cool_cost::CommScheme::Direct,
        ..FlowOptions::quick()
    };
    let cache = StageCache::default();
    run_flow_cached(&g, &target, &mmio, &cache).unwrap();
    let second = run_flow_cached(&g, &target, &direct, &cache).unwrap();
    let names: Vec<&str> = second
        .trace
        .records()
        .iter()
        .filter(|r| matches!(r.cache, cool_core::CacheOutcome::Hit { .. }))
        .map(|r| r.name)
        .collect();
    assert_eq!(names, vec!["spec", "cost"], "{}", second.trace.to_table());
    for miss in ["partition", "schedule", "stg", "hls", "rtl", "codegen"] {
        assert!(
            second
                .trace
                .records()
                .iter()
                .any(|r| r.name == miss && r.cache == cool_core::CacheOutcome::Miss),
            "{miss} must re-run on a scheme change:\n{}",
            second.trace.to_table()
        );
    }
}
