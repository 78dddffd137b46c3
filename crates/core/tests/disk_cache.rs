//! The persistent-cache determinism battery.
//!
//! A cache that survives processes is only trustworthy if byte-identity
//! is enforced mechanically, so these tests drive the full standard flow
//! through the disk tier under every failure mode the store promises to
//! absorb: fresh-engine warm starts (the in-process model of a second
//! CLI invocation or CI job), truncated/bit-flipped/version-bumped
//! entries, junk directory contents, and the dependency-DAG key
//! invalidation semantics (an `hls`-only option change must leave `stg`
//! valid; a partitioner change must invalidate everything from
//! `partition` down while the spec/cost prefix survives).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cool_core::{CacheOutcome, FlowArtifacts, FlowOptions, FlowSession, Partitioner, StageCache};
use cool_ir::hash::digest;
use cool_ir::Target;
use cool_partition::GaOptions;
use cool_spec::workloads;

fn run_flow_cached(
    g: &cool_ir::PartitioningGraph,
    target: &Target,
    options: &FlowOptions,
    cache: &StageCache,
) -> Result<FlowArtifacts, cool_core::FlowError> {
    FlowSession::new(g)
        .target(target.clone())
        .options(options.clone())
        .cache(cache.clone())
        .run()
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, empty temp directory per call (std-only; no tempfile crate).
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cool-disk-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A 128-bit content fingerprint over every artifact family of a run —
/// byte-identity in one value, via the same `ContentHash` impls the
/// engine keys stages with.
fn artifact_fingerprint(art: &FlowArtifacts) -> Vec<u128> {
    vec![
        digest(&art.cost),
        digest(&art.partition),
        digest(&art.schedule),
        digest(&art.stg),
        digest(&art.stg_minimized),
        digest(&art.minimize_stats),
        digest(&art.memory_map),
        digest(&art.hls_designs),
        digest(&art.controller),
        digest(&art.encoding),
        digest(&art.placements),
        digest(&art.netlist),
        digest(&art.vhdl),
        digest(&art.c_programs),
    ]
}

fn equalizer8_options(jobs: usize) -> FlowOptions {
    FlowOptions {
        partitioner: Partitioner::Genetic(GaOptions {
            population: 8,
            generations: 4,
            ..GaOptions::default()
        }),
        ..FlowOptions::quick()
    }
    .with_jobs(jobs)
}

/// The tentpole invariant: a fresh cache instance (fresh engine, fresh
/// memory tier — the in-process model of a fresh process) over the same
/// cache directory reproduces a cold run byte-identically, restoring
/// every one of the nine standard stages from disk, at `jobs` 1 and 4.
#[test]
fn warm_start_from_disk_is_byte_identical_at_jobs_1_and_4() {
    let g = workloads::equalizer(8);
    let target = Target::fuzzy_board();
    let dir = temp_cache_dir("warm");

    let cold_cache = StageCache::persistent(64, &dir).unwrap();
    let cold = run_flow_cached(&g, &target, &equalizer8_options(1), &cold_cache).unwrap();
    assert_eq!(cold.trace.cache_hits(), 0);
    assert_eq!(cold.trace.cache_misses(), 9);
    assert_eq!(
        cold_cache.stats().disk_writes,
        9,
        "write-through populated disk"
    );

    for jobs in [1usize, 4] {
        // A fresh `StageCache` has an empty memory tier, so every hit
        // below must come off disk — deserialization included.
        let warm_cache = StageCache::persistent(64, &dir).unwrap();
        let warm = run_flow_cached(&g, &target, &equalizer8_options(jobs), &warm_cache).unwrap();
        assert_eq!(
            warm.trace.disk_hits(),
            9,
            "jobs={jobs}: every cacheable stage must hit the disk tier:\n{}",
            warm.trace.to_table()
        );
        assert_eq!(
            artifact_fingerprint(&cold),
            artifact_fingerprint(&warm),
            "jobs={jobs}: warm-start artifacts must be byte-identical to the cold run"
        );
        assert_eq!(cold.vhdl, warm.vhdl);
        assert_eq!(cold.c_programs, warm.c_programs);
        assert_eq!(cold.partition.mapping, warm.partition.mapping);
        let stats = warm_cache.stats();
        assert_eq!(stats.disk_hits, 9, "{}", stats.summary());
        assert_eq!(stats.misses, 0, "{}", stats.summary());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A pareto sweep warm-started from disk restores every stage and asks
/// no tier for anything it cannot serve: each point's seeded `cost`
/// pass-through is never looked up, so the cache reads 0 misses.
#[test]
fn warm_pareto_sweep_from_disk_misses_nothing() {
    let g = workloads::incremental(16, 19);
    let dir = temp_cache_dir("pareto");
    let budgets = [16, 48, 96, 128].map(cool_ir::BudgetConstraint::new);
    let sweep = |cache: &StageCache| {
        FlowSession::new(&g)
            .target(Target::fuzzy_board())
            .options(FlowOptions::quick())
            .jobs(1)
            .cache(cache.clone())
            .pareto(budgets)
            .unwrap()
    };
    let cold = sweep(&StageCache::persistent(64, &dir).unwrap());
    let warm_cache = StageCache::persistent(64, &dir).unwrap();
    let warm = sweep(&warm_cache);
    let stats = warm_cache.stats();
    assert_eq!(warm.computed_stages(), 0, "{}", warm.report());
    assert!(stats.disk_hits > 0, "{}", stats.summary());
    assert_eq!(stats.misses, 0, "{}", stats.summary());
    assert_eq!(warm.to_csv(), cold.to_csv());
    let _ = fs::remove_dir_all(&dir);
}

/// Truncation, bit flips and version bumps on individual entries must
/// degrade those entries to misses (recompute + rewrite) without error
/// and without a single artifact changing.
#[test]
fn corrupted_entries_degrade_to_miss_without_artifact_drift() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let dir = temp_cache_dir("corrupt");

    let cold_cache = StageCache::persistent(64, &dir).unwrap();
    let cold = run_flow_cached(&g, &target, &options, &cold_cache).unwrap();
    let all: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("cce"))
        .collect();
    // Node-level entries share the directory; corrupt *stage* entries
    // (payload kind byte 0, at the end of the 36-byte header) so the
    // stage-level hit/miss/eviction accounting below stays exact. Junk
    // *node* entries are covered by the disk-store unit tests.
    let mut entries: Vec<PathBuf> = all
        .iter()
        .filter(|p| fs::read(p).is_ok_and(|b| b.get(36) == Some(&0)))
        .cloned()
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 9);
    assert!(
        all.len() > entries.len(),
        "the cold run must have written node-level entries too"
    );

    // Truncate the first entry, bit-flip the second, version-bump the
    // third (byte offsets 8..12 hold the format version).
    let bytes = fs::read(&entries[0]).unwrap();
    fs::write(&entries[0], &bytes[..bytes.len() / 3]).unwrap();
    let mut bytes = fs::read(&entries[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    fs::write(&entries[1], &bytes).unwrap();
    let mut bytes = fs::read(&entries[2]).unwrap();
    bytes[8] = bytes[8].wrapping_add(1);
    fs::write(&entries[2], &bytes).unwrap();

    let warm_cache = StageCache::persistent(64, &dir).unwrap();
    let warm = run_flow_cached(&g, &target, &options, &warm_cache).unwrap();
    assert_eq!(
        artifact_fingerprint(&cold),
        artifact_fingerprint(&warm),
        "corruption must never change an artifact"
    );
    let stats = warm_cache.stats();
    assert_eq!(stats.disk_hits, 6, "{}", stats.summary());
    assert_eq!(stats.misses, 3, "{}", stats.summary());
    assert_eq!(
        stats.disk_evictions,
        3,
        "each corrupt entry is evicted: {}",
        stats.summary()
    );
    // The recomputed stages were written back: the store is healthy
    // again, and a third fresh cache sees all nine entries.
    let heal_cache = StageCache::persistent(64, &dir).unwrap();
    let healed = run_flow_cached(&g, &target, &options, &heal_cache).unwrap();
    assert_eq!(healed.trace.disk_hits(), 9, "{}", healed.trace.to_table());
    let _ = fs::remove_dir_all(&dir);
}

/// Junk in the cache directory — garbage entry files, empty files,
/// subdirectories with the entry extension, unrelated files — must never
/// panic or disturb the flow, and a file in place of the directory is a
/// clean error.
#[test]
fn malformed_cache_dir_contents_never_panic() {
    let g = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let dir = temp_cache_dir("junk");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("junk.cce"), b"not a cache entry at all").unwrap();
    fs::write(dir.join("empty.cce"), b"").unwrap();
    fs::write(dir.join("short.cce"), b"CO").unwrap();
    fs::write(dir.join("README.txt"), b"hands off").unwrap();
    fs::create_dir_all(dir.join("subdir.cce")).unwrap();
    // A junk file squatting on a real key: evicted as corrupt, entry
    // recomputed and rewritten over it.
    let cache = StageCache::persistent(64, &dir).unwrap();
    let first = run_flow_cached(&g, &target, &options, &cache).unwrap();
    assert_eq!(first.trace.cache_misses(), 9);
    let fresh = StageCache::persistent(64, &dir).unwrap();
    let warm = run_flow_cached(&g, &target, &options, &fresh).unwrap();
    assert_eq!(warm.trace.disk_hits(), 9, "{}", warm.trace.to_table());
    assert_eq!(artifact_fingerprint(&first), artifact_fingerprint(&warm));
    assert!(dir.join("README.txt").exists(), "non-entries untouched");

    // Opening a store on a path occupied by a file fails, not panics.
    let file_path = dir.join("README.txt");
    assert!(StageCache::persistent(64, &file_path).is_err());
    let _ = fs::remove_dir_all(&dir);
}

/// Per-stage cache outcomes of one run, as `(name, hit)` pairs.
fn outcomes(art: &FlowArtifacts) -> Vec<(&'static str, bool)> {
    art.trace
        .records()
        .iter()
        .map(|r| {
            (
                r.name,
                matches!(
                    r.cache,
                    CacheOutcome::Hit { .. } | CacheOutcome::DiskHit { .. }
                ),
            )
        })
        .collect()
}

/// The DAG-key acceptance criterion: mutating *only* the HLS options
/// leaves `stg` and everything upstream valid; `hls` re-runs, and so do
/// exactly the stages whose read artifacts change (`rtl`, `sim-prep`) —
/// while `codegen`, which reads nothing `hls` writes, still hits even
/// though it sits downstream in execution order. A linear key chain
/// cannot express that last part; the dependency DAG can.
#[test]
fn hls_only_option_change_preserves_stg_and_upstream() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let base = FlowOptions::quick();
    let mut hls_changed = FlowOptions::quick();
    hls_changed.hls.bits = 8; // narrower datapath: different designs
    let cache = StageCache::default();
    run_flow_cached(&g, &target, &base, &cache).unwrap();
    let second = run_flow_cached(&g, &target, &hls_changed, &cache).unwrap();
    assert_eq!(
        outcomes(&second),
        vec![
            ("spec", true),
            ("cost", true),
            ("partition", true),
            ("schedule", true),
            ("stg", true),
            ("hls", false),
            ("rtl", false),
            ("codegen", true),
            ("sim-prep", false),
        ],
        "{}",
        second.trace.to_table()
    );
}

/// The mirror case: a partitioner-option change invalidates `partition`
/// itself — and *only* the downstream stages whose read artifacts
/// actually change. Here the GA's elitism makes generations 4 and 6
/// converge on the same champion colouring (asserted below), so the
/// downstream stages hit: their keys cover the partition's *content*
/// (mapping/makespan/optimality — work_units is deliberately outside
/// the digest, it varies with solver scheduling), not its provenance.
/// Content-visible option changes invalidating downstream is covered by
/// `option_changes_miss_only_downstream_stages` in tests/cache.rs.
#[test]
fn partitioner_option_change_reruns_partition_only_while_content_holds() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let base = equalizer8_options(1);
    let mut ga_changed = base.clone();
    ga_changed.partitioner = Partitioner::Genetic(GaOptions {
        population: 8,
        generations: 6,
        ..GaOptions::default()
    });
    let cache = StageCache::default();
    let first = run_flow_cached(&g, &target, &base, &cache).unwrap();
    let second = run_flow_cached(&g, &target, &ga_changed, &cache).unwrap();
    assert_eq!(
        first.partition.mapping, second.partition.mapping,
        "elitism keeps the champion across the extra generations \
         (if this ever changes, the downstream-hit assertions below \
         must flip to misses)"
    );
    assert!(
        second
            .trace
            .records()
            .iter()
            .any(|r| r.name == "partition" && r.cache == CacheOutcome::Miss),
        "partition must re-run on a partitioner-option change:\n{}",
        second.trace.to_table()
    );
    let hits: Vec<&str> = outcomes(&second)
        .into_iter()
        .filter(|&(_, hit)| hit)
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        hits,
        vec!["spec", "cost", "schedule", "stg", "hls", "rtl", "codegen", "sim-prep"],
        "unchanged partition content must keep downstream cached:\n{}",
        second.trace.to_table()
    );
}

/// The DAG keys hold through the disk tier too: the `hls`-only change
/// scenario with each run in a "fresh process" (fresh cache instance
/// over one directory) restores the preserved stages from disk.
#[test]
fn dag_invalidation_holds_across_processes() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let base = FlowOptions::quick();
    let mut hls_changed = FlowOptions::quick();
    hls_changed.hls.bits = 8;
    let dir = temp_cache_dir("dag");
    let cache = StageCache::persistent(64, &dir).unwrap();
    run_flow_cached(&g, &target, &base, &cache).unwrap();
    let fresh = StageCache::persistent(64, &dir).unwrap();
    let second = run_flow_cached(&g, &target, &hls_changed, &fresh).unwrap();
    assert_eq!(
        second.trace.disk_hits(),
        6,
        "spec/cost/partition/schedule/stg/codegen restore from disk:\n{}",
        second.trace.to_table()
    );
    assert_eq!(
        second.trace.cache_misses(),
        3,
        "{}",
        second.trace.to_table()
    );
    let _ = fs::remove_dir_all(&dir);
}
