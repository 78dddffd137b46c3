//! `cool` — command-line front-end of the COOL co-design flow.
//!
//! ```text
//! cool flow <spec.cool> [--out DIR] [--partitioner milp|heuristic|ga]
//!                       [--scheme mmio|direct] [--quick] [--jobs N]
//!                       [--target BOARD] [--targets BOARD,BOARD,...]
//!                       [--to-stage STAGE] [--pin NODE=RES,...]
//!                       [--cache|--no-cache] [--cache-dir DIR] [--trace]
//!                       [--expect-node-disk-hits MIN]
//!                       [--expect-node-synth-max MAX]
//! cool watch <spec.cool> [--poll-ms N] [--max-runs N] [same flags as flow]
//! cool simulate <spec.cool> [name=value ...] [same flags as flow]
//! cool serve [--addr ADDR] [--cache-dir DIR] [--cache-max-bytes N]
//! cool ping [--connect ADDR]
//! cool check <spec.cool>
//! cool cache stats [--cache-dir DIR] [--connect ADDR]
//! cool cache clear [--cache-dir DIR]
//! ```
//!
//! `flow` runs a [`cool_core::FlowSession`] (specification →
//! partitioning → co-synthesis) and writes the generated VHDL and C
//! files into `--out` (default `cool_out/`); `--jobs N` fans the
//! parallel stages (per-node HLS, STG minimization, placement) out over
//! `N` worker threads (`0` = all cores) without changing any generated
//! byte, and `--trace` prints the engine's per-stage timing table.
//!
//! Boards are named presets, optionally budget-capped: `fuzzy` (the
//! paper's DSP56001 + 2× XC4005 prototyping board), `minimal` (one
//! processor, one FPGA), and `BOARD@N` caps every FPGA of the preset at
//! `N` CLBs (`fuzzy@96`). `--target` picks the single board of a run
//! (default `fuzzy`); `--targets fuzzy@48,fuzzy@96,fuzzy` runs the
//! *family* mode — one session across all boards, the cost model
//! estimated once and retargeted per board — and prints the comparative
//! family report. `--to-stage STAGE` (`cost`, `partition`, `schedule`,
//! `stg`, `hls`, `rtl`, `codegen`) stops the flow after the named stage
//! and reports the partial artifact set.
//!
//! `--cache` (overridden by `--no-cache`) runs the session against an
//! in-memory content-addressed stage cache; `--cache-dir DIR` (default
//! `.cool-cache` when the flag is given without a value) additionally
//! attaches the persistent disk tier, so *repeated invocations* skip
//! every stage whose inputs did not change. Per-stage
//! hit/miss/disk-hit accounting shows up under `--trace`. `cool cache
//! stats`/`clear` inspect and empty a cache directory. `simulate`
//! additionally executes one system invocation on the co-simulator;
//! `check` only parses and validates the specification.
//!
//! Underneath the stage keys sits a *node tier*: per-node HLS designs,
//! STG fragments and hardware VHDL units are content-addressed on the
//! node's own behavior, so an edit that dirties one node re-synthesizes
//! exactly that node even though every stage-level key missed. `cool
//! watch <spec>` is the front-end of that tier — it polls the spec
//! file's content and re-runs the flow against one long-lived cache on
//! every save. `--pin NODE=RES,...` (with `*=RES` for all function
//! nodes) fixes the partitioning so nothing stochastic can masquerade
//! as a cache miss, and `--expect-node-disk-hits MIN` /
//! `--expect-node-synth-max MAX` turn the node-reuse contract into a
//! non-zero exit code for CI.
//!
//! `cool serve` runs `coold`, a [`cool_core::server`] daemon that keeps
//! one stage cache resident for other processes; it stores entries and
//! never runs a flow. `--cache-remote ADDR` on
//! `flow`/`simulate`/`pareto`/`watch` attaches it as a third cache tier
//! (memory → disk → remote). Lookups that miss both local tiers fetch
//! the entry bytes from the daemon and re-materialize them into the
//! local disk tier; computed stages write through, so a second machine
//! with an empty `.cool-cache/` warm-starts a flow or sweep entirely
//! from the daemon. The daemon being unreachable degrades the cache to
//! local-only (one warning per outage streak) — it never fails the
//! flow. `cool ping --connect ADDR` times one round trip, and `cool
//! cache stats --connect ADDR` asks a daemon for its resident cache
//! counters; no other command takes `--connect`.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use cool_core::server::{Client, Server, DEFAULT_ADDR};
use cool_core::{
    ArtifactSlot, FlowArtifacts, FlowOptions, FlowSession, FlowTrace, Partitioner, StageCache,
};
use cool_cost::CommScheme;
use cool_ir::{BudgetConstraint, Objective, PartitioningGraph, Resource, Target};
use cool_partition::{GaOptions, HeuristicOptions, MilpOptions, Optimality, PartitionResult};

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one way `cool` writes to stdout, flushed at once so `watch` and
/// `serve` report as they go. When the reader has gone away
/// (`cool flow … | head -1`), the process ends quietly with status 0,
/// where `println!` would panic; any other write error ends it with
/// status 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cool: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cool: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first().cloned() else {
        return Err(usage().into());
    };
    let rest = &args[1..];
    if let Some(flag) = rest.iter().find(|a| {
        a.starts_with("--")
            && !VALUE_FLAGS.contains(&a.as_str())
            && !BOOL_FLAGS.contains(&a.as_str())
    }) {
        return Err(format!("unknown flag `{flag}`\n{}", usage()).into());
    }
    match command.as_str() {
        "check" | "flow" | "simulate" | "pareto" | "watch" | "serve"
            if rest.iter().any(|a| a == "--connect") =>
        {
            Err(format!(
                "`cool {command}` does not take --connect (only `ping` and `cache stats` talk \
                 to a daemon directly); to share a daemon's cache, pass --cache-remote ADDR"
            )
            .into())
        }
        "check" => {
            let spec = read_spec(rest)?;
            let graph = cool_spec::parse(&spec)?;
            outln!(
                "ok: design `{}` with {} nodes, {} edges",
                graph.name(),
                graph.node_count(),
                graph.edge_count()
            );
            Ok(())
        }
        "flow" => {
            let spec = read_spec(rest)?;
            let graph = cool_spec::parse(&spec)?;
            let mut options = parse_options(rest)?;
            apply_pins(&mut options, &graph, rest)?;
            let out = flag_value(rest, "--out").unwrap_or_else(|| "cool_out".to_string());
            let targets_flag = flag_value(rest, "--targets");
            let to_stage_flag = flag_value(rest, "--to-stage");
            if targets_flag.is_some() && to_stage_flag.is_some() {
                return Err(
                    "--targets and --to-stage cannot be combined: family mode implements \
                     every board completely (drop one of the flags)"
                        .into(),
                );
            }
            if let Some(list) = targets_flag {
                return run_family_mode(&graph, &options, &list, rest);
            }
            if let Some(stage) = to_stage_flag {
                return run_partial_mode(&graph, &options, &stage, rest);
            }
            let (session, cache) = configure_session(&graph, &options, rest)?;
            let art = session.run()?;
            outln!("{}", art.report());
            warn_on_truncation(&art.partition);
            check_expectations(&art.trace, rest)?;
            print_trace(rest, &art.trace, options.jobs, cache.as_ref());
            let dir = PathBuf::from(out);
            fs::create_dir_all(&dir)?;
            for (name, source) in &art.vhdl {
                fs::write(dir.join(name), source)?;
            }
            fs::write(
                dir.join("cool_memory_map.h"),
                cool_codegen::emit_memory_header(&graph, &art.memory_map),
            )?;
            for p in &art.c_programs {
                fs::write(dir.join(&p.file_name), &p.source)?;
            }
            outln!(
                "wrote {} VHDL unit(s), {} C unit(s) and the memory map to {}",
                art.vhdl.len(),
                art.c_programs.len(),
                dir.display()
            );
            Ok(())
        }
        "simulate" => {
            let spec = read_spec(rest)?;
            let graph = cool_spec::parse(&spec)?;
            let mut options = parse_options(rest)?;
            apply_pins(&mut options, &graph, rest)?;
            if flag_value(rest, "--targets").is_some() || flag_value(rest, "--to-stage").is_some() {
                return Err(
                    "--targets/--to-stage apply to `cool flow` only (simulate needs one \
                     complete implementation)"
                        .into(),
                );
            }
            let mut inputs: BTreeMap<String, i64> = BTreeMap::new();
            for (i, a) in rest.iter().enumerate().skip(1) {
                // A flag's value can contain `=` (`--pin '*=hw0'`) —
                // only bare arguments are input assignments.
                if i > 0 && VALUE_FLAGS.contains(&rest[i - 1].as_str()) {
                    continue;
                }
                if let Some((k, v)) = a.split_once('=') {
                    inputs.insert(k.to_string(), v.parse()?);
                }
            }
            for id in graph.primary_inputs() {
                let name = graph.node(id)?.name().to_string();
                inputs.entry(name).or_insert(0);
            }
            let (session, cache) = configure_session(&graph, &options, rest)?;
            let art = session.run()?;
            warn_on_truncation(&art.partition);
            let r = art.simulate(&inputs)?;
            outln!(
                "simulated {} cycles ({} bus transfer(s), bus {:.1} % busy)",
                r.cycles,
                r.bus_transfers,
                100.0 * r.bus_utilization()
            );
            for (name, value) in &r.outputs {
                outln!("  {name} = {value}");
            }
            print_trace(rest, &art.trace, options.jobs, cache.as_ref());
            Ok(())
        }
        "pareto" => {
            let spec = read_spec(rest)?;
            let graph = cool_spec::parse(&spec)?;
            let mut options = parse_options(rest)?;
            apply_pins(&mut options, &graph, rest)?;
            if flag_value(rest, "--targets").is_some() {
                return Err(
                    "--targets applies to `cool flow` only; pareto sweeps CLB budgets of one \
                     base board (--target)"
                        .into(),
                );
            }
            let budgets_flag = flag_value(rest, "--budgets").ok_or(
                "pareto needs --budgets A..B:STEP or a comma list (e.g. --budgets 16..128:8)",
            )?;
            let budgets = parse_budgets(&budgets_flag)?;
            let (session, cache) = configure_session(&graph, &options, rest)?;
            let front = session.pareto(budgets)?;
            if rest.iter().any(|a| a == "--csv") {
                out!("{}", front.to_csv());
            } else {
                out!("{}", front.report());
            }
            if rest.iter().any(|a| a == "--trace") {
                if let Some(cache) = &cache {
                    outln!("{}", cache.stats().summary());
                }
            }
            Ok(())
        }
        "watch" => run_watch(rest),
        "serve" => run_serve(rest),
        "ping" => run_ping(rest),
        "cache" => run_cache_command(rest),
        "--help" | "-h" | "help" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

fn usage() -> &'static str {
    "usage:\n  cool check    <spec.cool>\n  cool flow     <spec.cool> [--out DIR] [--partitioner milp|heuristic|ga] [--objective makespan|area|comm|blend:T,C,A] [--milp-max-nodes N] [--milp-max-pivots N] [--scheme mmio|direct] [--quick] [--jobs N] [--target BOARD] [--targets BOARD,BOARD,...] [--to-stage cost|partition|schedule|stg|hls|rtl|codegen] [--pin NODE=RES,... ] [--cache|--no-cache] [--cache-dir DIR] [--cache-max-bytes N] [--cache-remote ADDR] [--trace] [--expect-node-disk-hits MIN] [--expect-node-synth-max MAX]\n  cool pareto   <spec.cool> --budgets A..B:STEP|N,N,... [--csv] [same flags as flow, minus --targets]\n  cool watch    <spec.cool> [--poll-ms N] [--max-runs N] [same flags as flow, minus --out]\n  cool simulate <spec.cool> [name=value ...] [same flags as flow]\n  cool serve    [--addr ADDR] [--cache-dir DIR] [--cache-max-bytes N]\n  cool ping     [--connect ADDR]\n  cool cache    stats|clear [--cache-dir DIR] [--cache-max-bytes N] [--connect ADDR]\nboards: fuzzy, minimal; cap FPGA budgets with BOARD@CLBS (e.g. fuzzy@96)\npins: NODE=hw0|hw1|sw0|..., or *=RES for every function node (later entries override)\npareto: epsilon-constraint sweep over FPGA CLB budgets (--budgets 16..128:8), one shared cache, cost estimated once\nserve: `cool serve` starts the cache daemon (default addr 127.0.0.1:2665); it stores cache entries and never runs a flow\nremote cache: `--cache-remote ADDR` adds a daemon as a third cache tier (memory → disk → remote) on flow/simulate/pareto/watch; `cool ping --connect ADDR` measures the round-trip"
}

/// Default persistent cache directory, relative to the working directory.
const DEFAULT_CACHE_DIR: &str = ".cool-cache";

/// Every flag that consumes the following argument as its value. Used
/// to tell a flag value containing `=` apart from a `name=value`
/// simulation input.
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--partitioner",
    "--scheme",
    "--jobs",
    "--target",
    "--targets",
    "--to-stage",
    "--pin",
    "--cache-dir",
    "--cache-max-bytes",
    "--cache-remote",
    "--expect-node-disk-hits",
    "--expect-node-synth-max",
    "--objective",
    "--budgets",
    "--milp-max-nodes",
    "--milp-max-pivots",
    "--poll-ms",
    "--max-runs",
    "--connect",
    "--addr",
];

/// Every flag that takes no value. With `VALUE_FLAGS` it lists every
/// flag `cool` knows; any other `--…` argument is rejected.
const BOOL_FLAGS: &[&str] = &["--quick", "--trace", "--csv", "--cache", "--no-cache"];

/// The cache directory selected by `--cache-dir [DIR]`, if the flag is
/// present (a missing or flag-like value selects the default directory).
fn cache_dir_flag(rest: &[String]) -> Option<String> {
    let i = rest.iter().position(|a| a == "--cache-dir")?;
    Some(match rest.get(i + 1) {
        Some(v) if !v.starts_with("--") => v.clone(),
        _ => DEFAULT_CACHE_DIR.to_string(),
    })
}

/// Resolve a board spec: a named preset (`fuzzy`, `minimal`) with an
/// optional `@N` suffix capping every FPGA of the preset at `N` CLBs
/// (`fuzzy@96`).
fn parse_board(spec: &str) -> Result<Target, Box<dyn Error>> {
    let (name, budget) = match spec.split_once('@') {
        Some((name, n)) => {
            let budget: u32 = n
                .parse()
                .map_err(|_| format!("board `{spec}`: `@` expects a CLB budget, got `{n}`"))?;
            (name, Some(budget))
        }
        None => (spec, None),
    };
    let mut target = match name {
        "fuzzy" => Target::fuzzy_board(),
        "minimal" => Target::minimal(),
        other => {
            return Err(
                format!("unknown board `{other}`; known presets: fuzzy, minimal (cap FPGA budgets with e.g. fuzzy@96)").into(),
            )
        }
    };
    if let Some(budget) = budget {
        for hw in &mut target.hw {
            hw.clb_capacity = budget;
        }
    }
    Ok(target)
}

/// The single board selected by `--target` (default: the paper's fuzzy
/// prototyping board).
fn target_flag(rest: &[String]) -> Result<Target, Box<dyn Error>> {
    match flag_value(rest, "--target") {
        Some(spec) => parse_board(&spec),
        None => Ok(Target::fuzzy_board()),
    }
}

/// Parse the `--budgets` argument of `cool pareto`: either an
/// inclusive stepped range `A..B:STEP` or a comma-separated list of
/// CLB capacities (`16,32,64`).
fn parse_budgets(spec: &str) -> Result<Vec<BudgetConstraint>, Box<dyn Error>> {
    let malformed = || -> Box<dyn Error> {
        format!(
            "--budgets expects A..B:STEP or a comma list (e.g. 16..128:8 or 16,32,64), got `{spec}`"
        )
        .into()
    };
    if let Some((range, step)) = spec.split_once(':') {
        let (lo, hi) = range.split_once("..").ok_or_else(malformed)?;
        let lo: u32 = lo.trim().parse().map_err(|_| malformed())?;
        let hi: u32 = hi.trim().parse().map_err(|_| malformed())?;
        let step: u32 = step.trim().parse().map_err(|_| malformed())?;
        if step == 0 || lo == 0 || lo > hi {
            return Err(malformed());
        }
        return Ok((lo..=hi)
            .step_by(step as usize)
            .map(BudgetConstraint::new)
            .collect());
    }
    spec.split(',')
        .map(|tok| {
            let clbs: u32 = tok.trim().parse().map_err(|_| malformed())?;
            if clbs == 0 {
                return Err(malformed());
            }
            Ok(BudgetConstraint::new(clbs))
        })
        .collect()
}

/// Map a `--to-stage` name onto the artifact slot whose production
/// completes that stage.
fn parse_stop_stage(stage: &str) -> Result<ArtifactSlot, Box<dyn Error>> {
    Ok(match stage {
        "cost" => ArtifactSlot::Cost,
        "partition" => ArtifactSlot::Partition,
        "schedule" => ArtifactSlot::Schedule,
        "stg" => ArtifactSlot::MemoryMap,
        "hls" => ArtifactSlot::HlsDesigns,
        "rtl" => ArtifactSlot::Placements,
        "codegen" => ArtifactSlot::CPrograms,
        other => {
            return Err(format!(
                "unknown --to-stage `{other}`; expected one of cost, partition, schedule, \
                 stg, hls, rtl, codegen (spec/sim-prep produce no artifact — run the full flow)"
            )
            .into())
        }
    })
}

/// Configure a single-target [`FlowSession`] from the command line,
/// attaching a stage cache only when `--cache` or `--cache-dir` was
/// explicitly given (`--no-cache` wins). A single invocation can never
/// *hit* a fresh in-memory cache, so recording — which clones every
/// artifact the stages deposit — is never paid by default; with
/// `--cache-dir` the persistent tier makes repeated invocations
/// warm-start from each other. The cache handle is returned so
/// `--trace` can print its stats.
fn configure_session<'g>(
    graph: &'g PartitioningGraph,
    options: &FlowOptions,
    rest: &[String],
) -> Result<(FlowSession<'g>, Option<StageCache>), Box<dyn Error>> {
    let session = FlowSession::new(graph)
        .target(target_flag(rest)?)
        .options(options.clone());
    let cache = cache_from_flags(rest)?;
    Ok((with_cache(session, cache.as_ref()), cache))
}

/// `session` with `cache` attached, when there is one.
fn with_cache<'g>(session: FlowSession<'g>, cache: Option<&StageCache>) -> FlowSession<'g> {
    match cache {
        Some(cache) => session.cache(cache.clone()),
        None => session,
    }
}

/// The `--trace` block of `cool flow` and `cool simulate`: the engine
/// table of `trace` and, with a cache, the cache's counters.
fn print_trace(rest: &[String], trace: &FlowTrace, jobs: usize, cache: Option<&StageCache>) {
    if !rest.iter().any(|a| a == "--trace") {
        return;
    }
    outln!(
        "engine trace ({} worker(s)):",
        cool_ir::par::effective_jobs(jobs, usize::MAX)
    );
    out!("{}", trace.to_table());
    if let Some(cache) = cache {
        outln!("{}", cache.stats().summary());
    }
}

/// The stage cache the flags ask for, if any. `--cache-remote ADDR`
/// implies caching (like `--cache-dir`) and attaches the daemon at
/// `ADDR` as the third tier under whatever local tiers resolved.
fn cache_from_flags(rest: &[String]) -> Result<Option<StageCache>, Box<dyn Error>> {
    let no_cache = rest.iter().any(|a| a == "--no-cache");
    let dir = cache_dir_flag(rest);
    let remote = flag_value(rest, "--cache-remote");
    let wanted =
        !no_cache && (dir.is_some() || remote.is_some() || rest.iter().any(|a| a == "--cache"));
    if !wanted {
        return Ok(None);
    }
    let cache = match dir {
        Some(dir) => StageCache::persistent_with_cap(
            StageCache::DEFAULT_CAPACITY,
            dir,
            cache_max_bytes_flag(rest)?,
        )?,
        None => StageCache::default(),
    };
    Ok(Some(match remote {
        Some(addr) => cache.with_remote(std::sync::Arc::new(cool_core::RemoteStore::new(addr))),
        None => cache,
    }))
}

/// `cool flow --targets a,b,c`: implement the specification on a board
/// family through one [`FlowSession::run_family`] — the cost model is
/// estimated once and retargeted per board — and print the comparative
/// report. File output is per-implementation, so family mode reports
/// only; re-run with `--target BOARD` to write a chosen board's files.
fn run_family_mode(
    graph: &PartitioningGraph,
    options: &FlowOptions,
    list: &str,
    rest: &[String],
) -> Result<(), Box<dyn Error>> {
    let mut targets = Vec::new();
    for spec in list.split(',').filter(|s| !s.is_empty()) {
        targets.push(parse_board(spec)?);
    }
    if targets.is_empty() {
        return Err("--targets expects a comma-separated board list (e.g. fuzzy@48,fuzzy)".into());
    }
    let session = FlowSession::new(graph)
        .targets(targets)
        .options(options.clone());
    let cache = cache_from_flags(rest)?;
    let family = with_cache(session, cache.as_ref()).run_family()?;
    out!("{}", family.report());
    for art in &family {
        warn_on_truncation(&art.partition);
    }
    if rest.iter().any(|a| a == "--trace") {
        for (i, art) in family.iter().enumerate() {
            outln!("board #{i} trace:");
            out!("{}", art.trace.to_table());
        }
        if let Some(cache) = &cache {
            outln!("{}", cache.stats().summary());
        }
    }
    outln!(
        "family mode reports without writing files; re-run with --target BOARD \
         to write one board's VHDL/C"
    );
    Ok(())
}

/// `cool flow --to-stage STAGE`: run the flow prefix up to the named
/// stage and report the partial artifact set.
fn run_partial_mode(
    graph: &PartitioningGraph,
    options: &FlowOptions,
    stage: &str,
    rest: &[String],
) -> Result<(), Box<dyn Error>> {
    let stop = parse_stop_stage(stage)?;
    let (session, cache) = configure_session(graph, options, rest)?;
    let partial = session.run_to(stop)?;
    outln!(
        "partial flow of design `{}` (stopped after `{stage}`):",
        graph.name()
    );
    for slot in ArtifactSlot::ALL {
        outln!(
            "  {:<16} {}",
            slot.name(),
            if partial.artifacts().is_filled(slot) {
                "produced"
            } else {
                "-"
            }
        );
    }
    if let Ok(p) = partial.artifacts().partition() {
        outln!(
            "partition: {} sw node(s), {} hw node(s), makespan {} cycles ({})",
            p.software_nodes(graph),
            p.hardware_nodes(graph),
            p.makespan,
            p.optimality_label(),
        );
    }
    if rest.iter().any(|a| a == "--trace") {
        out!("{}", partial.trace().to_table());
        if let Some(cache) = &cache {
            outln!("{}", cache.stats().summary());
        }
    }
    outln!(
        "partial flows report without writing files; run the full flow \
         (drop --to-stage) to write VHDL/C{}",
        if flag_value(rest, "--out").is_some() {
            " — the given --out was not used"
        } else {
            ""
        }
    );
    Ok(())
}

/// `--pin NODE=RES,...`: bypass the partitioner with an explicit,
/// fully deterministic mapping. `RES` is `hw<i>` or `sw<i>`; the entry
/// `*=RES` assigns every function node at once, and later entries
/// override earlier ones, so `--pin '*=hw0,scale=hw1'` pins the whole
/// graph to `hw0` except the `scale` node. Unpinned function nodes
/// default to `sw0`. This is what makes the incremental-synthesis CI
/// smoke reproducible: no GA seed or MILP tie-break can move a node
/// between runs and masquerade as a cache miss.
fn apply_pins(
    options: &mut FlowOptions,
    graph: &PartitioningGraph,
    rest: &[String],
) -> Result<(), Box<dyn Error>> {
    let Some(list) = flag_value(rest, "--pin") else {
        return Ok(());
    };
    let mut mapping = cool_partition::all_software(graph);
    for item in list.split(',').filter(|s| !s.is_empty()) {
        let (name, res) = item
            .split_once('=')
            .ok_or_else(|| format!("--pin expects NODE=RES entries, got `{item}`"))?;
        let resource = parse_resource(res)?;
        if name == "*" {
            for id in graph.function_nodes() {
                mapping.assign(id, resource);
            }
        } else {
            let id = graph
                .node_by_name(name)
                .ok_or_else(|| format!("--pin: design has no node named `{name}`"))?;
            mapping.assign(id, resource);
        }
    }
    options.partitioner = Partitioner::Fixed(mapping);
    Ok(())
}

/// Parse `hw<i>`/`sw<i>` into a [`Resource`].
fn parse_resource(s: &str) -> Result<Resource, Box<dyn Error>> {
    let err = || format!("--pin: resource `{s}` is not of the form hw<i> or sw<i> (e.g. hw0)");
    if let Some(i) = s.strip_prefix("hw") {
        return Ok(Resource::Hardware(i.parse().map_err(|_| err())?));
    }
    if let Some(i) = s.strip_prefix("sw") {
        return Ok(Resource::Software(i.parse().map_err(|_| err())?));
    }
    Err(err().into())
}

/// CI tripwires over the node-tier trace: `--expect-node-disk-hits MIN`
/// fails the invocation unless at least `MIN` node artifacts were served
/// from the disk tier, and `--expect-node-synth-max MAX` fails it if
/// more than `MAX` nodes went through fresh HLS synthesis. Together they
/// pin the warm-edit contract ("the second process reuses from disk and
/// re-synthesizes only the edited node") in a way a shell script can
/// assert without parsing the trace table.
fn check_expectations(trace: &FlowTrace, rest: &[String]) -> Result<(), Box<dyn Error>> {
    if let Some(min) = flag_value(rest, "--expect-node-disk-hits") {
        let min: usize = min
            .parse()
            .map_err(|_| format!("--expect-node-disk-hits expects a count, got `{min}`"))?;
        let got = trace.node_disk_reused();
        if got < min {
            return Err(format!(
                "expected at least {min} node-level disk hit(s), saw {got}\n{}",
                trace.to_table()
            )
            .into());
        }
    }
    if let Some(max) = flag_value(rest, "--expect-node-synth-max") {
        let max: usize = max
            .parse()
            .map_err(|_| format!("--expect-node-synth-max expects a count, got `{max}`"))?;
        let got = trace.node_delta_of("hls").map_or(0, |d| d.computed);
        if got > max {
            return Err(format!(
                "expected at most {max} fresh node synthesis(es), saw {got}\n{}",
                trace.to_table()
            )
            .into());
        }
    }
    Ok(())
}

/// `cool watch <spec>`: the incremental edit loop. Polls the
/// specification file (std has no inotify) and re-runs the flow on
/// every change against one long-lived stage cache, so an edit costs
/// only what it dirtied — typically one node's HLS under the node tier.
/// Change detection compares *content*, not mtime: filesystem
/// timestamps are jiffy-coarse, so two saves a millisecond apart can
/// share an mtime and the second edit would be missed; a byte compare
/// also means `touch` without an edit does not trigger a run.
///
/// The cache defaults *on* (in-memory) because an uncached watch loop
/// would be pointless; `--cache-dir` adds the persistent tier and
/// `--no-cache` turns reuse off for comparison. Parse and flow errors
/// are reported and watched through — a half-saved spec must not kill
/// the loop. `--max-runs N` exits after `N` runs (0 = watch forever),
/// which is how the tests drive it.
fn run_watch(rest: &[String]) -> Result<(), Box<dyn Error>> {
    use std::time::{Duration, Instant};

    let path = rest
        .iter()
        .find(|a| !a.starts_with("--") && !a.contains('='))
        .ok_or("missing specification file argument")?
        .clone();
    let base_options = parse_options(rest)?;
    let target = target_flag(rest)?;
    let trace = rest.iter().any(|a| a == "--trace");
    let poll_ms: u64 = match flag_value(rest, "--poll-ms") {
        None => 200,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--poll-ms expects milliseconds, got `{v}`"))?,
    };
    let max_runs: usize = match flag_value(rest, "--max-runs") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--max-runs expects a run count, got `{v}`"))?,
    };
    let cache = if rest.iter().any(|a| a == "--no-cache") {
        None
    } else {
        // Unlike `flow`, an explicit `--cache` flag is not required: the
        // whole point of watching is the warm re-run.
        Some(cache_from_flags(rest)?.unwrap_or_default())
    };
    outln!(
        "watching {path} (poll {poll_ms} ms, cache {}) — edit the file to re-run",
        match (&cache, cache_dir_flag(rest)) {
            (None, _) => "off".to_string(),
            (Some(c), dir) => {
                let mut desc = match dir {
                    Some(dir) => format!("memory+disk `{dir}`"),
                    None => "memory".to_string(),
                };
                if let Some(remote) = c.remote() {
                    desc.push_str(&format!("+remote {}", remote.addr()));
                }
                desc
            }
        }
    );

    let mut runs = 0usize;
    let mut last_seen: Option<Vec<u8>> = None;
    // The last read failure reported, so an error streak (editor swap
    // files, a slow atomic rename, a deleted spec) prints once instead
    // of once per poll tick.
    let mut read_error: Option<String> = None;
    loop {
        // Block until the file's bytes change (or the file appears);
        // the first iteration runs immediately. An unreadable file
        // (mid-rename, deleted) is reported like a parse failure —
        // announce it, keep polling — because an edit loop that dies on
        // the brief no-file window of a save-by-rename is useless.
        let content = loop {
            match fs::read(&path) {
                Ok(bytes) => {
                    read_error = None;
                    if last_seen.as_deref() != Some(&bytes[..]) {
                        break bytes;
                    }
                }
                Err(e) => {
                    let msg = e.to_string();
                    if read_error.as_ref() != Some(&msg) {
                        outln!("cannot read {path}: {msg} (still watching)");
                        read_error = Some(msg);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(poll_ms.max(1)));
        };
        runs += 1;
        let t0 = Instant::now();
        let spec_text = String::from_utf8_lossy(&content).into_owned();
        last_seen = Some(content);
        match watch_once(&spec_text, &target, &base_options, cache.as_ref(), rest) {
            Ok(art) => {
                let t = &art.trace;
                // `cache_hits` counts every tier; the disk and remote
                // shares are subsets of it.
                let remote = match t.remote_hits() {
                    0 => String::new(),
                    n => format!(", {n} remote"),
                };
                outln!(
                    "run #{runs}: ok in {:.2?} — {} stage hit(s) ({} disk{remote}), {} node \
                     artifact(s) reused ({} disk), {} synthesized fresh",
                    t0.elapsed(),
                    t.cache_hits(),
                    t.disk_hits(),
                    t.node_reused(),
                    t.node_disk_reused(),
                    t.node_computed(),
                );
                if trace {
                    out!("{}", t.to_table());
                    if let Some(cache) = &cache {
                        outln!("{}", cache.stats().summary());
                    }
                }
            }
            // Watch through errors: a spec saved mid-edit parses bad for
            // a moment, and the next save must still trigger a run.
            Err(e) => outln!("run #{runs}: error: {e} (still watching)"),
        }
        if max_runs > 0 && runs >= max_runs {
            outln!("reached --max-runs {max_runs}; stopping");
            return Ok(());
        }
    }
}

/// One iteration of the watch loop: re-parse the polled specification
/// text, re-apply the pins against the *fresh* graph (node ids may move
/// between edits), and run the flow against the long-lived cache.
fn watch_once(
    spec: &str,
    target: &Target,
    base_options: &FlowOptions,
    cache: Option<&StageCache>,
    rest: &[String],
) -> Result<FlowArtifacts, Box<dyn Error>> {
    let graph = cool_spec::parse(spec)?;
    let mut options = base_options.clone();
    apply_pins(&mut options, &graph, rest)?;
    let session = FlowSession::new(&graph)
        .target(target.clone())
        .options(options);
    let art = with_cache(session, cache).run()?;
    check_expectations(&art.trace, rest)?;
    Ok(art)
}

/// `cool serve`: run the cache daemon. One stage cache — in-memory by
/// default, plus the persistent disk tier under `--cache-dir` — is
/// shared by every worker that names it with `--cache-remote`. The
/// daemon runs until the process is signalled; disk-tier writes are
/// atomic (write + rename), so a SIGTERM mid-put never leaves a corrupt
/// cache entry behind.
fn run_serve(rest: &[String]) -> Result<(), Box<dyn Error>> {
    let addr = flag_value(rest, "--addr").unwrap_or_else(|| DEFAULT_ADDR.to_string());
    // Like `watch`, the cache defaults *on*: a daemon without one would
    // store nothing.
    let cache = if rest.iter().any(|a| a == "--no-cache") {
        StageCache::new(0)
    } else {
        cache_from_flags(rest)?.unwrap_or_default()
    };
    // `Server::bind` refuses a `--cache-remote` tier: daemons never chain.
    let server =
        Server::bind(&addr, cache).map_err(|e| format!("cannot start coold on {addr}: {e}"))?;
    outln!(
        "coold listening on {} (cache {}) — point clients at it with --cache-remote",
        server.addr(),
        match cache_dir_flag(rest) {
            Some(dir) => format!("memory+disk `{dir}`"),
            None => "memory".to_string(),
        }
    );
    server.run()?;
    outln!("coold: shut down cleanly");
    Ok(())
}

/// `cool ping [--connect ADDR]`: the fleet health check — one
/// `Ping`/`Pong` round-trip against a running daemon, timed.
fn run_ping(rest: &[String]) -> Result<(), Box<dyn Error>> {
    let addr = flag_value(rest, "--connect").unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let mut client = connect_client(&addr)?;
    let t0 = std::time::Instant::now();
    client.ping()?;
    outln!(
        "pong from coold at {addr} in {:.3} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

/// Connect to a running daemon, with a hint when nobody is listening.
fn connect_client(addr: &str) -> Result<Client, Box<dyn Error>> {
    Client::connect(addr).map_err(|e| {
        format!("cannot reach coold at {addr} ({e}); start it with `cool serve`").into()
    })
}

/// The disk tier's byte-size cap from `--cache-max-bytes N` (`0` =
/// unbounded), defaulting to [`cool_core::disk::DEFAULT_MAX_BYTES`].
fn cache_max_bytes_flag(rest: &[String]) -> Result<u64, Box<dyn Error>> {
    match flag_value(rest, "--cache-max-bytes") {
        None => Ok(cool_core::disk::DEFAULT_MAX_BYTES),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--cache-max-bytes expects a byte count, got `{v}`").into()),
    }
}

/// `cool cache stats|clear [--cache-dir DIR] [--cache-max-bytes N]
/// [--connect ADDR]`. With `--connect`, `stats` asks a running daemon
/// for its resident cache counters instead of reading a directory.
fn run_cache_command(rest: &[String]) -> Result<(), Box<dyn Error>> {
    let dir = cache_dir_flag(rest).unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string());
    // The action is the first token that is neither a flag nor a flag's
    // value, so both `cool cache stats --cache-dir D` and
    // `cool cache --cache-dir D stats` work.
    let value_positions: Vec<usize> = rest
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--cache-dir" || *a == "--cache-max-bytes" || *a == "--connect")
        .map(|(i, _)| i + 1)
        .collect();
    let action = rest
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
        .map(|(_, a)| a.as_str())
        .ok_or("cache: expected `stats` or `clear`")?;
    let plural = |n: usize| if n == 1 { "y" } else { "ies" };
    match action {
        "stats" if flag_value(rest, "--connect").is_some() => {
            let addr = flag_value(rest, "--connect").expect("checked above");
            let mut client = connect_client(&addr)?;
            let stats = client.cache_stats()?;
            outln!(
                "coold at {addr}: {} stage entr{}, {} node entr{} resident",
                stats.entries,
                plural(stats.entries as usize),
                stats.node_entries,
                plural(stats.node_entries as usize),
            );
            outln!(
                "  fleet traffic: {} get hit(s), {} get miss(es), {} put(s) accepted, \
                 {} put(s) rejected",
                stats.serve_hits,
                stats.serve_misses,
                stats.puts_accepted,
                stats.puts_rejected,
            );
            outln!("  {}", stats.summary);
            Ok(())
        }
        "stats" => {
            if !std::path::Path::new(&dir).is_dir() {
                outln!("cache directory `{dir}` does not exist (0 entries)");
                return Ok(());
            }
            // Strictly read-only: open unbounded (cap 0 disables the
            // open-time enforcement — the flows that *write* the cache
            // enforce their own cap) and report what the cap in force
            // would do, rather than trimming someone else's entries just
            // because they were inspected.
            let cap = cache_max_bytes_flag(rest)?;
            let store = cool_core::DiskStore::open_with_cap(&dir, 0)?;
            let n = store.entry_count();
            outln!(
                "cache directory `{dir}`: {n} entr{}, {} bytes (cap {cap} bytes, format v{})",
                plural(n),
                store.total_bytes(),
                cool_core::disk::FORMAT_VERSION,
            );
            let kinds = store.kind_counts();
            outln!(
                "  {} stage entr{}, {} node entr{}, {} invalid (foreign version, corrupt \
                 or unknown kind — evicted on next keyed access)",
                kinds.stage,
                plural(kinds.stage),
                kinds.node,
                plural(kinds.node),
                kinds.invalid,
            );
            let victims = store.would_evict(cap);
            if victims > 0 {
                outln!(
                    "over cap: the next capped flow will evict {victims} entr{} (LRU by mtime)",
                    plural(victims),
                );
            } else {
                outln!("within cap: 0 size-cap evictions pending");
            }
            Ok(())
        }
        "clear" if flag_value(rest, "--connect").is_some() => Err(
            "cache clear is local-only (a daemon's store belongs to the daemon); \
             run it on the machine holding the cache directory"
                .into(),
        ),
        "clear" => {
            if !std::path::Path::new(&dir).is_dir() {
                outln!("cache directory `{dir}` does not exist; nothing to clear");
                return Ok(());
            }
            let store = cool_core::DiskStore::open(&dir)?;
            let removed = store.clear()?;
            outln!("removed {removed} entr{} from `{dir}`", plural(removed));
            Ok(())
        }
        other => Err(format!("unknown cache action `{other}`; expected `stats` or `clear`").into()),
    }
}

/// Surface a truncated MILP solve on stderr: the report already labels
/// the partition "node-limit truncated", but a user piping stdout into a
/// file must not mistake the incumbent for the proven optimum.
fn warn_on_truncation(partition: &PartitionResult) {
    if partition.optimality == Optimality::LimitReached {
        let gap = match partition.gap {
            Some(gap) => format!(" — within {:.1} % of the solver optimum", gap * 100.0),
            None => String::new(),
        };
        eprintln!(
            "cool: warning: the MILP branch & bound hit its node limit; the partition \
             is feasible but not proven optimal{gap} (raise --milp-max-nodes)"
        );
    }
}

fn read_spec(rest: &[String]) -> Result<String, Box<dyn Error>> {
    let path = rest
        .iter()
        .find(|a| !a.starts_with("--") && !a.contains('='))
        .ok_or("missing specification file argument")?;
    Ok(fs::read_to_string(path)?)
}

fn flag_value(rest: &[String], flag: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

fn parse_options(rest: &[String]) -> Result<FlowOptions, Box<dyn Error>> {
    let mut options = if rest.iter().any(|a| a == "--quick") {
        FlowOptions::quick()
    } else {
        FlowOptions::default()
    };
    if let Some(p) = flag_value(rest, "--partitioner") {
        options.partitioner = match p.as_str() {
            "milp" => Partitioner::Milp(MilpOptions::default()),
            "heuristic" => Partitioner::Heuristic(HeuristicOptions::default()),
            "ga" => Partitioner::Genetic(GaOptions::default()),
            other => return Err(format!("unknown partitioner `{other}`").into()),
        };
    }
    if let Some(s) = flag_value(rest, "--scheme") {
        options.scheme = match s.as_str() {
            "mmio" => CommScheme::MemoryMapped,
            "direct" => CommScheme::Direct,
            other => return Err(format!("unknown scheme `{other}`").into()),
        };
    }
    if let Some(j) = flag_value(rest, "--jobs") {
        options.jobs = j
            .parse()
            .map_err(|_| format!("--jobs expects a non-negative integer, got `{j}`"))?;
    }
    if let Some(n) = flag_value(rest, "--milp-max-nodes") {
        let max_nodes: usize = n
            .parse()
            .map_err(|_| format!("--milp-max-nodes expects a positive integer, got `{n}`"))?;
        match &mut options.partitioner {
            Partitioner::Milp(o) => o.max_nodes = max_nodes,
            Partitioner::Heuristic(o) => o.milp.max_nodes = max_nodes,
            _ => {
                return Err(
                    "--milp-max-nodes applies to the milp/heuristic partitioners only".into(),
                )
            }
        }
    }
    if let Some(obj) = flag_value(rest, "--objective") {
        // Flow-level override: survives `--pin` swapping the partitioner
        // for a fixed mapping (where it is simply inert).
        options.objective = Some(obj.parse::<Objective>()?);
    }
    if let Some(n) = flag_value(rest, "--milp-max-pivots") {
        let max_pivots: usize = n
            .parse()
            .map_err(|_| format!("--milp-max-pivots expects a positive integer, got `{n}`"))?;
        match &mut options.partitioner {
            Partitioner::Milp(o) => o.max_pivots = max_pivots,
            Partitioner::Heuristic(o) => o.milp.max_pivots = max_pivots,
            _ => {
                return Err(
                    "--milp-max-pivots applies to the milp/heuristic partitioners only".into(),
                )
            }
        }
    }
    Ok(options)
}
