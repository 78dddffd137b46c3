//! RES2 — Different hardware/software partitions of the fuzzy controller,
//! each implemented by the complete design flow (paper Results section:
//! "Different hardware/software partitions of the fuzzy controller were
//! implemented and in all cases the time to execute the complete design
//! flow […] took not more than about 60 minutes").
//!
//! We sweep FPGA area budgets (which forces different partitions) as one
//! [`cool_core::FlowSession::run_family`] over the budget-capped board
//! family: the cost model is estimated once and retargeted per board,
//! boards evaluate on scoped worker threads, and one shared
//! [`cool_core::StageCache`] skips every stage whose content key an
//! earlier board already produced. Each partition is validated by
//! co-simulation. Absolute times are 2020s-laptop times, not 1998
//! workstation times; the claim that *every* partition completes the full
//! flow automatically is the reproduced result.
//!
//! Flags: `--jobs N` (family workers, 0 = all cores), `--no-cache`,
//! `--smoke` (small GA + fewer budgets, for CI), `--twice` (run the
//! family twice over one cache and fail unless the second pass hits —
//! the cache-effectiveness smoke check), `--cache-dir DIR` (attach the
//! persistent disk tier, so *separate processes* share the cache), and
//! `--expect-disk-hits` (fail unless this run restored at least one
//! stage from disk — the cross-process warm-start smoke check: run the
//! sweep in two processes pointing at one `--cache-dir` and pass this
//! flag to the second).

use cool_core::{FlowOptions, FlowSession, Partitioner, StageCache};
use cool_ir::eval::input_map;
use cool_ir::Target;
use cool_partition::GaOptions;
use cool_spec::workloads;
use std::process::ExitCode;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        // Another flag is not a value: `--cache-dir --expect-disk-hits`
        // must not create a directory named `--expect-disk-hits`.
        .filter(|v| !v.starts_with("--"))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let twice = args.iter().any(|a| a == "--twice");
    let use_cache = !args.iter().any(|a| a == "--no-cache");
    let cache_dir = flag_value(&args, "--cache-dir");
    if args.iter().any(|a| a == "--cache-dir") && cache_dir.is_none() {
        eprintln!("res2: --cache-dir expects a directory path");
        return ExitCode::FAILURE;
    }
    let expect_disk_hits = args.iter().any(|a| a == "--expect-disk-hits");
    if twice && !use_cache {
        eprintln!("res2: --twice asserts second-pass cache hits, so it requires the cache; drop --no-cache");
        return ExitCode::FAILURE;
    }
    if (cache_dir.is_some() || expect_disk_hits) && !use_cache {
        eprintln!("res2: --cache-dir/--expect-disk-hits require the cache; drop --no-cache");
        return ExitCode::FAILURE;
    }
    if expect_disk_hits && cache_dir.is_none() {
        eprintln!("res2: --expect-disk-hits needs --cache-dir (a fresh in-memory cache can never hit disk)");
        return ExitCode::FAILURE;
    }
    let jobs: usize = match flag_value(&args, "--jobs") {
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("res2: --jobs expects a non-negative integer, got `{v}`");
                return ExitCode::FAILURE;
            }
        },
        None => 1,
    };

    let graph = workloads::fuzzy_controller();
    println!("RES2: partition sweep over FPGA area budgets — fuzzy controller");
    println!(
        "(family workers: {jobs}, cache: {}, profile: {})\n",
        match (&cache_dir, use_cache) {
            (_, false) => "off".to_string(),
            (None, true) => "on (in-memory)".to_string(),
            (Some(dir), true) => format!("on (persistent, {dir})"),
        },
        if smoke { "smoke" } else { "full" },
    );

    let budgets: &[u32] = if smoke {
        &[0, 96, 196]
    } else {
        &[0, 48, 96, 144, 196]
    };
    let options = FlowOptions {
        partitioner: Partitioner::Genetic(GaOptions {
            population: if smoke { 8 } else { 24 },
            generations: if smoke { 6 } else { 20 },
            ..GaOptions::default()
        }),
        jobs,
        ..if smoke {
            FlowOptions::quick()
        } else {
            FlowOptions::default()
        }
    };
    // Budget-capped variants of the paper board: one family, one
    // estimated cost model, retargeted per board by `run_family`.
    let boards: Vec<Target> = budgets
        .iter()
        .map(|&budget| {
            let mut target = cool_bench::paper_board();
            target.hw[0].clb_capacity = budget;
            target.hw[1].clb_capacity = budget;
            target
        })
        .collect();

    let cache = if use_cache {
        Some(match &cache_dir {
            Some(dir) => match StageCache::persistent(StageCache::DEFAULT_CAPACITY, dir) {
                Ok(cache) => cache,
                Err(e) => {
                    eprintln!("res2: cannot open cache directory `{dir}`: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => StageCache::default(),
        })
    } else {
        None
    };
    let passes = if twice { 2 } else { 1 };
    let mut last_pass_hits = 0usize;
    let mut truncated = 0usize;
    let mut evaluated = 0usize;
    for pass in 1..=passes {
        if passes > 1 {
            println!("— pass {pass}/{passes} —");
        }
        println!(
            "{:>8} {:>6} {:>6} {:>10} {:>10} {:>10} {:>9} {:>6}",
            "budget", "sw", "hw", "makespan", "sim cyc", "flow ms", "hw-time%", "hits"
        );
        let mut session = FlowSession::new(&graph)
            .targets(boards.iter().cloned())
            .options(options.clone());
        if let Some(cache) = &cache {
            session = session.cache(cache.clone());
        }
        let family = session.run_family().expect("every board's flow succeeds");
        assert!(
            family.cost_estimations() <= 1,
            "the family must estimate the cost model at most once"
        );
        last_pass_hits = 0;
        for (&budget, art) in budgets.iter().zip(family.boards()) {
            let sim = art
                .simulate(&input_map([("err", 80), ("derr", -40)]))
                .expect("implementation matches specification");
            last_pass_hits += art.trace.cache_hits();
            evaluated += 1;
            if art.partition.optimality == cool_partition::Optimality::LimitReached {
                truncated += 1;
            }
            // On runs with cache hits the timing buckets measure cache
            // restores, not synthesis — the paper's hw-time fraction
            // would be noise, so suppress it.
            let hw_time = if art.trace.cache_hits() > 0 {
                format!("{:>9}", "-")
            } else {
                format!("{:>8.1}%", 100.0 * art.timings.hardware_fraction())
            };
            println!(
                "{:>8} {:>6} {:>6} {:>10} {:>10} {:>10.1} {hw_time} {:>6}",
                budget,
                art.partition.software_nodes(&graph),
                art.partition.hardware_nodes(&graph),
                art.partition.makespan,
                sim.cycles,
                art.trace.total().as_secs_f64() * 1e3,
                art.trace.cache_hits(),
            );
        }
        if pass == passes {
            println!("\n{}", family.report());
        } else {
            println!();
        }
    }
    if let Some(cache) = &cache {
        println!("{}", cache.stats().summary());
    }
    println!("node-limit-truncated MILP solves: {truncated} of {evaluated} candidate(s)");
    println!("\nevery partition went from specification to netlist + C + validated");
    println!("simulation fully automatically (the paper's ≤ 60-minute claim, on a");
    println!("modern machine and a simulated board).");

    if twice && last_pass_hits == 0 {
        eprintln!("FAIL: second sweep pass reported zero stage-cache hits");
        return ExitCode::FAILURE;
    }
    if expect_disk_hits {
        let disk_hits = cache.as_ref().map_or(0, |c| c.stats().disk_hits);
        if disk_hits == 0 {
            eprintln!(
                "FAIL: --expect-disk-hits, but no stage was restored from the disk tier \
                 (is the cache directory shared with a previous run?)"
            );
            return ExitCode::FAILURE;
        }
        println!("cross-process warm start confirmed: {disk_hits} stage(s) restored from disk");
    }
    ExitCode::SUCCESS
}
