//! `bench_diff` — compare two harness JSON reports across PRs.
//!
//! ```text
//! bench_diff <old.json> <new.json> [--fail-above PCT] [--allow-removed]
//! ```
//!
//! Reads two reports written by `cool_bench::harness::write_json_report`
//! (e.g. `BENCH_flow.json` from two checkouts), matches bench cases by
//! group and label, and prints mean-time deltas plus the stage-cache
//! hit-rate trajectory (memory and disk tiers). Cases present on only
//! one side are listed as added/removed. With `--fail-above PCT` the
//! exit code is non-zero when any shared case regressed by more than
//! `PCT` percent — the CI hook for the ROADMAP's "bench trajectory"
//! item — and *removed* cases are a hard failure too: a renamed or
//! dropped case would otherwise exit the gate silently, letting a
//! regression hide behind a rename. Pass `--allow-removed` when a
//! removal is intentional.

use std::process::ExitCode;

use cool_bench::json::{parse, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut fail_above: Option<f64> = None;
    let mut allow_removed = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--allow-removed" => {
                allow_removed = true;
                i += 1;
            }
            "--fail-above" => {
                fail_above = args.get(i + 1).and_then(|v| v.parse().ok());
                if fail_above.is_none() {
                    eprintln!("bench_diff: --fail-above expects a percentage");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("bench_diff: unknown flag `{flag}`");
                return ExitCode::FAILURE;
            }
            path => {
                files.push(path.to_string());
                i += 1;
            }
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("usage: bench_diff <old.json> <new.json> [--fail-above PCT] [--allow-removed]");
        return ExitCode::FAILURE;
    };

    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) => {
            eprintln!("bench_diff: {old_path}: {e}");
            return ExitCode::FAILURE;
        }
        (_, Err(e)) => {
            eprintln!("bench_diff: {new_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let old_cases = collect_cases(&old);
    let new_cases = collect_cases(&new);
    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "case", "old mean", "new mean", "delta"
    );
    let mut worst: Option<(f64, String)> = None;
    for (label, new_ns) in &new_cases {
        match old_cases.iter().find(|(l, _)| l == label) {
            Some((_, old_ns)) if *old_ns > 0.0 => {
                let pct = 100.0 * (new_ns - old_ns) / old_ns;
                println!(
                    "{:<44} {:>12} {:>12} {:>+8.1}%",
                    label,
                    fmt_ns(*old_ns),
                    fmt_ns(*new_ns),
                    pct
                );
                let is_worst = match &worst {
                    None => true,
                    Some((w, _)) => pct > *w,
                };
                if is_worst {
                    worst = Some((pct, label.clone()));
                }
            }
            _ => println!(
                "{:<44} {:>12} {:>12} {:>9}",
                label,
                "-",
                fmt_ns(*new_ns),
                "added"
            ),
        }
    }
    let mut removed: Vec<&str> = Vec::new();
    for (label, old_ns) in &old_cases {
        if !new_cases.iter().any(|(l, _)| l == label) {
            println!(
                "{:<44} {:>12} {:>12} {:>9}",
                label,
                fmt_ns(*old_ns),
                "-",
                "removed"
            );
            removed.push(label);
        }
    }

    print_cache_trajectory("stage_cache", &old, &new);
    print_cache_trajectory("stage_cache_disk", &old, &new);
    print_cache_trajectory("remote_cache", &old, &new);
    print_scalar_trajectory("remote_cache", "speedup", "x", &old, &new);
    print_scalar_trajectory("milp_parallel", "speedup", "x", &old, &new);
    print_scalar_trajectory("lp_warmstart", "speedup", "x", &old, &new);
    print_scalar_trajectory("lp_warmstart", "cold_child_pivots", " pivots", &old, &new);
    print_scalar_trajectory("lp_warmstart", "warm_child_pivots", " pivots", &old, &new);
    print_scalar_trajectory("pareto_sweep", "speedup", "x", &old, &new);
    print_scalar_trajectory("pareto_sweep", "non_dominated", " points", &old, &new);

    if let Some(bound) = fail_above {
        // A case that disappeared can hide an arbitrary regression
        // behind a rename, so under the gate a removal is as fatal as a
        // slow case unless explicitly waived.
        if !removed.is_empty() && !allow_removed {
            eprintln!(
                "FAIL: {} bench case(s) removed ({}); a rename can hide a regression — \
                 pass --allow-removed if intentional",
                removed.len(),
                removed.join(", ")
            );
            return ExitCode::FAILURE;
        }
        if let Some((worst_pct, worst_label)) = &worst {
            if *worst_pct > bound {
                eprintln!("FAIL: `{worst_label}` regressed {worst_pct:.1} % (> {bound} % bound)");
                return ExitCode::FAILURE;
            }
            println!("worst shared-case delta {worst_pct:+.1} % (bound {bound} %): ok");
        }
    }
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse(&text).map_err(|e| e.to_string())
}

/// Every `(group/label, mean_ns)` pair in a harness report: top-level
/// members that are group objects (`{"group": …, "cases": […]}`) or
/// arrays of them.
fn collect_cases(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Value::Object(members) = report else {
        return out;
    };
    for (_, value) in members {
        for group in std::iter::once(value).chain(value.as_array().into_iter().flatten()) {
            let (Some(name), Some(cases)) = (
                group.get("group").and_then(Value::as_str),
                group.get("cases").and_then(Value::as_array),
            ) else {
                continue;
            };
            for case in cases {
                if let (Some(label), Some(mean)) = (
                    case.get("label").and_then(Value::as_str),
                    case.get("mean_ns").and_then(Value::as_f64),
                ) {
                    out.push((format!("{name}/{label}"), mean));
                }
            }
        }
    }
    out
}

/// Print old→new hit rates for one cache-stats section, if either side
/// has it.
fn print_cache_trajectory(section: &str, old: &Value, new: &Value) {
    let rate = |v: &Value| -> Option<f64> { v.get(section)?.get("hit_rate")?.as_f64() };
    let (old_rate, new_rate) = (rate(old), rate(new));
    if old_rate.is_none() && new_rate.is_none() {
        return;
    }
    let show =
        |r: Option<f64>| r.map_or_else(|| "-".to_string(), |r| format!("{:.1} %", 100.0 * r));
    println!(
        "{section} hit rate: {} -> {}",
        show(old_rate),
        show(new_rate)
    );
}

/// Print old→new for one scalar member of a report section, if either
/// side has it (e.g. the parallel-MILP speedup).
fn print_scalar_trajectory(section: &str, field: &str, unit: &str, old: &Value, new: &Value) {
    let read = |v: &Value| -> Option<f64> { v.get(section)?.get(field)?.as_f64() };
    let (old_v, new_v) = (read(old), read(new));
    if old_v.is_none() && new_v.is_none() {
        return;
    }
    let show = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.2}{unit}"));
    println!("{section} {field}: {} -> {}", show(old_v), show(new_v));
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}
