//! `cool_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one row per design, the run's diagnostics and — for a traced
//! run — one row per layer, then as its last line a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced.

use std::fmt::Write as _;
use std::process::ExitCode;

use cool_perfbench::{Config, Kind, Metric, Report};

const USAGE: &str =
    "usage: cool_perfbench --workload cold_flow|explore|warm_start --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Config {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        fields.join(", ")
    )
}

fn print_report(config: &Config, report: &Report) {
    println!(
        "workload {} seed {} ({} s window, trace {})",
        config.kind.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    println!(
        "{:<16} {:>4} {:>11} {:>9} {:>8} {:>10}",
        "design", "n", "median_ms", "makespan", "clbs", "wirelength"
    );
    for row in &report.rows {
        let q = row.quality;
        let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
        println!(
            "{:<16} {:>4} {:>11.3} {:>9} {:>8} {:>10}",
            row.design,
            row.samples,
            row.median_ms,
            cell(q.map(|q| q.makespan)),
            cell(q.and_then(|q| q.clbs)),
            cell(q.and_then(|q| q.wirelength)),
        );
    }
    if !report.layers.is_empty() {
        println!(
            "{:<22} {:>12} {:>9} {:>8}",
            "layer", "ms/call", "calls/op", "share"
        );
        for l in &report.layers {
            println!(
                "{:<22} {:>12.4} {:>9.2} {:>7.2}%",
                l.layer,
                l.ms_per_call,
                l.calls_per_op,
                100.0 * l.share
            );
        }
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("metric {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (key, value) in &report.notes {
        println!("note {key:<22} {value}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Ok(cwd) = std::env::current_dir() else {
        eprintln!("cannot read the working directory");
        return ExitCode::from(2);
    };
    let scratch = cwd.join(".perfbench_work");
    let work = scratch.join(format!("{}-{}", config.kind.name(), std::process::id()));
    let outcome = cool_perfbench::run(&config, work.clone());
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&scratch);
    match outcome {
        Ok(report) => {
            print_report(&config, &report);
            let metrics = if config.trace {
                &report.per_layer
            } else {
                &report.end_to_end
            };
            println!("{}", result_line(&report, metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("set-up failed: {e}");
            ExitCode::from(1)
        }
    }
}
