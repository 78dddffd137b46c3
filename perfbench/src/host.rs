//! Host probes: CPU time, steal, peak memory and build provenance, so a
//! slow host can be told apart from a slow program. Linux `/proc` only;
//! elsewhere the probes read as zero.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// `USER_HZ`: the tick `/proc` reports CPU times in (fixed by the ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time (user + system, all threads) this process has used so far.
#[must_use]
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Duration::from_secs_f64((user + system) / TICKS_PER_SEC),
        _ => Duration::ZERO,
    }
}

/// Aggregate `(steal, total)` ticks over all CPUs from `/proc/stat`.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the sum stops at steal.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of all CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings.
#[must_use]
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the host offers.
#[must_use]
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// `rustc --version`, or `unknown`.
#[must_use]
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// The checkout the benchmark was built in.
fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checkout's commit, or `none` when it has no `.git` of its own
/// (git is never asked to search the directories above it).
#[must_use]
pub fn commit() -> String {
    let git_dir = checkout().join(".git");
    git_dir
        .to_str()
        .filter(|_| git_dir.exists())
        .and_then(|dir| {
            first_line_of(
                "git",
                &["--git-dir", dir, "rev-parse", "--short=12", "HEAD"],
            )
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest over the program's sources (`crates/` and `src/` next
/// to the benchmark: every `.rs` and `Cargo.toml`, in path order), which
/// names the measured code even where there is no git history.
#[must_use]
pub fn source_digest() -> String {
    let root = checkout();
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = cool_ir::ContentHasher::new();
    for f in &files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(&root), std::fs::read(f)) {
            h.write_str(&rel.to_string_lossy());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish() as u64)
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
