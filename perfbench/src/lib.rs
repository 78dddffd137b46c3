//! Stand-alone benchmark of the COOL co-synthesis flow.
//!
//! Three seeded workloads drive the public `cool_*` APIs from one
//! process and verify every operation's output outside the timed region:
//!
//! * [`cold_flow`] — spec text → full flow (`jobs = 1`, no cache) →
//!   co-simulation, over a rotation of eight small designs;
//! * [`explore`] — one MILP `FlowSession::pareto` sweep over a 15-point
//!   CLB-budget ladder per operation, on every core;
//! * [`warm_start`] — a fresh worker warm-starts a design from an
//!   in-process `coold` daemon, then restarts from the disk tier it healed.
//!
//! Operations run in whole passes of the rotation until the next pass
//! would overrun the measuring window, so every run sees the same mix.
//! A traced run additionally replays each operation's layer calls (see
//! [`trace`]) and reports per-layer metrics.

pub mod cold_flow;
pub mod designs;
pub mod explore;
pub mod host;
pub mod stats;
pub mod trace;
pub mod warm_start;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::Spans;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// traced run of any workload reports all of them; a layer the workload
/// does not run (no call, no count) reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("spec.parse_ms", "ms"),
    ("cost.estimate_ms", "ms"),
    ("partition.ga_ms", "ms"),
    ("schedule.list_ms", "ms"),
    ("stg.build_ms", "ms"),
    ("hls.synth_ms", "ms"),
    ("rtl.encoding_ms", "ms"),
    ("rtl.encoding_candidates", "count"),
    ("rtl.netlist_vhdl_ms", "ms"),
    ("rtl.place_ms", "ms"),
    ("rtl.place_moves", "count"),
    ("rtl.place_ns_per_move", "ns"),
    ("rtl.place_clbs", "CLBs"),
    ("rtl.place_wirelength", "HPWL"),
    ("codegen.emit_ms", "ms"),
    ("sim.cosim_ms", "ms"),
    ("cost.retarget_ms", "ms"),
    ("partition.milp_ms", "ms"),
    ("par.speedup", "x"),
    ("cache.stages_computed", "count"),
    ("remote.get_ms", "ms"),
    ("remote.gets", "count"),
    ("remote.wait_frac", "frac"),
    ("codec.decode_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("disk.load_ms", "ms"),
    ("disk.store_ms", "ms"),
    ("disk.bytes", "B"),
    ("cache.lookup_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("proc.cpu_ms_per_op", "ms"),
    ("host.steal_frac", "frac"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// See [`cold_flow`].
    ColdFlow,
    /// See [`explore`].
    Explore,
    /// See [`warm_start`].
    WarmStart,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::ColdFlow, Kind::Explore, Kind::WarmStart];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdFlow => "cold_flow",
            Kind::Explore => "explore",
            Kind::WarmStart => "warm_start",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Seed for the generated designs and inputs.
    pub seed: u64,
    /// Length of the measuring window; `0` runs exactly one pass.
    pub seconds: f64,
    /// Replay every operation's layer calls and report per-layer metrics.
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Deterministic design quality of one operation's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Schedule makespan, system cycles (mean over sweep points for
    /// `explore`).
    pub makespan: f64,
    /// FPGA CLBs used (placed cells), where the output has placements.
    pub clbs: Option<f64>,
    /// Placed half-perimeter wirelength, where the output has placements.
    pub wirelength: Option<f64>,
}

/// One workload: set-up, the timed operation, its checks and its replay.
pub trait Workload: Sized {
    /// What one operation produces.
    type Output;

    /// Generate the designs and warm up (the part `setup_s` times).
    ///
    /// # Errors
    ///
    /// Any failure of the program during set-up.
    fn setup(seed: u64, work: PathBuf) -> Result<Self, String>;

    /// Design names, in rotation order.
    fn designs(&self) -> Vec<String>;

    /// The timed operation on design `d`.
    ///
    /// # Errors
    ///
    /// The program's error, counted as a failed operation.
    fn run(&mut self, d: usize) -> Result<Self::Output, String>;

    /// Verify the output (untimed) and report its quality.
    ///
    /// # Errors
    ///
    /// What is wrong with the output.
    fn check(&mut self, d: usize, out: &Self::Output) -> Result<Quality, String>;

    /// Replay the operation's layer calls, asserting that each replayed
    /// output equals the operation's; returns the replayed time on the
    /// operation's blocking path.
    ///
    /// # Errors
    ///
    /// The first replayed output that differs from the operation's.
    fn replay(
        &mut self,
        d: usize,
        out: &Self::Output,
        spans: &mut Spans,
    ) -> Result<Duration, String>;

    /// Release what the output holds (untimed).
    fn retire(&mut self, _out: Self::Output) {}

    /// This workload's per-layer metrics, from a traced run's spans.
    fn layer_metrics(&self, spans: &Spans, ops: f64, op_time: Duration) -> Vec<Metric>;
}

/// One row per design: its latency and quality.
#[derive(Debug, Clone)]
pub struct Row {
    /// Design name.
    pub design: String,
    /// Verified operations.
    pub samples: usize,
    /// Median operation latency.
    pub median_ms: f64,
    /// Output quality (identical on every pass).
    pub quality: Option<Quality>,
}

/// One layer row of a traced run.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer span name.
    pub layer: &'static str,
    /// Mean milliseconds per call.
    pub ms_per_call: f64,
    /// Calls per operation.
    pub calls_per_op: f64,
    /// Share of the operation's wall time.
    pub share: f64,
}

/// Everything a run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Per-design rows.
    pub rows: Vec<Row>,
    /// Layer rows with their share of the operation (traced runs only).
    pub layers: Vec<LayerRow>,
    /// Run diagnostics: host, provenance, tail percentile.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// `true` when every attempted operation was verified.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Value of a metric from either set.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Run one benchmark configuration; `work` is a scratch directory the
/// run may create and must leave removed.
///
/// # Errors
///
/// A set-up failure (no operation could be attempted).
pub fn run(config: &Config, work: PathBuf) -> Result<Report, String> {
    match config.kind {
        Kind::ColdFlow => drive::<cold_flow::ColdFlow>(config, work),
        Kind::Explore => drive::<explore::Explore>(config, work),
        Kind::WarmStart => drive::<warm_start::WarmStart>(config, work),
    }
}

/// The measured per-layer metrics in [`PER_LAYER`] order, with 0 for
/// every layer the workload did not run. A measured metric missing from
/// [`PER_LAYER`] is kept at the end, so the self-checks catch it.
fn every_layer(mut measured: Vec<Metric>) -> Vec<Metric> {
    let mut all: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .position(|m| m.name == name)
                .map_or_else(|| Metric::new(name, unit, 0.0), |i| measured.remove(i))
        })
        .collect();
    all.append(&mut measured);
    all
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

fn drive<W: Workload>(config: &Config, work: PathBuf) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(W::setup(config.seed, work.clone())?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = bench.expect("at least one set-up");
    let designs = w.designs();
    let n = designs.len();

    let mut report = Report::default();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut quality: Vec<Option<Quality>> = vec![None; n];
    let mut spans = Spans::default();
    let mut op_time = Duration::ZERO;
    let mut cpu_time = Duration::ZERO;
    let mut self_ms = 0.0;
    let mut passes = 0u32;
    let ticks_before = host::cpu_ticks();
    let window = Instant::now();
    loop {
        for d in 0..n {
            report.attempted += 1;
            let cpu_before = host::process_cpu();
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.run(d)));
            let took = start.elapsed();
            let cpu = host::process_cpu().saturating_sub(cpu_before);
            let out = match out {
                Ok(Ok(out)) => out,
                Ok(Err(e)) => {
                    report.fail(format!("{}: {e}", designs[d]));
                    continue;
                }
                Err(p) => {
                    report.fail(format!("{}: panicked: {}", designs[d], panic_text(&*p)));
                    continue;
                }
            };
            let verdict = match w.check(d, &out) {
                Ok(q) if quality[d].is_some_and(|prev| prev != q) => Err(format!(
                    "quality changed between passes: {:?} then {q:?}",
                    quality[d]
                )),
                Ok(q) => {
                    quality[d] = Some(q);
                    if config.trace {
                        w.replay(d, &out, &mut spans).map(|critical| {
                            self_ms += (took.as_secs_f64() - critical.as_secs_f64()) * 1e3;
                        })
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(e),
            };
            w.retire(out);
            match verdict {
                Ok(()) => {
                    samples[d].push(took.as_secs_f64() * 1e3);
                    op_time += took;
                    cpu_time += cpu;
                }
                Err(e) => report.fail(format!("{}: {e}", designs[d])),
            }
        }
        passes += 1;
        let elapsed = window.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(passes) > config.seconds {
            break;
        }
    }
    let steal = host::steal_frac(ticks_before, host::cpu_ticks());

    let ok_ops = report.attempted - report.failed;
    let pooled: Vec<f64> = samples.iter().flatten().copied().collect();
    for (d, name) in designs.iter().enumerate() {
        report.rows.push(Row {
            design: name.clone(),
            samples: samples[d].len(),
            median_ms: if samples[d].is_empty() {
                f64::NAN
            } else {
                stats::median(&samples[d])
            },
            quality: quality[d],
        });
    }
    let e2e = &mut report.end_to_end;
    e2e.push(Metric::new("setup_s", "s", stats::median(&setups)));
    if ok_ops > 0 {
        let medians: Vec<f64> = report
            .rows
            .iter()
            .filter(|r| r.samples > 0)
            .map(|r| r.median_ms)
            .collect();
        let (tail, pct) = stats::tail(&pooled);
        e2e.push(Metric::new(
            "ops_per_s",
            "1/s",
            ok_ops as f64 / op_time.as_secs_f64(),
        ));
        e2e.push(Metric::new("op_p50_ms", "ms", stats::geomean(&medians)));
        e2e.push(Metric::new("op_tail_ms", "ms", tail));
        report.notes.push((
            "op_tail_ms",
            format!(
                "p{pct:.1} of n={} pooled operations ({} beyond it)",
                pooled.len(),
                pooled.iter().filter(|&&x| x > tail).count()
            ),
        ));
    }
    e2e.push(Metric::new("peak_rss_mb", "MB", host::peak_rss_mb()));
    e2e.push(Metric::new(
        "ok_frac",
        "frac",
        ok_ops as f64 / report.attempted as f64,
    ));
    let qualities: Vec<Quality> = quality.iter().flatten().copied().collect();
    let mean = |f: fn(&Quality) -> Option<f64>| {
        let v: Vec<f64> = qualities.iter().filter_map(f).collect();
        (!v.is_empty() && v.len() == qualities.len())
            .then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    if let Some(makespan) = mean(|q| Some(q.makespan)) {
        e2e.push(Metric::new("makespan_cycles", "cycles", makespan));
    }

    let ops = ok_ops.max(1) as f64;
    let cpu_ms_per_op = cpu_time.as_secs_f64() * 1e3 / ops;
    report
        .notes
        .push(("passes", format!("{passes} x {n} designs")));
    report.notes.push((
        "setup_s",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    report
        .notes
        .push(("proc.cpu_ms_per_op", format!("{cpu_ms_per_op:.3}")));
    report
        .notes
        .push(("host.steal_frac", format!("{steal:.4}")));
    report
        .notes
        .push(("available_parallelism", host::parallelism().to_string()));
    report.notes.push(("rustc", host::rustc_version()));
    report.notes.push(("commit", host::commit()));
    report.notes.push(("source_digest", host::source_digest()));

    if config.trace && ok_ops > 0 {
        let overhead =
            trace::span_cost().as_secs_f64() * spans.span_count() as f64 / op_time.as_secs_f64();
        let mut measured = w.layer_metrics(&spans, ops, op_time);
        for (name, unit, value) in [
            ("rtl.place_clbs", "CLBs", mean(|q| q.clbs)),
            ("rtl.place_wirelength", "HPWL", mean(|q| q.wirelength)),
        ] {
            measured.extend(value.map(|v| Metric::new(name, unit, v)));
        }
        measured.extend([
            Metric::new("engine.self_ms", "ms", self_ms / ops),
            Metric::new("trace.overhead_frac", "frac", overhead),
            Metric::new("proc.cpu_ms_per_op", "ms", cpu_ms_per_op),
            Metric::new("host.steal_frac", "frac", steal),
        ]);
        report.per_layer = every_layer(measured);
        for layer in spans.layers() {
            report.layers.push(LayerRow {
                layer,
                ms_per_call: spans.ms_per_call(layer),
                calls_per_op: spans.calls(layer) as f64 / ops,
                share: spans.total(layer).as_secs_f64() / op_time.as_secs_f64(),
            });
        }
    }
    Ok(report)
}
