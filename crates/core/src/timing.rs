//! Per-stage wall-clock accounting.
//!
//! The engine times every stage individually and records the result as a
//! [`FlowTrace`] — one [`StageRecord`] per executed stage, in execution
//! order. [`StageTimings`] is the paper-shaped six-bucket summary derived
//! from a trace (the paper's Figure 1 stages), kept because the paper's
//! headline timing claim — hardware synthesis takes > 90 % of design
//! time — is stated over those buckets.

use std::time::Duration;

/// How the stage cache treated one stage execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache was consulted (engine without a cache, or the key chain
    /// was broken by an uncacheable stage earlier in the run).
    #[default]
    Uncached,
    /// The stage ran but deposited nothing because every slot it declares
    /// writing was already filled — a pre-seeded pass-through (e.g. the
    /// `cost` stage of a context seeded via `FlowSession::with_cost` or a
    /// `run_family` retargeted board). This is how sweeps *prove* that
    /// shared work was reused: a seeded stage performed no estimation.
    Seeded,
    /// The cache was consulted, missed, and the fresh result was stored.
    Miss,
    /// The stage was skipped; its artifacts were restored from the
    /// in-memory cache tier.
    Hit {
        /// Wall-clock the original execution took — the time saved.
        saved: Duration,
    },
    /// The stage was skipped; its artifacts were deserialized from the
    /// persistent disk tier (a warm start from a previous process).
    DiskHit {
        /// Wall-clock the original execution took — the time saved.
        saved: Duration,
    },
    /// The stage was skipped; its artifacts were fetched from the remote
    /// fleet store (a `coold` daemon) and re-materialized locally — a
    /// warm start from another machine.
    RemoteHit {
        /// Wall-clock the original execution took — the time saved.
        saved: Duration,
    },
}

impl CacheOutcome {
    /// `true` when the stage actually executed — uncached, or a miss whose
    /// result was stored — rather than being restored from a cache tier or
    /// passing seeded inputs through.
    #[must_use]
    pub fn computed(self) -> bool {
        matches!(self, CacheOutcome::Uncached | CacheOutcome::Miss)
    }
}

/// Node-level cache activity of one stage execution: how many per-node
/// artifacts the stage reused from the node cache tier versus computed
/// fresh. Only stages that consult the node tier (`hls`, `stg`, `rtl`)
/// report one; a stage-level cache hit skips the stage entirely and
/// reports none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeDelta {
    /// Node artifacts served from the node cache (memory + disk).
    pub reused: usize,
    /// The subset of `reused` served from the disk tier.
    pub reused_disk: usize,
    /// Node artifacts computed fresh this run (the dirty set).
    pub computed: usize,
    /// Names of the nodes computed fresh, in input order — what a warm
    /// edit actually re-synthesized.
    pub computed_names: Vec<String>,
}

impl NodeDelta {
    /// Total node artifacts this stage touched.
    #[must_use]
    pub fn total(&self) -> usize {
        self.reused + self.computed
    }
}

/// Wall-clock time of one executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Engine stage name (`"hls"`, `"partition"`, …).
    pub name: &'static str,
    /// Wall-clock duration of the stage's `run` (on a cache hit: of the
    /// lookup + artifact restore).
    pub duration: Duration,
    /// Cache outcome for this execution.
    pub cache: CacheOutcome,
    /// Node-level cache activity, for stages that consult the node tier.
    pub nodes: Option<NodeDelta>,
}

/// The timing journal of one engine run: every stage, in order, plus
/// any result-quality warnings the engine attached (e.g. a
/// node-limit-truncated MILP partition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowTrace {
    records: Vec<StageRecord>,
    warnings: Vec<String>,
}

impl FlowTrace {
    /// An empty trace (stages append as they run).
    #[must_use]
    pub fn new() -> FlowTrace {
        FlowTrace::default()
    }

    /// Append one stage's record: its cache outcome and, for stages that
    /// consult the node tier, its node-level cache activity.
    pub fn push(
        &mut self,
        name: &'static str,
        duration: Duration,
        cache: CacheOutcome,
        nodes: Option<NodeDelta>,
    ) {
        self.records.push(StageRecord {
            name,
            duration,
            cache,
            nodes,
        });
    }

    /// Attach a result-quality warning (shown by `to_table` and the CLI).
    pub fn push_warning(&mut self, warning: impl Into<String>) {
        self.warnings.push(warning.into());
    }

    /// Result-quality warnings attached by the engine, in order.
    #[must_use]
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Stages restored from the cache in this run (memory, disk or
    /// remote tier).
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.count(|c| {
            matches!(
                c,
                CacheOutcome::Hit { .. }
                    | CacheOutcome::DiskHit { .. }
                    | CacheOutcome::RemoteHit { .. }
            )
        })
    }

    /// Stages that ran as pre-seeded pass-throughs in this run (every
    /// declared write slot was already filled, so the stage deposited
    /// nothing — e.g. a `cost` stage over a shared, retargeted model).
    #[must_use]
    pub fn seeded_stages(&self) -> usize {
        self.count(|c| c == CacheOutcome::Seeded)
    }

    /// Stages restored from the persistent disk tier in this run.
    #[must_use]
    pub fn disk_hits(&self) -> usize {
        self.count(|c| matches!(c, CacheOutcome::DiskHit { .. }))
    }

    /// Stages restored from the remote fleet store in this run.
    #[must_use]
    pub fn remote_hits(&self) -> usize {
        self.count(|c| matches!(c, CacheOutcome::RemoteHit { .. }))
    }

    /// Stages that actually executed in this run
    /// ([`CacheOutcome::computed`]); a fully warm run reports 0.
    #[must_use]
    pub fn stages_computed(&self) -> usize {
        self.count(CacheOutcome::computed)
    }

    /// Stages that executed and populated the cache in this run.
    #[must_use]
    pub fn cache_misses(&self) -> usize {
        self.count(|c| c == CacheOutcome::Miss)
    }

    /// Stages whose cache outcome satisfies `pred`.
    fn count(&self, pred: impl Fn(CacheOutcome) -> bool) -> usize {
        self.records.iter().filter(|r| pred(r.cache)).count()
    }

    /// Wall-clock the cache saved this run: the original execution time
    /// of every hit stage, minus nothing (restore time is already in
    /// [`StageRecord::duration`]).
    #[must_use]
    pub fn cache_saved(&self) -> Duration {
        self.records
            .iter()
            .map(|r| match r.cache {
                CacheOutcome::Hit { saved }
                | CacheOutcome::DiskHit { saved }
                | CacheOutcome::RemoteHit { saved } => saved,
                _ => Duration::ZERO,
            })
            .sum()
    }

    /// Node artifacts reused from the node cache tier across all stages
    /// (memory + disk).
    #[must_use]
    pub fn node_reused(&self) -> usize {
        self.node_deltas().map(|d| d.reused).sum()
    }

    /// Node artifacts reused from the node cache's disk tier.
    #[must_use]
    pub fn node_disk_reused(&self) -> usize {
        self.node_deltas().map(|d| d.reused_disk).sum()
    }

    /// Node artifacts computed fresh across all stages — a warm edit's
    /// dirty set. For the `hls` stage specifically this counts full
    /// re-syntheses, which is what the single-node-edit tests assert on.
    #[must_use]
    pub fn node_computed(&self) -> usize {
        self.node_deltas().map(|d| d.computed).sum()
    }

    /// Node-level activity of the named stage, if it reported any.
    #[must_use]
    pub fn node_delta_of(&self, name: &str) -> Option<&NodeDelta> {
        self.records
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.nodes.as_ref())
    }

    fn node_deltas(&self) -> impl Iterator<Item = &NodeDelta> {
        self.records.iter().filter_map(|r| r.nodes.as_ref())
    }

    /// All records, in execution order.
    #[must_use]
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Stage names in execution order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.records.iter().map(|r| r.name).collect()
    }

    /// Duration of the named stage (zero if it did not run).
    #[must_use]
    pub fn duration_of(&self, name: &str) -> Duration {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.duration)
            .sum()
    }

    /// Total wall-clock time across all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.records.iter().map(|r| r.duration).sum()
    }

    /// One row per executed stage, for `cool flow --trace` and reports.
    /// Cache hits are annotated with the wall-clock they saved.
    #[must_use]
    pub fn to_table(&self) -> String {
        let table = crate::TextTable::new(vec![
            crate::Col::left(12, ""),
            crate::Col::right(10, " ms"),
            crate::Col::right(5, " %"),
        ]);
        let total = self.total().as_secs_f64().max(1e-12);
        let mut s = String::new();
        for r in &self.records {
            let nodes = match &r.nodes {
                Some(d) if d.total() > 0 => format!(
                    "  [nodes: {} reused ({} disk) / {} fresh]",
                    d.reused, d.reused_disk, d.computed
                ),
                _ => String::new(),
            };
            let cache = match r.cache {
                CacheOutcome::Hit { saved } => {
                    format!("  [cache hit, saved {:.3} ms]", saved.as_secs_f64() * 1e3)
                }
                CacheOutcome::DiskHit { saved } => {
                    format!("  [disk hit, saved {:.3} ms]", saved.as_secs_f64() * 1e3)
                }
                CacheOutcome::RemoteHit { saved } => {
                    format!("  [remote hit, saved {:.3} ms]", saved.as_secs_f64() * 1e3)
                }
                CacheOutcome::Seeded => "  [seeded pass-through]".to_string(),
                _ => String::new(),
            };
            s.push_str(&table.row(
                &[
                    r.name.to_string(),
                    format!("{:.3}", r.duration.as_secs_f64() * 1e3),
                    format!("{:.1}", 100.0 * r.duration.as_secs_f64() / total),
                ],
                &format!("{cache}{nodes}"),
            ));
        }
        s.push_str(&table.row(
            &[
                "total".to_string(),
                format!("{:.3}", self.total().as_secs_f64() * 1e3),
            ],
            "",
        ));
        if self.cache_hits() + self.cache_misses() > 0 {
            let remote = match self.remote_hits() {
                0 => String::new(),
                n => format!(", {n} remote"),
            };
            s.push_str(&format!(
                "stage cache: {} hit(s) ({} from disk{remote}) / {} miss(es), {:.3} ms saved\n",
                self.cache_hits(),
                self.disk_hits(),
                self.cache_misses(),
                self.cache_saved().as_secs_f64() * 1e3
            ));
        }
        if self.node_reused() + self.node_computed() > 0 {
            s.push_str(&format!(
                "node cache:  {} reused ({} from disk) / {} computed fresh\n",
                self.node_reused(),
                self.node_disk_reused(),
                self.node_computed()
            ));
        }
        for w in &self.warnings {
            s.push_str(&format!("warning: {w}\n"));
        }
        s
    }
}

/// Wall-clock time per paper flow stage (the six buckets of Figure 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Cost estimation (software timing + quick HLS estimates), plus the
    /// spec-validation stage (negligible).
    pub estimation: Duration,
    /// Hardware/software partitioning.
    pub partitioning: Duration,
    /// Static scheduling.
    pub scheduling: Duration,
    /// STG generation + minimization + memory allocation.
    pub cosynthesis: Duration,
    /// Hardware synthesis: full-effort HLS per hardware node plus RTL
    /// (controller synthesis, encoding search, netlist, VHDL, placement).
    pub hardware_synthesis: Duration,
    /// C code generation, plus simulation preparation (negligible).
    pub software_synthesis: Duration,
}

impl StageTimings {
    /// Derive the six-bucket summary from an engine trace. Engine stage
    /// names map onto the paper buckets as follows: `spec` and `cost` →
    /// estimation, `partition` → partitioning, `schedule` → scheduling,
    /// `stg` → co-synthesis, `hls` and `rtl` → hardware synthesis,
    /// `codegen` and `sim-prep` → software synthesis. Unknown stage names
    /// (from custom engines) are ignored.
    #[must_use]
    pub fn from_trace(trace: &FlowTrace) -> StageTimings {
        let mut t = StageTimings::default();
        for r in trace.records() {
            match r.name {
                "spec" | "cost" => t.estimation += r.duration,
                "partition" => t.partitioning += r.duration,
                "schedule" => t.scheduling += r.duration,
                "stg" => t.cosynthesis += r.duration,
                "hls" | "rtl" => t.hardware_synthesis += r.duration,
                "codegen" | "sim-prep" => t.software_synthesis += r.duration,
                _ => {}
            }
        }
        t
    }

    /// Total flow time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.estimation
            + self.partitioning
            + self.scheduling
            + self.cosynthesis
            + self.hardware_synthesis
            + self.software_synthesis
    }

    /// Fraction of total time spent in hardware synthesis (the paper
    /// reports > 0.9 on its workloads).
    #[must_use]
    pub fn hardware_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.hardware_synthesis.as_secs_f64() / total
        }
    }

    /// One row per stage, for reports.
    #[must_use]
    pub fn to_table(&self) -> String {
        let row = |name: &str, d: Duration| -> String {
            let total = self.total().as_secs_f64().max(1e-12);
            format!(
                "{name:<20} {:>10.3} ms {:>5.1} %\n",
                d.as_secs_f64() * 1e3,
                100.0 * d.as_secs_f64() / total
            )
        };
        let mut s = String::new();
        s.push_str(&row("estimation", self.estimation));
        s.push_str(&row("partitioning", self.partitioning));
        s.push_str(&row("scheduling", self.scheduling));
        s.push_str(&row("co-synthesis", self.cosynthesis));
        s.push_str(&row("hardware synthesis", self.hardware_synthesis));
        s.push_str(&row("software synthesis", self.software_synthesis));
        s.push_str(&format!(
            "total                {:>10.3} ms\n",
            self.total().as_secs_f64() * 1e3
        ));
        s
    }
}

impl From<&FlowTrace> for StageTimings {
    fn from(trace: &FlowTrace) -> StageTimings {
        StageTimings::from_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn trace_accumulates_in_order() {
        let mut t = FlowTrace::new();
        t.push("cost", ms(1), CacheOutcome::Uncached, None);
        t.push("hls", ms(90), CacheOutcome::Uncached, None);
        t.push("rtl", ms(5), CacheOutcome::Uncached, None);
        assert_eq!(t.stage_names(), vec!["cost", "hls", "rtl"]);
        assert_eq!(t.total(), ms(96));
        assert_eq!(t.duration_of("hls"), ms(90));
        assert_eq!(t.duration_of("nope"), Duration::ZERO);
    }

    #[test]
    fn buckets_map_stage_names() {
        let mut t = FlowTrace::new();
        t.push("spec", ms(1), CacheOutcome::Uncached, None);
        t.push("cost", ms(2), CacheOutcome::Uncached, None);
        t.push("partition", ms(3), CacheOutcome::Uncached, None);
        t.push("schedule", ms(4), CacheOutcome::Uncached, None);
        t.push("stg", ms(5), CacheOutcome::Uncached, None);
        t.push("hls", ms(80), CacheOutcome::Uncached, None);
        t.push("rtl", ms(10), CacheOutcome::Uncached, None);
        t.push("codegen", ms(6), CacheOutcome::Uncached, None);
        t.push("sim-prep", ms(1), CacheOutcome::Uncached, None);
        let s = StageTimings::from_trace(&t);
        assert_eq!(s.estimation, ms(3));
        assert_eq!(s.partitioning, ms(3));
        assert_eq!(s.scheduling, ms(4));
        assert_eq!(s.cosynthesis, ms(5));
        assert_eq!(s.hardware_synthesis, ms(90));
        assert_eq!(s.software_synthesis, ms(7));
        assert_eq!(s.total(), t.total());
    }

    #[test]
    fn tables_render_every_row() {
        let mut t = FlowTrace::new();
        t.push("hls", ms(9), CacheOutcome::Uncached, None);
        let table = t.to_table();
        assert!(table.contains("hls"));
        assert!(table.contains("total"));
        let s = StageTimings::from_trace(&t);
        assert!(s.to_table().contains("hardware synthesis"));
    }

    #[test]
    fn node_deltas_aggregate_and_render() {
        let mut t = FlowTrace::new();
        t.push("cost", ms(1), CacheOutcome::Uncached, None);
        t.push(
            "hls",
            ms(5),
            CacheOutcome::Miss,
            Some(NodeDelta {
                reused: 3,
                reused_disk: 2,
                computed: 1,
                computed_names: vec!["h4".to_string()],
            }),
        );
        t.push(
            "stg",
            ms(1),
            CacheOutcome::Miss,
            Some(NodeDelta {
                reused: 4,
                reused_disk: 0,
                computed: 0,
                computed_names: Vec::new(),
            }),
        );
        assert_eq!(t.node_reused(), 7);
        assert_eq!(t.node_disk_reused(), 2);
        assert_eq!(t.node_computed(), 1);
        assert_eq!(t.node_delta_of("hls").unwrap().computed_names, ["h4"]);
        assert!(t.node_delta_of("cost").is_none());
        let table = t.to_table();
        assert!(
            table.contains("[nodes: 3 reused (2 disk) / 1 fresh]"),
            "{table}"
        );
        assert!(table.contains("node cache:  7 reused (2 from disk) / 1 computed fresh"));
    }
}
