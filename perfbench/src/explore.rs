//! `explore`: one `FlowSession::pareto` sweep per operation — the MILP
//! partitioner over the 15-point CLB-budget ladder `16..128:8`, on every
//! core, with a fresh in-memory cache per sweep. This is design-space
//! exploration: the time is the LP solves (each point's branch & bound
//! ends at the root), the scoped-worker fan-out and the shared memory
//! cache. No `rtl` runs.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cool_core::{FlowOptions, FlowSession, ParetoFront, Partitioner, StageCache};
use cool_cost::CostModel;
use cool_ir::{BudgetConstraint, PartitioningGraph, Target};
use cool_partition::MilpOptions;

use crate::designs;
use crate::trace::Spans;
use crate::{host, Metric, Quality, Workload};

/// The workload's state: parsed designs, board, budgets and options.
pub struct Explore {
    graphs: Vec<PartitioningGraph>,
    base: Target,
    targets: Vec<Target>,
    budgets: Vec<BudgetConstraint>,
    options: FlowOptions,
    jobs: usize,
}

/// The budget ladder `16..128:8`.
fn budgets() -> Vec<BudgetConstraint> {
    (16..=128).step_by(8).map(BudgetConstraint::new).collect()
}

impl Explore {
    fn sweep(&self, g: &PartitioningGraph) -> Result<ParetoFront, String> {
        FlowSession::new(g)
            .target(self.base.clone())
            .options(self.options.clone())
            .jobs(self.jobs)
            .cache(StageCache::default())
            .pareto(self.budgets.clone())
            .map_err(|e| e.to_string())
    }

    /// Each point's MILP as the sweep runs it: one worker per point.
    fn point_milp() -> MilpOptions {
        MilpOptions {
            jobs: 1,
            ..MilpOptions::default()
        }
    }
}

impl Workload for Explore {
    type Output = ParetoFront;

    fn setup(seed: u64, _work: PathBuf) -> Result<Explore, String> {
        let graphs = designs::parse(&designs::explore_rotation(seed))?;
        let base = Target::fuzzy_board();
        let budgets = budgets();
        let bench = Explore {
            graphs,
            targets: budgets.iter().map(|b| b.apply(&base)).collect(),
            base,
            budgets,
            options: FlowOptions {
                partitioner: Partitioner::Milp(MilpOptions::default()),
                ..FlowOptions::default()
            },
            jobs: host::parallelism(),
        };
        // Warm-up: one sweep of a fixed design starts the workers and
        // pages in the LP code.
        bench.sweep(&cool_spec::workloads::dct8())?;
        Ok(bench)
    }

    fn designs(&self) -> Vec<String> {
        self.graphs.iter().map(|g| g.name().to_string()).collect()
    }

    fn run(&mut self, d: usize) -> Result<ParetoFront, String> {
        self.sweep(&self.graphs[d])
    }

    fn check(&mut self, d: usize, front: &ParetoFront) -> Result<Quality, String> {
        let g = &self.graphs[d];
        if front.len() != self.targets.len() || front.cost_estimations() != 1 {
            return Err(format!(
                "{} point(s) with {} cost estimation(s)",
                front.len(),
                front.cost_estimations()
            ));
        }
        let cost = CostModel::new(g, &self.targets[0]);
        for (point, target) in front.points().iter().zip(&self.targets) {
            let cost = cost.retarget(target);
            let mapping = &point.partition.mapping;
            let usage = cool_partition::area_usage(g, mapping, &cost);
            for (used, hw) in usage.iter().zip(&target.hw) {
                if *used > hw.clb_capacity {
                    return Err(format!(
                        "point {}: {used} CLBs exceed the budget of {}",
                        point.budget, hw.clb_capacity
                    ));
                }
            }
            let schedule = cool_schedule::schedule(g, mapping, &cost, self.options.scheme)
                .map_err(|e| e.to_string())?;
            if schedule.makespan() != point.makespan() {
                return Err(format!(
                    "point {}: schedule makespan {} but the sweep reports {}",
                    point.budget,
                    schedule.makespan(),
                    point.makespan()
                ));
            }
        }
        // At these designs the makespan objective keeps every point in
        // software, so the sweep's outputs carry no CLB usage to report.
        Ok(Quality {
            makespan: front
                .points()
                .iter()
                .map(|p| p.makespan() as f64)
                .sum::<f64>()
                / front.len() as f64,
            clbs: None,
            wirelength: None,
        })
    }

    fn replay(
        &mut self,
        d: usize,
        front: &ParetoFront,
        spans: &mut Spans,
    ) -> Result<Duration, String> {
        let g = &self.graphs[d];
        let start = Instant::now();
        let cost = spans.time("cost.estimate_ms", || CostModel::new(g, &self.targets[0]));
        let mut point_time = Duration::ZERO;
        for (point, target) in front.points().iter().zip(&self.targets) {
            let t = Instant::now();
            let retargeted = spans.time("cost.retarget_ms", || cost.retarget(target));
            let partition = spans
                .time("partition.milp_ms", || {
                    cool_partition::milp::partition(g, &retargeted, &Explore::point_milp())
                })
                .map_err(|e| e.to_string())?;
            point_time += t.elapsed();
            if partition != point.partition {
                return Err(format!(
                    "point {}: replayed MILP partition differs",
                    point.budget
                ));
            }
            if retargeted.cycles_to_us(partition.makespan) != point.makespan_us {
                return Err(format!(
                    "point {}: replayed cost model differs",
                    point.budget
                ));
            }
        }
        let serial = start.elapsed();
        spans.count("par.serial_s", serial.as_secs_f64());
        spans.count("cache.stages_computed", front.computed_stages() as f64);
        // The blocking path of a sweep: the estimation, then the points
        // spread over the workers.
        let workers = cool_ir::par::effective_jobs(self.jobs, front.len()) as u32;
        Ok(serial - point_time + point_time / workers)
    }

    fn layer_metrics(&self, spans: &Spans, ops: f64, op_time: Duration) -> Vec<Metric> {
        vec![
            Metric::new(
                "cost.estimate_ms",
                "ms",
                spans.ms_per_call("cost.estimate_ms"),
            ),
            Metric::new(
                "cost.retarget_ms",
                "ms",
                spans.ms_per_call("cost.retarget_ms"),
            ),
            Metric::new(
                "partition.milp_ms",
                "ms",
                spans.ms_per_call("partition.milp_ms"),
            ),
            Metric::new(
                "par.speedup",
                "x",
                spans.counter("par.serial_s") / op_time.as_secs_f64(),
            ),
            Metric::new(
                "cache.stages_computed",
                "count",
                spans.counter("cache.stages_computed") / ops,
            ),
        ]
    }
}
