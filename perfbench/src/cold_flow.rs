//! `cold_flow`: parse a spec, run the full flow at default effort with
//! `jobs = 1` and no cache, then co-simulate — what every `cool flow` /
//! `cool simulate` user waits for. Nearly all the time is the `rtl`
//! stage (encoding search and placement anneal) and the GA partitioner;
//! no cache tier, MILP code or network is touched.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use cool_core::{CacheOutcome, FlowArtifacts, FlowOptions, FlowSession, FlowTrace, Partitioner};
use cool_ir::hash::digest;
use cool_ir::{Resource, Target};
use cool_rtl::place::{Placement, PlacementProblem};
use cool_rtl::vhdl;
use cool_sim::SimResult;

use crate::designs::{self, Design};
use crate::trace::Spans;
use crate::{Metric, Quality, Workload};

/// The workload's state: designs, board, options and co-sim inputs.
pub struct ColdFlow {
    designs: Vec<Design>,
    inputs: Vec<BTreeMap<String, i64>>,
    target: Target,
    options: FlowOptions,
}

/// One operation's artifacts and co-simulation result.
pub struct Output {
    art: FlowArtifacts,
    sim: SimResult,
}

impl ColdFlow {
    /// The flow options of the operation: defaults, one worker.
    #[must_use]
    pub fn options() -> FlowOptions {
        FlowOptions {
            jobs: 1,
            ..FlowOptions::default()
        }
    }

    fn flow(&self, spec: &str, inputs: &BTreeMap<String, i64>) -> Result<Output, String> {
        let g = cool_spec::parse(spec).map_err(|e| e.to_string())?;
        let art = FlowSession::new(&g)
            .target(self.target.clone())
            .options(self.options.clone())
            .run()
            .map_err(|e| e.to_string())?;
        let sim = art.simulate(inputs).map_err(|e| e.to_string())?;
        Ok(Output { art, sim })
    }
}

/// Stages a flow executed rather than restored: cache misses and stages
/// run without a cache.
#[must_use]
pub fn stages_computed(trace: &FlowTrace) -> usize {
    trace
        .records()
        .iter()
        .filter(|r| matches!(r.cache, CacheOutcome::Miss | CacheOutcome::Uncached))
        .count()
}

/// Design quality of a complete flow's artifacts: makespan, placed CLBs
/// and placed wirelength.
#[must_use]
pub fn quality(art: &FlowArtifacts) -> Quality {
    let placed = art.placements.iter().map(|(_, p)| p);
    Quality {
        makespan: art.schedule.makespan() as f64,
        clbs: Some(placed.clone().map(|p| p.positions.len() as f64).sum()),
        wirelength: Some(placed.map(|p| p.wirelength as f64).sum()),
    }
}

fn same<T: PartialEq>(what: &str, replayed: &T, flow: &T) -> Result<(), String> {
    if replayed == flow {
        Ok(())
    } else {
        Err(format!("replayed {what} differs from the flow's"))
    }
}

impl Workload for ColdFlow {
    type Output = Output;

    fn setup(seed: u64, _work: PathBuf) -> Result<ColdFlow, String> {
        let designs = designs::cold_rotation(seed);
        let inputs = designs::parse(&designs)?
            .iter()
            .map(|g| designs::sim_inputs(g, seed))
            .collect();
        let bench = ColdFlow {
            designs,
            inputs,
            target: Target::fuzzy_board(),
            options: ColdFlow::options(),
        };
        // Warm-up: one flow of every design pages in every stage's code
        // for every design shape, and times seconds of work, so that
        // `setup_s` does not read one short flow's share of host noise.
        for (spec, inputs) in bench.designs.iter().zip(&bench.inputs) {
            bench.flow(&spec.spec, inputs)?;
        }
        Ok(bench)
    }

    fn designs(&self) -> Vec<String> {
        self.designs.iter().map(|d| d.name.clone()).collect()
    }

    fn run(&mut self, d: usize) -> Result<Output, String> {
        self.flow(&self.designs[d].spec, &self.inputs[d])
    }

    fn check(&mut self, d: usize, out: &Output) -> Result<Quality, String> {
        let reference =
            cool_ir::eval::evaluate(&out.art.graph, &self.inputs[d]).map_err(|e| e.to_string())?;
        if out.sim.outputs != reference {
            return Err(format!(
                "co-simulation outputs {:?} differ from the reference interpreter's {reference:?}",
                out.sim.outputs
            ));
        }
        Ok(quality(&out.art))
    }

    fn replay(&mut self, d: usize, out: &Output, spans: &mut Spans) -> Result<Duration, String> {
        let before = spans.busy();
        let art = &out.art;
        let opts = &self.options;

        let g = spans
            .time("spec.parse_ms", || cool_spec::parse(&self.designs[d].spec))
            .map_err(|e| e.to_string())?;
        same("graph", &digest(&g), &digest(&art.graph))?;

        let cost = spans.time("cost.estimate_ms", || {
            cool_cost::CostModel::new(&g, &art.target)
        });
        same("cost model", &digest(&cost), &digest(&art.cost))?;

        let Partitioner::Genetic(ga) = &opts.partitioner else {
            return Err("cold_flow runs the GA partitioner".to_string());
        };
        let partition = spans
            .time("partition.ga_ms", || {
                cool_partition::genetic::partition(&g, &cost, ga)
            })
            .map_err(|e| e.to_string())?;
        same("partition", &partition, &art.partition)?;
        let mapping = &partition.mapping;

        let schedule = spans
            .time("schedule.list_ms", || {
                cool_schedule::schedule(&g, mapping, &cost, opts.scheme)
            })
            .map_err(|e| e.to_string())?;
        same("schedule", &schedule, &art.schedule)?;

        let (stg, (stg_min, stats), memory_map) = spans.time("stg.build_ms", || {
            let stg = cool_stg::generate(&g, mapping, &schedule);
            let minimized = cool_stg::minimize_jobs(&stg, opts.jobs);
            let memory = cool_stg::allocate_memory(
                &g,
                mapping,
                &art.target.memory,
                art.target.bus.width_bits,
            );
            (stg, minimized, memory)
        });
        let memory_map = memory_map.map_err(|e| e.to_string())?;
        same("STG", &stg, &art.stg)?;
        same("minimized STG", &stg_min, &art.stg_minimized)?;
        same("minimization stats", &stats, &art.minimize_stats)?;
        same("memory map", &memory_map, &art.memory_map)?;

        let hw_nodes: Vec<cool_ir::NodeId> = g
            .function_nodes()
            .into_iter()
            .filter(|&n| mapping.resource(n).is_hardware())
            .collect();
        let named: Vec<(&str, &cool_ir::Behavior)> = hw_nodes
            .iter()
            .map(|&n| {
                let node = g.node(n).expect("function node");
                (node.name(), node.behavior())
            })
            .collect();
        let hls = spans.time("hls.synth_ms", || {
            cool_hls::synthesize_many(&named, &opts.hls, opts.jobs)
        });
        same("HLS designs", &hls, &art.hls_designs)?;

        let (controller, encoding) = spans.time("rtl.encoding_ms", || {
            let controller = cool_rtl::SystemController::from_stg(stg_min.clone(), &g);
            let encoding = cool_rtl::encoding::optimize_encoding_jobs(
                controller.stg(),
                opts.encoding_effort,
                opts.jobs,
            );
            (controller, encoding)
        });
        same("system controller", &controller, &art.controller)?;
        same("state encoding", &encoding, &art.encoding)?;
        spans.count("rtl.encoding_candidates", encoding.candidates_tried as f64);

        let (netlist, units) = spans.time("rtl.netlist_vhdl_ms", || {
            rtl_units(
                &g,
                mapping,
                &art.target,
                &controller,
                &schedule,
                &memory_map,
                &hw_nodes,
                &hls,
            )
        });
        same("netlist", &netlist, &art.netlist)?;
        same("VHDL units", &units, &art.vhdl)?;

        let placements = spans.time("rtl.place_ms", || {
            place(&g, mapping, &art.target, &controller, &hw_nodes, &hls, opts)
        });
        same("placements", &placements, &art.placements)?;
        spans.count(
            "rtl.place_moves",
            placements.iter().map(|(_, p)| p.moves as f64).sum(),
        );

        let programs = spans.time("codegen.emit_ms", || {
            cool_codegen::emit_programs(&g, mapping, &schedule, &memory_map)
        });
        same("C programs", &programs, &art.c_programs)?;

        let sim = spans
            .time("sim.cosim_ms", || art.simulate(&self.inputs[d]))
            .map_err(|e| e.to_string())?;
        same("co-simulation", &sim, &out.sim)?;
        spans.count("cache.stages_computed", stages_computed(&art.trace) as f64);

        Ok(spans.busy() - before)
    }

    fn layer_metrics(&self, spans: &Spans, ops: f64, _op_time: Duration) -> Vec<Metric> {
        let mut m: Vec<Metric> = [
            "spec.parse_ms",
            "cost.estimate_ms",
            "partition.ga_ms",
            "schedule.list_ms",
            "stg.build_ms",
            "hls.synth_ms",
            "rtl.encoding_ms",
            "rtl.netlist_vhdl_ms",
            "rtl.place_ms",
            "codegen.emit_ms",
            "sim.cosim_ms",
        ]
        .into_iter()
        .map(|l| Metric::new(l, "ms", spans.ms_per_call(l)))
        .collect();
        let moves = spans.counter("rtl.place_moves");
        m.extend([
            Metric::new(
                "rtl.encoding_candidates",
                "count",
                spans.counter("rtl.encoding_candidates") / ops,
            ),
            Metric::new("rtl.place_moves", "count", moves / ops),
            Metric::new(
                "cache.stages_computed",
                "count",
                spans.counter("cache.stages_computed") / ops,
            ),
            Metric::new(
                "rtl.place_ns_per_move",
                "ns",
                spans.total("rtl.place_ms").as_secs_f64() * 1e9 / moves.max(1.0),
            ),
        ]);
        m
    }
}

/// The netlist and every VHDL unit, composed exactly as the `rtl` stage
/// composes them.
#[allow(clippy::too_many_arguments)]
fn rtl_units(
    g: &cool_ir::PartitioningGraph,
    mapping: &cool_ir::Mapping,
    target: &Target,
    controller: &cool_rtl::SystemController,
    schedule: &cool_schedule::StaticSchedule,
    memory_map: &cool_stg::MemoryMap,
    hw_nodes: &[cool_ir::NodeId],
    hls: &[cool_hls::HlsDesign],
) -> (cool_rtl::Netlist, Vec<(String, String)>) {
    let netlist = cool_rtl::build_netlist(g, mapping, target);
    let masters = netlist.count_kind(|k| {
        matches!(
            k,
            cool_rtl::ComponentKind::Processor(_)
                | cool_rtl::ComponentKind::DatapathController(_)
                | cool_rtl::ComponentKind::IoController
        )
    });
    let mut units = vec![
        (
            "system_controller.vhd".to_string(),
            vhdl::emit_system_controller(controller),
        ),
        (
            "bus_arbiter.vhd".to_string(),
            vhdl::emit_bus_arbiter(masters),
        ),
        (
            "io_controller.vhd".to_string(),
            vhdl::emit_io_controller(
                g.primary_inputs().len().max(1),
                g.primary_outputs().len().max(1),
                target.bus.width_bits,
            ),
        ),
    ];
    for (&n, design) in hw_nodes.iter().zip(hls) {
        let name = g.node(n).expect("hardware node").name();
        units.push((
            format!("hw_{name}.vhd"),
            vhdl::emit_hw_block(g, n, design.latency_cycles),
        ));
    }
    for h in 0..target.hw.len() {
        let res = Resource::Hardware(h);
        if !hw_nodes.iter().any(|&n| mapping.resource(n) == res) {
            continue;
        }
        let mut transfers: Vec<(u64, vhdl::BusTransfer)> = Vec::new();
        for cell in memory_map.cells() {
            let e = g.edge(cell.edge).expect("memory cells name graph edges");
            if mapping.resource(e.src) == res {
                transfers.push((
                    schedule.slot(e.src).finish,
                    vhdl::BusTransfer {
                        address: cell.address,
                        write: true,
                    },
                ));
            }
            if mapping.resource(e.dst) == res {
                transfers.push((
                    schedule.slot(e.dst).start,
                    vhdl::BusTransfer {
                        address: cell.address,
                        write: false,
                    },
                ));
            }
        }
        transfers.sort_by_key(|&(t, x)| (t, x.address, x.write));
        let ordered: Vec<vhdl::BusTransfer> = transfers.into_iter().map(|(_, x)| x).collect();
        let name = target.resource_name(res).to_string();
        units.push((
            format!("dpctl_{name}.vhd"),
            vhdl::emit_datapath_controller(&name, &ordered, target.bus.width_bits),
        ));
    }
    units.push((
        format!("{}_top.vhd", g.name()),
        vhdl::emit_toplevel(&netlist, g.name()),
    ));
    (netlist, units)
}

/// The per-device CLB placements, posed and annealed exactly as the
/// `rtl` stage does.
fn place(
    g: &cool_ir::PartitioningGraph,
    mapping: &cool_ir::Mapping,
    target: &Target,
    controller: &cool_rtl::SystemController,
    hw_nodes: &[cool_ir::NodeId],
    hls: &[cool_hls::HlsDesign],
    opts: &FlowOptions,
) -> Vec<(Resource, Placement)> {
    let (width, height) = (14u16, 14u16);
    let capacity = u32::from(width) * u32::from(height);
    let mut placements = Vec::new();
    for h in 0..target.hw.len() {
        let blocks: Vec<u32> = hw_nodes
            .iter()
            .zip(hls)
            .filter(|(&n, _)| mapping.resource(n) == Resource::Hardware(h))
            .map(|(_, d)| d.area_clbs)
            .collect();
        if blocks.is_empty() && h > 0 {
            continue;
        }
        let wanted = if h == 0 {
            cool_hls::area::fsm_clbs(controller.stg().state_count(), g.function_nodes().len())
        } else {
            8
        };
        let ctrl = wanted
            .min(capacity.saturating_sub(blocks.iter().sum()))
            .max(1);
        let problem = PlacementProblem::for_device(&blocks, ctrl, width, height);
        if problem.fits() {
            let placement = cool_rtl::place::anneal_multistart(
                &problem,
                opts.placement_effort,
                0x5eed + h as u64,
                opts.jobs,
            );
            placements.push((Resource::Hardware(h), placement));
        }
    }
    placements
}
