//! Everything one flow run produces.

use std::collections::BTreeMap;

use cool_cost::{CommScheme, CostModel};
use cool_hls::HlsDesign;
use cool_ir::{PartitioningGraph, Resource, Target};
use cool_partition::PartitionResult;
use cool_rtl::encoding::StateEncoding;
use cool_rtl::{Netlist, SystemController};
use cool_schedule::StaticSchedule;
use cool_sim::{SimResult, Simulator};
use cool_stg::{MemoryMap, MinimizeStats, Stg};

use crate::cache::{ArtifactSlot, Artifacts};
use crate::timing::{FlowTrace, StageTimings};
use crate::FlowError;

/// Everything one flow run produces.
#[derive(Debug, Clone)]
pub struct FlowArtifacts {
    /// The input specification.
    pub graph: PartitioningGraph,
    /// The target board.
    pub target: Target,
    /// Cost model used by partitioning and scheduling.
    pub cost: CostModel,
    /// The partitioning outcome (mapping + stats).
    pub partition: PartitionResult,
    /// The static schedule.
    pub schedule: StaticSchedule,
    /// The raw STG.
    pub stg: Stg,
    /// The minimized STG.
    pub stg_minimized: Stg,
    /// Minimization statistics.
    pub minimize_stats: MinimizeStats,
    /// The communication memory map.
    pub memory_map: MemoryMap,
    /// Full-effort HLS results for every hardware node.
    pub hls_designs: Vec<HlsDesign>,
    /// The synthesized system controller.
    pub controller: SystemController,
    /// Its optimized state encoding.
    pub encoding: StateEncoding,
    /// CLB placement per hardware device (the Xilinx implementation
    /// stand-in), one entry per FPGA hosting logic.
    pub placements: Vec<(Resource, cool_rtl::place::Placement)>,
    /// The generated netlist (Figure 4).
    pub netlist: Netlist,
    /// Emitted VHDL units: `(file name, source)`.
    pub vhdl: Vec<(String, String)>,
    /// Generated C programs.
    pub c_programs: Vec<cool_codegen::CProgram>,
    /// Per-stage wall-clock times (paper buckets, derived from `trace`).
    pub timings: StageTimings,
    /// The full engine timing journal, one record per stage.
    pub trace: FlowTrace,
    /// Communication scheme in effect.
    pub scheme: CommScheme,
}

impl FlowArtifacts {
    /// Assemble the artifact set of a completed run over `graph` on
    /// `target` under `scheme`.
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingArtifact`], with the slot's label, if a
    /// producing stage did not run (i.e. a custom engine skipped part of
    /// the standard flow).
    pub fn new(
        graph: PartitioningGraph,
        target: Target,
        scheme: CommScheme,
        artifacts: Artifacts,
        trace: FlowTrace,
    ) -> Result<FlowArtifacts, FlowError> {
        fn filled<T>(slot: Option<T>, which: ArtifactSlot) -> Result<T, FlowError> {
            slot.ok_or(FlowError::MissingArtifact(which.label()))
        }
        let a = artifacts;
        Ok(FlowArtifacts {
            graph,
            target,
            cost: filled(a.cost, ArtifactSlot::Cost)?,
            partition: filled(a.partition, ArtifactSlot::Partition)?,
            schedule: filled(a.schedule, ArtifactSlot::Schedule)?,
            stg: filled(a.stg, ArtifactSlot::Stg)?,
            stg_minimized: filled(a.stg_minimized, ArtifactSlot::StgMinimized)?,
            minimize_stats: filled(a.minimize_stats, ArtifactSlot::MinimizeStats)?,
            memory_map: filled(a.memory_map, ArtifactSlot::MemoryMap)?,
            hls_designs: filled(a.hls_designs, ArtifactSlot::HlsDesigns)?,
            controller: filled(a.controller, ArtifactSlot::Controller)?,
            encoding: filled(a.encoding, ArtifactSlot::Encoding)?,
            placements: filled(a.placements, ArtifactSlot::Placements)?,
            netlist: filled(a.netlist, ArtifactSlot::Netlist)?,
            vhdl: filled(a.vhdl, ArtifactSlot::Vhdl)?,
            c_programs: filled(a.c_programs, ArtifactSlot::CPrograms)?,
            timings: StageTimings::from_trace(&trace),
            trace,
            scheme,
        })
    }

    /// Simulate one system invocation on the board stand-in and check the
    /// outputs against the reference evaluator.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn simulate(&self, inputs: &BTreeMap<String, i64>) -> Result<SimResult, FlowError> {
        let sim = Simulator::new(
            &self.graph,
            &self.partition.mapping,
            &self.schedule,
            &self.memory_map,
            &self.cost,
            self.scheme,
        );
        Ok(sim.run_checked(inputs)?)
    }

    /// A human-readable design report: partition summary, schedule
    /// makespan, STG sizes, memory usage, netlist inventory and timing
    /// breakdown.
    #[must_use]
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "design `{}` on {}\n",
            self.graph.name(),
            self.target
        ));
        s.push_str(&format!(
            "partitioning ({}, {}): {} sw node(s), {} hw node(s), makespan {} cycles\n",
            self.partition.algorithm,
            self.partition.optimality_label(),
            self.partition.software_nodes(&self.graph),
            self.partition.hardware_nodes(&self.graph),
            self.partition.makespan,
        ));
        for (i, used) in self.partition.hw_area.iter().enumerate() {
            s.push_str(&format!(
                "  {}: {used}/{} CLBs\n",
                self.target.hw[i].name, self.target.hw[i].clb_capacity
            ));
        }
        s.push_str(&format!(
            "STG: {} -> {} states ({}% reduction), {} transfer cell(s), {} byte(s)\n",
            self.minimize_stats.states_before,
            self.minimize_stats.states_after,
            (self.minimize_stats.reduction() * 100.0).round(),
            self.memory_map.cell_count(),
            self.memory_map.bytes_used(),
        ));
        s.push_str(&format!(
            "netlist: {} component(s), {} net(s); controller: {} states, {} FF binary\n",
            self.netlist.components.len(),
            self.netlist.nets.len(),
            self.controller.stg().state_count(),
            self.controller.binary_ffs(),
        ));
        s.push_str(&format!(
            "VHDL units: {}, C units: {}\n",
            self.vhdl.len(),
            self.c_programs.len()
        ));
        for (res, placed) in &self.placements {
            s.push_str(&format!(
                "placement {}: {} CLBs, HPWL {} ({:.0}% better than initial)\n",
                self.target.resource_name(*res),
                placed.positions.len(),
                placed.wirelength,
                placed.improvement() * 100.0,
            ));
        }
        s.push_str("timing breakdown:\n");
        s.push_str(&self.timings.to_table());
        s
    }
}
