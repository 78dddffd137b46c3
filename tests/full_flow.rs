//! End-to-end integration tests: every workload through the complete COOL
//! flow, with functional equivalence between the synthesized system and
//! the specification checked by co-simulation.

use std::collections::BTreeMap;

use cool_repro::core::{FlowArtifacts, FlowError, FlowOptions, FlowSession, Partitioner};
use cool_repro::ir::eval::{evaluate, input_map};
use cool_repro::ir::{Mapping, PartitioningGraph, Resource, Target};
use cool_repro::partition::GaOptions;
use cool_repro::spec::workloads;

fn quick() -> FlowOptions {
    FlowOptions::quick()
}

fn run_flow(
    g: &PartitioningGraph,
    target: &Target,
    options: &FlowOptions,
) -> Result<FlowArtifacts, FlowError> {
    FlowSession::new(g)
        .target(target.clone())
        .options(options.clone())
        .run()
}

fn run_flow_with_mapping(
    g: &PartitioningGraph,
    target: &Target,
    mapping: Mapping,
    options: &FlowOptions,
) -> Result<FlowArtifacts, FlowError> {
    FlowSession::new(g)
        .target(target.clone())
        .options(options.clone())
        .with_mapping(mapping)
        .run()
}

#[test]
fn equalizer_flow_end_to_end() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let art = run_flow(&g, &target, &quick()).unwrap();
    // Artefact inventory.
    assert!(art.vhdl.iter().any(|(n, _)| n == "system_controller.vhd"));
    assert!(art.vhdl.iter().any(|(n, _)| n.ends_with("_top.vhd")));
    assert!(art.netlist.components.len() >= 4);
    // Functional equivalence over a stream.
    for k in 0..8i64 {
        let ins = input_map([("x0", 100 * k), ("x1", -30 * k), ("x2", 7 * k)]);
        let r = art.simulate(&ins).unwrap();
        assert_eq!(r.outputs, evaluate(&g, &ins).unwrap());
    }
}

#[test]
fn fuzzy_flow_with_all_three_partitioners() {
    let g = workloads::fuzzy_controller();
    let target = Target::fuzzy_board();
    let options = [
        FlowOptions {
            partitioner: Partitioner::Heuristic(Default::default()),
            ..quick()
        },
        FlowOptions {
            partitioner: Partitioner::Genetic(GaOptions {
                population: 8,
                generations: 3,
                ..Default::default()
            }),
            ..quick()
        },
        FlowOptions {
            partitioner: Partitioner::Fixed(cool_repro::core::all_software_mapping(&g)),
            ..quick()
        },
    ];
    let probe = input_map([("err", 70), ("derr", -20)]);
    let reference = evaluate(&g, &probe).unwrap();
    for opts in options {
        let art = run_flow(&g, &target, &opts).unwrap();
        // Area feasibility on the paper's board.
        for (used, hw) in art.partition.hw_area.iter().zip(&target.hw) {
            assert!(used <= &hw.clb_capacity);
        }
        let r = art.simulate(&probe).unwrap();
        assert_eq!(r.outputs, reference, "partitioner changed semantics");
    }
}

#[test]
fn hardware_accelerates_division_with_direct_links() {
    // On the DSP56001 model, MAC-style code is nearly free in software, so
    // hardware only pays off for operations the processor does badly —
    // division — and when co-synthesis inserts direct communication links
    // instead of memory-mapped round trips. This test pins exactly that
    // crossover, the same story the paper's fuzzy defuzzifier tells.
    use cool_repro::ir::{Behavior, Op, PartitioningGraph};
    let mut g = PartitioningGraph::new("dividers");
    let mut outs = Vec::new();
    for i in 0..4 {
        let a = g.add_input(format!("a{i}"), 16);
        let b = g.add_input(format!("b{i}"), 16);
        let d = g
            .add_function(format!("div{i}"), Behavior::binary(Op::Div))
            .unwrap();
        g.connect(a, 0, d, 0, 16).unwrap();
        g.connect(b, 0, d, 1, 16).unwrap();
        let y = g.add_output(format!("y{i}"), 16);
        g.connect(d, 0, y, 0, 16).unwrap();
        outs.push(y);
    }
    g.validate().unwrap();
    let target = Target::fuzzy_board();
    let all_sw = Mapping::uniform(g.node_count(), Resource::Software(0));
    let mut hw = all_sw.clone();
    for (i, n) in g.function_nodes().into_iter().enumerate() {
        hw.assign(n, Resource::Hardware(i % 2));
    }
    let direct = FlowOptions {
        scheme: cool_repro::cost::CommScheme::Direct,
        ..quick()
    };
    let sw_art = run_flow_with_mapping(&g, &target, all_sw, &direct).unwrap();
    let hw_art = run_flow_with_mapping(&g, &target, hw, &direct).unwrap();
    let ins: BTreeMap<String, i64> = (0..4)
        .flat_map(|i| {
            [
                (format!("a{i}"), 1000 + i64::from(i)),
                (format!("b{i}"), 3 + i64::from(i)),
            ]
        })
        .collect();
    let sw_run = sw_art.simulate(&ins).unwrap();
    let hw_run = hw_art.simulate(&ins).unwrap();
    assert_eq!(sw_run.outputs, hw_run.outputs);
    assert!(
        hw_run.cycles < sw_run.cycles,
        "hardware {} vs software {}",
        hw_run.cycles,
        sw_run.cycles
    );
}

#[test]
fn parsed_spec_flows_like_generated_graph() {
    // Round-trip: print the fuzzy workload to spec text, parse it back,
    // run the flow on the parsed graph.
    let original = workloads::fuzzy_controller();
    let text = cool_repro::spec::print_spec(&original);
    let parsed = cool_repro::spec::parse(&text).unwrap();
    let target = Target::fuzzy_board();
    let art = run_flow(&parsed, &target, &quick()).unwrap();
    let ins = input_map([("err", -64), ("derr", 32)]);
    assert_eq!(
        art.simulate(&ins).unwrap().outputs,
        evaluate(&original, &ins).unwrap()
    );
}

#[test]
fn minimization_never_loses_exec_states() {
    let g = workloads::fuzzy_controller();
    let target = Target::fuzzy_board();
    let art = run_flow(&g, &target, &quick()).unwrap();
    for n in g.function_nodes() {
        assert!(
            art.stg_minimized
                .states()
                .iter()
                .any(|s| s.kind == cool_repro::stg::StateKind::Exec(n)),
            "minimized STG lost the execution state of {n}"
        );
    }
    assert!(art.minimize_stats.states_after < art.minimize_stats.states_before);
}

#[test]
fn schedule_and_simulation_agree_on_magnitude() {
    let g = workloads::equalizer(4);
    let target = Target::fuzzy_board();
    let art = run_flow(&g, &target, &quick()).unwrap();
    let r = art
        .simulate(&input_map([("x0", 1), ("x1", 2), ("x2", 3)]))
        .unwrap();
    let predicted = art.schedule.makespan();
    assert!(
        r.cycles <= predicted * 3 && predicted <= r.cycles.max(1) * 3,
        "simulated {} vs scheduled {predicted}",
        r.cycles
    );
}

#[test]
fn generated_code_references_every_cut_edge_cell() {
    let g = workloads::fuzzy_controller();
    let target = Target::fuzzy_board();
    let mut mapping = cool_repro::core::all_software_mapping(&g);
    mapping.assign(g.node_by_name("defuzz").unwrap(), Resource::Hardware(0));
    let art = run_flow_with_mapping(&g, &target, mapping, &quick()).unwrap();
    let all_c: String = art.c_programs.iter().map(|p| p.source.as_str()).collect();
    for cell in art.memory_map.cells() {
        let e = g.edge(cell.edge).unwrap();
        let touches_sw = art.partition.mapping.resource(e.src).is_software()
            || art.partition.mapping.resource(e.dst).is_software();
        if touches_sw {
            assert!(
                all_c.contains(&format!("0x{:04x}u", cell.address)),
                "cell 0x{:04x} unused by generated C",
                cell.address
            );
        }
    }
}
