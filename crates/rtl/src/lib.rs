//! Communicating-controller synthesis and netlist generation.
//!
//! "To implement a complete hardware/software system, additional parts are
//! required: the system controller, steering the complete system according
//! to the computed schedule, data path controllers to support hardware
//! sharing, an I/O controller to communicate with the environment and bus
//! arbiters to prevent conflicts. These additional pieces will be
//! implemented in hardware […]. COOL generates VHDL specifications for all
//! these additional pieces and a net-list wiring all them." (paper §2,
//! Figure 4.)
//!
//! This crate builds exactly those artefacts:
//!
//! * [`SystemController`] — a Moore FSM derived from the (minimized) STG;
//! * [`build_netlist`] — the component/net inventory of Figure 4;
//! * [`vhdl`] — VHDL-1993 emission for every generated component, with a
//!   light well-formedness checker used by the tests;
//! * [`encoding`] — FSM state-assignment search, the logic-synthesis step
//!   whose runtime dominates the flow as in the paper's measurements.

mod adjacency;
pub mod encoding;
pub mod place;
pub mod vhdl;

use std::fmt;

use cool_ir::codec::{Codec, CodecError, Decoder, Encoder};
use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::{Mapping, NodeId, PartitioningGraph, Resource, Target};
use cool_stg::{StateId, Stg};

/// The synthesized system controller: the minimized STG interpreted as a
/// Moore machine. Inputs are the environment start signal and per-node
/// done/ready flags; outputs are per-node start signals plus the global
/// done flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemController {
    stg: Stg,
    nodes: Vec<NodeId>,
}

impl SystemController {
    /// Build the controller from a (preferably minimized) STG.
    #[must_use]
    pub fn from_stg(stg: Stg, g: &PartitioningGraph) -> SystemController {
        SystemController {
            stg,
            nodes: g.function_nodes(),
        }
    }

    /// The controller's state machine.
    #[must_use]
    pub fn stg(&self) -> &Stg {
        &self.stg
    }

    /// Function nodes steered by this controller (start/done port pairs).
    #[must_use]
    pub fn steered_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of flip-flops a one-hot encoding needs.
    #[must_use]
    pub fn one_hot_ffs(&self) -> usize {
        self.stg.state_count()
    }

    /// Number of flip-flops a binary encoding needs.
    #[must_use]
    pub fn binary_ffs(&self) -> usize {
        let n = self.stg.state_count();
        if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }
    }

    /// Start signals asserted in `state`.
    #[must_use]
    pub fn outputs_in(&self, state: StateId) -> Vec<NodeId> {
        self.stg.states()[state.index()]
            .kind
            .started_node()
            .into_iter()
            .collect()
    }
}

/// Kinds of netlist components (the boxes of Figure 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// The synthesized system controller.
    SystemController,
    /// A per-hardware-resource datapath controller (hardware sharing).
    DatapathController(Resource),
    /// The I/O controller talking to the environment.
    IoController,
    /// The bus arbiter.
    BusArbiter,
    /// A processor running generated C code.
    Processor(usize),
    /// One synthesized hardware function block (ASIC/FPGA datapath).
    HwBlock(NodeId),
    /// The shared memory.
    Memory,
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentKind::SystemController => f.write_str("system_controller"),
            ComponentKind::DatapathController(r) => write!(f, "datapath_controller[{r}]"),
            ComponentKind::IoController => f.write_str("io_controller"),
            ComponentKind::BusArbiter => f.write_str("bus_arbiter"),
            ComponentKind::Processor(i) => write!(f, "processor{i}"),
            ComponentKind::HwBlock(n) => write!(f, "hw_block[{n}]"),
            ComponentKind::Memory => f.write_str("memory"),
        }
    }
}

/// Signal direction of a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Input port.
    In,
    /// Output port.
    Out,
    /// Bidirectional (bus data lines).
    InOut,
}

/// A named, typed port of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name, unique within the component.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Width in bits.
    pub bits: u16,
}

/// One instantiated component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// What the component is.
    pub kind: ComponentKind,
    /// Its ports.
    pub ports: Vec<Port>,
}

/// A net connecting `(component, port)` endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Width in bits.
    pub bits: u16,
    /// Connected endpoints as `(component index, port index)`.
    pub endpoints: Vec<(usize, usize)>,
}

/// The generated netlist (Figure 4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Netlist {
    /// Components in instantiation order.
    pub components: Vec<Component>,
    /// Nets in creation order.
    pub nets: Vec<Net>,
}

impl Netlist {
    /// Count components of a given kind predicate.
    #[must_use]
    pub fn count_kind(&self, pred: impl Fn(&ComponentKind) -> bool) -> usize {
        self.components.iter().filter(|c| pred(&c.kind)).count()
    }

    /// Find a component index by instance name.
    #[must_use]
    pub fn component_by_name(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name == name)
    }

    /// Verify structural invariants: endpoint indices valid, net widths
    /// match port widths, port names unique per component.
    ///
    /// # Errors
    ///
    /// `Err(description)` naming the first violation.
    pub fn verify(&self) -> Result<(), String> {
        for c in &self.components {
            let mut names: Vec<&str> = c.ports.iter().map(|p| p.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            if names.len() != before {
                return Err(format!("component {} has duplicate port names", c.name));
            }
        }
        for n in &self.nets {
            if n.endpoints.is_empty() {
                return Err(format!("net {} is dangling", n.name));
            }
            for &(ci, pi) in &n.endpoints {
                let c = self
                    .components
                    .get(ci)
                    .ok_or_else(|| format!("net {} references missing component {ci}", n.name))?;
                let p = c.ports.get(pi).ok_or_else(|| {
                    format!("net {} references missing port {pi} of {}", n.name, c.name)
                })?;
                if p.bits != n.bits {
                    return Err(format!(
                        "net {} ({} bits) connected to port {}.{} ({} bits)",
                        n.name, n.bits, c.name, p.name, p.bits
                    ));
                }
            }
        }
        Ok(())
    }

    /// Figure-4-style inventory text.
    #[must_use]
    pub fn to_inventory(&self) -> String {
        let mut s = format!(
            "netlist: {} components, {} nets\n",
            self.components.len(),
            self.nets.len()
        );
        for c in &self.components {
            s.push_str(&format!("  {:<24} {} port(s)\n", c.name, c.ports.len()));
        }
        s
    }
}

impl ContentHash for SystemController {
    fn content_hash(&self, h: &mut ContentHasher) {
        self.stg.content_hash(h);
        self.nodes.content_hash(h);
    }
}

impl ContentHash for PortDir {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_u8(match self {
            PortDir::In => 0,
            PortDir::Out => 1,
            PortDir::InOut => 2,
        });
    }
}

impl ContentHash for Port {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_str(&self.name);
        self.dir.content_hash(h);
        h.write_u16(self.bits);
    }
}

impl ContentHash for ComponentKind {
    fn content_hash(&self, h: &mut ContentHasher) {
        match self {
            ComponentKind::SystemController => h.write_u8(0),
            ComponentKind::DatapathController(r) => {
                h.write_u8(1);
                r.content_hash(h);
            }
            ComponentKind::IoController => h.write_u8(2),
            ComponentKind::BusArbiter => h.write_u8(3),
            ComponentKind::Processor(i) => {
                h.write_u8(4);
                h.write_usize(*i);
            }
            ComponentKind::HwBlock(n) => {
                h.write_u8(5);
                n.content_hash(h);
            }
            ComponentKind::Memory => h.write_u8(6),
        }
    }
}

impl ContentHash for Component {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_str(&self.name);
        self.kind.content_hash(h);
        self.ports.content_hash(h);
    }
}

impl ContentHash for Net {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_str(&self.name);
        h.write_u16(self.bits);
        self.endpoints.content_hash(h);
    }
}

impl ContentHash for Netlist {
    fn content_hash(&self, h: &mut ContentHasher) {
        self.components.content_hash(h);
        self.nets.content_hash(h);
    }
}

impl ContentHash for encoding::StateEncoding {
    fn content_hash(&self, h: &mut ContentHasher) {
        self.codes.content_hash(h);
        h.write_u32(self.bits);
        h.write_u64(self.cost);
        h.write_usize(self.candidates_tried);
    }
}

impl ContentHash for place::Placement {
    fn content_hash(&self, h: &mut ContentHasher) {
        self.positions.content_hash(h);
        h.write_u64(self.wirelength);
        h.write_u64(self.initial_wirelength);
        h.write_usize(self.moves);
    }
}

impl Codec for SystemController {
    fn encode(&self, e: &mut Encoder) {
        self.stg.encode(e);
        self.nodes.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SystemController {
            stg: Stg::decode(d)?,
            nodes: Vec::decode(d)?,
        })
    }
}

impl Codec for PortDir {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(match self {
            PortDir::In => 0,
            PortDir::Out => 1,
            PortDir::InOut => 2,
        });
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(PortDir::In),
            1 => Ok(PortDir::Out),
            2 => Ok(PortDir::InOut),
            tag => Err(CodecError::InvalidTag {
                type_name: "PortDir",
                tag,
            }),
        }
    }
}

impl Codec for Port {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        self.dir.encode(e);
        e.put_u16(self.bits);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Port {
            name: d.take_str()?,
            dir: PortDir::decode(d)?,
            bits: d.take_u16()?,
        })
    }
}

impl Codec for ComponentKind {
    fn encode(&self, e: &mut Encoder) {
        match self {
            ComponentKind::SystemController => e.put_u8(0),
            ComponentKind::DatapathController(r) => {
                e.put_u8(1);
                r.encode(e);
            }
            ComponentKind::IoController => e.put_u8(2),
            ComponentKind::BusArbiter => e.put_u8(3),
            ComponentKind::Processor(i) => {
                e.put_u8(4);
                e.put_usize(*i);
            }
            ComponentKind::HwBlock(n) => {
                e.put_u8(5);
                n.encode(e);
            }
            ComponentKind::Memory => e.put_u8(6),
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(ComponentKind::SystemController),
            1 => Ok(ComponentKind::DatapathController(Resource::decode(d)?)),
            2 => Ok(ComponentKind::IoController),
            3 => Ok(ComponentKind::BusArbiter),
            4 => Ok(ComponentKind::Processor(d.take_usize()?)),
            5 => Ok(ComponentKind::HwBlock(NodeId::decode(d)?)),
            6 => Ok(ComponentKind::Memory),
            tag => Err(CodecError::InvalidTag {
                type_name: "ComponentKind",
                tag,
            }),
        }
    }
}

impl Codec for Component {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        self.kind.encode(e);
        self.ports.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Component {
            name: d.take_str()?,
            kind: ComponentKind::decode(d)?,
            ports: Vec::decode(d)?,
        })
    }
}

impl Codec for Net {
    fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.name);
        e.put_u16(self.bits);
        self.endpoints.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Net {
            name: d.take_str()?,
            bits: d.take_u16()?,
            endpoints: Vec::decode(d)?,
        })
    }
}

impl Codec for Netlist {
    fn encode(&self, e: &mut Encoder) {
        self.components.encode(e);
        self.nets.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Netlist {
            components: Vec::decode(d)?,
            nets: Vec::decode(d)?,
        })
    }
}

impl Codec for encoding::StateEncoding {
    fn encode(&self, e: &mut Encoder) {
        self.codes.encode(e);
        e.put_u32(self.bits);
        e.put_u64(self.cost);
        e.put_usize(self.candidates_tried);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(encoding::StateEncoding {
            codes: Vec::decode(d)?,
            bits: d.take_u32()?,
            cost: d.take_u64()?,
            candidates_tried: d.take_usize()?,
        })
    }
}

impl Codec for place::Placement {
    fn encode(&self, e: &mut Encoder) {
        self.positions.encode(e);
        e.put_u64(self.wirelength);
        e.put_u64(self.initial_wirelength);
        e.put_usize(self.moves);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(place::Placement {
            positions: Vec::decode(d)?,
            wirelength: d.take_u64()?,
            initial_wirelength: d.take_u64()?,
            moves: d.take_usize()?,
        })
    }
}

fn bit() -> u16 {
    1
}

/// Build the Figure-4 netlist for a partitioned design.
///
/// Instantiates the system controller, one datapath controller per
/// hardware resource in use, the I/O controller, the bus arbiter, every
/// processor, one hardware block per hardware-mapped node, and the shared
/// memory — then wires start/done pairs, bus request/grant pairs and the
/// shared address/data bus.
#[must_use]
pub fn build_netlist(g: &PartitioningGraph, mapping: &Mapping, target: &Target) -> Netlist {
    let mut nl = Netlist::default();
    let data_bits = target.bus.width_bits;

    // --- Components. ---
    let hw_nodes: Vec<NodeId> = g
        .function_nodes()
        .into_iter()
        .filter(|&n| mapping.resource(n).is_hardware())
        .collect();
    let hw_resources: Vec<Resource> = {
        let mut v: Vec<Resource> = hw_nodes.iter().map(|&n| mapping.resource(n)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let used_processors: Vec<usize> = {
        let mut v: Vec<usize> = g
            .function_nodes()
            .iter()
            .filter_map(|&n| match mapping.resource(n) {
                Resource::Software(p) => Some(p),
                Resource::Hardware(_) => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    let functions = g.function_nodes();
    let mut sysctl_ports = vec![
        Port {
            name: "clk".into(),
            dir: PortDir::In,
            bits: bit(),
        },
        Port {
            name: "reset".into(),
            dir: PortDir::In,
            bits: bit(),
        },
        Port {
            name: "sys_start".into(),
            dir: PortDir::In,
            bits: bit(),
        },
        Port {
            name: "sys_done".into(),
            dir: PortDir::Out,
            bits: bit(),
        },
    ];
    for &n in &functions {
        sysctl_ports.push(Port {
            name: format!("start_{}", n.index()),
            dir: PortDir::Out,
            bits: bit(),
        });
        sysctl_ports.push(Port {
            name: format!("done_{}", n.index()),
            dir: PortDir::In,
            bits: bit(),
        });
    }
    let sysctl = nl.components.len();
    nl.components.push(Component {
        name: "sysctl0".into(),
        kind: ComponentKind::SystemController,
        ports: sysctl_ports,
    });

    // Bus masters in arbitration priority order: processors, hw datapath
    // controllers, io controller.
    let mut masters: Vec<usize> = Vec::new();

    for &p in &used_processors {
        let idx = nl.components.len();
        nl.components.push(Component {
            name: target.processors[p].name.clone(),
            kind: ComponentKind::Processor(p),
            ports: vec![
                Port {
                    name: "clk".into(),
                    dir: PortDir::In,
                    bits: bit(),
                },
                Port {
                    name: "bus_req".into(),
                    dir: PortDir::Out,
                    bits: bit(),
                },
                Port {
                    name: "bus_gnt".into(),
                    dir: PortDir::In,
                    bits: bit(),
                },
                Port {
                    name: "data".into(),
                    dir: PortDir::InOut,
                    bits: data_bits,
                },
                Port {
                    name: "addr".into(),
                    dir: PortDir::Out,
                    bits: 16,
                },
            ],
        });
        masters.push(idx);
    }

    for &r in &hw_resources {
        let idx = nl.components.len();
        nl.components.push(Component {
            name: format!("dpctl_{}", target.resource_name(r)),
            kind: ComponentKind::DatapathController(r),
            ports: vec![
                Port {
                    name: "clk".into(),
                    dir: PortDir::In,
                    bits: bit(),
                },
                Port {
                    name: "bus_req".into(),
                    dir: PortDir::Out,
                    bits: bit(),
                },
                Port {
                    name: "bus_gnt".into(),
                    dir: PortDir::In,
                    bits: bit(),
                },
                Port {
                    name: "data".into(),
                    dir: PortDir::InOut,
                    bits: data_bits,
                },
                Port {
                    name: "addr".into(),
                    dir: PortDir::Out,
                    bits: 16,
                },
            ],
        });
        masters.push(idx);
    }

    let ioctl = nl.components.len();
    nl.components.push(Component {
        name: "ioctl0".into(),
        kind: ComponentKind::IoController,
        ports: vec![
            Port {
                name: "clk".into(),
                dir: PortDir::In,
                bits: bit(),
            },
            Port {
                name: "bus_req".into(),
                dir: PortDir::Out,
                bits: bit(),
            },
            Port {
                name: "bus_gnt".into(),
                dir: PortDir::In,
                bits: bit(),
            },
            Port {
                name: "data".into(),
                dir: PortDir::InOut,
                bits: data_bits,
            },
            Port {
                name: "addr".into(),
                dir: PortDir::Out,
                bits: 16,
            },
            Port {
                name: "env_in".into(),
                dir: PortDir::In,
                bits: data_bits,
            },
            Port {
                name: "env_out".into(),
                dir: PortDir::Out,
                bits: data_bits,
            },
        ],
    });
    masters.push(ioctl);

    let mut arb_ports = vec![Port {
        name: "clk".into(),
        dir: PortDir::In,
        bits: bit(),
    }];
    for (i, _) in masters.iter().enumerate() {
        arb_ports.push(Port {
            name: format!("req{i}"),
            dir: PortDir::In,
            bits: bit(),
        });
        arb_ports.push(Port {
            name: format!("gnt{i}"),
            dir: PortDir::Out,
            bits: bit(),
        });
    }
    let arbiter = nl.components.len();
    nl.components.push(Component {
        name: "arbiter0".into(),
        kind: ComponentKind::BusArbiter,
        ports: arb_ports,
    });

    for &n in &hw_nodes {
        let node = g.node(n).expect("hw node exists");
        let mut ports = vec![
            Port {
                name: "clk".into(),
                dir: PortDir::In,
                bits: bit(),
            },
            Port {
                name: "start".into(),
                dir: PortDir::In,
                bits: bit(),
            },
            Port {
                name: "done".into(),
                dir: PortDir::Out,
                bits: bit(),
            },
        ];
        for i in 0..node.behavior().inputs() {
            ports.push(Port {
                name: format!("op{i}"),
                dir: PortDir::In,
                bits: data_bits,
            });
        }
        for o in 0..node.behavior().outputs() {
            ports.push(Port {
                name: format!("res{o}"),
                dir: PortDir::Out,
                bits: data_bits,
            });
        }
        nl.components.push(Component {
            name: format!("hw_{}", node.name()),
            kind: ComponentKind::HwBlock(n),
            ports,
        });
    }

    let memory = nl.components.len();
    nl.components.push(Component {
        name: target.memory.name.clone(),
        kind: ComponentKind::Memory,
        ports: vec![
            Port {
                name: "clk".into(),
                dir: PortDir::In,
                bits: bit(),
            },
            Port {
                name: "data".into(),
                dir: PortDir::InOut,
                bits: data_bits,
            },
            Port {
                name: "addr".into(),
                dir: PortDir::In,
                bits: 16,
            },
            Port {
                name: "we".into(),
                dir: PortDir::In,
                bits: bit(),
            },
        ],
    });

    // --- Nets. ---
    let port_index = |nl: &Netlist, c: usize, name: &str| -> usize {
        nl.components[c]
            .ports
            .iter()
            .position(|p| p.name == name)
            .unwrap_or_else(|| panic!("port {name} on {}", nl.components[c].name))
    };

    // Clock to everything with a clk port.
    let mut clk_eps = Vec::new();
    for (ci, c) in nl.components.iter().enumerate() {
        if let Some(pi) = c.ports.iter().position(|p| p.name == "clk") {
            clk_eps.push((ci, pi));
        }
    }
    nl.nets.push(Net {
        name: "clk".into(),
        bits: bit(),
        endpoints: clk_eps,
    });

    // start/done pairs between system controller and the executing side.
    for &n in &functions {
        let s_pi = port_index(&nl, sysctl, &format!("start_{}", n.index()));
        let d_pi = port_index(&nl, sysctl, &format!("done_{}", n.index()));
        let mut s_eps = vec![(sysctl, s_pi)];
        let mut d_eps = vec![(sysctl, d_pi)];
        if let Some(hb) = nl
            .components
            .iter()
            .position(|c| c.kind == ComponentKind::HwBlock(n))
        {
            s_eps.push((hb, port_index(&nl, hb, "start")));
            d_eps.push((hb, port_index(&nl, hb, "done")));
        }
        // Software nodes handshake through the processor's memory-mapped
        // status registers; the net still exists logically but has the
        // processor as endpoint: skipped (covered by the bus) to keep the
        // netlist free of fake pins.
        nl.nets.push(Net {
            name: format!("start_{}", n.index()),
            bits: bit(),
            endpoints: s_eps,
        });
        nl.nets.push(Net {
            name: format!("done_{}", n.index()),
            bits: bit(),
            endpoints: d_eps,
        });
    }

    // Bus request/grant per master.
    for (i, &m) in masters.iter().enumerate() {
        nl.nets.push(Net {
            name: format!("req{i}"),
            bits: bit(),
            endpoints: vec![
                (m, port_index(&nl, m, "bus_req")),
                (arbiter, port_index(&nl, arbiter, &format!("req{i}"))),
            ],
        });
        nl.nets.push(Net {
            name: format!("gnt{i}"),
            bits: bit(),
            endpoints: vec![
                (m, port_index(&nl, m, "bus_gnt")),
                (arbiter, port_index(&nl, arbiter, &format!("gnt{i}"))),
            ],
        });
    }

    // Shared data and address buses: all masters + memory.
    let mut data_eps: Vec<(usize, usize)> = masters
        .iter()
        .map(|&m| (m, port_index(&nl, m, "data")))
        .collect();
    data_eps.push((memory, port_index(&nl, memory, "data")));
    nl.nets.push(Net {
        name: "bus_data".into(),
        bits: data_bits,
        endpoints: data_eps,
    });
    let mut addr_eps: Vec<(usize, usize)> = masters
        .iter()
        .map(|&m| (m, port_index(&nl, m, "addr")))
        .collect();
    addr_eps.push((memory, port_index(&nl, memory, "addr")));
    nl.nets.push(Net {
        name: "bus_addr".into(),
        bits: 16,
        endpoints: addr_eps,
    });

    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_cost::{CommScheme, CostModel};
    use cool_spec::workloads;
    use cool_stg::StateKind;

    fn mixed_design() -> (PartitioningGraph, Mapping, Target, Stg) {
        let g = workloads::equalizer(4);
        let target = Target::fuzzy_board();
        let cost = CostModel::new(&g, &target);
        let mut mapping = Mapping::uniform(g.node_count(), Resource::Software(0));
        for (i, n) in g.function_nodes().into_iter().enumerate() {
            if i % 2 == 0 {
                mapping.assign(n, Resource::Hardware(i % 2));
            }
        }
        let sched = cool_schedule::schedule(&g, &mapping, &cost, CommScheme::MemoryMapped).unwrap();
        let stg = cool_stg::generate(&g, &mapping, &sched);
        (g, mapping, target, stg)
    }

    #[test]
    fn netlist_contains_paper_components() {
        let (g, mapping, target, _) = mixed_design();
        let nl = build_netlist(&g, &mapping, &target);
        nl.verify().unwrap();
        assert_eq!(nl.count_kind(|k| *k == ComponentKind::SystemController), 1);
        assert_eq!(nl.count_kind(|k| *k == ComponentKind::IoController), 1);
        assert_eq!(nl.count_kind(|k| *k == ComponentKind::BusArbiter), 1);
        assert_eq!(nl.count_kind(|k| *k == ComponentKind::Memory), 1);
        assert!(nl.count_kind(|k| matches!(k, ComponentKind::DatapathController(_))) >= 1);
        assert!(nl.count_kind(|k| matches!(k, ComponentKind::HwBlock(_))) >= 1);
        assert_eq!(
            nl.count_kind(|k| matches!(k, ComponentKind::Processor(_))),
            1
        );
    }

    #[test]
    fn hw_blocks_match_hw_nodes() {
        let (g, mapping, target, _) = mixed_design();
        let nl = build_netlist(&g, &mapping, &target);
        let hw_nodes = g
            .function_nodes()
            .into_iter()
            .filter(|&n| mapping.resource(n).is_hardware())
            .count();
        assert_eq!(
            nl.count_kind(|k| matches!(k, ComponentKind::HwBlock(_))),
            hw_nodes
        );
    }

    #[test]
    fn all_software_design_has_no_hw_blocks() {
        let g = workloads::equalizer(4);
        let target = Target::fuzzy_board();
        let mapping = Mapping::uniform(g.node_count(), Resource::Software(0));
        let nl = build_netlist(&g, &mapping, &target);
        nl.verify().unwrap();
        assert_eq!(nl.count_kind(|k| matches!(k, ComponentKind::HwBlock(_))), 0);
        assert_eq!(
            nl.count_kind(|k| matches!(k, ComponentKind::DatapathController(_))),
            0
        );
    }

    #[test]
    fn controller_encodings() {
        let (g, _, _, stg) = mixed_design();
        let (min, _) = cool_stg::minimize(&stg);
        let ctrl = SystemController::from_stg(min, &g);
        assert!(ctrl.binary_ffs() <= ctrl.one_hot_ffs());
        assert!(ctrl.binary_ffs() >= 1);
        assert_eq!(ctrl.steered_nodes().len(), g.function_nodes().len());
    }

    #[test]
    fn controller_outputs_only_in_exec_states() {
        let (g, _, _, stg) = mixed_design();
        let ctrl = SystemController::from_stg(stg, &g);
        for (i, s) in ctrl.stg().states().iter().enumerate() {
            let outs = ctrl.outputs_in(StateId::from_index(i));
            match s.kind {
                StateKind::Exec(n) => assert_eq!(outs, vec![n]),
                _ => assert!(outs.is_empty()),
            }
        }
    }

    #[test]
    fn inventory_lists_components() {
        let (g, mapping, target, _) = mixed_design();
        let nl = build_netlist(&g, &mapping, &target);
        let inv = nl.to_inventory();
        assert!(inv.contains("sysctl0"));
        assert!(inv.contains("arbiter0"));
        assert!(inv.contains("ioctl0"));
    }

    #[test]
    fn verify_catches_width_mismatch() {
        let (g, mapping, target, _) = mixed_design();
        let mut nl = build_netlist(&g, &mapping, &target);
        nl.nets[0].bits = 7; // clk net corrupted
        assert!(nl.verify().is_err());
    }
}
