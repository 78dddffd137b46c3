//! "Oscar"-style high-level synthesis.
//!
//! In the paper, hardware parts of a COOL design are synthesized by the
//! University of Dortmund HLS tool **Oscar** followed by Synopsys logic
//! synthesis. Neither tool is available, so this crate implements the same
//! class of high-level synthesis from scratch:
//!
//! 1. build a **control/data-flow graph** from a node behaviour
//!    ([`cdfg::Cdfg`]), with common-subexpression sharing;
//! 2. **schedule** it (ASAP, ALAP and resource-constrained list
//!    scheduling, [`schedule`]);
//! 3. **allocate and bind** functional units and registers
//!    (left-edge algorithm, [`binding`]);
//! 4. estimate **area in XC4000-class CLBs** and extract the datapath
//!    controller FSM ([`area`], [`HlsDesign`]).
//!
//! The reproduction relies on this crate in two roles: as the hardware
//! cost estimator during partitioning, and as the (deliberately
//! compute-heavy) hardware-synthesis stage of the design flow — the paper
//! observes that hardware synthesis consumes more than 90 % of the design
//! time, and this stage is what reproduces that shape.
//!
//! # Example
//!
//! ```
//! use cool_ir::Behavior;
//! use cool_hls::{synthesize, HlsOptions};
//!
//! let design = synthesize("mac", &Behavior::mac(), &HlsOptions::default());
//! assert!(design.latency_cycles >= 2); // multiply then add
//! assert!(design.area_clbs > 0);
//! ```

pub mod area;
pub mod binding;
pub mod cdfg;
pub mod schedule;

use cool_ir::codec::Codec;
use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::Behavior;

pub use area::{operator_cost, OperatorCost};
pub use binding::Binding;
pub use cdfg::Cdfg;
pub use schedule::{Schedule, ScheduleKind};

/// Resource constraints and datapath parameters for one synthesis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlsOptions {
    /// Maximum multiplier instances (the expensive unit).
    pub max_multipliers: usize,
    /// Maximum divider instances.
    pub max_dividers: usize,
    /// Maximum ALU instances (everything that is not mul/div).
    pub max_alus: usize,
    /// Datapath word width in bits.
    pub bits: u16,
    /// Extra effort: iterations of the schedule/bind refinement loop. The
    /// value linearly scales synthesis time, mimicking the effort knob of a
    /// real HLS + logic-synthesis flow.
    pub effort: u32,
}

impl Default for HlsOptions {
    fn default() -> HlsOptions {
        HlsOptions {
            max_multipliers: 1,
            max_dividers: 1,
            max_alus: 2,
            bits: 16,
            effort: 4,
        }
    }
}

/// The result of synthesizing one behaviour into a datapath + controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HlsDesign {
    /// Name of the synthesized block (usually the graph node name).
    pub name: String,
    /// Latency of one activation in hardware clock cycles.
    pub latency_cycles: u64,
    /// Total area estimate in CLBs (datapath + registers + muxes + FSM).
    pub area_clbs: u32,
    /// Number of functional-unit instances allocated, by class
    /// `(multipliers, dividers, alus)`.
    pub fu_instances: (usize, usize, usize),
    /// Registers allocated by the left-edge algorithm.
    pub register_count: usize,
    /// 2:1 multiplexer equivalents in front of FU and register inputs.
    pub mux_count: usize,
    /// States of the extracted datapath-controller FSM (one per control
    /// step, plus an idle state).
    pub fsm_states: usize,
    /// Number of CDFG operations after common-subexpression sharing.
    pub operation_count: usize,
}

impl HlsDesign {
    /// `true` if the design fits an area budget of `clbs`.
    #[must_use]
    pub fn fits(&self, clbs: u32) -> bool {
        self.area_clbs <= clbs
    }

    /// The same design under a different block name.
    ///
    /// Everything [`synthesize`] computes besides `name` depends only on
    /// `(behavior, options)`, so a cached design can be re-labelled for any
    /// node whose behaviour digests to the same [`node_key`].
    #[must_use]
    pub fn renamed(&self, name: &str) -> HlsDesign {
        HlsDesign {
            name: name.to_string(),
            ..self.clone()
        }
    }
}

impl Codec for HlsDesign {
    fn encode(&self, e: &mut cool_ir::codec::Encoder) {
        e.put_str(&self.name);
        e.put_u64(self.latency_cycles);
        e.put_u32(self.area_clbs);
        self.fu_instances.encode(e);
        e.put_usize(self.register_count);
        e.put_usize(self.mux_count);
        e.put_usize(self.fsm_states);
        e.put_usize(self.operation_count);
    }

    fn decode(d: &mut cool_ir::codec::Decoder<'_>) -> Result<Self, cool_ir::codec::CodecError> {
        Ok(HlsDesign {
            name: d.take_str()?,
            latency_cycles: d.take_u64()?,
            area_clbs: d.take_u32()?,
            fu_instances: d.take()?,
            register_count: d.take_usize()?,
            mux_count: d.take_usize()?,
            fsm_states: d.take_usize()?,
            operation_count: d.take_usize()?,
        })
    }
}

impl ContentHash for HlsOptions {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_usize(self.max_multipliers);
        h.write_usize(self.max_dividers);
        h.write_usize(self.max_alus);
        h.write_u16(self.bits);
        h.write_u32(self.effort);
    }
}

impl ContentHash for HlsDesign {
    fn content_hash(&self, h: &mut ContentHasher) {
        h.write_str(&self.name);
        h.write_u64(self.latency_cycles);
        h.write_u32(self.area_clbs);
        h.write_usize(self.fu_instances.0);
        h.write_usize(self.fu_instances.1);
        h.write_usize(self.fu_instances.2);
        h.write_usize(self.register_count);
        h.write_usize(self.mux_count);
        h.write_usize(self.fsm_states);
        h.write_usize(self.operation_count);
    }
}

/// Synthesize `behavior` under `options`.
///
/// Runs CDFG extraction, list scheduling under the FU constraints, FU and
/// register binding, and area estimation. Deterministic for equal inputs.
#[must_use]
pub fn synthesize(name: &str, behavior: &Behavior, options: &HlsOptions) -> HlsDesign {
    let cdfg = Cdfg::from_behavior(behavior);
    let mut best: Option<(Schedule, Binding)> = None;
    // The refinement loop re-runs scheduling with varied priorities (and
    // therefore different binding outcomes); real HLS/logic-synthesis
    // iterates comparably, which is what makes hardware synthesis dominate
    // flow time in the paper's measurements.
    for round in 0..options.effort.max(1) {
        let sched = schedule::list_schedule(&cdfg, options, u64::from(round));
        let bind = binding::bind(&cdfg, &sched, options);
        let better = match &best {
            None => true,
            Some((s, b)) => (sched.length, bind.register_count) < (s.length, b.register_count),
        };
        if better {
            best = Some((sched, bind));
        }
    }
    let (sched, bind) = best.expect("effort >= 1 always yields a candidate");
    let fsm_states = sched.length as usize + 1; // + idle
    let area = area::estimate_area(&cdfg, &sched, &bind, fsm_states, options);
    HlsDesign {
        name: name.to_string(),
        latency_cycles: sched.length,
        area_clbs: area,
        fu_instances: (bind.multipliers, bind.dividers, bind.alus),
        register_count: bind.register_count,
        mux_count: bind.mux_count,
        fsm_states,
        operation_count: cdfg.op_count(),
    }
}

/// Fast area/latency estimate used inside partitioning loops: one list
/// schedule, no refinement. Roughly `effort`× cheaper than [`synthesize`].
#[must_use]
pub fn estimate(name: &str, behavior: &Behavior, options: &HlsOptions) -> HlsDesign {
    let mut opts = options.clone();
    opts.effort = 1;
    synthesize(name, behavior, &opts)
}

/// Synthesize many independent behaviours, fanning the [`synthesize`]
/// calls out over `jobs` scoped worker threads.
///
/// Hardware synthesis of distinct nodes shares no state, so this is the
/// embarrassingly parallel layer of the COOL flow (the paper measures
/// hardware synthesis at > 90 % of design time). Work is distributed via
/// an atomic index queue, so unevenly sized behaviours still balance.
/// The result order matches the input order and every design is
/// bit-identical to what a serial [`synthesize`] loop produces, for any
/// `jobs` value.
///
/// `jobs == 0` uses [`std::thread::available_parallelism`].
#[must_use]
pub fn synthesize_many(
    items: &[(&str, &Behavior)],
    options: &HlsOptions,
    jobs: usize,
) -> Vec<HlsDesign> {
    cool_ir::par::par_map(items, jobs, |(name, behavior)| {
        synthesize(name, behavior, options)
    })
}

/// Key-space namespace mixed into every per-node HLS cache key.
///
/// Bump the suffix whenever the meaning of a node key changes (hash inputs,
/// design layout) so stale entries can never alias fresh ones.
pub const NODE_KEY_SCHEME: &str = "cool-node-key/hls-v1";

/// Content-addressed cache key for one node's synthesized design — the
/// key the flow engine's `hls` stage files designs under in its
/// node-level cache tier.
///
/// The node *name* is deliberately excluded: the design is a pure function
/// of `(behavior, options)`, so identically-behaving nodes share one entry
/// and a rename alone never invalidates the cache. Consumers store designs
/// unnamed and re-label hits with [`HlsDesign::renamed`].
#[must_use]
pub fn node_key(behavior: &Behavior, options: &HlsOptions) -> u128 {
    let mut h = ContentHasher::new();
    h.write_str(NODE_KEY_SCHEME);
    behavior.content_hash(&mut h);
    options.content_hash(&mut h);
    h.finish()
}

pub use cool_ir::par::effective_jobs;

#[cfg(test)]
mod tests {
    use super::*;
    use cool_ir::{Expr, Op};

    #[test]
    fn mac_uses_two_steps_minimum() {
        let d = synthesize("mac", &Behavior::mac(), &HlsOptions::default());
        assert!(d.latency_cycles > area::operator_cost(Op::Mul, 16).latency);
        assert_eq!(d.operation_count, 2);
    }

    #[test]
    fn resource_constraint_serializes_multipliers() {
        // Two independent multiplies with one multiplier must serialize.
        let b = Behavior::new(
            4,
            vec![Expr::binary(
                Op::Add,
                Expr::binary(Op::Mul, Expr::Input(0), Expr::Input(1)),
                Expr::binary(Op::Mul, Expr::Input(2), Expr::Input(3)),
            )],
        )
        .unwrap();
        let one = synthesize(
            "m1",
            &b,
            &HlsOptions {
                max_multipliers: 1,
                ..Default::default()
            },
        );
        let two = synthesize(
            "m2",
            &b,
            &HlsOptions {
                max_multipliers: 2,
                ..Default::default()
            },
        );
        assert!(one.latency_cycles > two.latency_cycles);
        assert!(
            two.area_clbs > one.area_clbs,
            "more FUs must cost more area"
        );
    }

    #[test]
    fn cse_shares_identical_subtrees() {
        // (x*y) + (x*y) should synthesize one multiply.
        let b = Behavior::new(
            2,
            vec![Expr::binary(
                Op::Add,
                Expr::binary(Op::Mul, Expr::Input(0), Expr::Input(1)),
                Expr::binary(Op::Mul, Expr::Input(0), Expr::Input(1)),
            )],
        )
        .unwrap();
        let d = synthesize("cse", &b, &HlsOptions::default());
        assert_eq!(d.operation_count, 2, "mul shared + one add");
    }

    #[test]
    fn estimate_is_never_better_than_refined() {
        let b = Behavior::mac();
        let full = synthesize("x", &b, &HlsOptions::default());
        let est = estimate("x", &b, &HlsOptions::default());
        assert!(est.latency_cycles >= full.latency_cycles);
    }

    #[test]
    fn wider_datapath_costs_more() {
        let b = Behavior::mac();
        let d16 = synthesize(
            "w16",
            &b,
            &HlsOptions {
                bits: 16,
                ..Default::default()
            },
        );
        let d32 = synthesize(
            "w32",
            &b,
            &HlsOptions {
                bits: 32,
                ..Default::default()
            },
        );
        assert!(d32.area_clbs > d16.area_clbs);
    }

    #[test]
    fn deterministic() {
        let b = Behavior::mac();
        let a = synthesize("d", &b, &HlsOptions::default());
        let c = synthesize("d", &b, &HlsOptions::default());
        assert_eq!(a, c);
    }

    #[test]
    fn fits_checks_budget() {
        let d = synthesize("f", &Behavior::mac(), &HlsOptions::default());
        assert!(d.fits(d.area_clbs));
        assert!(!d.fits(d.area_clbs - 1));
    }

    #[test]
    fn synthesize_many_matches_serial_for_any_job_count() {
        let behaviors = [
            Behavior::mac(),
            Behavior::unary(Op::Neg),
            Behavior::binary(Op::Div),
            Behavior::binary(Op::Mul),
            Behavior::mac(),
        ];
        let named: Vec<(String, &Behavior)> = behaviors
            .iter()
            .enumerate()
            .map(|(i, b)| (format!("n{i}"), b))
            .collect();
        let items: Vec<(&str, &Behavior)> = named.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        let opts = HlsOptions::default();
        let serial = synthesize_many(&items, &opts, 1);
        for jobs in [2usize, 4, 7, 0] {
            assert_eq!(synthesize_many(&items, &opts, jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn node_key_ignores_name_but_not_behavior_or_options() {
        let opts = HlsOptions::default();
        let mac = node_key(&Behavior::mac(), &opts);
        assert_eq!(mac, node_key(&Behavior::mac(), &opts), "deterministic");
        assert_ne!(mac, node_key(&Behavior::binary(Op::Mul), &opts));
        let wide = HlsOptions {
            bits: 32,
            ..Default::default()
        };
        assert_ne!(mac, node_key(&Behavior::mac(), &wide));
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(4, 2), 2);
        assert_eq!(effective_jobs(1, 100), 1);
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(3, 0), 1);
    }
}
