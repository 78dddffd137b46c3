//! Seeded codec property tests over *real* artifacts.
//!
//! The disk tier is only sound if the binary codec is canonical: for
//! every artifact type `encode(decode(encode(x))) == encode(x)`, and
//! content digests survive the roundtrip (`digest(decode(encode(x))) ==
//! digest(x)`) — otherwise a value restored from disk could key future
//! stages differently from the freshly computed value it must be
//! indistinguishable from. Rather than hand-rolling generators per type,
//! the property loops run the actual flow engine over seeded random
//! workloads (reusing `cool_ir::rng`) and check every artifact the
//! context accumulates, plus decoder totality under seeded mutations of
//! the encoded bytes.

use cool_core::cache::{ArtifactFlags, Artifacts};
use cool_core::{Engine, FlowContext, FlowOptions, Partitioner};
use cool_ir::codec::{from_bytes, to_bytes, Codec};
use cool_ir::hash::{digest, ContentHash};
use cool_ir::rng::StdRng;
use cool_ir::Target;
use cool_partition::GaOptions;
use cool_spec::workloads;

/// The codec property for one value: decode(encode(x)) re-encodes to the
/// identical bytes, and the content digest is stable across the trip.
fn check<T: Codec + ContentHash>(what: &str, value: &T) {
    let bytes = to_bytes(value);
    let back: T = from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{what}: decoding our own encoding failed: {e}"));
    assert_eq!(
        to_bytes(&back),
        bytes,
        "{what}: encode∘decode must be the identity on encodings"
    );
    assert_eq!(
        digest(&back),
        digest(value),
        "{what}: content digest must survive the codec roundtrip"
    );
}

fn run_context_checks(cx: &FlowContext<'_>) {
    check("cost model", cx.artifacts.cost.as_ref().unwrap());
    check("partition result", cx.artifacts.partition.as_ref().unwrap());
    check("static schedule", cx.artifacts.schedule.as_ref().unwrap());
    check("raw STG", cx.artifacts.stg.as_ref().unwrap());
    check(
        "minimized STG",
        cx.artifacts.stg_minimized.as_ref().unwrap(),
    );
    check(
        "minimize stats",
        cx.artifacts.minimize_stats.as_ref().unwrap(),
    );
    check("memory map", cx.artifacts.memory_map.as_ref().unwrap());
    check("hw nodes", cx.artifacts.hw_nodes.as_ref().unwrap());
    check("hls designs", cx.artifacts.hls_designs.as_ref().unwrap());
    check(
        "system controller",
        cx.artifacts.controller.as_ref().unwrap(),
    );
    check("state encoding", cx.artifacts.encoding.as_ref().unwrap());
    check("netlist", cx.artifacts.netlist.as_ref().unwrap());
    check("vhdl units", cx.artifacts.vhdl.as_ref().unwrap());
    check("placements", cx.artifacts.placements.as_ref().unwrap());
    check("c programs", cx.artifacts.c_programs.as_ref().unwrap());
}

#[test]
fn every_artifact_type_roundtrips_on_seeded_random_flows() {
    let target = Target::fuzzy_board();
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for case in 0..4u64 {
        let graph = match case {
            0 => workloads::equalizer(3),
            1 => workloads::fuzzy_controller(),
            2 => workloads::fir(6),
            _ => workloads::random_dag(workloads::RandomDagConfig {
                nodes: 8 + rng.random_range(0..8),
                seed: rng.next_u64(),
                ..Default::default()
            }),
        };
        let options = FlowOptions {
            partitioner: Partitioner::Genetic(GaOptions {
                population: 6 + rng.random_range(0..4),
                generations: 3,
                seed: rng.next_u64(),
                ..GaOptions::default()
            }),
            packed_memory: rng.random_range(0..2) == 1,
            ..FlowOptions::quick()
        };
        let mut cx = FlowContext::new(&graph, &target, &options);
        Engine::standard().run(&mut cx).unwrap();
        run_context_checks(&cx);

        // The composite the disk tier actually serializes.
        let delta = Artifacts::capture(&cx.artifacts, ArtifactFlags::default());
        let bytes = to_bytes(&delta);
        let back: Artifacts = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes, "full delta fixpoint");
        assert_eq!(back.slot_count(), delta.slot_count());
    }
}

#[test]
fn decoder_is_total_under_seeded_mutations() {
    // Whatever bytes a broken disk hands the codec, decoding terminates
    // with Ok or Err — never a panic, never an unbounded allocation. The
    // checksum layer above normally filters these; this is the
    // defense-in-depth check on the codec itself.
    let graph = workloads::equalizer(2);
    let target = Target::fuzzy_board();
    let options = FlowOptions::quick();
    let mut cx = FlowContext::new(&graph, &target, &options);
    Engine::standard().run(&mut cx).unwrap();
    let pristine = to_bytes(&Artifacts::capture(&cx.artifacts, ArtifactFlags::default()));

    let mut rng = StdRng::seed_from_u64(0xBAD_B17E5);
    for _ in 0..200 {
        let mut bytes = pristine.clone();
        match rng.random_range(0..3) {
            0 => {
                // Flip one bit.
                let i = rng.random_range(0..bytes.len());
                bytes[i] ^= 1 << rng.random_range(0..8);
            }
            1 => {
                // Truncate.
                bytes.truncate(rng.random_range(0..bytes.len()));
            }
            _ => {
                // Splice garbage into the middle.
                let i = rng.random_range(0..bytes.len());
                bytes[i] = rng.next_u64() as u8;
                bytes.push(rng.next_u64() as u8);
            }
        }
        // Any outcome but a panic is acceptable; a successful decode must
        // still re-encode without panicking.
        if let Ok(delta) = from_bytes::<Artifacts>(&bytes) {
            let _ = to_bytes(&delta);
        }
    }
    // The unmutated bytes still decode, so the loop above exercised the
    // real encoding, not a stale fixture.
    assert!(from_bytes::<Artifacts>(&pristine).is_ok());
}
