//! Seeded fuzz loops for the cache-entry decoder and the wire codecs.
//!
//! Like `tests/properties.rs`, the cases are deterministic streams drawn
//! from [`cool_repro::ir::rng::StdRng`], so every failure reproduces
//! from its printed case number.
//!
//! * About 10k mutants of valid stage and node entries — bit flips,
//!   truncations, edits to the length field and the kind byte — go
//!   through `disk::decode_entry`, the one decoder that the disk tier,
//!   the remote tier and the daemon's put handler share. Every mutant
//!   must be rejected, and none may panic.
//! * Mutants of every `Request` and `Response` kind go through their
//!   codecs. Each must decode to an error or to a value that re-encodes
//!   canonically, and none may panic.
//! * About 10k mutants of printed specifications — deleted spans,
//!   duplicated and swapped lines, replaced characters and numbers,
//!   truncations — go through `cool_spec::parse`, which must return a
//!   graph or a `SpecError`, never panic.
//! * About 10k mutants of wire frames — bit flips, truncations, edits to
//!   the length field, the version and the magic, trailing junk — go
//!   through `read_frame`. Whatever it accepts must be a genuine frame
//!   at the head of the mutant, and nothing may panic.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cool_repro::core::cache::{Entry, EntryKind, NodeArtifact};
use cool_repro::core::disk::{self, decode_entry, FORMAT_VERSION};
use cool_repro::core::server::{Request, Response};
use cool_repro::core::{CacheStatsReply, FlowOptions, FlowSession, StageCache};
use cool_repro::ir::codec::{
    from_bytes, read_frame, to_bytes, write_frame, Codec, MAX_FRAME_PAYLOAD,
};
use cool_repro::ir::rng::StdRng;
use cool_repro::ir::{ContentHasher, Target};
use cool_repro::spec::{print_spec, workloads};

/// Offset of the payload-length field in an entry file.
const LEN_FIELD: usize = 28;
/// Offset of the payload, whose first byte is the entry kind.
const PAYLOAD: usize = 36;
/// Size of the trailing payload checksum.
const CHECKSUM: usize = 16;

/// The valid entries a cached flow of a small design writes: stage
/// entries of every standard stage plus node entries (STG fragments,
/// HLS designs, VHDL units).
fn valid_entries() -> Vec<Vec<u8>> {
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cool-decoder-fuzz-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    let g = workloads::equalizer(2);
    let cache = StageCache::persistent(StageCache::DEFAULT_CAPACITY, &dir).expect("cache dir");
    FlowSession::new(&g)
        .target(Target::fuzzy_board())
        .options(FlowOptions::quick())
        .cache(cache)
        .run()
        .expect("flow runs");
    let mut entries: Vec<Vec<u8>> = fs::read_dir(&dir)
        .expect("cache dir lists")
        .map(|e| fs::read(e.expect("dir entry").path()).expect("entry reads"))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    entries.push(disk::encode_entry(
        &Entry::Node(Arc::new(NodeArtifact::Vhdl("entity probe is end;".into()))),
        FORMAT_VERSION,
    ));
    entries.sort();
    entries
}

/// Recompute an entry's payload checksum, so a mutant gets past the
/// envelope and reaches the kind dispatch and the body decoders.
fn reseal(entry: &mut [u8]) {
    let end = entry.len() - CHECKSUM;
    let mut h = ContentHasher::new();
    h.write(&entry[PAYLOAD..end]);
    entry[end..].copy_from_slice(&h.finish().to_le_bytes());
}

#[test]
fn every_mutated_entry_is_rejected() {
    let entries = valid_entries();
    let kinds: Vec<_> = entries
        .iter()
        .map(|e| decode_entry(e).expect("valid entry decodes").kind())
        .collect();
    assert!(kinds.contains(&EntryKind::Stage) && kinds.contains(&EntryKind::Node));

    let mut rng = StdRng::seed_from_u64(0xdec0_de01);
    for case in 0..10_000 {
        let original = &entries[rng.random_range(0..entries.len())];
        let mut m = original.clone();
        match case % 5 {
            // One to three distinct bit flips anywhere in the file.
            0 => {
                let mut flipped = Vec::new();
                for _ in 0..1 + rng.random_range(0..3) {
                    let bit = (rng.random_range(0..m.len()), rng.random_range(0..8));
                    if !flipped.contains(&bit) {
                        m[bit.0] ^= 1 << bit.1;
                        flipped.push(bit);
                    }
                }
            }
            // Truncation, down to the empty file.
            1 => m.truncate(rng.random_range(0..m.len())),
            // A different payload length: off by a little, or arbitrary.
            2 => {
                let len = u64::from_le_bytes(m[LEN_FIELD..PAYLOAD].try_into().unwrap());
                let edited = match rng.random_range(0..3) {
                    0 => len.wrapping_add(1 + rng.random_range(0..64) as u64),
                    1 => len.wrapping_sub(1 + rng.random_range(0..64) as u64),
                    _ => rng.next_u64(),
                };
                m[LEN_FIELD..PAYLOAD].copy_from_slice(&edited.to_le_bytes());
            }
            // Another kind byte under the original checksum.
            3 => m[PAYLOAD] = m[PAYLOAD].wrapping_add(1 + rng.random_range(0..255) as u8),
            // Another kind byte, resealed: the body meets the wrong
            // decoder, or no decoder at all.
            _ => {
                m[PAYLOAD] = m[PAYLOAD].wrapping_add(1 + rng.random_range(0..255) as u8);
                reseal(&mut m);
            }
        }
        assert_ne!(&m, original, "case {case}: the mutation changed nothing");
        assert!(
            decode_entry(&m).is_none(),
            "case {case}: a mutated entry ({} bytes) was accepted",
            m.len()
        );
    }
}

/// The largest valid entry: a stage entry of several KB.
fn largest_entry() -> Vec<u8> {
    let entry = valid_entries()
        .into_iter()
        .max_by_key(Vec::len)
        .expect("the flow wrote entries");
    assert!(entry.len() > 2048, "{} bytes", entry.len());
    entry
}

/// One value of every request kind.
fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::CacheGet(0x0123_4567_89ab_cdef),
        Request::CachePut(7, valid_entries().remove(0)),
        Request::CacheStats,
    ]
}

/// One value of every response kind.
fn responses() -> Vec<Response> {
    vec![
        Response::Pong,
        Response::Error("rejected cache put".into()),
        Response::CacheEntry(None),
        Response::CacheEntry(Some(vec![0xab; 40])),
        Response::CachePutDone(true),
        Response::CacheStatsReply(CacheStatsReply {
            entries: 9,
            node_entries: 31,
            serve_hits: 4,
            serve_misses: 1,
            puts_accepted: 40,
            puts_rejected: 2,
            summary: "stage cache: 9 hit(s)".into(),
        }),
    ]
}

/// Mutate `bytes`: bit flips, a truncation, an overwritten byte, or the
/// leading tag replaced.
fn mutate(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
    let mut m = bytes.to_vec();
    match rng.random_range(0..4) {
        0 => {
            for _ in 0..1 + rng.random_range(0..4) {
                let at = rng.random_range(0..m.len());
                m[at] ^= 1 << rng.random_range(0..8);
            }
        }
        1 => m.truncate(rng.random_range(0..m.len())),
        2 => {
            let at = rng.random_range(0..m.len());
            m[at] = rng.random_range(0..256) as u8;
        }
        _ => m[0] = rng.random_range(0..256) as u8,
    }
    m
}

/// Decode every mutant; whatever decodes must be a valid value, one
/// whose encoding decodes and re-encodes to the same bytes.
fn fuzz_codec<T: Codec + PartialEq + std::fmt::Debug>(values: &[T], seed: u64, per_value: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (v, value) in values.iter().enumerate() {
        let bytes = to_bytes(value);
        assert_eq!(
            &from_bytes::<T>(&bytes).expect("valid value decodes"),
            value
        );
        for case in 0..per_value {
            let m = mutate(&mut rng, &bytes);
            if let Ok(decoded) = from_bytes::<T>(&m) {
                let canonical = to_bytes(&decoded);
                let again = from_bytes::<T>(&canonical)
                    .unwrap_or_else(|e| panic!("value {v}, case {case}: {e}"));
                assert_eq!(
                    to_bytes(&again),
                    canonical,
                    "value {v}, case {case}: a decoded mutant does not round-trip"
                );
            }
        }
    }
}

#[test]
fn mutated_requests_and_responses_never_panic() {
    fuzz_codec(&requests(), 0xdec0_de02, 400);
    fuzz_codec(&responses(), 0xdec0_de03, 400);
}

/// Mutate spec text: delete a span, duplicate or swap lines, replace a
/// character or a number, or truncate.
fn mutate_spec(rng: &mut StdRng, spec: &str) -> String {
    const PALETTE: &[char] = &[
        ';', ':', '.', ',', '=', '-', '>', '(', ')', '{', '}', ' ', '\n', '0', '7', 'x', 'é',
    ];
    const NUMBERS: &[&str] = &["0", "-1", "65535", "65536", "99999999999999999999", "64"];
    let mut chars: Vec<char> = spec.chars().collect();
    let mut lines: Vec<&str> = spec.lines().collect();
    let line = rng.random_range(0..lines.len());
    match rng.random_range(0..6) {
        0 => {
            let at = rng.random_range(0..chars.len());
            let end = chars.len().min(at + 1 + rng.random_range(0..16));
            chars.drain(at..end);
        }
        // A statement declared twice — the shape of a copy-paste slip.
        1 => {
            let to = rng.random_range(0..lines.len() + 1);
            lines.insert(to, lines[line]);
            return lines.join("\n");
        }
        2 => {
            let other = rng.random_range(0..lines.len());
            lines.swap(line, other);
            return lines.join("\n");
        }
        3 => {
            let at = rng.random_range(0..chars.len());
            chars[at] = PALETTE[rng.random_range(0..PALETTE.len())];
        }
        4 => {
            let digits: Vec<usize> = (0..chars.len())
                .filter(|&i| chars[i].is_ascii_digit())
                .collect();
            if let Some(&at) = digits.get(rng.random_range(0..digits.len().max(1))) {
                let number = NUMBERS[rng.random_range(0..NUMBERS.len())];
                chars.splice(at..=at, number.chars());
            }
        }
        _ => chars.truncate(rng.random_range(0..chars.len())),
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_specs_parse_or_error_without_panicking() {
    let specs: Vec<String> = [
        workloads::equalizer(2),
        workloads::fir(4),
        workloads::incremental(2, 19),
    ]
    .iter()
    .map(print_spec)
    .collect();
    let mut rng = StdRng::seed_from_u64(0xdec0_de04);
    let mut accepted = 0;
    for case in 0..10_000 {
        let m = mutate_spec(&mut rng, &specs[case % specs.len()]);
        let parsed = std::panic::catch_unwind(|| cool_repro::spec::parse(&m).is_ok());
        match parsed {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("case {case}: the parser panicked on:\n{m}"),
        }
    }
    // Most mutants are malformed, but not all: the loop reaches the
    // graph builder, not just the lexer.
    assert!((1..10_000).contains(&accepted), "{accepted} mutants parsed");
}

/// Framed payloads of several request and response kinds, one of them
/// a `CachePut` of a real multi-KB entry.
fn valid_frames() -> Vec<Vec<u8>> {
    let payloads = [
        to_bytes(&Request::CachePut(7, largest_entry())),
        to_bytes(&Request::Ping),
        to_bytes(&Request::CacheGet(0x0123_4567_89ab_cdef)),
        to_bytes(&Response::CacheEntry(Some(vec![0xab; 40]))),
        to_bytes(&Response::Error("rejected cache put".into())),
        Vec::new(),
    ];
    payloads
        .iter()
        .map(|p| {
            let mut frame = Vec::new();
            write_frame(&mut frame, p).expect("a Vec takes every write");
            frame
        })
        .collect()
}

#[test]
fn mutated_frames_never_panic_and_accept_only_genuine_frames() {
    /// Offsets of the version and length fields in a frame header.
    const VERSION: usize = 8;
    const LEN: usize = 12;
    let frames = valid_frames();
    for frame in &frames {
        assert!(read_frame(&mut frame.as_slice()).unwrap().is_some());
    }
    let mut rng = StdRng::seed_from_u64(0xdec0_de05);
    for case in 0..10_000 {
        let mut m = frames[case % frames.len()].clone();
        match case % 6 {
            0 => {
                for _ in 0..1 + rng.random_range(0..3) {
                    let at = rng.random_range(0..m.len());
                    m[at] ^= 1 << rng.random_range(0..8);
                }
            }
            1 => m.truncate(rng.random_range(0..m.len())),
            // A length off by a little, anywhere up to the allocation
            // bound, or arbitrary.
            2 => {
                let len = u64::from_le_bytes(m[LEN..LEN + 8].try_into().unwrap());
                let edited = match rng.random_range(0..3) {
                    0 => len
                        .wrapping_add(rng.random_range(0..64) as u64)
                        .wrapping_sub(32),
                    1 => rng.next_u64() % (MAX_FRAME_PAYLOAD + 1),
                    _ => rng.next_u64(),
                };
                m[LEN..LEN + 8].copy_from_slice(&edited.to_le_bytes());
            }
            3 => m[VERSION + rng.random_range(0..4)] = rng.random_range(0..256) as u8,
            4 => m[rng.random_range(0..VERSION)] = rng.random_range(0..256) as u8,
            // Trailing junk: the first frame still reads, the junk is the
            // next frame's problem.
            _ => m.extend((0..1 + rng.random_range(0..32)).map(|_| rng.next_u64() as u8)),
        }
        let read = std::panic::catch_unwind(|| read_frame(&mut m.as_slice()));
        match read {
            Ok(Ok(Some(payload))) => {
                let mut genuine = Vec::new();
                write_frame(&mut genuine, &payload).expect("a Vec takes every write");
                assert!(
                    m.starts_with(&genuine),
                    "case {case}: read_frame accepted a payload that is not the frame at the head"
                );
            }
            Ok(Ok(None) | Err(_)) => {}
            Err(_) => panic!("case {case}: read_frame panicked on {} bytes", m.len()),
        }
    }
}
