//! The `coold` daemon battery.
//!
//! Four contracts:
//!
//! * **Coalescing** — N concurrent clients asking for the same
//!   spec/target/options cost exactly one synthesis; every one of them
//!   receives byte-identical artifacts.
//! * **Independence** — distinct specs in flight at once do not share a
//!   flight and each synthesizes.
//! * **Byte identity** — a served flow equals a standalone
//!   [`FlowSession::run`] byte for byte (VHDL, C, memory header,
//!   report), warm or cold.
//! * **Robustness** — malformed frames and undecodable requests are
//!   rejected before they reach the engine, and the shared cache keeps
//!   serving correct bytes afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use cool_core::cache::{Artifacts, Entry};
use cool_core::disk::{encode_entry, encode_entry_with_version, FORMAT_VERSION};
use cool_core::server::{Client, FlowRequest, Request, Response, ServeError, Server, ServerHandle};
use cool_core::{
    FlowArtifacts, FlowOptions, FlowResponse, FlowSession, NodeArtifact, RemoteStore, StageCache,
};
use cool_ir::codec::{read_frame, to_bytes, write_frame};
use cool_ir::Target;
use cool_spec::{print_spec, workloads};

/// Bind a daemon on an ephemeral port, run it on a background thread,
/// and hand back its observability handle plus the join handle.
fn spawn_server(cache: StageCache) -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cache).expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("accept loop"));
    (handle, join)
}

fn request_for(spec: &str) -> FlowRequest {
    FlowRequest {
        spec: spec.to_string(),
        target: Target::fuzzy_board(),
        options: FlowOptions::quick(),
    }
}

/// The standalone run a served response must match byte for byte.
fn local_run(spec: &str) -> FlowArtifacts {
    let graph = cool_spec::parse(spec).expect("spec parses");
    FlowSession::new(&graph)
        .target(Target::fuzzy_board())
        .options(FlowOptions::quick())
        .run()
        .expect("local flow")
}

fn assert_matches_local(resp: &FlowResponse, art: &FlowArtifacts) {
    assert_eq!(resp.vhdl, art.vhdl, "served VHDL differs from local run");
    let local_c: Vec<(String, String)> = art
        .c_programs
        .iter()
        .map(|p| (p.file_name.clone(), p.source.clone()))
        .collect();
    assert_eq!(resp.c_programs, local_c, "served C differs from local run");
    assert_eq!(
        resp.memory_header,
        cool_codegen::emit_memory_header(&art.graph, &art.memory_map),
        "served memory header differs from local run"
    );
    // The report's trailing timing table is wall-clock; everything
    // before it is a pure function of the artifacts.
    let deterministic = |report: &str| {
        report
            .split("timing breakdown:")
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(
        deterministic(&resp.report),
        deterministic(&art.report()),
        "served report differs"
    );
    assert_eq!(resp.optimality, art.partition.optimality);
    assert_eq!(resp.gap, art.partition.gap);
}

#[test]
fn concurrent_identical_requests_synthesize_once() {
    let (handle, join) = spawn_server(StageCache::default());
    let spec = print_spec(&workloads::equalizer(2));

    const CLIENTS: usize = 4;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let addr = handle.addr();
    let responses: Vec<FlowResponse> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let spec = spec.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.flow(request_for(&spec)).expect("served flow")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // The herd cost exactly one synthesis, however the requests landed.
    assert_eq!(handle.syntheses(), 1, "identical requests must coalesce");

    // Every response carries the same bytes, and they match a local run.
    let art = local_run(&spec);
    for resp in &responses {
        assert_matches_local(resp, &art);
    }

    // Coalescing is visible in the responses: requests that shared a
    // flight got the *same* response (same flight id, same joined count,
    // same trace), and the flight that did the work computed stages.
    let computing: Vec<&FlowResponse> = responses
        .iter()
        .filter(|r| r.stages_computed() > 0)
        .collect();
    assert!(
        !computing.is_empty(),
        "some flight must have computed the stages"
    );
    let leader_flight = computing[0].flight;
    for resp in &computing {
        assert_eq!(
            resp.flight, leader_flight,
            "only one flight may have computed stages"
        );
    }
    let on_leader_flight = responses
        .iter()
        .filter(|r| r.flight == leader_flight)
        .count() as u64;
    assert!(
        computing[0].joined >= on_leader_flight,
        "the flight's joined count ({}) must cover every request it served ({})",
        computing[0].joined,
        on_leader_flight,
    );

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn distinct_specs_synthesize_independently() {
    let (handle, join) = spawn_server(StageCache::default());
    let spec_a = print_spec(&workloads::equalizer(2));
    let spec_b = print_spec(&workloads::fir(4));

    let addr = handle.addr();
    let threads: Vec<_> = [spec_a.clone(), spec_b.clone()]
        .into_iter()
        .map(|spec| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.flow(request_for(&spec)).expect("served flow")
            })
        })
        .collect();
    let responses: Vec<FlowResponse> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    assert_eq!(handle.syntheses(), 2, "different specs must not coalesce");
    assert_matches_local(&responses[0], &local_run(&spec_a));
    assert_matches_local(&responses[1], &local_run(&spec_b));
    assert_ne!(
        responses[0].vhdl, responses[1].vhdl,
        "the two designs are genuinely different"
    );

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn warm_repeat_requests_compute_zero_stages() {
    let (handle, join) = spawn_server(StageCache::default());
    let spec = print_spec(&workloads::equalizer(2));

    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.flow(request_for(&spec)).expect("cold flow");
    assert!(cold.stages_computed() > 0, "first request must synthesize");

    // Same connection (pipelined) and a fresh connection both serve the
    // repeat entirely from the hot cache.
    let warm = client.flow(request_for(&spec)).expect("warm flow");
    let mut other = Client::connect(handle.addr()).expect("connect");
    let warm2 = other.flow(request_for(&spec)).expect("warm flow");
    for resp in [&warm, &warm2] {
        assert_eq!(resp.stages_computed(), 0, "warm serve must compute nothing");
        assert_eq!(resp.vhdl, cold.vhdl);
        assert_eq!(resp.c_programs, cold.c_programs);
        assert_eq!(resp.memory_header, cold.memory_header);
    }
    assert_eq!(handle.syntheses(), 1, "warm serves are not syntheses");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn bad_specs_and_flow_errors_come_back_as_server_errors() {
    let (handle, join) = spawn_server(StageCache::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let err = client
        .flow(request_for("design broken { this is not a spec"))
        .expect_err("a bad spec must not serve");
    match err {
        ServeError::Server(msg) => assert!(msg.contains("spec error"), "got: {msg}"),
        other => panic!("expected a server error, got {other}"),
    }
    assert_eq!(handle.syntheses(), 0);

    // The connection survives a request-level error: the same client can
    // still ping and run a real flow.
    client.ping().expect("ping after error");
    let spec = print_spec(&workloads::equalizer(2));
    let resp = client.flow(request_for(&spec)).expect("flow after error");
    assert_matches_local(&resp, &local_run(&spec));

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn malformed_frames_are_rejected_without_poisoning_the_cache() {
    let (handle, join) = spawn_server(StageCache::default());
    let spec = print_spec(&workloads::equalizer(2));

    // Seed the cache with one good flow so poisoning would be visible.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let before = client.flow(request_for(&spec)).expect("seed flow");

    // Raw garbage where a frame header belongs: the server answers with
    // an error frame (or just drops us) and closes the connection.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.write_all(b"definitely not a COOLWIR frame header")
        .expect("write garbage");
    // A dropped connection (Ok(None)/Err) is also an acceptable
    // rejection; an error frame must decode and say what happened.
    if let Ok(Some(payload)) = read_frame(&mut raw) {
        match cool_ir::codec::from_bytes::<Response>(&payload) {
            Ok(Response::Error(msg)) => assert!(msg.contains("malformed"), "got: {msg}"),
            other => panic!("expected an error response, got {other:?}"),
        }
    }
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest); // the server must have closed

    // A well-framed payload that decodes as a known request kind but
    // runs out of bytes (a truncated Flow body): rejected the same way.
    let mut framed = TcpStream::connect(handle.addr()).expect("connect framed");
    write_frame(&mut framed, &[0x00]).expect("write frame");
    let payload = read_frame(&mut framed)
        .expect("error reply frame")
        .expect("server replies before closing");
    match cool_ir::codec::from_bytes::<Response>(&payload).expect("reply decodes") {
        Response::Error(msg) => assert!(msg.contains("malformed request"), "got: {msg}"),
        other => panic!("expected an error response, got {other:?}"),
    }

    // A truncated frame: half a valid request, then a hangup.
    let good = to_bytes(&Request::Flow(request_for(&spec)));
    let mut truncated = TcpStream::connect(handle.addr()).expect("connect truncated");
    let mut full = Vec::new();
    write_frame(&mut full, &good).expect("encode");
    truncated
        .write_all(&full[..full.len() / 2])
        .expect("write half");
    drop(truncated);

    // None of that reached the engine or disturbed the cache: a fresh
    // client still gets the seeded bytes, fully warm.
    let mut after_client = Client::connect(handle.addr()).expect("connect");
    let after = after_client.flow(request_for(&spec)).expect("flow");
    assert_eq!(after.vhdl, before.vhdl);
    assert_eq!(after.c_programs, before.c_programs);
    assert_eq!(after.stages_computed(), 0, "cache must still be warm");
    assert_eq!(handle.syntheses(), 1, "garbage must never trigger work");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn unknown_request_kinds_get_an_error_frame_and_the_connection_survives() {
    let (handle, join) = spawn_server(StageCache::default());
    let spec = print_spec(&workloads::equalizer(2));

    // Seed the shared cache so survival is observable.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let before = client.flow(request_for(&spec)).expect("seed flow");

    // A well-framed request of an *unknown kind* — what a newer client
    // speaking the same frame version would send. The server must
    // answer with an error frame, not tear the connection down.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    write_frame(&mut raw, &[9]).expect("write unknown kind");
    let payload = read_frame(&mut raw)
        .expect("error reply frame")
        .expect("connection stays open");
    match cool_ir::codec::from_bytes::<Response>(&payload).expect("reply decodes") {
        Response::Error(msg) => assert!(
            msg.contains("unsupported request kind (tag 9)"),
            "got: {msg}"
        ),
        other => panic!("expected an error response, got {other:?}"),
    }

    // The *same* connection keeps serving: a ping...
    write_frame(&mut raw, &to_bytes(&Request::Ping)).expect("write ping");
    let payload = read_frame(&mut raw)
        .expect("pong frame")
        .expect("connection stays open");
    assert_eq!(
        cool_ir::codec::from_bytes::<Response>(&payload).expect("pong decodes"),
        Response::Pong
    );

    // ...and a flow served entirely from the surviving shared cache.
    write_frame(&mut raw, &to_bytes(&Request::Flow(request_for(&spec)))).expect("write flow");
    let payload = read_frame(&mut raw)
        .expect("flow reply frame")
        .expect("connection stays open");
    match cool_ir::codec::from_bytes::<Response>(&payload).expect("flow decodes") {
        Response::Flow(resp) => {
            assert_eq!(resp.vhdl, before.vhdl);
            assert_eq!(resp.stages_computed(), 0, "cache must still be warm");
        }
        other => panic!("expected a flow response, got {other:?}"),
    }
    assert_eq!(
        handle.syntheses(),
        1,
        "the unknown kind never reached the engine"
    );

    handle.shutdown();
    join.join().expect("server thread");
}

/// A valid stage-entry payload in the exact on-disk/wire format, with a
/// distinguishing cost so distinct entries have distinct bytes.
fn stage_entry_bytes(cost_ms: u64) -> Vec<u8> {
    encode_entry_with_version(
        &Artifacts::default(),
        &[],
        Duration::from_millis(cost_ms),
        FORMAT_VERSION,
    )
}

/// Satellite regression: an idle connection no longer holds its handler
/// thread forever — the accepted socket's read timeout drops it, and the
/// daemon keeps serving fresh connections afterwards.
#[test]
fn idle_connections_are_dropped_by_the_read_timeout() {
    let server = Server::bind("127.0.0.1:0", StageCache::default())
        .expect("bind")
        .idle_timeout(Some(Duration::from_millis(150)));
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("accept loop"));

    let mut idle = Client::connect(handle.addr()).expect("connect");
    idle.ping().expect("ping while fresh");
    thread::sleep(Duration::from_millis(600));
    assert!(
        idle.ping().is_err(),
        "the daemon must drop a connection idle past the timeout"
    );

    // The drop is clean: the daemon itself keeps accepting and serving.
    let mut fresh = Client::connect(handle.addr()).expect("reconnect");
    fresh.ping().expect("daemon alive after the idle drop");

    handle.shutdown();
    join.join().expect("server thread");
}

/// Satellite coverage: N threads race cache puts/gets of identical and
/// distinct keys against one daemon. Exactly one put of the shared key
/// is fresh (the store is single-flight under its lock), every get is
/// byte-identical to what was put, and distinct keys never collide.
#[test]
fn concurrent_cache_puts_and_gets_race_safely() {
    let (handle, join) = spawn_server(StageCache::default());
    let addr = handle.addr();

    const SHARED_KEY: u128 = 0xfeed_0001;
    const THREADS: usize = 8;
    let shared = stage_entry_bytes(7);
    let barrier = Arc::new(Barrier::new(THREADS));
    let fresh_flags: Vec<bool> = (0..THREADS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let shared = shared.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                // Everyone races the shared key, then puts a key of its
                // own, then reads both back.
                let fresh_shared = client
                    .cache_put(SHARED_KEY, shared.clone())
                    .expect("shared put");
                let own_key = 0x1000 + i as u128;
                let own = stage_entry_bytes(100 + i as u64);
                assert!(
                    client.cache_put(own_key, own.clone()).expect("own put"),
                    "a distinct key is always fresh"
                );
                assert_eq!(
                    client.cache_get(SHARED_KEY).expect("shared get"),
                    Some(shared.clone()),
                    "shared entry must read back byte-identical"
                );
                assert_eq!(
                    client.cache_get(own_key).expect("own get"),
                    Some(own),
                    "own entry must read back byte-identical"
                );
                fresh_shared
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    assert_eq!(
        fresh_flags.iter().filter(|f| **f).count(),
        1,
        "exactly one racer's put of the shared key may be fresh"
    );

    // Node-tier entries travel the same way.
    let mut client = Client::connect(addr).expect("connect");
    let node = encode_entry(
        &Entry::Node(Arc::new(NodeArtifact::Vhdl(
            "entity probe is end;".to_string(),
        ))),
        FORMAT_VERSION,
    );
    assert!(client.cache_put(42, node.clone()).expect("node put"));
    assert_eq!(
        client.cache_get(42).expect("node get"),
        Some(node),
        "node entry must read back byte-identical"
    );
    assert_eq!(client.cache_get(43).expect("node miss"), None);

    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.puts_rejected, 0);
    assert!(
        stats.puts_accepted >= THREADS as u64 + 2,
        "all valid puts accepted: {stats:?}"
    );

    handle.shutdown();
    join.join().expect("server thread");
}

/// Corrupt or version-skewed puts are rejected with a clean error —
/// validated with the same totality as a `DiskStore` read — and never
/// land in the store; the connection survives the rejection.
#[test]
fn corrupt_and_version_skewed_puts_are_rejected_and_never_stored() {
    let (handle, join) = spawn_server(StageCache::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A bit flip breaks the entry checksum.
    let mut corrupt = stage_entry_bytes(9);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    match client.cache_put(0xdead, corrupt) {
        Err(ServeError::Server(msg)) => {
            assert!(msg.contains("rejected cache put"), "got: {msg}")
        }
        other => panic!("corrupt put must be rejected, got {other:?}"),
    }

    // A foreign format version is rejected even with a valid checksum.
    let skewed = encode_entry_with_version(
        &Artifacts::default(),
        &[],
        Duration::from_millis(9),
        FORMAT_VERSION + 1,
    );
    match client.cache_put(0xbeef, skewed) {
        Err(ServeError::Server(msg)) => {
            assert!(msg.contains("rejected cache put"), "got: {msg}")
        }
        other => panic!("version-skewed put must be rejected, got {other:?}"),
    }

    // Truncated node bytes are rejected the same way.
    let node = encode_entry(
        &Entry::Node(Arc::new(NodeArtifact::Vhdl("entity x is end;".to_string()))),
        FORMAT_VERSION,
    );
    match client.cache_put(0xcafe, node[..node.len() / 2].to_vec()) {
        Err(ServeError::Server(msg)) => {
            assert!(msg.contains("rejected cache put"), "got: {msg}")
        }
        other => panic!("truncated node put must be rejected, got {other:?}"),
    }

    // Nothing landed, the connection survived, and the daemon counted
    // the rejections.
    assert_eq!(client.cache_get(0xdead).expect("get"), None);
    assert_eq!(client.cache_get(0xbeef).expect("get"), None);
    assert_eq!(client.cache_get(0xcafe).expect("get"), None);
    let stats = client.cache_stats().expect("stats on the same connection");
    assert_eq!(stats.puts_rejected, 3, "{stats:?}");
    assert_eq!(stats.puts_accepted, 0, "{stats:?}");
    assert_eq!(stats.entries, 0, "a rejected put must never be stored");
    assert_eq!(stats.node_entries, 0, "a rejected put must never be stored");

    // And a good put still works afterwards.
    assert!(client
        .cache_put(0xfeed, stage_entry_bytes(3))
        .expect("valid put after rejections"));

    handle.shutdown();
    join.join().expect("server thread");
}

/// Daemons never chain: a cache with a remote tier cannot back a
/// daemon, so every put a daemon accepts stays on that daemon.
#[test]
fn bind_refuses_a_cache_with_a_remote_tier() {
    let chained = StageCache::default().with_remote(Arc::new(RemoteStore::new("127.0.0.1:9")));
    let err = Server::bind("127.0.0.1:0", chained).expect_err("a chained daemon must not bind");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("never chain"), "{err}");
}

#[test]
fn shutdown_request_stops_the_accept_loop() {
    let (handle, join) = spawn_server(StageCache::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown handshake");
    join.join().expect("accept loop exits");
}
