//! The `coold` daemon battery.
//!
//! Three contracts:
//!
//! * **Byte identity** — an entry put into the daemon reads back byte
//!   for byte, under concurrent puts and gets of shared and distinct
//!   keys, for stage and node entries alike.
//! * **Validation** — corrupt, truncated and version-skewed puts are
//!   rejected and never stored; a daemon's cache cannot chain to another
//!   daemon.
//! * **Robustness** — malformed frames and undecodable requests are
//!   rejected before they reach the store, a request kind the server
//!   does not know (including the retired flow, simulate and shutdown
//!   tags) gets an error and keeps its connection, and an idle
//!   connection is dropped without stopping the daemon.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use cool_core::cache::{Artifacts, Entry};
use cool_core::disk::{encode_entry, encode_entry_with_version, FORMAT_VERSION};
use cool_core::server::{Client, Request, Response, ServeError, Server, ServerHandle};
use cool_core::{NodeArtifact, RemoteStore, StageCache};
use cool_ir::codec::{from_bytes, read_frame, to_bytes, write_frame};

/// Bind a daemon on an ephemeral port, run it on a background thread,
/// and hand back its observability handle plus the join handle.
fn spawn_server(cache: StageCache) -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cache).expect("bind");
    let handle = server.handle();
    let join = thread::spawn(move || server.run().expect("accept loop"));
    (handle, join)
}

/// The key the robustness tests seed the store under.
const SEEDED_KEY: u128 = 0x5eed;

/// Put one stage entry under [`SEEDED_KEY`], so a poisoned or dropped
/// store would be visible; returns the entry's bytes.
fn seed(client: &mut Client) -> Vec<u8> {
    let entry = stage_entry_bytes(5);
    assert!(client
        .cache_put(SEEDED_KEY, entry.clone())
        .expect("seed put"));
    entry
}

/// Read one reply frame and decode it as an error message.
fn error_reply(stream: &mut TcpStream) -> String {
    let payload = read_frame(stream)
        .expect("error reply frame")
        .expect("server replies before closing");
    match from_bytes::<Response>(&payload).expect("reply decodes") {
        Response::Error(msg) => msg,
        other => panic!("expected an error response, got {other:?}"),
    }
}

#[test]
fn malformed_frames_are_rejected_without_poisoning_the_cache() {
    let (handle, join) = spawn_server(StageCache::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let seeded = seed(&mut client);
    let before = client.cache_stats().expect("stats");

    // Raw garbage where a frame header belongs: the server answers with
    // an error frame (or just drops us) and closes the connection.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    raw.write_all(b"definitely not a COOLWIR frame header")
        .expect("write garbage");
    // A dropped connection (Ok(None)/Err) is also an acceptable
    // rejection; an error frame must decode and say what happened.
    if let Ok(Some(payload)) = read_frame(&mut raw) {
        match from_bytes::<Response>(&payload) {
            Ok(Response::Error(msg)) => assert!(msg.contains("malformed"), "got: {msg}"),
            other => panic!("expected an error response, got {other:?}"),
        }
    }
    let mut rest = Vec::new();
    let _ = raw.read_to_end(&mut rest); // the server must have closed

    // A well-framed payload that decodes as a known request kind but
    // runs out of bytes (a `CacheGet` without its key): rejected the
    // same way.
    let mut framed = TcpStream::connect(handle.addr()).expect("connect framed");
    write_frame(&mut framed, &[4]).expect("write frame");
    let msg = error_reply(&mut framed);
    assert!(msg.contains("malformed request"), "got: {msg}");

    // A truncated frame: half a valid put, then a hangup.
    let put = to_bytes(&Request::CachePut(0xbad, stage_entry_bytes(6)));
    let mut truncated = TcpStream::connect(handle.addr()).expect("connect truncated");
    let mut full = Vec::new();
    write_frame(&mut full, &put).expect("encode");
    truncated
        .write_all(&full[..full.len() / 2])
        .expect("write half");
    drop(truncated);

    // None of that reached the store: a fresh client still reads the
    // seeded bytes, and no put was accepted or rejected.
    let mut after = Client::connect(handle.addr()).expect("connect");
    assert_eq!(after.cache_get(SEEDED_KEY).expect("get"), Some(seeded));
    let stats = after.cache_stats().expect("stats");
    assert_eq!(stats.puts_accepted, before.puts_accepted, "{stats:?}");
    assert_eq!(stats.puts_rejected, 0, "{stats:?}");
    assert_eq!(stats.entries, before.entries, "{stats:?}");

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn unknown_request_kinds_get_an_error_frame_and_the_connection_survives() {
    let (handle, join) = spawn_server(StageCache::default());
    let seeded = seed(&mut Client::connect(handle.addr()).expect("connect"));

    // Well-framed requests of kinds this server does not know: the
    // retired flow (0), simulate (1) and shutdown (3) tags, and what a
    // newer client speaking the same frame version would send (9). Each
    // gets an error frame on the same connection, which stays open.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    for tag in [0u8, 1, 3, 9] {
        write_frame(&mut raw, &[tag]).expect("write unknown kind");
        let msg = error_reply(&mut raw);
        assert!(
            msg.contains(&format!("unsupported request kind (tag {tag})")),
            "got: {msg}"
        );
    }

    // The *same* connection keeps serving: a ping...
    write_frame(&mut raw, &to_bytes(&Request::Ping)).expect("write ping");
    let payload = read_frame(&mut raw)
        .expect("pong frame")
        .expect("connection stays open");
    assert_eq!(
        from_bytes::<Response>(&payload).expect("pong decodes"),
        Response::Pong
    );

    // ...and a get served from the store, which kept running.
    write_frame(&mut raw, &to_bytes(&Request::CacheGet(SEEDED_KEY))).expect("write get");
    let payload = read_frame(&mut raw)
        .expect("get reply frame")
        .expect("connection stays open");
    assert_eq!(
        from_bytes::<Response>(&payload).expect("get reply decodes"),
        Response::CacheEntry(Some(seeded))
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
