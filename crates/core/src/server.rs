//! `coold` — a resident co-synthesis daemon.
//!
//! Spawning a fresh `cool` process per flow pays the full cost of a cold
//! [`StageCache`] every time: the disk tier softens it, but the in-memory
//! tier (and the node tier inside it) starts empty, and concurrent
//! invocations of the *same* spec each synthesize independently.  This
//! module keeps one hot process resident instead:
//!
//! * [`Server`] listens on a local TCP socket and speaks a small framed
//!   protocol built from the canonical [`cool_ir::codec`] wire format
//!   ([`cool_ir::codec::write_frame`] / [`read_frame`]) — no new
//!   dependencies, no textual re-parsing of artifacts.
//! * One [`StageCache`] (optionally disk-backed) is shared by every
//!   connection, so a client's flow reuses stage deltas any earlier
//!   client produced.
//! * Identical in-flight requests are **coalesced**: when N clients ask
//!   for the same spec/target/options while a synthesis is running, one
//!   leader runs the flow, encodes the response bytes once, and every
//!   waiter receives those exact bytes.  A thundering herd of the same
//!   spec costs one synthesis.
//!
//! Coalescing is keyed on *content*: the [`ContentHash`] of the parsed
//! graph, the target, and the options — so two textually different specs
//! that parse to the same graph share a flight, and a knob that cannot
//! change artifact bytes (`jobs`) does not split flights.
//! The wire codecs, by contrast, carry **every** knob verbatim: a served
//! request must run with exactly the options the client sent.
//!
//! The daemon is also the remote tier of other processes' caches:
//! [`Request::CacheGet`] and [`Request::CachePut`] carry raw `.cce`
//! entry bytes of either kind (the kind byte travels inside the entry),
//! and [`Request::CacheStats`] reports the store.  A daemon's own cache
//! never has a remote tier — [`Server::bind`] refuses one — so daemons
//! never chain.
//!
//! Protocol: each request is one frame holding a [`Request`]; each reply
//! is one frame holding a [`Response`].  A connection may pipeline any
//! number of request/response pairs; a clean client close (EOF between
//! frames) ends the connection.  Malformed frames or undecodable requests
//! earn a best-effort [`Response::Error`] and a dropped connection — they
//! never reach the flow engine, so they cannot poison the cache.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use cool_ir::codec::{
    from_bytes, read_frame, to_bytes, write_frame, Codec, CodecError, Decoder, Encoder,
};
use cool_ir::hash::{ContentHash, ContentHasher};
use cool_ir::Target;
use cool_partition::Optimality;

use crate::cache::StageCache;
use crate::session::FlowSession;
use crate::timing::FlowTrace;
use crate::FlowOptions;

/// Default listen address for `cool serve` (2665 spells COOL on a phone
/// keypad).  Loopback only: the protocol has no authentication.
pub const DEFAULT_ADDR: &str = "127.0.0.1:2665";

/// Default idle read timeout applied to every accepted connection: a
/// half-open client (crashed mid-frame, network partition) would
/// otherwise hold its handler thread forever.  Generous, because a
/// remote-cache client legitimately idles between stage computations;
/// [`Server::idle_timeout`] overrides it (tests use milliseconds).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// One flow to run on the daemon: the spec *source text* plus the same
/// knobs a local [`FlowSession`] takes.  The server parses the spec, so
/// clients need nothing but the file contents.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRequest {
    /// Specification source (the contents of a `.cool` file).
    pub spec: String,
    /// Target board.
    pub target: Target,
    /// Flow knobs, carried verbatim (including wall-clock-only ones).
    pub options: FlowOptions,
}

impl Codec for FlowRequest {
    fn encode(&self, e: &mut Encoder) {
        self.spec.encode(e);
        self.target.encode(e);
        self.options.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<FlowRequest, CodecError> {
        Ok(FlowRequest {
            spec: String::decode(d)?,
            target: Target::decode(d)?,
            options: FlowOptions::decode(d)?,
        })
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or join) a full flow.
    Flow(FlowRequest),
    /// Run a flow, then simulate it with the given `(input, value)`
    /// assignments (unlisted primary inputs default to 0 server-side).
    Simulate(FlowRequest, Vec<(String, i64)>),
    /// Liveness probe.
    Ping,
    /// Ask the daemon to stop accepting connections and exit its accept
    /// loop once in-flight work drains.
    Shutdown,
    /// Fetch the cache entry under a key from the daemon's store, of
    /// either kind, as raw entry-file bytes (the exact format
    /// [`crate::DiskStore`] writes, kind byte included).
    CacheGet(u128),
    /// Offer a cache entry of either kind to the daemon's store.  The
    /// payload is one complete entry file; the daemon validates version,
    /// layout digest, checksum, kind byte and body with the same
    /// totality as a disk read and rejects anything malformed without
    /// storing it.
    CachePut(u128, Vec<u8>),
    /// Ask for the daemon's cache counters.
    CacheStats,
}

impl Codec for Request {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Request::Flow(req) => {
                e.put_u8(0);
                req.encode(e);
            }
            Request::Simulate(req, inputs) => {
                e.put_u8(1);
                req.encode(e);
                inputs.encode(e);
            }
            Request::Ping => e.put_u8(2),
            Request::Shutdown => e.put_u8(3),
            Request::CacheGet(key) => {
                e.put_u8(4);
                e.put_u128(*key);
            }
            Request::CachePut(key, bytes) => {
                e.put_u8(5);
                e.put_u128(*key);
                bytes.encode(e);
            }
            Request::CacheStats => e.put_u8(6),
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Request, CodecError> {
        match d.take_u8()? {
            0 => Ok(Request::Flow(FlowRequest::decode(d)?)),
            1 => Ok(Request::Simulate(
                FlowRequest::decode(d)?,
                Vec::<(String, i64)>::decode(d)?,
            )),
            2 => Ok(Request::Ping),
            3 => Ok(Request::Shutdown),
            4 => Ok(Request::CacheGet(d.take_u128()?)),
            5 => Ok(Request::CachePut(d.take_u128()?, Vec::<u8>::decode(d)?)),
            6 => Ok(Request::CacheStats),
            tag => Err(CodecError::InvalidTag {
                type_name: "Request",
                tag,
            }),
        }
    }
}

/// Everything a flow client needs: the human report, the generated
/// sources, the engine trace, and coalescing observability.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResponse {
    /// The textual flow report ([`crate::FlowArtifacts::report`]).
    pub report: String,
    /// Emitted VHDL units: `(file name, source)`.
    pub vhdl: Vec<(String, String)>,
    /// Generated C programs: `(file name, source)`.
    pub c_programs: Vec<(String, String)>,
    /// The shared-memory map header (`cool_memory.h`).
    pub memory_header: String,
    /// The engine timing journal of the run that produced these bytes.
    /// For a coalesced waiter this is the *leader's* trace.
    pub trace: FlowTrace,
    /// Partitioning optimality of the served result.
    pub optimality: Optimality,
    /// MILP gap, when partitioning stopped at a bound.
    pub gap: Option<f64>,
    /// Server-unique id of the flight that produced this response.
    /// Coalesced requests share it.
    pub flight: u64,
    /// Requests served by that flight at encode time (leader included),
    /// so a coalesced client can see it shared a synthesis.
    pub joined: u64,
}

impl FlowResponse {
    /// Stages the serving flight actually executed (cache misses).  A
    /// fully warm repeat request reports zero.
    #[must_use]
    pub fn stages_computed(&self) -> usize {
        self.trace.stages_computed()
    }
}

impl Codec for FlowResponse {
    fn encode(&self, e: &mut Encoder) {
        self.report.encode(e);
        self.vhdl.encode(e);
        self.c_programs.encode(e);
        self.memory_header.encode(e);
        self.trace.encode(e);
        self.optimality.encode(e);
        self.gap.encode(e);
        e.put_u64(self.flight);
        e.put_u64(self.joined);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<FlowResponse, CodecError> {
        Ok(FlowResponse {
            report: String::decode(d)?,
            vhdl: Vec::<(String, String)>::decode(d)?,
            c_programs: Vec::<(String, String)>::decode(d)?,
            memory_header: String::decode(d)?,
            trace: FlowTrace::decode(d)?,
            optimality: Optimality::decode(d)?,
            gap: Option::<f64>::decode(d)?,
            flight: d.take_u64()?,
            joined: d.take_u64()?,
        })
    }
}

/// Simulation results over the wire (a subset of `cool_sim::SimResult`
/// that the CLI prints).
#[derive(Debug, Clone, PartialEq)]
pub struct SimResponse {
    /// Final values of the primary outputs.
    pub outputs: Vec<(String, i64)>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Bus transfers observed.
    pub bus_transfers: u64,
    /// Cycles the bus was busy.
    pub bus_busy_cycles: u64,
}

impl Codec for SimResponse {
    fn encode(&self, e: &mut Encoder) {
        self.outputs.encode(e);
        e.put_u64(self.cycles);
        e.put_u64(self.bus_transfers);
        e.put_u64(self.bus_busy_cycles);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<SimResponse, CodecError> {
        Ok(SimResponse {
            outputs: Vec::<(String, i64)>::decode(d)?,
            cycles: d.take_u64()?,
            bus_transfers: d.take_u64()?,
            bus_busy_cycles: d.take_u64()?,
        })
    }
}

/// The daemon's cache counters, as served to `cool cache stats
/// --connect`: the fleet store's entry census plus how much remote
/// get/put traffic it has absorbed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStatsReply {
    /// Stage entries resident in the daemon's memory tier.
    pub entries: u64,
    /// Node entries resident in the daemon's memory tier.
    pub node_entries: u64,
    /// Remote `CacheGet` requests answered with an entry.
    pub serve_hits: u64,
    /// Remote `CacheGet` requests answered empty.  A `CacheGet` names no
    /// entry kind, so these misses are counted here only, not in the
    /// per-kind miss counters of `summary`.
    pub serve_misses: u64,
    /// Remote `CachePut` requests accepted and stored.
    pub puts_accepted: u64,
    /// Remote `CachePut` requests rejected (corrupt, version-skewed or
    /// truncated entry bytes) — never stored.
    pub puts_rejected: u64,
    /// The daemon cache's own human-readable summary
    /// ([`crate::CacheStats`] rendering, covering every tier it has).
    pub summary: String,
}

impl Codec for CacheStatsReply {
    fn encode(&self, e: &mut Encoder) {
        e.put_u64(self.entries);
        e.put_u64(self.node_entries);
        e.put_u64(self.serve_hits);
        e.put_u64(self.serve_misses);
        e.put_u64(self.puts_accepted);
        e.put_u64(self.puts_rejected);
        self.summary.encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<CacheStatsReply, CodecError> {
        Ok(CacheStatsReply {
            entries: d.take_u64()?,
            node_entries: d.take_u64()?,
            serve_hits: d.take_u64()?,
            serve_misses: d.take_u64()?,
            puts_accepted: d.take_u64()?,
            puts_rejected: d.take_u64()?,
            summary: String::decode(d)?,
        })
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed (or joined) flow.
    Flow(Box<FlowResponse>),
    /// A completed simulation.
    Sim(SimResponse),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// Anything that went wrong server-side, stringified
    /// ([`crate::FlowError`], spec parse errors, malformed requests).
    Error(String),
    /// Reply to [`Request::CacheGet`]: the raw entry-file bytes, or
    /// `None` on a store miss.
    CacheEntry(Option<Vec<u8>>),
    /// Reply to an accepted [`Request::CachePut`]; `true` when the entry
    /// was new to the daemon's memory tier, `false` when it already had
    /// it.
    CachePutDone(bool),
    /// Reply to [`Request::CacheStats`].
    CacheStatsReply(CacheStatsReply),
}

impl Codec for Response {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Response::Flow(r) => {
                e.put_u8(0);
                r.encode(e);
            }
            Response::Sim(r) => {
                e.put_u8(1);
                r.encode(e);
            }
            Response::Pong => e.put_u8(2),
            Response::ShuttingDown => e.put_u8(3),
            Response::Error(msg) => {
                e.put_u8(4);
                msg.encode(e);
            }
            Response::CacheEntry(bytes) => {
                e.put_u8(5);
                bytes.encode(e);
            }
            Response::CachePutDone(fresh) => {
                e.put_u8(6);
                e.put_bool(*fresh);
            }
            Response::CacheStatsReply(stats) => {
                e.put_u8(7);
                stats.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Response, CodecError> {
        match d.take_u8()? {
            0 => Ok(Response::Flow(Box::new(FlowResponse::decode(d)?))),
            1 => Ok(Response::Sim(SimResponse::decode(d)?)),
            2 => Ok(Response::Pong),
            3 => Ok(Response::ShuttingDown),
            4 => Ok(Response::Error(String::decode(d)?)),
            5 => Ok(Response::CacheEntry(Option::<Vec<u8>>::decode(d)?)),
            6 => Ok(Response::CachePutDone(d.take_bool()?)),
            7 => Ok(Response::CacheStatsReply(CacheStatsReply::decode(d)?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "Response",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// What can go wrong talking to (or running) the daemon.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// A frame arrived but its payload would not decode.
    Codec(CodecError),
    /// The server replied with [`Response::Error`].
    Server(String),
    /// The server replied with a well-formed but unexpected variant.
    Protocol(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Codec(e) => write!(f, "codec error: {e}"),
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Protocol(what) => write!(f, "protocol error: unexpected {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> ServeError {
        ServeError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// One coalesced synthesis: the leader publishes the encoded response
/// bytes into `payload`; waiters block on `ready`.
#[derive(Debug)]
struct Flight {
    payload: Mutex<Option<Arc<Vec<u8>>>>,
    ready: Condvar,
    /// Requests attached to this flight (leader included).
    joined: AtomicU64,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            payload: Mutex::new(None),
            ready: Condvar::new(),
            joined: AtomicU64::new(1),
        }
    }
}

#[derive(Debug)]
struct ServerState {
    cache: StageCache,
    addr: SocketAddr,
    /// In-flight flows by content key.  Entries are removed once the
    /// leader publishes, so late arrivals start a fresh (warm) flight.
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
    /// Monotonic flight id source.
    flights_started: AtomicU64,
    /// Flights that executed at least one stage — i.e. real synthesis
    /// work.  A fully cache-served flight does not count.
    syntheses: AtomicU64,
    /// Remote cache-get requests answered with an entry.
    cache_serve_hits: AtomicU64,
    /// Remote cache-get requests answered empty.
    cache_serve_misses: AtomicU64,
    /// Remote cache-put requests validated and stored.
    cache_puts_accepted: AtomicU64,
    /// Remote cache-put requests rejected as malformed (never stored).
    cache_puts_rejected: AtomicU64,
    shutting_down: AtomicBool,
}

/// A handle onto a running [`Server`]: observability + shutdown, safe to
/// clone into other threads (the CLI's signal path, tests).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Flights that executed at least one stage since startup.
    #[must_use]
    pub fn syntheses(&self) -> u64 {
        self.state.syntheses.load(Ordering::Relaxed)
    }

    /// Ask the accept loop to exit.  Idempotent; wakes the listener with
    /// a throwaway local connection so [`Server::run`] returns promptly.
    pub fn shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.state.addr);
    }
}

/// The resident daemon: a TCP accept loop over one shared [`StageCache`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    idle_timeout: Duration,
}

impl Server {
    /// Bind to `addr` (e.g. [`DEFAULT_ADDR`], or `127.0.0.1:0` for an
    /// ephemeral test port) sharing `cache` across all future clients.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `cache` has a remote tier:
    /// daemons never chain to other daemons, so every put a daemon
    /// accepts stays on that daemon.  Otherwise the bind error, if any.
    pub fn bind<A: ToSocketAddrs>(addr: A, cache: StageCache) -> io::Result<Server> {
        if cache.remote().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a daemon's cache must not have a remote tier: daemons never chain to \
                 other daemons",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                cache,
                addr,
                flights: Mutex::new(HashMap::new()),
                flights_started: AtomicU64::new(0),
                syntheses: AtomicU64::new(0),
                cache_serve_hits: AtomicU64::new(0),
                cache_serve_misses: AtomicU64::new(0),
                cache_puts_accepted: AtomicU64::new(0),
                cache_puts_rejected: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
            }),
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        })
    }

    /// Override the idle read timeout applied to accepted connections
    /// (default [`DEFAULT_IDLE_TIMEOUT`]).  A connection that sends no
    /// frame for this long is dropped silently, freeing its handler
    /// thread; `None` disables the timeout.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Server {
        self.idle_timeout = timeout.unwrap_or(Duration::ZERO);
        self
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A cloneable observability/shutdown handle.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accept connections until [`ServerHandle::shutdown`] (or a
    /// [`Request::Shutdown`] frame) is seen.  One thread per connection;
    /// in-flight requests on open connections finish naturally, and each
    /// surviving connection is severed at its next frame boundary.  Every
    /// accepted socket gets the idle read timeout, so a half-open client
    /// cannot hold its handler thread forever.
    pub fn run(self) -> io::Result<()> {
        let timeout = (self.idle_timeout > Duration::ZERO).then_some(self.idle_timeout);
        for conn in self.listener.incoming() {
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let _ = stream.set_read_timeout(timeout);
            let state = Arc::clone(&self.state);
            thread::spawn(move || handle_connection(&state, stream));
        }
        Ok(())
    }
}

/// Frame loop for one client.  Clean EOF between frames ends the
/// connection; an idle-timeout expiry drops it silently (the half-open
/// client is gone — nobody is reading error replies); anything malformed
/// earns a best-effort error reply and a drop, *before* any engine or
/// cache interaction.
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let mut stream = stream;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            // The idle read timeout fired (Unix reports WouldBlock,
            // Windows TimedOut): a clean idle drop, not a protocol
            // violation.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return;
            }
            Err(_) => {
                let bytes = to_bytes(&Response::Error("malformed frame".to_string()));
                let _ = write_frame(&mut stream, &bytes);
                return;
            }
        };
        // A daemon being shut down severs surviving connections at the
        // next frame boundary (in-flight requests already finished):
        // pooled clients see the drop immediately and fail over to their
        // local tiers instead of talking to a half-dead server.
        if state.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let reply: Arc<Vec<u8>> = match from_bytes::<Request>(&payload) {
            // An unknown-but-well-framed request *kind* (a newer client
            // speaking the same frame version) is a per-request error,
            // not a protocol violation: answer it and keep the
            // connection — and the shared cache it may be warming —
            // alive for the requests this server does understand.
            Err(CodecError::InvalidTag {
                type_name: "Request",
                tag,
            }) => {
                let bytes = to_bytes(&Response::Error(format!(
                    "unsupported request kind (tag {tag}); this server understands \
                     flow/simulate/ping/shutdown/cache-get/cache-put/cache-stats"
                )));
                if write_frame(&mut stream, &bytes).is_err() {
                    return;
                }
                continue;
            }
            Err(e) => {
                let bytes = to_bytes(&Response::Error(format!("malformed request: {e}")));
                let _ = write_frame(&mut stream, &bytes);
                return;
            }
            Ok(Request::Ping) => Arc::new(to_bytes(&Response::Pong)),
            Ok(Request::Shutdown) => {
                let bytes = to_bytes(&Response::ShuttingDown);
                let _ = write_frame(&mut stream, &bytes);
                ServerHandle {
                    state: Arc::clone(state),
                }
                .shutdown();
                return;
            }
            Ok(Request::Flow(req)) => serve_flow(state, &req),
            Ok(Request::Simulate(req, inputs)) => Arc::new(serve_simulate(state, &req, &inputs)),
            Ok(Request::CacheGet(key)) => Arc::new(to_bytes(&serve_cache_get(state, key))),
            Ok(Request::CachePut(key, bytes)) => {
                Arc::new(to_bytes(&serve_cache_put(state, key, &bytes)))
            }
            Ok(Request::CacheStats) => Arc::new(to_bytes(&serve_cache_stats(state))),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Remote-cache service: raw entry bytes in, raw entry bytes out
// ---------------------------------------------------------------------------

/// Serve an entry of either kind from the daemon's cache as raw
/// entry-file bytes.  A hit re-encodes through the canonical entry codec,
/// so the bytes a client receives are exactly what a local `DiskStore`
/// write would have produced — the client re-validates and
/// re-materializes them into its own disk tier unchanged.
fn serve_cache_get(state: &ServerState, key: u128) -> Response {
    let entry = state.cache.lookup_entry(key);
    let counter = if entry.is_some() {
        &state.cache_serve_hits
    } else {
        &state.cache_serve_misses
    };
    counter.fetch_add(1, Ordering::Relaxed);
    Response::CacheEntry(entry.map(|e| crate::disk::encode_entry(&e, crate::disk::FORMAT_VERSION)))
}

/// Validate an offered entry with the same totality as a `DiskStore`
/// read — magic, version, layout digest, checksum, kind byte, codec
/// decode — and store it with the cache's ordinary insert, which files
/// it under the kind byte inside the entry.  A malformed put is rejected
/// with a clean [`Response::Error`], never stored, and the connection
/// stays alive.
fn serve_cache_put(state: &ServerState, key: u128, bytes: &[u8]) -> Response {
    match crate::disk::decode_entry(bytes) {
        Some(entry) => {
            state.cache_puts_accepted.fetch_add(1, Ordering::Relaxed);
            Response::CachePutDone(state.cache.insert_entry(key, entry))
        }
        None => {
            state.cache_puts_rejected.fetch_add(1, Ordering::Relaxed);
            Response::Error(
                "rejected cache put: entry bytes failed validation (corrupt, truncated \
                 or foreign format version)"
                    .to_string(),
            )
        }
    }
}

/// The daemon's cache counters.
fn serve_cache_stats(state: &ServerState) -> Response {
    let stats = state.cache.stats();
    Response::CacheStatsReply(CacheStatsReply {
        entries: stats.entries as u64,
        node_entries: stats.node_entries as u64,
        serve_hits: state.cache_serve_hits.load(Ordering::Relaxed),
        serve_misses: state.cache_serve_misses.load(Ordering::Relaxed),
        puts_accepted: state.cache_puts_accepted.load(Ordering::Relaxed),
        puts_rejected: state.cache_puts_rejected.load(Ordering::Relaxed),
        summary: stats.summary(),
    })
}

/// Content key for coalescing: what the *artifacts* depend on.  Uses
/// [`ContentHash`] (not the wire encoding), so `jobs` changes and spec
/// reformattings share a flight — they cannot change output bytes.
fn flight_key(graph: &cool_ir::PartitioningGraph, target: &Target, options: &FlowOptions) -> u128 {
    let mut h = ContentHasher::new();
    graph.content_hash(&mut h);
    target.content_hash(&mut h);
    options.content_hash(&mut h);
    h.finish()
}

/// Run (or join) a flow; always returns encoded [`Response`] bytes.  The
/// leader encodes once; every waiter shares that allocation, so coalesced
/// responses are byte-identical by construction.
fn serve_flow(state: &Arc<ServerState>, req: &FlowRequest) -> Arc<Vec<u8>> {
    let graph = match cool_spec::parse(&req.spec) {
        Ok(graph) => graph,
        Err(e) => return Arc::new(to_bytes(&Response::Error(format!("spec error: {e}")))),
    };
    let key = flight_key(&graph, &req.target, &req.options);

    let (flight, leader) = {
        let mut flights = state.flights.lock().unwrap();
        match flights.get(&key) {
            Some(flight) => {
                flight.joined.fetch_add(1, Ordering::Relaxed);
                (Arc::clone(flight), false)
            }
            None => {
                let flight = Arc::new(Flight::new());
                flights.insert(key, Arc::clone(&flight));
                (Arc::clone(&flight), true)
            }
        }
    };

    if leader {
        let id = state.flights_started.fetch_add(1, Ordering::Relaxed);
        let bytes = Arc::new(run_flight(state, &graph, req, id, &flight));
        *flight.payload.lock().unwrap() = Some(Arc::clone(&bytes));
        flight.ready.notify_all();
        state.flights.lock().unwrap().remove(&key);
        bytes
    } else {
        let mut slot = flight.payload.lock().unwrap();
        while slot.is_none() {
            slot = flight.ready.wait(slot).unwrap();
        }
        Arc::clone(slot.as_ref().unwrap())
    }
}

/// The leader's synthesis: one [`FlowSession`] over the shared cache.
fn run_flight(
    state: &ServerState,
    graph: &cool_ir::PartitioningGraph,
    req: &FlowRequest,
    id: u64,
    flight: &Flight,
) -> Vec<u8> {
    let result = FlowSession::new(graph)
        .target(req.target.clone())
        .options(req.options.clone())
        .cache(state.cache.clone())
        .run();
    let response = match result {
        Ok(art) => {
            if art.trace.cache_misses() > 0 {
                state.syntheses.fetch_add(1, Ordering::Relaxed);
            }
            Response::Flow(Box::new(FlowResponse {
                report: art.report(),
                vhdl: art.vhdl.clone(),
                c_programs: art
                    .c_programs
                    .iter()
                    .map(|p| (p.file_name.clone(), p.source.clone()))
                    .collect(),
                memory_header: cool_codegen::emit_memory_header(graph, &art.memory_map),
                trace: art.trace.clone(),
                optimality: art.partition.optimality,
                gap: art.partition.gap,
                flight: id,
                joined: flight.joined.load(Ordering::Relaxed),
            }))
        }
        Err(e) => Response::Error(e.to_string()),
    };
    to_bytes(&response)
}

/// Flow + simulate.  Simulation results depend on the input vector, so
/// these are not coalesced; the flow underneath still hits the shared
/// cache (and any flight another client is running populates it).
fn serve_simulate(state: &ServerState, req: &FlowRequest, inputs: &[(String, i64)]) -> Vec<u8> {
    let response = serve_simulate_inner(state, req, inputs).unwrap_or_else(Response::Error);
    to_bytes(&response)
}

fn serve_simulate_inner(
    state: &ServerState,
    req: &FlowRequest,
    inputs: &[(String, i64)],
) -> Result<Response, String> {
    let graph = cool_spec::parse(&req.spec).map_err(|e| format!("spec error: {e}"))?;
    let art = FlowSession::new(&graph)
        .target(req.target.clone())
        .options(req.options.clone())
        .cache(state.cache.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let mut map: BTreeMap<String, i64> = inputs.iter().cloned().collect();
    for id in graph.primary_inputs() {
        let name = graph
            .node(id)
            .map_err(|e| e.to_string())?
            .name()
            .to_string();
        map.entry(name).or_insert(0);
    }
    let sim = art.simulate(&map).map_err(|e| e.to_string())?;
    Ok(Response::Sim(SimResponse {
        outputs: sim.outputs.into_iter().collect(),
        cycles: sim.cycles,
        bus_transfers: sim.bus_transfers as u64,
        bus_busy_cycles: sim.bus_busy_cycles,
    }))
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client for one daemon connection.  Requests pipeline over
/// the single stream; drop the client (or let it fall out of scope) to
/// close cleanly.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Wrap an already-connected stream (lets callers dial with their
    /// own connect timeout via [`TcpStream::connect_timeout`]).
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Client {
        Client { stream }
    }

    /// Bound every read and write on the connection (`None` removes the
    /// bound). [`crate::remote::RemoteStore`] sets this so a hung daemon
    /// degrades a flow to local-only instead of wedging it.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Send one request frame and decode the reply frame.
    pub fn request(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &to_bytes(request))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ServeError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Ok(from_bytes::<Response>(&payload)?)
    }

    /// Run (or join) a flow on the daemon.
    pub fn flow(&mut self, request: FlowRequest) -> Result<FlowResponse, ServeError> {
        match self.request(&Request::Flow(request))? {
            Response::Flow(r) => Ok(*r),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to Flow")),
        }
    }

    /// Run a flow and simulate it with the given input assignments.
    pub fn simulate(
        &mut self,
        request: FlowRequest,
        inputs: Vec<(String, i64)>,
    ) -> Result<SimResponse, ServeError> {
        match self.request(&Request::Simulate(request, inputs))? {
            Response::Sim(r) => Ok(r),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to Simulate")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to Ping")),
        }
    }

    /// Ask the daemon to shut down.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to Shutdown")),
        }
    }

    /// Fetch the raw bytes of the entry under `key`, of either kind,
    /// from the daemon's store.
    pub fn cache_get(&mut self, key: u128) -> Result<Option<Vec<u8>>, ServeError> {
        match self.request(&Request::CacheGet(key))? {
            Response::CacheEntry(bytes) => Ok(bytes),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to CacheGet")),
        }
    }

    /// Offer one entry of either kind to the daemon's store; `Ok(true)`
    /// when the daemon stored it fresh.
    pub fn cache_put(&mut self, key: u128, bytes: Vec<u8>) -> Result<bool, ServeError> {
        match self.request(&Request::CachePut(key, bytes))? {
            Response::CachePutDone(fresh) => Ok(fresh),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to CachePut")),
        }
    }

    /// The daemon's cache counters.
    pub fn cache_stats(&mut self) -> Result<CacheStatsReply, ServeError> {
        match self.request(&Request::CacheStats)? {
            Response::CacheStatsReply(stats) => Ok(stats),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to CacheStats")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowOptions;

    fn tiny_request() -> FlowRequest {
        FlowRequest {
            spec: "design tiny { out y = a + b; }".to_string(),
            target: Target::fuzzy_board(),
            options: FlowOptions::quick(),
        }
    }

    #[test]
    fn request_and_response_roundtrip() {
        let reqs = [
            Request::Flow(tiny_request()),
            Request::Simulate(tiny_request(), vec![("a".to_string(), 3)]),
            Request::Ping,
            Request::Shutdown,
            Request::CacheGet(0xfeed_beef),
            Request::CachePut(0xfeed_beef, vec![1, 2, 3]),
            Request::CacheStats,
        ];
        for req in &reqs {
            let bytes = to_bytes(req);
            assert_eq!(&from_bytes::<Request>(&bytes).unwrap(), req);
        }
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Error("nope".to_string()),
            Response::Sim(SimResponse {
                outputs: vec![("x".to_string(), 7)],
                cycles: 12,
                bus_transfers: 2,
                bus_busy_cycles: 4,
            }),
            Response::CacheEntry(None),
            Response::CacheEntry(Some(vec![9, 8, 7])),
            Response::CachePutDone(true),
            Response::CacheStatsReply(CacheStatsReply {
                entries: 3,
                node_entries: 4,
                serve_hits: 5,
                serve_misses: 6,
                puts_accepted: 7,
                puts_rejected: 8,
                summary: "stage cache: …".to_string(),
            }),
        ];
        for resp in &resps {
            let bytes = to_bytes(resp);
            assert_eq!(&from_bytes::<Response>(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn foreign_tags_are_rejected() {
        assert!(matches!(
            from_bytes::<Request>(&[9]),
            Err(CodecError::InvalidTag {
                type_name: "Request",
                tag: 9
            })
        ));
        assert!(matches!(
            from_bytes::<Response>(&[9]),
            Err(CodecError::InvalidTag {
                type_name: "Response",
                tag: 9
            })
        ));
    }
}
