//! `coold` — the resident cache store behind `--cache-remote`.
//!
//! A worker's [`StageCache`] has three tiers: memory, disk and remote.
//! This module is the remote one: [`Server`] listens on a local TCP
//! socket and keeps one [`StageCache`] (optionally disk-backed) that
//! every worker shares, so a stage one worker computed is a remote hit
//! for the next, even on a machine with an empty `.cool-cache/`.  The
//! daemon never runs a flow: workers compute, and it only stores and
//! returns entries.
//!
//! [`Request::CacheGet`] and [`Request::CachePut`] carry raw `.cce` entry
//! bytes of either kind (the kind byte travels inside the entry),
//! [`Request::CacheStats`] reports the store, and [`Request::Ping`]
//! measures a round trip.  A daemon's own cache never has a remote tier
//! — [`Server::bind`] refuses one — so daemons never chain.
//!
//! Protocol: each request is one frame holding a [`Request`], built from
//! the canonical [`cool_ir::codec`] wire format
//! ([`cool_ir::codec::write_frame`] / [`read_frame`]); each reply is one
//! frame holding a [`Response`].  A connection may pipeline any number
//! of request/response pairs; a clean client close (EOF between frames)
//! ends the connection.  A well-framed request of a kind this server
//! does not know gets a [`Response::Error`] and the connection stays
//! open; malformed frames or undecodable requests earn a best-effort
//! [`Response::Error`] and a dropped connection — they never reach the
//! store, so they cannot poison it.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cool_ir::codec::{
    from_bytes, read_frame, to_bytes, write_frame, Codec, CodecError, Decoder, Encoder,
};

use crate::cache::StageCache;

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

/// A client-to-server message.  Wire tags 0, 1 and 3 belonged to the
/// retired flow, simulate and shutdown requests and stay unused, so they
/// decode as unknown kinds (see [`cool_ir::codec::FRAME_VERSION`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
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
            Request::Ping => e.put_u8(2),
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
            2 => Ok(Request::Ping),
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

/// A server-to-client message.  Wire tags 0, 1 and 3 belonged to the
/// retired flow, simulation and shutdown replies and stay unused.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Anything that went wrong server-side, stringified (rejected puts,
    /// unsupported or malformed requests).
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
            Response::Pong => e.put_u8(2),
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
            2 => Ok(Response::Pong),
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

#[derive(Debug)]
struct ServerState {
    cache: StageCache,
    addr: SocketAddr,
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

    /// Accept connections until [`ServerHandle::shutdown`] is called.
    /// One thread per connection; in-flight requests on open connections
    /// finish naturally, and each surviving connection is severed at its
    /// next frame boundary.  Every accepted socket gets the idle read
    /// timeout, so a half-open client cannot hold its handler thread
    /// forever.
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
/// earns a best-effort error reply and a drop, *before* any cache
/// interaction.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
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
        let reply = match from_bytes::<Request>(&payload) {
            // An unknown-but-well-framed request *kind* (a newer client
            // speaking the same frame version) is a per-request error,
            // not a protocol violation: answer it and keep the
            // connection — and the shared cache it may be warming —
            // alive for the requests this server does understand.
            Err(CodecError::InvalidTag {
                type_name: "Request",
                tag,
            }) => Response::Error(format!(
                "unsupported request kind (tag {tag}); this server understands \
                 ping/cache-get/cache-put/cache-stats"
            )),
            Err(e) => {
                let bytes = to_bytes(&Response::Error(format!("malformed request: {e}")));
                let _ = write_frame(&mut stream, &bytes);
                return;
            }
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::CacheGet(key)) => serve_cache_get(state, key),
            Ok(Request::CachePut(key, bytes)) => serve_cache_put(state, key, &bytes),
            Ok(Request::CacheStats) => serve_cache_stats(state),
        };
        if write_frame(&mut stream, &to_bytes(&reply)).is_err() {
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

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(msg) => Err(ServeError::Server(msg)),
            _ => Err(ServeError::Protocol("reply to Ping")),
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

    /// Every variant round-trips under the wire tag it has always had:
    /// retiring flow, simulate and shutdown moved no surviving tag.
    #[test]
    fn request_and_response_roundtrip() {
        let reqs = [
            (Request::Ping, 2),
            (Request::CacheGet(0xfeed_beef), 4),
            (Request::CachePut(0xfeed_beef, vec![1, 2, 3]), 5),
            (Request::CacheStats, 6),
        ];
        for (req, tag) in &reqs {
            let bytes = to_bytes(req);
            assert_eq!(bytes[0], *tag, "{req:?}");
            assert_eq!(&from_bytes::<Request>(&bytes).unwrap(), req);
        }
        let resps = [
            (Response::Pong, 2),
            (Response::Error("nope".to_string()), 4),
            (Response::CacheEntry(None), 5),
            (Response::CacheEntry(Some(vec![9, 8, 7])), 5),
            (Response::CachePutDone(true), 6),
            (
                Response::CacheStatsReply(CacheStatsReply {
                    entries: 3,
                    node_entries: 4,
                    serve_hits: 5,
                    serve_misses: 6,
                    puts_accepted: 7,
                    puts_rejected: 8,
                    summary: "stage cache: …".to_string(),
                }),
                7,
            ),
        ];
        for (resp, tag) in &resps {
            let bytes = to_bytes(resp);
            assert_eq!(bytes[0], *tag, "{resp:?}");
            assert_eq!(&from_bytes::<Response>(&bytes).unwrap(), resp);
        }
    }

    /// Unknown tags, the retired ones (0, 1 and 3) among them, decode as
    /// `InvalidTag`, which the server answers without closing.
    #[test]
    fn foreign_tags_are_rejected() {
        for foreign in [0, 1, 3, 9] {
            assert!(matches!(
                from_bytes::<Request>(&[foreign]),
                Err(CodecError::InvalidTag {
                    type_name: "Request",
                    tag,
                }) if tag == foreign
            ));
            assert!(matches!(
                from_bytes::<Response>(&[foreign]),
                Err(CodecError::InvalidTag {
                    type_name: "Response",
                    tag,
                }) if tag == foreign
            ));
        }
    }
}
