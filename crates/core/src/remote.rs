//! The remote fleet tier of the [`crate::StageCache`]: a reconnecting,
//! non-failing client for the cache verbs of the `coold` protocol.
//!
//! A [`RemoteStore`] turns one `coold` daemon into a shared
//! content-addressed store for a fleet of sweep workers. It has one get
//! ([`RemoteStore::get_stage`]) and one put ([`RemoteStore::put`]) for
//! both entry kinds: each carries the exact versioned/checksummed entry
//! bytes the [`crate::disk::DiskStore`] format defines, kind byte
//! included, so both ends validate payloads with the same totality and a
//! remote hit re-materializes to a byte-identical local `.cce` entry.
//!
//! Every operation is **non-failing by design**: an unreachable or hung
//! daemon makes the operation report "nothing found" / "nothing stored"
//! and the flow degrades to local-only. The store warns on stderr once
//! per outage streak (like `cool watch`'s read-error handling) and stays
//! silent until the daemon recovers and fails again. All I/O is bounded
//! by [`RemoteStore::DEFAULT_IO_TIMEOUT`] so a half-dead peer cannot
//! wedge a sweep worker.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::server::{Client, ServeError};

/// Counters a [`RemoteStore`] accumulates, merged into
/// [`crate::CacheStats`] by [`crate::StageCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteCounters {
    /// Gets that returned an entry.
    pub hits: u64,
    /// Gets that reached the daemon and found nothing.
    pub misses: u64,
    /// Puts the daemon acknowledged.
    pub puts: u64,
    /// Operations dropped because the daemon was unreachable.
    pub errors: u64,
    /// Wall-clock spent on round-trips (gets and puts combined).
    pub roundtrip: Duration,
}

/// A handle on one `coold` daemon acting as a fleet-wide cache shard.
///
/// The connection is lazy and pooled: the first operation dials the
/// daemon, later operations reuse the stream, and any I/O error drops it
/// so the next operation redials. Eviction on the far side is owned by
/// the daemon (its byte-size cap + LRU); this client never deletes.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    conn: Mutex<Option<Client>>,
    /// `Some(message)` while an outage streak is in progress — the warn
    /// already happened; reset to `None` by the next success.
    outage: Mutex<Option<String>>,
    counters: Mutex<RemoteCounters>,
}

impl RemoteStore {
    /// Bound on connecting to the daemon.
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(3);

    /// Bound on each read/write once connected. Generous next to a LAN
    /// round-trip but far below a wedged flow.
    pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

    /// A store pointed at `addr` (e.g. `127.0.0.1:7878`). Does not dial —
    /// the first operation does, so constructing a store can never fail.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> RemoteStore {
        RemoteStore {
            addr: addr.into(),
            conn: Mutex::new(None),
            outage: Mutex::new(None),
            counters: Mutex::default(),
        }
    }

    /// The daemon address this store dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Fetch the raw bytes of the entry under `key`, whatever its kind:
    /// the kind byte travels inside the entry, and the caller's decoder
    /// checks it. `None` on miss *or* on any network failure (the flow
    /// must not distinguish them).
    #[must_use]
    pub fn get_stage(&self, key: u128) -> Option<Vec<u8>> {
        let bytes = self.roundtrip("get", |client| client.cache_get(key))?;
        let mut counters = self.count();
        if bytes.is_some() {
            counters.hits += 1;
        } else {
            counters.misses += 1;
        }
        bytes
    }

    /// Offer one entry of either kind to the daemon. Best-effort: a
    /// failure is counted and warned about, never surfaced.
    pub fn put(&self, key: u128, bytes: Vec<u8>) {
        if self
            .roundtrip("put", |client| client.cache_put(key, bytes))
            .is_some()
        {
            self.count().puts += 1;
        }
    }

    /// Snapshot of the accumulated counters.
    #[must_use]
    pub fn counters(&self) -> RemoteCounters {
        *self.count()
    }

    fn count(&self) -> MutexGuard<'_, RemoteCounters> {
        self.counters.lock().expect("remote store poisoned")
    }

    /// Run `call` against the pooled connection (dialing if needed),
    /// timing the round-trip. Any failure drops the connection, counts an
    /// error, warns once per outage streak and yields `None`.
    fn roundtrip<T>(
        &self,
        op: &str,
        call: impl FnOnce(&mut Client) -> Result<T, ServeError>,
    ) -> Option<T> {
        let start = Instant::now();
        let result = {
            let mut conn = self.conn.lock().expect("remote store poisoned");
            match conn.take().map_or_else(|| self.dial(), Ok) {
                Ok(mut client) => {
                    let result = call(&mut client);
                    // Keep the stream only on success: after a failure the
                    // framing may be desynchronized, and a dead daemon
                    // should be redialed, not retried.
                    if result.is_ok() {
                        *conn = Some(client);
                    }
                    result
                }
                Err(e) => Err(ServeError::Io(e)),
            }
        };
        self.count().roundtrip += start.elapsed();
        match result {
            Ok(value) => {
                *self.outage.lock().expect("remote store poisoned") = None;
                Some(value)
            }
            Err(e) => {
                self.note_error(op, &e.to_string());
                None
            }
        }
    }

    fn dial(&self) -> std::io::Result<Client> {
        let addr = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, RemoteStore::DEFAULT_CONNECT_TIMEOUT)?;
        let client = Client::from_stream(stream);
        client.set_io_timeout(Some(RemoteStore::DEFAULT_IO_TIMEOUT))?;
        Ok(client)
    }

    /// Count the error and warn on stderr once per outage streak.
    fn note_error(&self, op: &str, message: &str) {
        self.count().errors += 1;
        let mut outage = self.outage.lock().expect("remote store poisoned");
        if outage.is_none() {
            eprintln!(
                "warning: remote cache at {} unavailable ({op}: {message}); \
                 continuing local-only until it recovers",
                self.addr,
            );
        }
        *outage = Some(message.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_daemon_degrades_to_none_and_counts_errors() {
        // Reserved port 9 on localhost refuses or times out immediately on
        // typical CI hosts; either way the op must degrade, not panic.
        let store = RemoteStore::new("127.0.0.1:9");
        assert!(store.get_stage(1).is_none());
        store.put(2, vec![1, 2, 3]);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.puts), (0, 0, 0));
        assert_eq!(c.errors, 2);
    }

    #[test]
    fn counters_start_zero_and_addr_is_kept() {
        let store = RemoteStore::new("example.invalid:1");
        assert_eq!(store.addr(), "example.invalid:1");
        assert_eq!(store.counters(), RemoteCounters::default());
    }
}
