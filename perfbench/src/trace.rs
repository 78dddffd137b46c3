//! Spans recorded around the layer calls of a replayed operation.
//!
//! The program has no spans of its own yet, so the traced run replays
//! each operation's layer calls through the layer crates' public
//! functions and times each call here, in the benchmark's own code.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer totals over a run: busy time and call count per timed
/// layer, plus work counters.
#[derive(Debug, Default)]
pub struct Spans {
    times: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, f64>,
    spans: u64,
}

impl Spans {
    /// Run `f` as one call of `layer` and record its duration.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let e = self.times.entry(layer).or_default();
        e.0 += start.elapsed();
        e.1 += 1;
        self.spans += 1;
        out
    }

    /// Add `n` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Total busy time of `layer`.
    #[must_use]
    pub fn total(&self, layer: &str) -> Duration {
        self.times.get(layer).map_or(Duration::ZERO, |e| e.0)
    }

    /// Calls recorded for `layer`.
    #[must_use]
    pub fn calls(&self, layer: &str) -> u64 {
        self.times.get(layer).map_or(0, |e| e.1)
    }

    /// Total busy time of every layer.
    #[must_use]
    pub fn busy(&self) -> Duration {
        self.times.values().map(|e| e.0).sum()
    }

    /// Mean milliseconds per call of `layer`.
    #[must_use]
    pub fn ms_per_call(&self, layer: &str) -> f64 {
        self.total(layer).as_secs_f64() * 1e3 / self.calls(layer).max(1) as f64
    }

    /// Accumulated work counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every timed layer, in name order.
    pub fn layers(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.times.keys().copied()
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> u64 {
        self.spans
    }
}

/// Measured cost of one span's bookkeeping (two clock reads and a map
/// update), the tracing overhead a traced operation pays per span.
#[must_use]
pub fn span_cost() -> Duration {
    const N: u32 = 20_000;
    let mut spans = Spans::default();
    let start = Instant::now();
    for _ in 0..N {
        spans.time("calibration", || std::hint::black_box(()));
    }
    start.elapsed() / N
}
