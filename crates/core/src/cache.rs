//! The content-addressed stage cache: an in-memory LRU tier backed by an
//! optional persistent on-disk tier and an optional remote fleet tier
//! (a `coold` daemon reached through [`crate::remote::RemoteStore`]).
//!
//! Sweeps (`res2` area budgets, the partitioner and communication-scheme
//! ablations) re-run the whole spec→…→codegen pipeline per candidate even
//! though most upstream stage outputs are identical across candidates.
//! The [`StageCache`] makes those prefixes incremental: the engine keys
//! every stage on a 128-bit content digest of precisely what the stage
//! reads (the dependency-DAG keys of [`crate::engine::Engine::run`]), and
//! on a key match it skips the stage and restores the [`Artifacts`] the
//! original run deposited into the [`crate::stage::FlowContext`].
//!
//! Two kinds of [`Entry`] share the cache: stage executions and, one
//! level below, per-node artifacts ([`NodeArtifact`]). Both take one
//! path through the tiers — one lookup (memory → disk → remote, with
//! promotion, disk healing and counting) and one insert (memory, then
//! write-through to disk and remote) — and each kind keeps its own
//! memory LRU bound and counters. An entry of the other kind reads as a
//! miss and is left in place.
//!
//! The cache is `Arc`-shared and mutex-guarded so one instance can serve
//! many concurrent [`crate::FlowSession`]s (sweep workers, the
//! [`crate::server`] daemon's clients); entries are bounded
//! by an LRU policy. With a disk tier attached
//! ([`StageCache::persistent`]), every insert is written through to a
//! cache directory and every in-memory miss consults it — that is what
//! lets a *fresh process* (a new CLI invocation, a CI job) warm-start
//! from a previous run's work. Because every stage is deterministic for
//! equal context contents (the [`crate::stage::Stage`] contract),
//! restoring a cached delta is byte-identical to re-running the stage —
//! the determinism battery in `tests/disk_cache.rs` enforces exactly
//! that, cold and warm, in-memory and from disk.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cool_ir::codec::{Codec, CodecError, Decoder, Encoder};
use cool_ir::hash::digest;

use crate::disk::{DiskStore, Load};
use crate::FlowError;

/// The content digest a stage execution is cached under.
pub type StageKey = u128;

/// Number of artifact slots.
pub const SLOT_COUNT: usize = 15;

/// Generates every per-slot item from the one slot table below: the
/// [`ArtifactSlot`] enum with its [`ArtifactSlot::ALL`], names and
/// labels, and the [`Artifacts`] struct with its accessors, fill check,
/// digest, delta capture/apply and codec.
macro_rules! artifact_slots {
    ($($(#[$doc:meta])* $field:ident: $ty:ty => $variant:ident, $label:literal;)*) => {
        /// One artifact slot, as a value — the vocabulary of
        /// [`crate::stage::Stage::reads`] / [`crate::stage::Stage::writes`]
        /// declarations and of the per-slot content digests the engine
        /// keys stages with.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ArtifactSlot {
            $($(#[$doc])* $variant,)*
        }

        impl ArtifactSlot {
            /// Every slot, in index order.
            pub const ALL: [ArtifactSlot; SLOT_COUNT] = [$(ArtifactSlot::$variant),*];

            /// The slot's field name in [`Artifacts`].
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(ArtifactSlot::$variant => stringify!($field),)*
                }
            }

            /// What [`FlowError::MissingArtifact`] calls the slot.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $(ArtifactSlot::$variant => $label,)*
                }
            }
        }

        /// The artifacts of one flow, one `Option` per [`ArtifactSlot`]:
        /// the blackboard of a [`crate::stage::FlowContext`], the delta a
        /// cached stage restores, and the body of a
        /// [`crate::PartialArtifacts`]. Each accessor returns
        /// [`FlowError::MissingArtifact`] while its slot is empty, so a
        /// consumer that outruns its producer gets a diagnosable error
        /// instead of a panic.
        #[derive(Debug, Clone, Default)]
        pub struct Artifacts {
            $($(#[$doc])* pub $field: Option<$ty>,)*
        }

        impl Artifacts {
            $(
                #[doc = concat!("The ", $label, ".")]
                ///
                /// # Errors
                ///
                /// [`FlowError::MissingArtifact`] while the slot is empty.
                pub fn $field(&self) -> Result<&$ty, FlowError> {
                    self.$field.as_ref().ok_or(FlowError::MissingArtifact($label))
                }
            )*

            /// `true` when `slot` is filled.
            #[must_use]
            pub fn is_filled(&self, slot: ArtifactSlot) -> bool {
                match slot {
                    $(ArtifactSlot::$variant => self.$field.is_some(),)*
                }
            }

            /// The content digest of `slot`, or `None` while it is empty.
            #[must_use]
            pub fn digest(&self, slot: ArtifactSlot) -> Option<u128> {
                match slot {
                    $(ArtifactSlot::$variant => self.$field.as_ref().map(digest),)*
                }
            }

            /// A clone of every slot that is filled now but was not in
            /// `before`: the delta one stage deposited.
            #[must_use]
            pub fn capture(&self, before: ArtifactFlags) -> Artifacts {
                Artifacts {
                    $($field: if before.slot_filled(ArtifactSlot::$variant) {
                        None
                    } else {
                        self.$field.clone()
                    },)*
                }
            }

            /// Fill every slot `delta` fills, cloning its artifacts (the
            /// delta stays in the cache for further hits).
            pub fn apply(&mut self, delta: &Artifacts) {
                $(if let Some(v) = &delta.$field {
                    self.$field = Some(v.clone());
                })*
            }
        }

        impl Codec for Artifacts {
            fn encode(&self, e: &mut Encoder) {
                $(self.$field.encode(e);)*
            }

            fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(Artifacts {
                    $($field: Option::decode(d)?,)*
                })
            }
        }
    };
}

// The one slot table: field, type, variant and missing-artifact label of
// every slot, in index order. The order is also the entry encoding, and
// the names feed the disk tier's slot-layout digest.
artifact_slots! {
    /// The cost model (`cost` stage, or pre-seeded).
    cost: cool_cost::CostModel => Cost, "cost model";
    /// The partitioning outcome (`partition`).
    partition: cool_partition::PartitionResult => Partition, "partition result";
    /// The static schedule (`schedule`).
    schedule: cool_schedule::StaticSchedule => Schedule, "static schedule";
    /// The raw STG (`stg`).
    stg: cool_stg::Stg => Stg, "STG";
    /// The minimized STG (`stg`).
    stg_minimized: cool_stg::Stg => StgMinimized, "minimized STG";
    /// STG minimization statistics (`stg`).
    minimize_stats: cool_stg::MinimizeStats => MinimizeStats, "minimization stats";
    /// The communication memory map (`stg`).
    memory_map: cool_stg::MemoryMap => MemoryMap, "memory map";
    /// Hardware-mapped function nodes in graph order (`hls`).
    hw_nodes: Vec<cool_ir::NodeId> => HwNodes, "hardware node list";
    /// Full-effort HLS designs, parallel to `hw_nodes` (`hls`).
    hls_designs: Vec<cool_hls::HlsDesign> => HlsDesigns, "HLS designs";
    /// The synthesized system controller (`rtl`).
    controller: cool_rtl::SystemController => Controller, "system controller";
    /// The controller state encoding (`rtl`).
    encoding: cool_rtl::encoding::StateEncoding => Encoding, "state encoding";
    /// The generated netlist (`rtl`).
    netlist: cool_rtl::Netlist => Netlist, "netlist";
    /// Emitted VHDL units `(file name, source)` (`rtl`).
    vhdl: Vec<(String, String)> => Vhdl, "VHDL units";
    /// CLB placements per FPGA hosting logic (`rtl`).
    placements: Vec<(cool_ir::Resource, cool_rtl::place::Placement)> => Placements, "placements";
    /// Generated C programs (`codegen`).
    c_programs: Vec<cool_codegen::CProgram> => CPrograms, "C programs";
}

impl ArtifactSlot {
    /// Dense index of the slot (its position in [`ArtifactSlot::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Codec for ArtifactSlot {
    fn encode(&self, e: &mut Encoder) {
        e.put_u8(self.index() as u8);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let tag = d.take_u8()?;
        ArtifactSlot::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or(CodecError::InvalidTag {
                type_name: "ArtifactSlot",
                tag,
            })
    }
}

impl Artifacts {
    /// Number of filled slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        ArtifactSlot::ALL
            .into_iter()
            .filter(|&slot| self.is_filled(slot))
            .count()
    }
}

/// Which artifact slots are filled.
///
/// Captured before a stage runs so the engine can snapshot exactly the
/// slots the stage deposited (cached stages fill empty slots only; a
/// stage that mutates existing artifacts in place must opt out of caching
/// by returning `None` from `cache_key`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactFlags {
    flags: [bool; SLOT_COUNT],
}

impl ArtifactFlags {
    /// Snapshot which slots of `artifacts` are currently filled.
    #[must_use]
    pub fn of(artifacts: &Artifacts) -> ArtifactFlags {
        ArtifactFlags {
            flags: ArtifactSlot::ALL.map(|slot| artifacts.is_filled(slot)),
        }
    }

    /// Whether `slot` was filled in this snapshot.
    #[must_use]
    pub fn slot_filled(&self, slot: ArtifactSlot) -> bool {
        self.flags[slot.index()]
    }
}

/// One per-node artifact, cached one level below stages: the unit of
/// reuse that survives a spec edit which invalidates *every* stage key
/// (the graph digest seeds each of them) but leaves most nodes'
/// behaviours untouched.
///
/// Entries are keyed by namespaced per-node content digests
/// ([`cool_hls::node_key`] and the engine's STG/RTL node keys), so the
/// variants can never alias each other or a stage entry.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeArtifact {
    /// A node's synthesized datapath, stored name-independently (the
    /// engine re-labels it via [`cool_hls::HlsDesign::renamed`]).
    Hls(cool_hls::HlsDesign),
    /// A hardware node's emitted VHDL entity text.
    Vhdl(String),
    /// A node's `w`/`x`/`d` STG slice.
    StgFragment(cool_stg::NodeFragment),
}

impl Codec for NodeArtifact {
    fn encode(&self, e: &mut Encoder) {
        match self {
            NodeArtifact::Hls(design) => {
                e.put_u8(0);
                design.encode(e);
            }
            NodeArtifact::Vhdl(text) => {
                e.put_u8(1);
                e.put_str(text);
            }
            NodeArtifact::StgFragment(frag) => {
                e.put_u8(2);
                frag.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match d.take_u8()? {
            0 => Ok(NodeArtifact::Hls(cool_hls::HlsDesign::decode(d)?)),
            1 => Ok(NodeArtifact::Vhdl(d.take_str()?)),
            2 => Ok(NodeArtifact::StgFragment(cool_stg::NodeFragment::decode(
                d,
            )?)),
            tag => Err(CodecError::InvalidTag {
                type_name: "NodeArtifact",
                tag,
            }),
        }
    }
}

/// The two kinds of cache entry. The discriminant is the kind byte that
/// leads every `.cce` payload ([`crate::disk`]), so every tier — and the
/// wire — dispatches on the entry itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A stage execution.
    Stage = 0,
    /// A per-node artifact.
    Node = 1,
}

/// One cached value of either kind: what every tier stores, promotes
/// and ships.
#[derive(Debug, Clone)]
pub enum Entry {
    /// One stage execution.
    Stage {
        /// The artifacts the stage deposited.
        delta: Arc<Artifacts>,
        /// Digests of the slots the delta fills, so a hit can extend the
        /// engine's slot-digest table without re-hashing the artifacts.
        writes: Arc<Vec<(ArtifactSlot, u128)>>,
        /// Wall-clock the original execution took — the time a hit saves.
        cost: Duration,
    },
    /// One per-node artifact.
    Node(Arc<NodeArtifact>),
}

impl Entry {
    /// The entry's kind.
    #[must_use]
    pub fn kind(&self) -> EntryKind {
        match self {
            Entry::Stage { .. } => EntryKind::Stage,
            Entry::Node(_) => EntryKind::Node,
        }
    }
}

/// The tier a hit came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Memory,
    Disk,
    Remote,
}

/// What one [`StageCache::lookup_node`] found.
#[derive(Debug, Clone)]
pub struct NodeHit {
    /// The cached per-node artifact.
    pub artifact: Arc<NodeArtifact>,
    /// `true` when the entry came from the disk tier.
    pub from_disk: bool,
    /// `true` when the entry came from the remote fleet tier.
    pub from_remote: bool,
}

/// What one [`StageCache::lookup`] found.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The artifacts to restore.
    pub delta: Arc<Artifacts>,
    /// Digests of the restored slots.
    pub writes: Arc<Vec<(ArtifactSlot, u128)>>,
    /// Wall-clock the original execution took.
    pub saved: Duration,
    /// `true` when the entry came from the disk tier (an in-memory miss
    /// satisfied by the cache directory).
    pub from_disk: bool,
    /// `true` when the entry was fetched from the remote fleet tier (a
    /// `coold` daemon) and re-materialized locally.
    pub from_remote: bool,
}

/// One memory-resident entry with its LRU recency.
#[derive(Debug)]
struct Resident {
    entry: Entry,
    last_used: u64,
}

/// The memory tier of one entry kind: its LRU bound and its counters.
#[derive(Debug, Default)]
struct Tier {
    map: HashMap<StageKey, Resident>,
    capacity: usize,
    hits: u64,
    disk_hits: u64,
    misses: u64,
    evictions: u64,
    disk_writes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// One memory tier per [`EntryKind`], indexed by the kind byte. Node
    /// entries are small and numerous next to stage deltas, so each kind
    /// has its own LRU bound.
    tiers: [Tier; 2],
    tick: u64,
    saved: Duration,
    /// Invalid disk entries evicted by lookups of either kind.
    disk_evictions: u64,
}

impl Inner {
    fn count_hit(&mut self, entry: &Entry, source: Source) {
        let tier = &mut self.tiers[entry.kind() as usize];
        tier.hits += 1;
        tier.disk_hits += u64::from(source == Source::Disk);
        if let Entry::Stage { cost, .. } = entry {
            self.saved += *cost;
        }
    }

    fn count_miss(&mut self, kind: Option<EntryKind>) {
        if let Some(kind) = kind {
            self.tiers[kind as usize].misses += 1;
        }
    }

    /// Put `entry` into its kind's memory tier under `key`, evicting the
    /// least-recently-used entries over the bound. Returns `true` when
    /// `key` was not resident.
    fn promote(&mut self, key: StageKey, entry: Entry) -> bool {
        self.tick += 1;
        let last_used = self.tick;
        let tier = &mut self.tiers[entry.kind() as usize];
        let fresh = tier
            .map
            .insert(key, Resident { entry, last_used })
            .is_none();
        while tier.map.len() > tier.capacity {
            let Some((&victim, _)) = tier.map.iter().min_by_key(|(_, r)| r.last_used) else {
                break;
            };
            tier.map.remove(&victim);
            tier.evictions += 1;
        }
        fresh
    }
}

/// Aggregate cache counters, for `--trace` output and the paper-artifact
/// binaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stage executions skipped because a cached delta was restored
    /// (in-memory and disk hits combined).
    pub hits: u64,
    /// The subset of `hits` satisfied by the disk tier.
    pub disk_hits: u64,
    /// Stage executions that ran and populated the cache.
    pub misses: u64,
    /// Entries evicted by the in-memory LRU bound.
    pub evictions: u64,
    /// Entries written through to the disk tier.
    pub disk_writes: u64,
    /// Corrupt or version-mismatched disk entries that were evicted (each
    /// also counted as a miss).
    pub disk_evictions: u64,
    /// Disk entries evicted to honour the store's byte-size cap (LRU by
    /// mtime, enforced at open and after every insert).
    pub disk_size_evictions: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Sum of the original execution times of every hit — the wall-clock
    /// the cache saved.
    pub saved: Duration,
    /// Node-level lookups served from cache (memory and disk combined).
    pub node_hits: u64,
    /// The subset of `node_hits` satisfied by the disk tier.
    pub node_disk_hits: u64,
    /// Node-level lookups that found nothing (the node was recomputed).
    pub node_misses: u64,
    /// Node entries evicted by the node tier's in-memory LRU bound.
    pub node_evictions: u64,
    /// Node entries written through to the disk tier.
    pub node_disk_writes: u64,
    /// Node entries currently resident in memory.
    pub node_entries: usize,
    /// Stage and node lookups satisfied by the remote fleet tier.
    pub remote_hits: u64,
    /// Remote lookups that reached the daemon and found nothing.
    pub remote_misses: u64,
    /// Entries written through to the remote fleet tier.
    pub remote_puts: u64,
    /// Remote operations dropped because the daemon was unreachable (the
    /// cache degraded to local-only for those operations).
    pub remote_errors: u64,
    /// Wall-clock spent on remote round-trips (gets and puts combined).
    pub remote_roundtrip: Duration,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let size_cap = if self.disk_size_evictions > 0 {
            format!(", {} size-cap eviction(s)", self.disk_size_evictions)
        } else {
            String::new()
        };
        let nodes = if self.node_hits + self.node_misses > 0 {
            format!(
                "; node tier: {} hit(s) ({} from disk), {} miss(es), {} entries",
                self.node_hits, self.node_disk_hits, self.node_misses, self.node_entries,
            )
        } else {
            String::new()
        };
        let remote =
            if self.remote_hits + self.remote_misses + self.remote_puts + self.remote_errors > 0 {
                format!(
                    "; remote tier: {} hit(s), {} miss(es), {} put(s), {} error(s), \
                 {:.3} ms round-trip",
                    self.remote_hits,
                    self.remote_misses,
                    self.remote_puts,
                    self.remote_errors,
                    self.remote_roundtrip.as_secs_f64() * 1e3,
                )
            } else {
                String::new()
            };
        format!(
            "stage cache: {} hit(s) ({} from disk), {} miss(es) ({:.0} % hit rate), \
             {} entries, {} eviction(s){size_cap}, {:.3} ms saved{nodes}{remote}",
            self.hits,
            self.disk_hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions,
            self.saved.as_secs_f64() * 1e3,
        )
    }
}

/// `part / total`, or 0 when `total` is 0.
fn ratio(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// A shared, LRU-bounded, content-addressed cache of stage executions
/// and per-node artifacts, optionally backed by a persistent on-disk
/// tier and a remote fleet tier.
///
/// Cloning is cheap (an `Arc` bump); clones share one store (memory and
/// disk), which is how concurrent [`crate::FlowSession`]s (sweep
/// workers, daemon clients) hit entries any other worker produced.
#[derive(Debug, Clone)]
pub struct StageCache {
    inner: Arc<Mutex<Inner>>,
    disk: Option<Arc<DiskStore>>,
    remote: Option<Arc<crate::remote::RemoteStore>>,
}

impl Default for StageCache {
    fn default() -> StageCache {
        StageCache::new(StageCache::DEFAULT_CAPACITY)
    }
}

impl StageCache {
    /// Default entry bound: comfortably holds the full standard flow for
    /// a few dozen sweep candidates.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Default node-tier entry bound. Node entries are tiny (one design,
    /// fragment or VHDL unit) and there are up to a few per function
    /// node, so the bound is far above the stage-entry capacity.
    pub const DEFAULT_NODE_CAPACITY: usize = 4096;

    /// An in-memory cache bounded to `capacity` stage entries (minimum
    /// 1) and [`StageCache::DEFAULT_NODE_CAPACITY`] node entries.
    #[must_use]
    pub fn new(capacity: usize) -> StageCache {
        let tier = |capacity: usize| Tier {
            capacity: capacity.max(1),
            ..Tier::default()
        };
        StageCache {
            inner: Arc::new(Mutex::new(Inner {
                tiers: [tier(capacity), tier(StageCache::DEFAULT_NODE_CAPACITY)],
                ..Inner::default()
            })),
            disk: None,
            remote: None,
        }
    }

    /// A two-tier cache: the in-memory LRU tier backed by a persistent
    /// store in `dir` (created if absent). Inserts write through to disk;
    /// in-memory misses consult the disk tier before reporting a miss, so
    /// a fresh process warm-starts from whatever earlier runs left there.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if `dir` cannot be created.
    pub fn persistent(
        capacity: usize,
        dir: impl AsRef<Path>,
    ) -> Result<StageCache, std::io::Error> {
        StageCache::persistent_with_cap(capacity, dir, crate::disk::DEFAULT_MAX_BYTES)
    }

    /// [`StageCache::persistent`] with an explicit byte-size cap for the
    /// disk tier (`0` = unbounded) instead of
    /// [`crate::disk::DEFAULT_MAX_BYTES`].
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if `dir` cannot be created.
    pub fn persistent_with_cap(
        capacity: usize,
        dir: impl AsRef<Path>,
        max_bytes: u64,
    ) -> Result<StageCache, std::io::Error> {
        let mut cache = StageCache::new(capacity);
        cache.disk = Some(Arc::new(DiskStore::open_with_cap(dir, max_bytes)?));
        Ok(cache)
    }

    /// The disk tier, if one is attached.
    #[must_use]
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_deref()
    }

    /// Attach a remote fleet tier: lookups that miss both memory and disk
    /// consult `remote`, and freshly computed entries are written through
    /// to it. Remote hits are re-materialized into the local disk tier
    /// (when one is attached) so the next process warm-starts without the
    /// network. All remote I/O is non-failing — an unreachable daemon
    /// degrades the cache to local-only, never the flow to an error.
    #[must_use]
    pub fn with_remote(mut self, remote: Arc<crate::remote::RemoteStore>) -> StageCache {
        self.remote = Some(remote);
        self
    }

    /// The remote fleet tier, if one is attached.
    #[must_use]
    pub fn remote(&self) -> Option<&crate::remote::RemoteStore> {
        self.remote.as_deref()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("stage cache poisoned")
    }

    /// Look up a stage execution: `StageCache::get` for stage entries.
    #[must_use]
    pub fn lookup(&self, key: StageKey) -> Option<CacheHit> {
        let (
            Entry::Stage {
                delta,
                writes,
                cost,
            },
            source,
        ) = self.get(key, Some(EntryKind::Stage))?
        else {
            return None;
        };
        Some(CacheHit {
            delta,
            writes,
            saved: cost,
            from_disk: source == Source::Disk,
            from_remote: source == Source::Remote,
        })
    }

    /// Look up a per-node artifact by its namespaced node key:
    /// `StageCache::get` for node entries.
    #[must_use]
    pub fn lookup_node(&self, key: StageKey) -> Option<NodeHit> {
        let (Entry::Node(artifact), source) = self.get(key, Some(EntryKind::Node))? else {
            return None;
        };
        Some(NodeHit {
            artifact,
            from_disk: source == Source::Disk,
            from_remote: source == Source::Remote,
        })
    }

    /// Look up `key` whatever its kind — the daemon side of a remote
    /// get, which names no kind. A hit is counted under the kind it
    /// found; a miss, having no kind, is left to the caller to count.
    #[must_use]
    pub(crate) fn lookup_entry(&self, key: StageKey) -> Option<Entry> {
        self.get(key, None).map(|(entry, _)| entry)
    }

    /// The one lookup: tier by tier — memory, then disk, then the remote
    /// fleet store — refreshing recency and counting hits, disk hits and
    /// misses per kind. A disk or remote hit is promoted into the memory
    /// tier, and a remote hit also heals the local disk tier (when
    /// attached) so the next process warm-starts without the network.
    /// An entry of a kind other than `kind` (`None` takes either) reads
    /// as a miss and is left where it is.
    fn get(&self, key: StageKey, kind: Option<EntryKind>) -> Option<(Entry, Source)> {
        let wanted = |entry: &Entry| kind.map_or(true, |k| entry.kind() == k);
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let resident = inner
                .tiers
                .iter_mut()
                .find_map(|tier| tier.map.get_mut(&key).filter(|r| wanted(&r.entry)));
            if let Some(resident) = resident {
                resident.last_used = tick;
                let entry = resident.entry.clone();
                inner.count_hit(&entry, Source::Memory);
                return Some((entry, Source::Memory));
            }
            if self.disk.is_none() && self.remote.is_none() {
                inner.count_miss(kind);
                return None;
            }
        }
        // Memory miss with lower tiers attached: disk and network I/O
        // happen outside the lock (they must not serialize the sweep
        // workers), then accounting and promotion re-acquire it.
        let mut hit = None;
        let mut disk_evicted = false;
        if let Some(disk) = &self.disk {
            match disk.load(key) {
                Load::Hit {
                    delta,
                    writes,
                    cost,
                } => {
                    hit = Some(Entry::Stage {
                        delta,
                        writes,
                        cost,
                    })
                }
                Load::Node(artifact) => hit = Some(Entry::Node(artifact)),
                Load::Evicted => disk_evicted = true,
                Load::Miss => {}
            }
        }
        let mut source = Source::Disk;
        let mut healed = false;
        hit = hit.filter(wanted);
        if let (None, Some(remote)) = (&hit, &self.remote) {
            if let Some(bytes) = remote.get_stage(key) {
                hit = crate::disk::decode_entry(&bytes).filter(wanted);
                if hit.is_some() {
                    source = Source::Remote;
                    // The bytes passed the same validation as a disk
                    // read; writing them as-is heals the local disk tier.
                    healed = self
                        .disk
                        .as_ref()
                        .is_some_and(|d| matches!(d.write_entry(key, &bytes), Ok(true)));
                }
            }
        }
        let mut inner = self.lock();
        inner.disk_evictions += u64::from(disk_evicted);
        let Some(entry) = hit else {
            inner.count_miss(kind);
            return None;
        };
        inner.count_hit(&entry, source);
        inner.tiers[entry.kind() as usize].disk_writes += u64::from(healed);
        inner.promote(key, entry.clone());
        Some((entry, source))
    }

    /// Insert the delta a freshly executed stage produced, with the
    /// content digests of the slots it fills: `StageCache::insert_entry`
    /// for a stage entry.
    pub fn insert(
        &self,
        key: StageKey,
        delta: Artifacts,
        writes: Vec<(ArtifactSlot, u128)>,
        cost: Duration,
    ) {
        self.insert_entry(
            key,
            Entry::Stage {
                delta: Arc::new(delta),
                writes: Arc::new(writes),
                cost,
            },
        );
    }

    /// Insert a freshly computed per-node artifact under its node key:
    /// `StageCache::insert_entry` for a node entry.
    pub fn insert_node(&self, key: StageKey, artifact: NodeArtifact) {
        self.insert_entry(key, Entry::Node(Arc::new(artifact)));
    }

    /// The one insert: put `entry` into its kind's memory tier, evicting
    /// the least-recently-used entry over the bound, then write it
    /// through to the disk tier (atomically; an entry already on disk is
    /// left untouched) and the remote tier. Inserting an existing key
    /// refreshes it: deterministic stages make the value identical, so
    /// last-writer-wins is safe under worker races. Returns `true` when
    /// `key` was not resident in memory.
    pub(crate) fn insert_entry(&self, key: StageKey, entry: Entry) -> bool {
        let kind = entry.kind();
        // One encoding serves both lower tiers: the exact `.cce` bytes,
        // which the daemon validates with a disk read's totality.
        let bytes = (self.disk.is_some() || self.remote.is_some())
            .then(|| crate::disk::encode_entry(&entry, crate::disk::FORMAT_VERSION));
        let fresh = self.lock().promote(key, entry);
        let Some(bytes) = bytes else {
            return fresh;
        };
        // Write-through outside the lock. A failed write degrades a tier
        // to "smaller", never the run to "wrong".
        if let Some(disk) = &self.disk {
            if let Ok(true) = disk.write_entry(key, &bytes) {
                self.lock().tiers[kind as usize].disk_writes += 1;
            }
        }
        if let Some(remote) = &self.remote {
            remote.put(key, bytes);
        }
        fresh
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let remote = self
            .remote
            .as_ref()
            .map(|r| r.counters())
            .unwrap_or_default();
        let inner = self.lock();
        let [stage, node] = &inner.tiers;
        CacheStats {
            remote_hits: remote.hits,
            remote_misses: remote.misses,
            remote_puts: remote.puts,
            remote_errors: remote.errors,
            remote_roundtrip: remote.roundtrip,
            hits: stage.hits,
            disk_hits: stage.disk_hits,
            misses: stage.misses,
            evictions: stage.evictions,
            disk_writes: stage.disk_writes,
            disk_evictions: inner.disk_evictions,
            disk_size_evictions: self.disk.as_ref().map_or(0, |d| d.size_evictions()),
            entries: stage.map.len(),
            saved: inner.saved,
            node_hits: node.hits,
            node_disk_hits: node.disk_hits,
            node_misses: node.misses,
            node_evictions: node.evictions,
            node_disk_writes: node.disk_writes,
            node_entries: node.map.len(),
        }
    }

    /// Number of resident in-memory stage entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().tiers[EntryKind::Stage as usize].map.len()
    }

    /// `true` when no in-memory stage entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn lookup_miss_then_hit_counts() {
        let cache = StageCache::new(8);
        assert!(cache.lookup(1).is_none());
        cache.insert(1, Artifacts::default(), Vec::new(), ms(5));
        let hit = cache.lookup(1).expect("hit");
        assert_eq!(hit.delta.slot_count(), 0);
        assert_eq!(hit.saved, ms(5));
        assert!(!hit.from_disk);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.saved, ms(5));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.disk_hits, 0);
    }

    #[test]
    fn lru_bound_evicts_least_recent() {
        let cache = StageCache::new(2);
        cache.insert(1, Artifacts::default(), Vec::new(), ms(1));
        cache.insert(2, Artifacts::default(), Vec::new(), ms(1));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, Artifacts::default(), Vec::new(), ms(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_some(), "recently used entry survives");
        assert!(cache.lookup(2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clones_share_one_store() {
        let cache = StageCache::new(4);
        let clone = cache.clone();
        clone.insert(9, Artifacts::default(), Vec::new(), ms(2));
        assert!(cache.lookup(9).is_some());
        assert_eq!(cache.stats().hits, clone.stats().hits);
    }

    #[test]
    fn summary_mentions_counters() {
        let cache = StageCache::new(4);
        cache.insert(1, Artifacts::default(), Vec::new(), ms(1));
        let _ = cache.lookup(1);
        let s = cache.stats().summary();
        assert!(s.contains("hit"), "{s}");
        assert!(s.contains("entries"), "{s}");
        assert!(s.contains("disk"), "{s}");
    }

    #[test]
    fn kind_mismatch_reads_as_a_miss_without_eviction() {
        let vhdl = || NodeArtifact::Vhdl("entity probe is end;".to_string());
        let cache = StageCache::new(4);
        cache.insert_node(1, vhdl());
        cache.insert(2, Artifacts::default(), Vec::new(), ms(1));
        assert!(cache.lookup(1).is_none());
        assert!(cache.lookup_node(2).is_none());
        assert!(cache.lookup_node(1).is_some(), "the node entry stays");
        assert!(cache.lookup(2).is_some(), "the stage entry stays");

        // The same through the disk tier of a fresh cache.
        let dir = std::env::temp_dir().join(format!("cool-cache-kinds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = StageCache::persistent(4, &dir).unwrap();
        writer.insert_node(1, vhdl());
        writer.insert(2, Artifacts::default(), Vec::new(), ms(1));
        let reader = StageCache::persistent(4, &dir).unwrap();
        assert!(reader.lookup(1).is_none());
        assert!(reader.lookup_node(2).is_none());
        let stats = reader.stats();
        assert_eq!((stats.misses, stats.node_misses), (1, 1));
        assert_eq!(stats.disk_evictions, 0);
        assert_eq!(reader.disk().unwrap().entry_count(), 2, "nothing evicted");
        assert!(reader.lookup_node(1).is_some_and(|hit| hit.from_disk));
        assert!(reader.lookup(2).is_some_and(|hit| hit.from_disk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_slots_are_dense_and_named() {
        for (i, slot) in ArtifactSlot::ALL.iter().enumerate() {
            assert_eq!(slot.index(), i);
            assert!(!slot.name().is_empty());
        }
        assert_eq!(ArtifactSlot::Cost.name(), "cost");
        assert_eq!(ArtifactSlot::CPrograms.name(), "c_programs");
    }

    #[test]
    fn artifact_slot_codec_roundtrips() {
        for slot in ArtifactSlot::ALL {
            let bytes = cool_ir::codec::to_bytes(&slot);
            let back: ArtifactSlot = cool_ir::codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, slot);
        }
        assert!(cool_ir::codec::from_bytes::<ArtifactSlot>(&[99]).is_err());
    }

    #[test]
    fn empty_delta_codec_roundtrips() {
        let delta = Artifacts::default();
        let bytes = cool_ir::codec::to_bytes(&delta);
        let back: Artifacts = cool_ir::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.slot_count(), 0);
        assert_eq!(cool_ir::codec::to_bytes(&back), bytes);
    }
}
