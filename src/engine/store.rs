//! The evolving-graph store: epoch-stamped snapshots over a mutable
//! attributed graph.
//!
//! A [`GraphStore`] owns the writer's edit overlay ([`MutableGraph`]) on
//! the published graph — the graph itself exists once — and publishes
//! an immutable [`Engine`] per **epoch**. [`GraphStore::apply`] takes a
//! batch of [`GraphUpdate`]s, edits the overlay, repairs what the batch
//! changed of the cached decompositions, publishes the overlay as the
//! next epoch's graph (sharing the previous attribute block when the
//! batch touched no attribute), and atomically swaps in the next
//! epoch's engine — queries already running keep reading their
//! epoch's snapshot untouched, while every query started after the swap
//! sees the updated graph. [`GraphStore::snapshot`] is how readers pin an
//! epoch.
//!
//! # What survives an epoch bump
//!
//! The expensive per-graph state is carried forward instead of rebuilt:
//!
//! * **Trussness** is one per-edge table per epoch
//!   ([`csag_decomp::EdgeTrussness`]), repaired edge by edge by a
//!   [`csag_decomp::TrussMaintainer`] fed next to the edit overlay: each
//!   update touches only the edges whose trussness moves and their
//!   triangle neighbours, whatever the size of the graph, and copies only
//!   their rows; the batch publishes the next epoch's table, sharing every
//!   chunk of rows it left untouched, and its node trussness. The
//!   maintainer is seeded by the first batch applied after some query
//!   made trussness resident — it adopts the table that query's
//!   decomposition left on the epoch, so the store never decomposes a
//!   second time — and lives until [`GraphStore::reset_to`]; a store
//!   nobody asks k-truss questions stays lazy.
//! * **Core numbers** are pre-seeded into every epoch's engine: carried
//!   over as they are by a batch that changed no edge, and recomputed by
//!   one `O(n + m)` peel — the order of the CSR snapshot the batch pays
//!   anyway — by one that did. No per-edge traversal repair: a single
//!   subcore walk on a graph whose main shell is most of the graph costs
//!   more than the peel.
//! * **Distance tables** (`Arc<QueryDistances>`) are invalidated
//!   *selectively*. The composite distance `f(v, q)` depends on
//!   attributes only, so:
//!
//!   | update batch contains | tables dropped |
//!   |---|---|
//!   | edge adds/removes only | none — every `Arc` carries over bit-for-bit |
//!   | `SetAttributes { v, .. }` (normalization ranges unchanged) | `v`'s own tables; all others carry over warm with only slot `v` forgotten |
//!   | `SetAttributes` that shifts a min-max normalization range | all (every normalized coordinate may have moved) |
//!   | `AddVertex` | all (tables are sized to `n`) |
//!
//!   The cache's admission record — the keys whose last miss was served
//!   uncached; a key's next miss admits its table — carries over with
//!   the tables, and the key of every dropped table joins it, so a hot
//!   node's first read after the batch re-admits its table.
//!
//! The [`UpdateReport`] returned by [`GraphStore::apply`] counts exactly
//! what was retained and invalidated, and the churn tests pin the
//! "carried bit-for-bit" case with `Arc::ptr_eq`.
//!
//! ```
//! use csag::engine::{CommunityQuery, GraphStore, GraphUpdate, Method};
//! use csag::datasets::paper_examples::figure1_imdb;
//!
//! let (graph, q) = figure1_imdb();
//! let store = GraphStore::new(graph);
//! let before = store.snapshot();
//! let report = store
//!     .apply(&[GraphUpdate::AddEdge { u: q, v: 0 }])
//!     .expect("endpoints exist");
//! assert_eq!(report.epoch, 1);
//! let after = store.snapshot();
//! assert_eq!(before.epoch(), 0, "pinned snapshots keep their epoch");
//! assert_eq!(after.epoch(), 1);
//! // Both epochs answer queries — against their own graph version.
//! let query = CommunityQuery::new(Method::Exact, q).with_k(3);
//! assert!(before.engine().run(&query).is_ok());
//! assert!(after.engine().run(&query).is_ok());
//! ```

use super::{CsagError, DistanceKey, Engine};
use crate::cluster::LogRecord;
use crate::durability::{DurabilityStatus, RecoveryReport, Wal, WalConfig, WalError};
use csag_core::distance::QueryDistances;
use csag_decomp::{core_decomposition, EpochIndex, TrussMaintainer};
use csag_graph::{Applied, AttributedGraph, GraphError, MutableGraph, NodeId};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

pub use csag_graph::GraphUpdate;

/// Why [`GraphStore::apply`] rejected or halted a batch.
#[derive(Clone, Debug, PartialEq)]
pub enum ApplyError {
    /// An update in the batch was invalid
    /// ([`GraphError::NodeOutOfRange`] / [`GraphError::DimMismatch`]).
    /// The preceding prefix was applied and **published** — the epoch
    /// still bumped.
    Graph(GraphError),
    /// The write-ahead log could not durably record the batch (disk
    /// full, I/O error, failed fsync). The write was rejected *before*
    /// touching the graph: no epoch bump, nothing half-applied, and
    /// reads keep being served from the last durable epoch.
    DurabilityUnavailable {
        /// Why the log refused the append.
        reason: String,
    },
    /// An update in the batch cannot be written in `csag-updates v1`
    /// text — the form the write-ahead log and every replication feed
    /// carry — and read back as itself
    /// ([`GraphUpdate::replayable`]). The *whole* batch was refused
    /// before the log or the graph was touched: no epoch bump. Updates
    /// parsed from text never hit this.
    NotReplayable {
        /// Position of the offending update in the batch.
        index: usize,
        /// What its text form reads back as instead.
        reason: String,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Graph(e) => e.fmt(f),
            ApplyError::DurabilityUnavailable { reason } => {
                write!(f, "durability unavailable: write rejected ({reason})")
            }
            ApplyError::NotReplayable { index, reason } => {
                write!(
                    f,
                    "update {index} cannot be logged: batch refused ({reason})"
                )
            }
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<GraphError> for ApplyError {
    fn from(e: GraphError) -> Self {
        ApplyError::Graph(e)
    }
}

impl ApplyError {
    /// The serving-layer ([`super::CsagError`]) form of this rejection:
    /// `Some` for [`ApplyError::DurabilityUnavailable`] (wire kind
    /// `durability_unavailable`), `None` for graph errors and updates the
    /// log cannot say, which are caller mistakes reported as-is.
    pub fn as_csag_error(&self) -> Option<super::CsagError> {
        match self {
            ApplyError::Graph(_) | ApplyError::NotReplayable { .. } => None,
            ApplyError::DurabilityUnavailable { reason } => {
                Some(super::CsagError::DurabilityUnavailable {
                    reason: reason.clone(),
                })
            }
        }
    }

    /// Whether the batch was refused as a whole — nothing logged, nothing
    /// applied, no epoch bump — so there is nothing to replicate either.
    /// `false` for [`ApplyError::Graph`], whose valid prefix published.
    pub fn refused_batch(&self) -> bool {
        !matches!(self, ApplyError::Graph(_))
    }
}

/// What one [`GraphStore::apply`] batch did, per category, plus how the
/// epoch's caches fared.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// The epoch the batch produced (first batch produces epoch 1).
    pub epoch: u64,
    /// Edges actually inserted (duplicates/self-loops excluded).
    pub edges_added: usize,
    /// Edges actually deleted.
    pub edges_removed: usize,
    /// Vertices appended.
    pub vertices_added: usize,
    /// Nodes whose attributes were replaced.
    pub attributes_set: usize,
    /// Redundant updates (edge already present/absent, self-loops).
    pub noops: usize,
    /// Nodes whose core number changed in this batch.
    pub coreness_changed: usize,
    /// Distance tables carried into the new epoch (warm, by `Arc` or by
    /// slot-patched copy).
    pub distance_tables_retained: usize,
    /// Distance tables dropped by selective invalidation.
    pub distance_tables_invalidated: usize,
}

impl UpdateReport {
    /// The report as one flat JSON object (the `"report"` member of
    /// `csag update --json`).
    pub fn to_json(&self) -> String {
        let mut w = crate::json::Writer::new();
        w.begin_object();
        w.key("epoch").uint(self.epoch);
        for (key, count) in [
            ("edges_added", self.edges_added),
            ("edges_removed", self.edges_removed),
            ("vertices_added", self.vertices_added),
            ("attributes_set", self.attributes_set),
            ("noops", self.noops),
            ("coreness_changed", self.coreness_changed),
            ("distance_tables_retained", self.distance_tables_retained),
            (
                "distance_tables_invalidated",
                self.distance_tables_invalidated,
            ),
        ] {
            w.key(key).uint(count as u64);
        }
        w.end_object();
        w.finish()
    }
}

/// A pinned, immutable view of one store epoch.
///
/// Dereferences to the epoch's [`Engine`], so `snapshot.run(&query)`
/// works directly; hold it (or [`Snapshot::engine`]'s `Arc`) for as long
/// as the epoch must stay readable.
///
/// # The epoch-pinning contract
///
/// A `Snapshot` pins **exactly one** epoch: every query it answers runs
/// against the graph, decompositions, and caches of
/// [`Snapshot::epoch`], bit-for-bit, no matter how many
/// [`GraphStore::apply`] batches publish after it was taken. Two stores
/// that applied the identical batch sequence produce snapshots whose
/// answers are byte-identical at the same epoch — the guarantee the
/// cluster router ([`crate::cluster::Router`]) relies on when it serves
/// an epoch-pinned read from a replica instead of the primary: a read
/// pinned to epoch `E` may be answered by *any* store whose published
/// watermark is at least `E`, and the response names the snapshot's
/// actual epoch (always `>= E`).
#[derive(Clone)]
pub struct Snapshot {
    engine: Arc<Engine>,
}

impl Snapshot {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// The epoch's query engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

/// State guarded by the store's update lock (one writer at a time;
/// readers never touch it).
struct StoreState {
    /// Edits since the current epoch, over that epoch's graph (shared
    /// with its engine).
    mutable: MutableGraph,
    /// The trussness repair, editing the current epoch's per-edge table,
    /// once some query made it resident (see [`GraphStore::apply`]);
    /// `None` while lazy.
    truss: Option<TrussMaintainer>,
    epoch: u64,
}

/// A value that changes only under its lock, each change waking every
/// waiter: waiters block on the condvar; nothing polls. It holds a
/// cluster member's consumer and a follower's session; as
/// [`EpochCell`], an epoch.
pub(crate) struct Watched<T> {
    value: Mutex<T>,
    changed: Condvar,
}

impl<T> Watched<T> {
    pub(crate) fn new(value: T) -> Self {
        Watched {
            value: Mutex::new(value),
            changed: Condvar::new(),
        }
    }

    /// The value, locked.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Changes the value in one step and wakes every waiter.
    pub(crate) fn update<R>(&self, change: impl FnOnce(&mut T) -> R) -> R {
        let result = change(&mut self.lock());
        self.changed.notify_all();
        result
    }

    /// Blocks until `reached` holds, or `timeout` elapses (never, for a
    /// timeout no clock reaches); `true` when it holds.
    pub(crate) fn wait_until(&self, timeout: Duration, reached: impl Fn(&T) -> bool) -> bool {
        let (_value, outcome) = self
            .changed
            .wait_timeout_while(self.lock(), timeout, |value| !reached(value))
            .unwrap_or_else(PoisonError::into_inner);
        !outcome.timed_out()
    }
}

/// The epoch watermark: the store's publish watermark behind
/// [`GraphStore::wait_for_epoch`] (updated, and broadcast, right after
/// each epoch's engine swaps in), and the sharded cluster's epoch.
pub(crate) type EpochCell = Watched<u64>;

impl EpochCell {
    /// The highest epoch published so far.
    pub(crate) fn current(&self) -> u64 {
        *self.lock()
    }

    /// Publishes `epoch` (monotone: lower values are ignored).
    pub(crate) fn publish(&self, epoch: u64) {
        self.update(|current| *current = epoch.max(*current));
    }

    /// Blocks until `epoch` (or later) is published, or `timeout`
    /// elapses; `true` when the epoch was reached.
    pub(crate) fn wait_for(&self, epoch: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, |current| *current >= epoch)
    }

    /// The pinned-read gate every [`crate::cluster::ReadSource`] goes
    /// through. An unpinned read passes at the current epoch, a read
    /// pinned at or below the watermark passes at its pin, and a pin
    /// above it waits (bounded by `wait`) for the publish. Returns the
    /// minimum epoch to serve from; what this cell gates only moves
    /// forward, so whatever the caller pins next is at least that new.
    ///
    /// # Errors
    /// [`CsagError::EpochUnavailable`] with the pin and the watermark at
    /// the moment the wait ran out.
    pub(crate) fn admit_read(
        &self,
        pin: Option<u64>,
        wait: Duration,
        counters: &ReadCounters,
    ) -> Result<u64, CsagError> {
        let Some(epoch) = pin else {
            counters.unpinned_reads.fetch_add(1, Ordering::Relaxed);
            return Ok(self.current());
        };
        counters.pinned_reads.fetch_add(1, Ordering::Relaxed);
        if self.current() < epoch {
            counters.pinned_waits.fetch_add(1, Ordering::Relaxed);
            if !self.wait_for(epoch, wait) {
                counters.pinned_rejects.fetch_add(1, Ordering::Relaxed);
                return Err(CsagError::EpochUnavailable {
                    requested: epoch,
                    published: self.current(),
                });
            }
        }
        Ok(epoch)
    }
}

/// What [`EpochCell::admit_read`] counts, per read source: reads that
/// arrived pinned / unpinned, pinned reads whose epoch was not yet
/// published on arrival, and the ones refused after the wait.
#[derive(Default)]
pub(crate) struct ReadCounters {
    pub(crate) pinned_reads: AtomicU64,
    pub(crate) unpinned_reads: AtomicU64,
    pub(crate) pinned_waits: AtomicU64,
    pub(crate) pinned_rejects: AtomicU64,
}

/// What [`GraphStore::replay`] did with one log record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replay {
    /// The record's epoch is at or below the store's: its effects are
    /// already in the state (the overlap a snapshot or checkpoint leaves
    /// behind). Nothing was touched.
    Skipped,
    /// The record extended the store by exactly one epoch.
    Applied,
    /// The record does not follow the store's epoch: the log is missing
    /// `expected`. Nothing was touched.
    Gap {
        /// The epoch the next record had to carry.
        expected: u64,
    },
    /// The batch was applied but the store did not land on the record's
    /// epoch: this store no longer mirrors the log's writer.
    Diverged {
        /// The epoch the store is at instead.
        reached: u64,
    },
}

/// The evolving-graph engine handle. See the [module docs](self).
pub struct GraphStore {
    state: Mutex<StoreState>,
    current: RwLock<Arc<Engine>>,
    /// The publish watermark — what pinned reads are gated on.
    pub(crate) watch: EpochCell,
    /// The durable update log, when this store was built through
    /// [`GraphStore::with_wal`] / [`GraphStore::recover`]. Appended to
    /// *before* a batch is applied; an append failure rejects the write
    /// with [`ApplyError::DurabilityUnavailable`].
    wal: Option<Wal>,
}

impl GraphStore {
    /// Builds a store over `graph`, computing the initial core
    /// decomposition once (every epoch's engine is pre-seeded with its
    /// core numbers).
    pub fn new(graph: AttributedGraph) -> Self {
        GraphStore::from_arc(Arc::new(graph))
    }

    /// [`GraphStore::new`] over an already-shared graph (no copy).
    pub fn from_arc(graph: Arc<AttributedGraph>) -> Self {
        GraphStore::from_arc_at(graph, 0)
    }

    /// [`GraphStore::from_arc`], but numbering epochs from `epoch`
    /// instead of 0. This is the replica-reseed seam: a store rebuilt
    /// from a primary's epoch-`E` snapshot graph must keep publishing
    /// `E + 1, E + 2, …` so replication log records line up with the
    /// primary's numbering.
    pub fn from_arc_at(graph: Arc<AttributedGraph>, epoch: u64) -> Self {
        let (state, engine) = GraphStore::fresh_epoch(graph, epoch);
        GraphStore {
            state: Mutex::new(state),
            current: RwLock::new(engine),
            watch: EpochCell::new(epoch),
            wal: None,
        }
    }

    /// The writer state and the engine of a store (re)starting from
    /// `graph` at `epoch`: one full core peel, nothing carried over.
    fn fresh_epoch(graph: Arc<AttributedGraph>, epoch: u64) -> (StoreState, Arc<Engine>) {
        let state = StoreState {
            mutable: MutableGraph::from_arc(Arc::clone(&graph)),
            truss: None,
            epoch,
        };
        let index = EpochIndex::seeded(core_decomposition(&graph), None, None);
        let engine = Engine::from_store_parts(graph, epoch, index, Vec::new(), Vec::new());
        (state, Arc::new(engine))
    }

    /// Builds a store over `graph` whose every batch is durably logged
    /// to a fresh write-ahead log in `dir` (created if missing) before
    /// it publishes. The seed graph is checkpointed immediately, so
    /// [`GraphStore::recover`] always has a base to replay from.
    ///
    /// # Errors
    /// [`WalError::AlreadyInitialized`] when `dir` already holds WAL
    /// state (recover it instead); [`WalError::Io`] when the directory
    /// or the epoch-0 checkpoint cannot be written.
    pub fn with_wal(graph: AttributedGraph, dir: impl AsRef<Path>) -> Result<Self, WalError> {
        GraphStore::with_wal_config(graph, dir, WalConfig::default())
    }

    /// [`GraphStore::with_wal`] with explicit durability tuning (fsync
    /// policy, segment size, checkpoint cadence, fault script).
    ///
    /// # Errors
    /// Same as [`GraphStore::with_wal`].
    pub fn with_wal_config(
        graph: AttributedGraph,
        dir: impl AsRef<Path>,
        config: WalConfig,
    ) -> Result<Self, WalError> {
        let wal = Wal::create(dir.as_ref(), config, &graph, 0)?;
        let mut store = GraphStore::new(graph);
        store.wal = Some(wal);
        Ok(store)
    }

    /// Rebuilds a store from the WAL in `dir` to the exact pre-crash
    /// epoch: newest loadable checkpoint + replay of every logged batch
    /// through the ordinary apply path (byte-identical answers at the
    /// recovered epoch), with a torn final record detected by checksum
    /// and truncated — not fatal. The returned store has a writable WAL
    /// re-attached at the tail.
    ///
    /// # Errors
    /// [`WalError::NotInitialized`] when `dir` holds no WAL state;
    /// [`WalError::Corrupt`] for damage a crash could not have caused
    /// (mid-stream checksum failures, epoch gaps); [`WalError::Io`] for
    /// filesystem failures during replay.
    pub fn recover(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), WalError> {
        GraphStore::recover_with(dir, WalConfig::default())
    }

    /// [`GraphStore::recover`] with explicit durability tuning for the
    /// re-attached WAL.
    ///
    /// # Errors
    /// Same as [`GraphStore::recover`].
    pub fn recover_with(
        dir: impl AsRef<Path>,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        crate::durability::recover_store(dir.as_ref(), config)
    }

    /// Attaches a (re-)opened WAL. Recovery replays *without* a log
    /// attached, then bolts the writer on before handing the store out.
    pub(crate) fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// The WAL's observable counters, or `None` for an in-memory store.
    /// [`DurabilityStatus::degraded`] reports read-only mode.
    pub fn wal_status(&self) -> Option<DurabilityStatus> {
        self.wal.as_ref().map(Wal::status)
    }

    /// The attached WAL writer, if any — the replication listener reads
    /// checkpoint bytes and log tails through this.
    pub(crate) fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Replaces this store's entire state with `graph` at `epoch` — the
    /// receiving half of a reseed, for both member kinds: an in-process
    /// replica handed the primary's snapshot graph, or a remote follower
    /// that swallowed a shipped checkpoint, resumes replaying records at
    /// `epoch + 1`.
    ///
    /// The publish watermark only moves forward: callers must not reset
    /// to an epoch below the published one (pinned readers would
    /// otherwise see time move backwards), and the follower runtime
    /// guards this by discarding snapshots at or below its own epoch.
    ///
    /// # Panics
    /// When the store is WAL-backed — resetting would silently
    /// desynchronize the store from its own log; durable stores must go
    /// through [`GraphStore::recover`] instead.
    pub fn reset_to(&self, graph: Arc<AttributedGraph>, epoch: u64) {
        assert!(
            self.wal.is_none(),
            "reset_to on a WAL-backed store would desynchronize it from its log"
        );
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (fresh, engine) = GraphStore::fresh_epoch(graph, epoch);
        *state = fresh;
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = engine;
        self.watch.publish(epoch);
    }

    /// Forces a checkpoint of the current epoch's graph, pruning
    /// segments it fully covers. No-op without a WAL.
    ///
    /// # Errors
    /// [`WalError::Io`] when the snapshot cannot be written durably
    /// (tolerated by the store: appends continue, replay is longer).
    pub fn checkpoint_now(&self) -> Result<(), WalError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        // Hold the state lock so the checkpoint epoch and graph agree
        // even under concurrent appliers.
        let _state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = self.snapshot();
        wal.checkpoint(snap.graph(), snap.epoch())
    }

    /// The highest epoch this store has published, without pinning a
    /// snapshot (the router's high-watermark probe).
    pub fn published_epoch(&self) -> u64 {
        self.watch.current()
    }

    /// Blocks until this store publishes `epoch` (or later), or
    /// `timeout` elapses; `true` when it was reached. The waiter sleeps
    /// on a condvar that [`GraphStore::apply`] signals right after it
    /// swaps the new epoch's engine in — nothing polls
    /// [`GraphStore::epoch`].
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        self.watch.wait_for(epoch, timeout)
    }

    /// Pins the current epoch for reading. Queries on the returned
    /// [`Snapshot`] are unaffected by later [`GraphStore::apply`] calls.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            engine: Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Runs one query against the current epoch (convenience for callers
    /// that do not need to pin a snapshot across calls).
    ///
    /// # Errors
    /// Same as [`Engine::run`].
    pub fn run(
        &self,
        query: &super::CommunityQuery,
    ) -> Result<super::CommunityResult, super::CsagError> {
        self.snapshot().engine().run(query)
    }

    /// Applies a batch of updates and publishes the next epoch.
    ///
    /// The batch is applied in order (later updates see earlier ones);
    /// redundant updates are counted as no-ops. On the first erroneous
    /// update the batch stops: updates before it remain applied and are
    /// published as a new epoch — the store never exposes a half-applied
    /// *update*, but a prefix of a failed *batch* is still a consistent
    /// graph. Concurrent `apply` calls serialize; readers are never
    /// blocked and keep their pinned epochs.
    ///
    /// With a WAL attached ([`GraphStore::with_wal`]), the *requested*
    /// batch is durably logged under the epoch it will produce before a
    /// single update touches the graph — replaying the log re-runs this
    /// method and reproduces every outcome, erroneous prefixes
    /// included. If the log cannot record the batch, the write is
    /// rejected wholesale: no epoch bump, reads unaffected.
    ///
    /// Replay is a promise about text: the log and the replication feeds
    /// carry the batch as `csag-updates v1` lines, so a batch holding an
    /// update that does not read back as itself
    /// ([`GraphUpdate::replayable`]) is refused whole, on durable and
    /// plain stores alike (a plain primary's followers read the same
    /// text) — an acknowledged write is always one the log can say.
    ///
    /// # Errors
    /// * [`ApplyError::Graph`] — [`GraphError::NodeOutOfRange`] /
    ///   [`GraphError::DimMismatch`] from the offending update (the
    ///   valid prefix published).
    /// * [`ApplyError::DurabilityUnavailable`] — the WAL append failed;
    ///   nothing was applied.
    /// * [`ApplyError::NotReplayable`] — an update has no faithful text
    ///   form; nothing was logged or applied.
    pub fn apply(&self, updates: &[GraphUpdate]) -> Result<UpdateReport, ApplyError> {
        for (index, update) in updates.iter().enumerate() {
            update
                .replayable()
                .map_err(|reason| ApplyError::NotReplayable { index, reason })?;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(wal) = &self.wal {
            // Write-ahead: the batch must be durable before any effect
            // becomes visible. A refusal leaves the store byte-for-byte
            // at the previous epoch.
            wal.append(&LogRecord::new(state.epoch + 1, updates.to_vec()))
                .map_err(|e| ApplyError::DurabilityUnavailable {
                    reason: e.to_string(),
                })?;
        }
        let old_engine = self.snapshot().engine;
        // Trussness is maintained only once a query paid for it: the
        // repair adopts the table that query's decomposition left on the
        // epoch, once per store lifetime, and from then on hands every
        // epoch its own.
        if state.truss.is_none() {
            if let Some(table) = old_engine.index().edge_trussness_if_computed() {
                let graph = old_engine.graph_arc();
                state.truss = Some(TrussMaintainer::adopt(graph, table.clone()));
            }
        }

        let mut report = UpdateReport::default();
        let mut edges_changed = false;
        let mut attrs_changed: Vec<NodeId> = Vec::new();
        let mut n_changed = false;
        let mut first_error: Option<GraphError> = None;

        for update in updates {
            let StoreState { mutable, truss, .. } = &mut *state;
            match mutable.apply(update) {
                Ok(Applied::EdgeAdded(u, v)) => {
                    if let Some(truss) = truss {
                        truss.insert_edge(mutable, u, v);
                    }
                    edges_changed = true;
                    report.edges_added += 1;
                }
                Ok(Applied::EdgeRemoved(u, v)) => {
                    if let Some(truss) = truss {
                        truss.remove_edge(mutable, u, v);
                    }
                    edges_changed = true;
                    report.edges_removed += 1;
                }
                Ok(Applied::VertexAdded(_)) => {
                    n_changed = true;
                    report.vertices_added += 1;
                }
                Ok(Applied::AttributesSet(v)) => {
                    attrs_changed.push(v);
                    report.attributes_set += 1;
                }
                Ok(Applied::NoOp) => report.noops += 1,
                Err(e) => {
                    first_error = Some(e);
                    break;
                }
            }
        }
        attrs_changed.sort_unstable();
        attrs_changed.dedup();

        // Publish the applied prefix as the next epoch (no-op batches
        // still bump the epoch — an epoch is "apply happened", which
        // keeps report numbering simple and observable).
        let new_graph = state.mutable.publish();

        // Coreness: one peel if an edge moved; otherwise the old table,
        // with core 0 for every vertex the batch appended.
        let old_core = old_engine.coreness();
        let new_core = if edges_changed {
            core_decomposition(&new_graph)
        } else {
            let mut core = old_core.to_vec();
            core.resize(new_graph.n(), 0);
            core
        };
        report.coreness_changed = new_core
            .iter()
            .zip(old_core)
            .filter(|(a, b)| a != b)
            .count()
            + (new_core.len() - old_core.len());
        let trussness = state
            .truss
            .as_mut()
            .map(|t| t.publish(&new_graph, old_engine.node_trussness()));

        // Selective distance-table invalidation (see the module docs).
        let ranges_changed = n_changed
            || !attrs_changed.is_empty() && {
                let dims = new_graph.attrs().dims();
                let old_attrs = old_engine.graph().attrs();
                (0..dims).any(|d| old_attrs.dim_range(d) != new_graph.attrs().dim_range(d))
            };
        // A dropped table's key joins the admission record, so the next
        // read of a hot node re-admits its table on that first miss.
        let mut carried: Vec<(DistanceKey, Arc<QueryDistances>)> = Vec::new();
        let mut missed = old_engine.export_missed();
        for (key, table) in old_engine.export_distances() {
            if ranges_changed || attrs_changed.binary_search(&key.0).is_ok() {
                // Every normalized coordinate may have moved, or the query
                // node's own attributes did: every slot is stale.
                report.distance_tables_invalidated += 1;
                missed.push(key);
            } else if !attrs_changed.is_empty() {
                // Warm carry-over with just the changed slots forgotten.
                carried.push((key, Arc::new(table.clone_with_reset(&attrs_changed))));
                report.distance_tables_retained += 1;
            } else {
                // Structural-only batch: distances cannot change at all.
                carried.push((key, table));
                report.distance_tables_retained += 1;
            }
        }

        state.epoch += 1;
        report.epoch = state.epoch;

        if let Some(wal) = &self.wal {
            // Periodic checkpoint so replay is bounded by the delta
            // since the last snapshot. Failure is tolerated (counted in
            // the status; the log keeps the full history).
            wal.maybe_checkpoint(&new_graph, state.epoch);
        }

        let (edge_trussness, node_trussness) = trussness.unzip();
        let engine = Arc::new(Engine::from_store_parts(
            new_graph,
            state.epoch,
            EpochIndex::seeded(new_core, node_trussness, edge_trussness),
            carried,
            missed,
        ));
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = engine;

        // Signal subscribers only after the engine swap: a woken waiter
        // snapshotting immediately must see (at least) this epoch.
        self.watch.publish(state.epoch);

        match first_error {
            Some(e) => Err(ApplyError::Graph(e)),
            None => Ok(report),
        }
    }

    /// Replays one log record onto this store — **the** replay rule,
    /// shared by the in-process replica thread, the remote follower's
    /// frame loop and WAL recovery. A record at or below the store's
    /// epoch is [`Replay::Skipped`] (a reseed snapshot or checkpoint
    /// already contains it); one that does not carry exactly the next
    /// epoch is refused untouched as a [`Replay::Gap`]; otherwise the
    /// batch goes through [`GraphStore::apply`], whose `Result` is
    /// deliberately ignored — the writer applied this exact batch to the
    /// identical previous state, so a [`GraphError`] and the prefix it
    /// published are reproduced here by construction — and the store
    /// must then sit at the record's epoch ([`Replay::Applied`], else
    /// [`Replay::Diverged`]).
    ///
    /// The caller must be the store's only writer. Reacting to a gap or
    /// a divergence (degrade, drop the session, report a corrupt log) is
    /// the caller's business, not part of the rule.
    pub fn replay(&self, record: &LogRecord) -> Replay {
        let published = self.published_epoch();
        if record.epoch <= published {
            return Replay::Skipped;
        }
        if record.epoch != published + 1 {
            return Replay::Gap {
                expected: published + 1,
            };
        }
        let _ = self.apply(&record.updates);
        match self.published_epoch() {
            reached if reached == record.epoch => Replay::Applied,
            reached => Replay::Diverged { reached },
        }
    }
}

// The store serves concurrent updaters and readers: updates serialize on
// the state mutex, snapshots are an `Arc` clone under a read lock.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphStore>();
    assert_send_sync::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CommunityQuery, Method};
    use csag_decomp::CommunityModel;
    use csag_graph::GraphBuilder;

    /// A 4-clique plus a pendant node 4.
    fn clique_plus_tail() -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for value in [0.0, 0.1, 0.2, 0.3, 1.0] {
            b.add_node(&["t"], &[value]);
        }
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v).unwrap();
            }
        }
        b.add_edge(3, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn epochs_isolate_readers_from_updates() {
        let store = GraphStore::new(clique_plus_tail());
        let old = store.snapshot();
        let q3 = CommunityQuery::new(Method::Exact, 4).with_k(3);
        assert!(old.run(&q3).is_err(), "node 4 has core 1 before the update");

        // Wire node 4 into the clique: now it sits in a 4-core... of k=3.
        let report = store
            .apply(&[
                GraphUpdate::AddEdge { u: 4, v: 0 },
                GraphUpdate::AddEdge { u: 4, v: 1 },
                GraphUpdate::AddEdge { u: 4, v: 2 },
            ])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.edges_added, 3);
        assert!(report.coreness_changed >= 1);

        let new = store.snapshot();
        assert_eq!(new.epoch(), 1);
        assert!(new.run(&q3).is_ok(), "new epoch sees the edges");
        // The pinned old snapshot still answers from its own graph.
        assert!(old.run(&q3).is_err(), "old epoch is immutable");
        assert_eq!(old.graph().m(), 7);
        assert_eq!(new.graph().m(), 10);
    }

    #[test]
    fn structural_updates_keep_distance_tables_bit_for_bit() {
        let store = GraphStore::new(clique_plus_tail());
        let snap = store.snapshot();
        let gamma = CommunityQuery::new(Method::Exact, 0).with_k(2).gamma;
        // The second read admits the table.
        for _ in 0..2 {
            snap.run(&CommunityQuery::new(Method::Exact, 0).with_k(2))
                .unwrap();
        }
        let table = snap.engine().cached_distances(0, gamma).unwrap();

        let report = store.apply(&[GraphUpdate::AddEdge { u: 4, v: 0 }]).unwrap();
        assert_eq!(report.distance_tables_retained, 1);
        assert_eq!(report.distance_tables_invalidated, 0);
        let carried = store
            .snapshot()
            .engine()
            .cached_distances(0, gamma)
            .expect("table carried across the epoch");
        assert!(
            Arc::ptr_eq(&table, &carried),
            "structural churn must not copy distance tables"
        );
    }

    #[test]
    fn attribute_updates_invalidate_selectively() {
        let store = GraphStore::new(clique_plus_tail());
        let snap = store.snapshot();
        let gamma = CommunityQuery::new(Method::Exact, 0).with_k(2).gamma;
        // Two reads per node: the second admits its table.
        for q in [0u32, 1, 0, 1] {
            snap.run(&CommunityQuery::new(Method::Exact, q).with_k(2))
                .unwrap();
        }
        let table0 = snap.engine().cached_distances(0, gamma).unwrap();

        // Change node 1's tokens only (numeric untouched ⇒ normalization
        // ranges cannot move): q = 1's table dies, q = 0's is carried
        // warm with slot 1 forgotten.
        let report = store
            .apply(&[GraphUpdate::SetAttributes {
                v: 1,
                tokens: Some(vec!["other".into()]),
                numeric: None,
            }])
            .unwrap();
        assert_eq!(report.distance_tables_retained, 1);
        assert_eq!(report.distance_tables_invalidated, 1);
        let new = store.snapshot();
        assert!(new.engine().cached_distances(1, gamma).is_none());
        let patched = new.engine().cached_distances(0, gamma).unwrap();
        assert!(!Arc::ptr_eq(&table0, &patched), "slot-patched copy");
        assert_eq!(
            patched.computed(),
            table0.computed() - 1,
            "exactly the changed node's slot was forgotten"
        );

        // An update that shifts a normalization range drops everything.
        let report = store
            .apply(&[GraphUpdate::SetAttributes {
                v: 4,
                tokens: None,
                numeric: Some(vec![50.0]),
            }])
            .unwrap();
        assert_eq!(report.distance_tables_retained, 0);
        assert!(report.distance_tables_invalidated >= 1);
        assert_eq!(store.snapshot().engine().cached_query_nodes(), 0);
    }

    #[test]
    fn a_structural_batch_carries_the_admission_record() {
        let store = GraphStore::new(clique_plus_tail());
        let query = CommunityQuery::new(Method::Exact, 0).with_k(2);
        store.snapshot().run(&query).unwrap();
        assert_eq!(store.snapshot().engine().cached_query_nodes(), 0);
        store.apply(&[GraphUpdate::AddEdge { u: 4, v: 0 }]).unwrap();
        let snap = store.snapshot();
        snap.run(&query).unwrap();
        assert_eq!(
            snap.engine().cached_query_nodes(),
            1,
            "the read before the batch was the key's first miss"
        );
    }

    #[test]
    fn an_invalidated_table_is_readmitted_on_its_next_miss() {
        let store = GraphStore::new(clique_plus_tail());
        let query = CommunityQuery::new(Method::Exact, 1).with_k(2);
        for _ in 0..2 {
            store.snapshot().run(&query).unwrap();
        }
        assert!(store
            .snapshot()
            .engine()
            .cached_distances(1, query.gamma)
            .is_some());
        // q's own tokens move: its table is dropped, its key remembered.
        let report = store
            .apply(&[GraphUpdate::SetAttributes {
                v: 1,
                tokens: Some(vec!["other".into()]),
                numeric: None,
            }])
            .unwrap();
        assert_eq!(report.distance_tables_invalidated, 1);
        let snap = store.snapshot();
        assert_eq!(snap.engine().cached_query_nodes(), 0);
        snap.run(&query).unwrap();
        assert!(
            snap.engine().cached_distances(1, query.gamma).is_some(),
            "the first read after the batch re-admits the table"
        );
    }

    #[test]
    fn adding_vertices_resizes_every_epoch_structure() {
        let store = GraphStore::new(clique_plus_tail());
        // Two reads: the second admits a table for the batch to drop.
        for _ in 0..2 {
            store
                .snapshot()
                .run(&CommunityQuery::new(Method::Exact, 0).with_k(2))
                .unwrap();
        }
        let report = store
            .apply(&[
                GraphUpdate::AddVertex {
                    tokens: vec!["t".into()],
                    numeric: vec![0.5],
                },
                GraphUpdate::AddEdge { u: 5, v: 0 },
                GraphUpdate::AddEdge { u: 5, v: 1 },
            ])
            .unwrap();
        assert_eq!(report.vertices_added, 1);
        assert_eq!(report.distance_tables_retained, 0, "n changed: drop all");
        let snap = store.snapshot();
        assert_eq!(snap.graph().n(), 6);
        // Queries on the new vertex work immediately.
        let res = snap
            .run(&CommunityQuery::new(Method::Exact, 5).with_k(2))
            .unwrap();
        assert!(res.community.contains(&5));
        // The pre-seeded coreness matches a fresh decomposition.
        assert_eq!(
            snap.engine().coreness(),
            csag_decomp::core_decomposition(snap.graph()).as_slice()
        );
        assert_eq!(snap.engine().decomp_computations(), 0, "seeded, not rerun");
    }

    #[test]
    fn trussness_is_patched_only_once_paid_for() {
        let store = GraphStore::new(clique_plus_tail());
        // No truss query yet: updates must not force the decomposition.
        store.apply(&[GraphUpdate::AddEdge { u: 4, v: 0 }]).unwrap();
        assert_eq!(store.snapshot().engine().truss_decomp_computations(), 0);
        assert!(store.state.lock().unwrap().truss.is_none(), "nor seed one");

        // Pay for it on epoch 1, then churn: epoch 2's table is patched,
        // not recomputed, and matches from scratch.
        let truss_query = CommunityQuery::new(Method::Exact, 0)
            .with_k(3)
            .with_model(CommunityModel::KTruss);
        store.snapshot().run(&truss_query).unwrap();
        store
            .apply(&[
                GraphUpdate::AddEdge { u: 4, v: 1 },
                GraphUpdate::AddEdge { u: 4, v: 2 },
            ])
            .unwrap();
        let snap = store.snapshot();
        assert_eq!(
            snap.engine().node_trussness(),
            csag_decomp::node_max_trussness(snap.graph()).as_slice()
        );
        assert_eq!(
            snap.engine().truss_decomp_computations(),
            0,
            "the epoch inherited a patched table"
        );
        assert!(snap.run(&truss_query).is_ok());
        assert!(store.state.lock().unwrap().truss.is_some());
        // A reset starts over: the maintainer described the old graph.
        store.reset_to(Arc::new(clique_plus_tail()), 7);
        assert!(store.state.lock().unwrap().truss.is_none());
    }

    #[test]
    fn erroneous_updates_stop_the_batch_and_surface() {
        let store = GraphStore::new(clique_plus_tail());
        let err = store
            .apply(&[
                GraphUpdate::AddEdge { u: 0, v: 4 },
                GraphUpdate::AddEdge { u: 0, v: 99 },
                GraphUpdate::AddEdge { u: 1, v: 4 },
            ])
            .unwrap_err();
        assert_eq!(
            err,
            ApplyError::Graph(GraphError::NodeOutOfRange { node: 99, n: 5 })
        );
        // The valid prefix was applied and published.
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert!(snap.graph().has_edge(0, 4));
        assert!(!snap.graph().has_edge(1, 4), "update after the error halts");
    }

    #[test]
    fn subscribers_observe_publishes_without_polling() {
        let store = GraphStore::new(clique_plus_tail());
        assert_eq!(store.published_epoch(), 0);
        assert!(store.wait_for_epoch(0, Duration::ZERO), "already published");
        assert!(
            !store.wait_for_epoch(1, Duration::from_millis(5)),
            "not yet"
        );

        // A blocked waiter is woken by the publish itself.
        let store = Arc::new(store);
        let waiter = std::thread::spawn({
            let store = Arc::clone(&store);
            move || store.wait_for_epoch(1, Duration::from_secs(10))
        });
        store.apply(&[GraphUpdate::AddEdge { u: 4, v: 0 }]).unwrap();
        assert!(waiter.join().unwrap());
        assert_eq!(store.published_epoch(), 1);

        // Erroneous batches still publish (the applied prefix) and wake.
        let _ = store
            .apply(&[GraphUpdate::AddEdge { u: 0, v: 99 }])
            .unwrap_err();
        assert_eq!(store.published_epoch(), 2);
    }

    #[test]
    fn epoch_cell_is_monotonic_and_wakes_waiters() {
        let cell = EpochCell::new(3);
        assert_eq!(cell.current(), 3);
        cell.publish(1);
        assert_eq!(cell.current(), 3, "never moves backward");
        assert!(cell.wait_for(3, Duration::ZERO));
        assert!(!cell.wait_for(4, Duration::from_millis(5)));

        let cell = Arc::new(EpochCell::new(0));
        let waiter = std::thread::spawn({
            let cell = Arc::clone(&cell);
            move || cell.wait_for(2, Duration::from_secs(10))
        });
        cell.publish(2);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn replay_skips_overlap_refuses_gaps_and_applies_the_next_epoch() {
        let store = GraphStore::new(clique_plus_tail());
        let record = |epoch| LogRecord::new(epoch, vec![GraphUpdate::AddEdge { u: 4, v: 0 }]);
        assert_eq!(store.replay(&record(2)), Replay::Gap { expected: 1 });
        assert_eq!(store.published_epoch(), 0, "a refused gap touches nothing");
        assert_eq!(store.replay(&record(1)), Replay::Applied);
        assert_eq!(store.replay(&record(1)), Replay::Skipped);
        assert_eq!(store.snapshot().graph().m(), 8);
        // An erroneous batch reproduces the writer's published prefix.
        let bad = LogRecord::new(2, vec![GraphUpdate::AddEdge { u: 0, v: 99 }]);
        assert_eq!(store.replay(&bad), Replay::Applied);
        assert_eq!(store.published_epoch(), 2);
    }

    #[test]
    fn from_arc_at_renumbers_epochs_for_reseed() {
        let primary = GraphStore::new(clique_plus_tail());
        primary
            .apply(&[GraphUpdate::AddEdge { u: 4, v: 0 }])
            .unwrap();
        let snap = primary.snapshot();
        let replica = GraphStore::from_arc_at(snap.engine().graph_arc(), snap.epoch());
        assert_eq!(replica.published_epoch(), 1);
        assert_eq!(replica.snapshot().epoch(), 1);
        let report = replica
            .apply(&[GraphUpdate::AddEdge { u: 4, v: 1 }])
            .unwrap();
        assert_eq!(report.epoch, 2, "continues the primary's numbering");
        // The reseeded store's decompositions match a fresh peel.
        let s = replica.snapshot();
        assert_eq!(
            s.engine().coreness(),
            csag_decomp::core_decomposition(s.graph()).as_slice()
        );
    }

    #[test]
    fn store_run_serves_the_latest_epoch() {
        let store = GraphStore::new(clique_plus_tail());
        let q = CommunityQuery::new(Method::Exact, 4).with_k(3);
        assert!(store.run(&q).is_err());
        store
            .apply(&[
                GraphUpdate::AddEdge { u: 4, v: 0 },
                GraphUpdate::AddEdge { u: 4, v: 1 },
                GraphUpdate::AddEdge { u: 4, v: 2 },
            ])
            .unwrap();
        assert!(store.run(&q).is_ok());
        assert_eq!(store.epoch(), 1);
    }
}
