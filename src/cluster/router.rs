//! The epoch-consistent router: owns the write path (primary apply +
//! log fan-out) and load-balances reads across caught-up replicas.
//!
//! See the [module docs](super) for the guarantees; the short version:
//!
//! * **Writes** go through [`Router::apply`]: the primary applies the
//!   batch, then one [`LogRecord`] per published epoch fans out to
//!   every replica channel — both under one write lock, so each
//!   channel receives records in epoch order.
//! * **Reads** go through [`ReadSource::route_read`]: an unpinned read
//!   picks the least-loaded healthy caught-up replica (primary as
//!   fallback); a read pinned to epoch `E` is only ever served by a
//!   store whose published watermark is `>= E` — a lagging replica is
//!   skipped, the primary steps in, and a not-yet-published epoch
//!   waits (condvar, no polling) up to the caller's budget before
//!   failing with the typed
//!   [`CsagError::EpochUnavailable`](crate::engine::CsagError).

use crate::cluster::health::ReplicaHealth;
use crate::cluster::remote::feed::{CatchUp, RemoteAttach, RemoteMember};
use crate::cluster::replica::{replica_loop, ReplicaMsg, ReplicaState};
use crate::cluster::replication::LogRecord;
use crate::cluster::shard::{planner, ClusterView, ShardStats};
use crate::engine::query::CommunityQuery;
use crate::engine::store::ReadCounters;
use crate::engine::{
    ApplyError, CommunityResult, CsagError, GraphStore, GraphUpdate, Snapshot, UpdateReport,
};
use crate::json::Writer;
use csag_graph::{AttributedGraph, NodeId, QueryWorkspace};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which store answered a routed read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOrigin {
    /// The primary store (the write path's own copy).
    Primary,
    /// Replica `i` (0-based).
    Replica(usize),
    /// A sharded cluster view ([`crate::cluster::shard::ShardedRouter`]):
    /// the answering store is decided per query by the shard planner.
    Sharded,
}

/// A claim on a replica's read capacity; dropping it (with the last
/// clone of its routed snapshot) releases the replica's `outstanding`
/// slot, which is the router's least-loaded signal.
pub(crate) struct ReadLease {
    outstanding: Arc<AtomicU64>,
}

impl ReadLease {
    fn acquire(outstanding: &Arc<AtomicU64>) -> Arc<ReadLease> {
        outstanding.fetch_add(1, Ordering::Relaxed);
        Arc::new(ReadLease {
            outstanding: Arc::clone(outstanding),
        })
    }
}

impl Drop for ReadLease {
    fn drop(&mut self) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a routed read resolves to: one pinned engine snapshot (the
/// single-store and replica cases), or a whole pinned [`ClusterView`]
/// whose per-query store is decided by the shard planner.
#[derive(Clone)]
enum RouteTarget {
    Engine(Snapshot),
    Shards {
        view: Arc<ClusterView>,
        stats: Arc<ShardStats>,
    },
}

/// A routed read: the pinned [`Snapshot`] (or sharded [`ClusterView`])
/// that will answer, where it came from, and (for replica reads) the
/// load-accounting lease that lives as long as any clone of this value.
#[derive(Clone)]
pub struct RoutedSnapshot {
    target: RouteTarget,
    origin: ReadOrigin,
    _lease: Option<Arc<ReadLease>>,
}

impl std::fmt::Debug for RoutedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedSnapshot")
            .field("epoch", &self.epoch())
            .field("origin", &self.origin)
            .finish_non_exhaustive()
    }
}

impl RoutedSnapshot {
    /// Wraps a primary-store snapshot (no lease to account).
    pub(crate) fn primary(snapshot: Snapshot) -> Self {
        RoutedSnapshot {
            target: RouteTarget::Engine(snapshot),
            origin: ReadOrigin::Primary,
            _lease: None,
        }
    }

    /// Wraps a pinned cluster view from a sharded router.
    pub(crate) fn sharded(view: Arc<ClusterView>, stats: Arc<ShardStats>) -> Self {
        RoutedSnapshot {
            target: RouteTarget::Shards { view, stats },
            origin: ReadOrigin::Sharded,
            _lease: None,
        }
    }

    /// The snapshot that will answer the read. For a sharded read this
    /// is the view's whole-graph assembly (built lazily, at most once
    /// per cluster epoch) — per-query work should go through
    /// [`RoutedSnapshot::run_with_workspace`] instead, which routes to
    /// individual shards.
    pub fn snapshot(&self) -> &Snapshot {
        match &self.target {
            RouteTarget::Engine(snapshot) => snapshot,
            RouteTarget::Shards { view, .. } => view.assembly(),
        }
    }

    /// The epoch the read will answer from (for a read pinned to `E`,
    /// always `>= E`).
    pub fn epoch(&self) -> u64 {
        match &self.target {
            RouteTarget::Engine(snapshot) => snapshot.epoch(),
            RouteTarget::Shards { view, .. } => view.epoch(),
        }
    }

    /// Which store the read was routed to.
    pub fn origin(&self) -> ReadOrigin {
        self.origin
    }

    /// Whether the distance table for `(q, γ)` is already resident on
    /// the store that would answer — the scheduler's warm-start signal.
    /// For a sharded read, the home shard's cache is consulted.
    pub fn warm_hit(&self, q: NodeId, gamma: f64) -> bool {
        match &self.target {
            RouteTarget::Engine(snapshot) => snapshot.engine().cached_distances(q, gamma).is_some(),
            RouteTarget::Shards { view, .. } => {
                (q as usize) < view.journal().engine().graph().n()
                    && view
                        .shard(view.owner(q))
                        .engine()
                        .cached_distances(q, gamma)
                        .is_some()
            }
        }
    }

    /// Runs one query against the routed target: directly on the
    /// pinned engine, or — for a sharded read — through the shard
    /// planner (shard-local under a coverage certificate,
    /// scatter-gather otherwise). Byte-identical either way.
    ///
    /// # Errors
    /// Same as [`crate::engine::Engine::run`].
    pub fn run_with_workspace(
        &self,
        query: &CommunityQuery,
        ws: &mut QueryWorkspace,
    ) -> Result<CommunityResult, CsagError> {
        match &self.target {
            RouteTarget::Engine(snapshot) => snapshot.engine().run_with_workspace(query, ws),
            RouteTarget::Shards { view, stats } => planner::execute(view, stats, query, ws),
        }
    }
}

/// Where a scheduler gets its read snapshots: either a bare
/// [`GraphStore`] (single-store serving, the pre-cluster behavior) or a
/// [`Router`] fronting N replicas. The contract both uphold: the
/// returned snapshot's epoch is `>= pin` whenever a pin is given, and
/// a pin no store can satisfy within `wait` fails with
/// [`CsagError::EpochUnavailable`] instead of serving stale state.
pub trait ReadSource: Send + Sync {
    /// Routes one read: `pin` is the minimum epoch the answer may come
    /// from (`None`: any current epoch), `wait` bounds how long the
    /// router may block for a not-yet-published pinned epoch.
    ///
    /// # Errors
    /// [`CsagError::EpochUnavailable`] when `pin` exceeds every
    /// reachable store's published epoch for the whole `wait` budget.
    fn route_read(&self, pin: Option<u64>, wait: Duration) -> Result<RoutedSnapshot, CsagError>;
}

impl ReadSource for GraphStore {
    /// Single-store routing: the current snapshot, once the store's own
    /// publish watermark admits the pin. (A bare store reports no read
    /// metrics, so the gate's counts are dropped.)
    fn route_read(&self, pin: Option<u64>, wait: Duration) -> Result<RoutedSnapshot, CsagError> {
        self.watermark()
            .admit_read(pin, wait, &ReadCounters::default())?;
        Ok(RoutedSnapshot::primary(self.snapshot()))
    }
}

/// One replica as the router holds it: shared state + channel + thread.
struct ReplicaHandle {
    state: Arc<ReplicaState>,
    tx: mpsc::Sender<ReplicaMsg>,
    join: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    fn spawn(id: usize, seed: &Snapshot) -> Self {
        let store = GraphStore::from_arc_at(seed.engine().graph_arc(), seed.epoch());
        let state = Arc::new(ReplicaState::new(id, store));
        let (tx, rx) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name(format!("csag-replica-{id}"))
            .spawn({
                let state = Arc::clone(&state);
                move || replica_loop(state, rx)
            })
            .expect("spawn replica thread");
        ReplicaHandle {
            state,
            tx,
            join: Some(join),
        }
    }

    /// Queues a reseed from `snap` (the primary, pinned under the write
    /// lock) when this replica is degraded; `true` when one was queued.
    /// The replica rejoins the rotation once it has rebuilt.
    fn reseed_if_degraded(&self, snap: &Snapshot) -> bool {
        let degraded = self.state.status.health() == ReplicaHealth::Degraded;
        if degraded {
            self.state.status.set_health(ReplicaHealth::Reseeding);
            let _ = self.tx.send(ReplicaMsg::Reseed {
                graph: snap.engine().graph_arc(),
                epoch: snap.epoch(),
            });
        }
        degraded
    }
}

/// The cluster front-end: primary store + N in-process replicas behind
/// an epoch-consistent read router. See the [module docs](super).
pub struct Router {
    primary: Arc<GraphStore>,
    replicas: Vec<ReplicaHandle>,
    /// Remote replicas (followers in other processes), registered by
    /// the replication listener as their connections handshake. Keyed
    /// by follower name; entries survive disconnects.
    remotes: Mutex<Vec<Arc<RemoteMember>>>,
    /// Serializes primary-apply + fan-out so every replica channel
    /// receives log records in epoch order.
    write: Mutex<()>,
    /// Rotation offset for least-loaded ties.
    rotate: AtomicUsize,
    records: AtomicU64,
    reads: ReadCounters,
    primary_reads: AtomicU64,
}

impl Router {
    /// Fronts an existing primary store with `replicas` in-process
    /// replica stores, each seeded from the primary's current snapshot.
    pub fn new(primary: Arc<GraphStore>, replicas: usize) -> Self {
        let seed = primary.snapshot();
        let replicas = (0..replicas)
            .map(|id| ReplicaHandle::spawn(id, &seed))
            .collect();
        Router {
            primary,
            replicas,
            remotes: Mutex::new(Vec::new()),
            write: Mutex::new(()),
            rotate: AtomicUsize::new(0),
            records: AtomicU64::new(0),
            reads: ReadCounters::default(),
            primary_reads: AtomicU64::new(0),
        }
    }

    /// [`Router::new`] over a fresh store built from `graph`.
    pub fn over_graph(graph: AttributedGraph, replicas: usize) -> Self {
        Router::new(Arc::new(GraphStore::new(graph)), replicas)
    }

    /// The primary store (reads through it bypass the rotation; apply
    /// through [`Router::apply`], never directly, or replicas will
    /// permanently lag).
    pub fn primary(&self) -> &Arc<GraphStore> {
        &self.primary
    }

    /// Number of replicas behind this router.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The primary's published epoch (the cluster-wide high-watermark).
    pub fn epoch(&self) -> u64 {
        self.primary.published_epoch()
    }

    /// The cluster write path: applies `updates` to the primary and
    /// fans the resulting [`LogRecord`] out to every replica channel.
    /// A degraded replica instead receives a reseed from the post-batch
    /// primary snapshot (it rejoins the rotation once rebuilt).
    ///
    /// # Errors
    /// Exactly [`GraphStore::apply`]'s errors. An erroneous batch
    /// ([`ApplyError::Graph`]) still publishes (and replicates) its
    /// applied prefix — the epoch bumps on every outcome, keeping
    /// primary and replicas in lockstep. A refused batch
    /// ([`ApplyError::refused_batch`]: the log was unavailable, or an
    /// update has no faithful text form) applied *nothing* — no epoch
    /// bump — so no record fans out either.
    pub fn apply(&self, updates: &[GraphUpdate]) -> Result<UpdateReport, ApplyError> {
        let _guard = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        let outcome = self.primary.apply(updates);
        if matches!(&outcome, Err(e) if e.refused_batch()) {
            // The primary is byte-for-byte unchanged: replicating would
            // fan out a record for an epoch that never happened.
            return outcome;
        }
        let snap = self.primary.snapshot();
        let record = LogRecord::new(snap.epoch(), updates.to_vec());
        self.records.fetch_add(1, Ordering::Relaxed);
        for replica in &self.replicas {
            if !replica.reseed_if_degraded(&snap) {
                let _ = replica.tx.send(ReplicaMsg::Apply(record.clone()));
            }
        }
        for remote in self.remotes().iter() {
            remote.send(&record);
        }
        outcome
    }

    fn remotes(&self) -> std::sync::MutexGuard<'_, Vec<Arc<RemoteMember>>> {
        self.remotes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-attaches) the remote replica `name` under the
    /// write lock and decides its catch-up path against the primary's
    /// epoch *at attach time*: every record fanned out after this call
    /// has a higher epoch, so the connection that executes the returned
    /// [`CatchUp`] and then forwards the feed delivers a gapless,
    /// in-order stream.
    ///
    /// # Errors
    /// A message for the `error` handshake response — today only a
    /// follower claiming an epoch *above* the primary's (it followed a
    /// different history; applying our records to it would corrupt it).
    pub(crate) fn attach_remote(
        &self,
        name: &str,
        follower_epoch: Option<u64>,
    ) -> Result<RemoteAttach, String> {
        let _guard = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        let pinned = self.primary.published_epoch();
        if let Some(ahead) = follower_epoch.filter(|&e| e > pinned) {
            return Err(format!(
                "follower epoch {ahead} is ahead of primary epoch {pinned}"
            ));
        }
        let member = self.remote(name).unwrap_or_else(|| {
            let m = Arc::new(RemoteMember::new(name));
            self.remotes().push(Arc::clone(&m));
            m
        });
        // A follower with state resumes when it is level with the
        // primary or the WAL can still prove the `(from, pinned]` run it
        // is missing; everything else is a snapshot.
        let resume = follower_epoch.and_then(|from| {
            let records = if from == pinned {
                Vec::new()
            } else {
                let wal = self.primary.wal()?;
                crate::durability::read_tail_records(wal.dir(), from, pinned)?
            };
            Some(CatchUp::Tail { from, records })
        });
        let catch_up = match resume {
            Some(tail) => tail,
            None => self.snapshot_catch_up(pinned)?,
        };
        if matches!(catch_up, CatchUp::Snapshot { .. }) {
            member.status.set_health(ReplicaHealth::Reseeding);
        }
        let (tx, rx) = mpsc::channel();
        let generation = member.attach(tx);
        Ok(RemoteAttach {
            member,
            feed: rx,
            generation,
            catch_up,
        })
    }

    /// Builds the snapshot-shipping payload for a follower that must be
    /// reseeded: the newest WAL checkpoint's raw bytes plus the log
    /// tail up to `pinned` when the primary is durable (no re-encoding
    /// — the `csag::durability` checkpoint file *is* the payload), else
    /// a fresh in-memory serialization of the current snapshot.
    fn snapshot_catch_up(&self, pinned: u64) -> Result<CatchUp, String> {
        if let Some(wal) = self.primary.wal() {
            if let Ok((epoch, bytes)) = wal.checkpoint_bytes() {
                if let Some(tail) = crate::durability::read_tail_records(wal.dir(), epoch, pinned) {
                    return Ok(CatchUp::Snapshot { epoch, bytes, tail });
                }
            }
        }
        let snap = self.primary.snapshot();
        let mut bytes = Vec::new();
        csag_graph::io::write_graph(snap.engine().graph(), &mut bytes)
            .map_err(|e| format!("serializing snapshot: {e}"))?;
        Ok(CatchUp::Snapshot {
            epoch: snap.epoch(),
            bytes,
            tail: Vec::new(),
        })
    }

    /// The registry entry of remote replica `name`, if registered.
    fn remote(&self, name: &str) -> Option<Arc<RemoteMember>> {
        self.remotes().iter().find(|m| m.name == name).cloned()
    }

    /// Current health of the remote replica `name`, if registered.
    pub fn remote_health(&self, name: &str) -> Option<ReplicaHealth> {
        self.remote(name).map(|m| m.status.health())
    }

    /// Blocks until remote replica `name`'s acked watermark reaches the
    /// primary's current epoch, or `timeout` elapses. `false` when the
    /// member is unknown or the wait times out.
    pub fn wait_remote_caught_up(&self, name: &str, timeout: Duration) -> bool {
        let target = self.primary.published_epoch();
        self.remote(name)
            .is_some_and(|m| m.watermark.wait_for(target, timeout))
    }

    /// Queues a reseed for every currently degraded replica (the write
    /// path does this lazily on the next batch; `heal` forces it now).
    /// Returns how many reseeds were queued.
    pub fn heal(&self) -> usize {
        let _guard = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = self.primary.snapshot();
        self.replicas
            .iter()
            .filter(|replica| replica.reseed_if_degraded(&snap))
            .count()
    }

    /// Degrades every healthy replica — in-process or remote — that has
    /// not heartbeat (for remotes: acked) within `max_silence`
    /// (reseeding replicas are busy rebuilding and exempt by design).
    /// Returns how many were newly degraded; local replicas reseed on
    /// the next [`Router::heal`] / [`Router::apply`], remote ones on
    /// their next reconnect handshake.
    pub fn health_check(&self, max_silence: Duration) -> usize {
        let remotes = self.remotes();
        let locals = self.replicas.iter().map(|r| &r.state.status);
        let mut degraded = 0;
        for status in locals.chain(remotes.iter().map(|m| &m.status)) {
            if status.health() == ReplicaHealth::Healthy && status.silence() > max_silence {
                status.set_health(ReplicaHealth::Degraded);
                degraded += 1;
            }
        }
        degraded
    }

    /// Current health of replica `i`.
    pub fn replica_health(&self, i: usize) -> ReplicaHealth {
        self.replicas[i].state.status.health()
    }

    /// Replica `i`'s published high-watermark.
    pub fn replica_watermark(&self, i: usize) -> u64 {
        self.replicas[i].state.store.published_epoch()
    }

    /// Blocks until every healthy replica's watermark reaches the
    /// primary's current epoch, or `timeout` elapses. `true` when all
    /// caught up (vacuously, when no replica is healthy).
    pub fn wait_replicas_caught_up(&self, timeout: Duration) -> bool {
        let target = self.primary.published_epoch();
        let deadline = std::time::Instant::now() + timeout;
        self.replicas
            .iter()
            .filter(|r| r.state.status.health() == ReplicaHealth::Healthy)
            .all(|r| {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                r.state.store.watermark().wait_for(target, left)
            })
    }

    /// Test/bench seam: stop replica `i` consuming its channel (records
    /// queue up — simulated replication lag). It keeps heartbeating.
    pub fn pause_replica(&self, i: usize) {
        self.replicas[i].state.paused.store(true, Ordering::Relaxed);
    }

    /// Undoes [`Router::pause_replica`]; the replica drains its backlog.
    pub fn resume_replica(&self, i: usize) {
        self.replicas[i]
            .state
            .paused
            .store(false, Ordering::Relaxed);
        self.replicas[i]
            .state
            .silenced
            .store(false, Ordering::Relaxed);
    }

    /// Test/bench seam: pause replica `i` *and* stop its heartbeat, so
    /// [`Router::health_check`] observes a silent replica.
    pub fn silence_replica(&self, i: usize) {
        self.replicas[i]
            .state
            .silenced
            .store(true, Ordering::Relaxed);
        self.replicas[i].state.paused.store(true, Ordering::Relaxed);
    }

    /// Test/bench seam: replica `i` fails its next apply (an induced
    /// replica failure: it degrades and leaves the read rotation until
    /// reseeded).
    pub fn induce_failure(&self, i: usize) {
        self.replicas[i]
            .state
            .fail_next
            .store(true, Ordering::Relaxed);
    }

    /// Picks the least-loaded healthy replica whose watermark has
    /// reached `min_epoch` (rotating ties).
    fn pick_replica(&self, min_epoch: u64) -> Option<&ReplicaHandle> {
        let n = self.replicas.len();
        if n == 0 {
            return None;
        }
        let start = self.rotate.fetch_add(1, Ordering::Relaxed);
        let mut best: Option<(&ReplicaHandle, u64)> = None;
        for i in 0..n {
            let replica = &self.replicas[(start + i) % n];
            if replica.state.status.health() != ReplicaHealth::Healthy
                || replica.state.store.published_epoch() < min_epoch
            {
                continue;
            }
            let load = replica.state.outstanding.load(Ordering::Relaxed);
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((replica, load));
            }
        }
        best.map(|(replica, _)| replica)
    }

    fn lease_read(&self, replica: &ReplicaHandle) -> RoutedSnapshot {
        replica.state.routed_reads.fetch_add(1, Ordering::Relaxed);
        let lease = ReadLease::acquire(&replica.state.outstanding);
        // Order matters: snapshot *after* the watermark check that got
        // us here — stores only move forward, so the snapshot's epoch
        // is at least the watermark the pick saw.
        RoutedSnapshot {
            target: RouteTarget::Engine(replica.state.store.snapshot()),
            origin: ReadOrigin::Replica(replica.state.id),
            _lease: Some(lease),
        }
    }

    fn primary_read(&self) -> RoutedSnapshot {
        self.primary_reads.fetch_add(1, Ordering::Relaxed);
        RoutedSnapshot::primary(self.primary.snapshot())
    }

    /// Point-in-time cluster metrics (schema `csag-cluster-metrics-v1`
    /// via [`ClusterMetrics::to_json`]).
    pub fn metrics(&self) -> ClusterMetrics {
        let primary_epoch = self.primary.published_epoch();
        ClusterMetrics {
            primary_epoch,
            records: self.records.load(Ordering::Relaxed),
            pinned_reads: self.reads.pinned_reads.load(Ordering::Relaxed),
            unpinned_reads: self.reads.unpinned_reads.load(Ordering::Relaxed),
            primary_reads: self.primary_reads.load(Ordering::Relaxed),
            pinned_waits: self.reads.pinned_waits.load(Ordering::Relaxed),
            pinned_rejects: self.reads.pinned_rejects.load(Ordering::Relaxed),
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    let watermark = r.state.store.published_epoch();
                    ReplicaMetrics {
                        id: r.state.id,
                        health: r.state.status.health(),
                        watermark,
                        lag: primary_epoch.saturating_sub(watermark),
                        routed_reads: r.state.routed_reads.load(Ordering::Relaxed),
                        outstanding: r.state.outstanding.load(Ordering::Relaxed),
                        applied: r.state.applied.load(Ordering::Relaxed),
                        apply_errors: r.state.apply_errors.load(Ordering::Relaxed),
                        degraded: r.state.status.degraded_marks(),
                        reseeded: r.state.reseeds.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            remotes: self
                .remotes()
                .iter()
                .map(|m| {
                    let watermark = m.watermark.current();
                    RemoteReplicaMetrics {
                        name: m.name.clone(),
                        health: m.status.health(),
                        connected: m.connected.load(Ordering::Acquire),
                        watermark,
                        lag: primary_epoch.saturating_sub(watermark),
                        records_sent: m.records_sent.load(Ordering::Relaxed),
                        bytes_shipped: m.bytes_shipped.load(Ordering::Relaxed),
                        reseeds: m.snapshots_shipped.load(Ordering::Relaxed),
                        acks: m.acks.load(Ordering::Relaxed),
                        degraded: m.status.degraded_marks(),
                    }
                })
                .collect(),
            shards: Vec::new(),
        }
    }
}

impl ReadSource for Router {
    /// Cluster routing: the primary's publish watermark is the gate (a
    /// replica can never be ahead of the primary, so a pin no replica
    /// has reached is a pin the primary's publish will wake). Once
    /// admitted, the read goes to the least-loaded healthy replica
    /// whose watermark reached the pin — for an unpinned read, the
    /// primary's current epoch — and to the primary when none has.
    fn route_read(&self, pin: Option<u64>, wait: Duration) -> Result<RoutedSnapshot, CsagError> {
        let min_epoch = self
            .primary
            .watermark()
            .admit_read(pin, wait, &self.reads)?;
        Ok(match self.pick_replica(min_epoch) {
            Some(replica) => self.lease_read(replica),
            None => self.primary_read(),
        })
    }
}

impl Drop for Router {
    /// Shuts every replica down and joins its thread.
    fn drop(&mut self) {
        for replica in &self.replicas {
            replica.state.paused.store(false, Ordering::Relaxed);
            let _ = replica.tx.send(ReplicaMsg::Shutdown);
        }
        for replica in &mut self.replicas {
            if let Some(join) = replica.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Point-in-time view of one replica, inside [`ClusterMetrics`].
#[derive(Clone, Debug)]
pub struct ReplicaMetrics {
    /// Replica index (0-based).
    pub id: usize,
    /// Current lifecycle state.
    pub health: ReplicaHealth,
    /// Highest epoch this replica has published.
    pub watermark: u64,
    /// Fan-out lag: primary epoch minus this watermark.
    pub lag: u64,
    /// Reads the router has routed here.
    pub routed_reads: u64,
    /// Reads currently leased against this replica.
    pub outstanding: u64,
    /// Log records applied.
    pub applied: u64,
    /// Apply failures (induced or gap-detected).
    pub apply_errors: u64,
    /// Times this replica was marked degraded.
    pub degraded: u64,
    /// Times this replica was reseeded from the primary.
    pub reseeded: u64,
}

/// Point-in-time view of one *remote* replica (a follower process fed
/// over `csag-repl v1`), inside [`ClusterMetrics`].
#[derive(Clone, Debug)]
pub struct RemoteReplicaMetrics {
    /// The follower's self-declared name (the registry key).
    pub name: String,
    /// Current lifecycle state (acks drive healthy; drops and ack
    /// silence drive degraded; a snapshot in flight is reseeding).
    pub health: ReplicaHealth,
    /// `true` while a replication connection is attached.
    pub connected: bool,
    /// Highest epoch the follower has acked.
    pub watermark: u64,
    /// Replication lag: primary epoch minus the acked watermark.
    pub lag: u64,
    /// Live log records shipped over the current and past connections.
    pub records_sent: u64,
    /// Payload bytes shipped (snapshots + framed records).
    pub bytes_shipped: u64,
    /// Full snapshots shipped (each one is a reseed).
    pub reseeds: u64,
    /// Acks received.
    pub acks: u64,
    /// Times this member was marked degraded.
    pub degraded: u64,
}

/// Point-in-time cluster metrics ([`Router::metrics`]).
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    /// The primary's published epoch.
    pub primary_epoch: u64,
    /// Replication log records fanned out.
    pub records: u64,
    /// Reads that arrived with an epoch pin.
    pub pinned_reads: u64,
    /// Reads without a pin.
    pub unpinned_reads: u64,
    /// Reads the primary served (no caught-up replica, or no replicas).
    pub primary_reads: u64,
    /// Pinned reads that had to wait for a publish.
    pub pinned_waits: u64,
    /// Pinned reads rejected as [`CsagError::EpochUnavailable`].
    pub pinned_rejects: u64,
    /// Per-replica detail.
    pub replicas: Vec<ReplicaMetrics>,
    /// Per-remote-replica detail (followers in other processes).
    pub remotes: Vec<RemoteReplicaMetrics>,
    /// Per-shard detail (populated by
    /// [`crate::cluster::shard::ShardedRouter::metrics`]; empty for a
    /// plain replicated router).
    pub shards: Vec<ShardSectionMetrics>,
}

/// Point-in-time view of one shard, inside [`ClusterMetrics`].
#[derive(Clone, Debug)]
pub struct ShardSectionMetrics {
    /// Shard index (0-based).
    pub id: usize,
    /// Vertices this shard owns.
    pub owned: u64,
    /// Ghost vertices covered beyond the owned block (the halo).
    pub halo: u64,
    /// The shard primary's published epoch (lockstep with the journal).
    pub watermark: u64,
    /// Queries answered entirely by this shard (coverage certificate).
    pub local_hits: u64,
    /// Queries homed here whose candidate region crossed shards
    /// (scatter-gather + union re-peel).
    pub gathers: u64,
    /// Total wall-clock spent gathering and merging those queries,
    /// in milliseconds.
    pub merge_ms: f64,
}

impl ClusterMetrics {
    /// Serializes as one JSON object, schema `csag-cluster-metrics-v1`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("schema").string("csag-cluster-metrics-v1");
        w.key("primary_epoch").uint(self.primary_epoch);
        w.key("records").uint(self.records);
        w.key("pinned_reads").uint(self.pinned_reads);
        w.key("unpinned_reads").uint(self.unpinned_reads);
        w.key("primary_reads").uint(self.primary_reads);
        w.key("pinned_waits").uint(self.pinned_waits);
        w.key("pinned_rejects").uint(self.pinned_rejects);
        w.key("replicas").begin_array();
        for r in &self.replicas {
            w.begin_object();
            w.key("id").uint(r.id as u64);
            w.key("health").string(r.health.name());
            w.key("watermark").uint(r.watermark);
            w.key("lag").uint(r.lag);
            w.key("routed_reads").uint(r.routed_reads);
            w.key("outstanding").uint(r.outstanding);
            w.key("applied").uint(r.applied);
            w.key("apply_errors").uint(r.apply_errors);
            w.key("degraded").uint(r.degraded);
            w.key("reseeded").uint(r.reseeded).end_object();
        }
        w.end_array();
        w.key("remotes").begin_array();
        for m in &self.remotes {
            w.begin_object();
            w.key("name").string(&m.name);
            w.key("health").string(m.health.name());
            w.key("connected").boolean(m.connected);
            w.key("watermark").uint(m.watermark);
            w.key("lag").uint(m.lag);
            w.key("records_sent").uint(m.records_sent);
            w.key("bytes_shipped").uint(m.bytes_shipped);
            w.key("reseeds").uint(m.reseeds);
            w.key("acks").uint(m.acks);
            w.key("degraded").uint(m.degraded).end_object();
        }
        w.end_array();
        w.key("shards").begin_array();
        for sh in &self.shards {
            w.begin_object();
            w.key("id").uint(sh.id as u64);
            w.key("owned").uint(sh.owned);
            w.key("halo").uint(sh.halo);
            w.key("watermark").uint(sh.watermark);
            w.key("local_hits").uint(sh.local_hits);
            w.key("gathers").uint(sh.gathers);
            w.key("merge_ms").float(sh.merge_ms).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

// The router is shared across transport connections and writer threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Router>();
    assert_send_sync::<RoutedSnapshot>();
};
