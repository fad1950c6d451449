//! The epoch-consistent router: owns the write path (primary apply +
//! log fan-out to the one member table) and load-balances reads across
//! caught-up in-process replicas. The guarantees — epoch lockstep,
//! pinned reads never read backward, unpinned reads balance, failure
//! degrades then heals — are stated once, in the [module docs](super).

use crate::cluster::health::ReplicaHealth;
use crate::cluster::remote::feed::{CatchUp, RemoteAttach};
use crate::cluster::replica::{LocalLink, Member, LOCAL_PREFIX};
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
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

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
    /// is the view's journal snapshot, the whole graph at the view's
    /// epoch — per-query work should go through
    /// [`RoutedSnapshot::run_with_workspace`] instead, which answers
    /// from one shard where the planner proves it can.
    pub fn snapshot(&self) -> &Snapshot {
        match &self.target {
            RouteTarget::Engine(snapshot) => snapshot,
            RouteTarget::Shards { view, .. } => view.journal(),
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
    /// For a sharded read, the journal's cache (where a spilled read
    /// runs) and the home shard's cache are consulted.
    pub fn warm_hit(&self, q: NodeId, gamma: f64) -> bool {
        let cached = |s: &Snapshot| s.engine().cached_distances(q, gamma).is_some();
        match &self.target {
            RouteTarget::Engine(snapshot) => cached(snapshot),
            RouteTarget::Shards { view, .. } => {
                (q as usize) < view.journal().engine().graph().n()
                    && (cached(view.journal()) || cached(view.shard(view.owner(q))))
            }
        }
    }

    /// Runs one query against the routed target: directly on the
    /// pinned engine, or — for a sharded read — through the shard
    /// planner (shard-local under a coverage certificate, on the
    /// journal snapshot otherwise). Byte-identical either way.
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
        self.watch.admit_read(pin, wait, &ReadCounters::default())?;
        Ok(RoutedSnapshot::primary(self.snapshot()))
    }
}

/// The cluster front-end: primary store + replicas behind an
/// epoch-consistent read router. See the [module docs](super).
pub struct Router {
    primary: Arc<GraphStore>,
    /// The one member table. The first `locals` entries are the
    /// in-process replicas (`local-<i>`, fixed at construction — the
    /// only members reads route to); followers in other processes are
    /// appended by the replication listener as they handshake, keyed by
    /// name, and survive disconnects.
    members: RwLock<Vec<Arc<Member>>>,
    locals: usize,
    /// Serializes primary-apply + fan-out so every member receives log
    /// records in epoch order.
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
        let members = (0..replicas)
            .map(|i| Member::spawn_local(i, &seed))
            .collect();
        Router {
            primary,
            members: RwLock::new(members),
            locals: replicas,
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

    /// Number of in-process replicas behind this router (members
    /// `local-0` … `local-<n-1>`).
    pub fn replica_count(&self) -> usize {
        self.locals
    }

    /// The primary's published epoch (the cluster-wide high-watermark).
    pub fn epoch(&self) -> u64 {
        self.primary.published_epoch()
    }

    /// The cluster write path: applies `updates` to the primary and
    /// fans the resulting [`LogRecord`] out to every member. A degraded
    /// in-process member instead receives a reseed from the post-batch
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
        for member in self.members().iter() {
            member.deliver(&record, &snap);
        }
        outcome
    }

    fn members(&self) -> std::sync::RwLockReadGuard<'_, Vec<Arc<Member>>> {
        self.members.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The table entry of member `name`, if there is one.
    fn member(&self, name: &str) -> Option<Arc<Member>> {
        self.members().iter().find(|m| m.name == name).cloned()
    }

    /// Registers (or re-attaches) the remote member `name` under the
    /// write lock and decides its catch-up path against the primary's
    /// epoch *at attach time*: every record fanned out after this call
    /// has a higher epoch, so the connection that executes the returned
    /// [`CatchUp`] and then forwards the feed delivers a gapless,
    /// in-order stream.
    ///
    /// # Errors
    /// A message for the `error` handshake response: a name reserved
    /// for in-process members (`local-<i>`), or a follower claiming an
    /// epoch *above* the primary's (it followed a different history;
    /// applying our records to it would corrupt it).
    pub(crate) fn attach_remote(
        &self,
        name: &str,
        follower_epoch: Option<u64>,
    ) -> Result<RemoteAttach, String> {
        let _guard = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        if name.starts_with(LOCAL_PREFIX) {
            return Err(format!(
                "member name `{name}` is reserved for in-process replicas"
            ));
        }
        let pinned = self.primary.published_epoch();
        if let Some(ahead) = follower_epoch.filter(|&e| e > pinned) {
            return Err(format!(
                "follower epoch {ahead} is ahead of primary epoch {pinned}"
            ));
        }
        let member = self.member(name).unwrap_or_else(|| {
            let m = Arc::new(Member::remote(name));
            let mut members = self.members.write().unwrap_or_else(PoisonError::into_inner);
            members.push(Arc::clone(&m));
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
        let (tx, rx) = mpsc::channel();
        let reseed = matches!(catch_up, CatchUp::Snapshot { .. });
        let generation = member.attach(tx, reseed);
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

    /// Current health of member `name` (`local-<i>` for in-process
    /// replica `i`, else a follower's self-declared name), if any.
    pub fn member_health(&self, name: &str) -> Option<ReplicaHealth> {
        self.member(name).map(|m| m.state().health)
    }

    /// Member `name`'s high-watermark: the highest epoch it has
    /// published (in process) or acked (across a socket).
    pub fn member_watermark(&self, name: &str) -> Option<u64> {
        self.member(name).map(|m| m.state().epoch)
    }

    /// Blocks until member `name` is healthy with its watermark at the
    /// primary's current epoch — one published state, so a `true` here
    /// and a [`Router::member_health`] read after it never disagree —
    /// or `timeout` elapses. `false` when the member is unknown or the
    /// wait times out.
    pub fn wait_member_caught_up(&self, name: &str, timeout: Duration) -> bool {
        let target = self.primary.published_epoch();
        self.member(name)
            .is_some_and(|m| m.wait_until(timeout, |s| s.serves(target)))
    }

    /// Blocks until member `name` reads `health`, or `timeout` elapses.
    /// `false` when the member is unknown or the wait times out.
    pub fn wait_member_health(&self, name: &str, health: ReplicaHealth, timeout: Duration) -> bool {
        self.member(name)
            .is_some_and(|m| m.wait_until(timeout, |s| s.health == health))
    }

    /// [`Router::wait_member_caught_up`] for every member at once: `true`
    /// when all are healthy at the primary's current epoch within
    /// `timeout` (vacuously, when there are none). A degraded member
    /// that is not reseeded in time makes it `false`.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let target = self.primary.published_epoch();
        let start = Instant::now();
        // A copy of the table: the wait must not hold up a handshake
        // that wants to add a member.
        let members = self.members().clone();
        members.iter().all(|m| {
            let left = timeout.saturating_sub(start.elapsed());
            m.wait_until(left, |s| s.serves(target))
        })
    }

    /// Queues a reseed for every currently degraded in-process member
    /// (the write path does this lazily on the next batch; `heal`
    /// forces it now; remote members reseed on their own reconnect
    /// handshake). Returns how many reseeds were queued.
    pub fn heal(&self) -> usize {
        let _guard = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        let snap = self.primary.snapshot();
        let members = self.members();
        members
            .iter()
            .filter(|m| m.reseed_if_degraded(&snap))
            .count()
    }

    /// Degrades every healthy member that has not heartbeat (across a
    /// socket: acked) within `max_silence` (reseeding members are busy
    /// rebuilding and exempt by design). Returns how many were newly
    /// degraded; they reseed as [`Router::heal`] describes.
    pub fn health_check(&self, max_silence: Duration) -> usize {
        let members = self.members();
        members
            .iter()
            .filter(|m| m.degrade_if_silent(max_silence))
            .count()
    }

    /// Runs `seam` on in-process replica `i`'s link.
    fn with_local(&self, i: usize, seam: impl FnOnce(&LocalLink)) {
        assert!(i < self.locals, "no in-process replica {i}");
        seam(
            self.members()[i]
                .local()
                .expect("local prefix of the table"),
        );
    }

    /// Test/bench seam: stop replica `i` consuming its channel (records
    /// queue up — simulated replication lag). It keeps heartbeating.
    pub fn pause_replica(&self, i: usize) {
        self.with_local(i, |link| link.paused.store(true, Ordering::Relaxed));
    }

    /// Undoes [`Router::pause_replica`] and [`Router::silence_replica`];
    /// the replica drains its backlog.
    pub fn resume_replica(&self, i: usize) {
        self.with_local(i, |link| {
            link.paused.store(false, Ordering::Relaxed);
            link.silenced.store(false, Ordering::Relaxed);
        });
    }

    /// Test/bench seam: pause replica `i` *and* stop its heartbeat, so
    /// [`Router::health_check`] observes a silent replica.
    pub fn silence_replica(&self, i: usize) {
        self.with_local(i, |link| {
            link.silenced.store(true, Ordering::Relaxed);
            link.paused.store(true, Ordering::Relaxed);
        });
    }

    /// Test/bench seam: replica `i` fails its next apply (an induced
    /// replica failure: it degrades and leaves the read rotation until
    /// reseeded).
    pub fn induce_failure(&self, i: usize) {
        self.with_local(i, |link| link.fail_next.store(true, Ordering::Relaxed));
    }

    /// Routes one admitted read: to the least-loaded in-process replica
    /// that [serves](crate::cluster::health::MemberState::serves)
    /// `min_epoch` (rotating ties), else to the primary.
    fn pick(&self, min_epoch: u64) -> RoutedSnapshot {
        let members = self.members();
        let locals = &members[..self.locals];
        let start = self.rotate.fetch_add(1, Ordering::Relaxed);
        let mut best: Option<(usize, u64)> = None;
        for i in (0..locals.len()).map(|i| (start + i) % locals.len()) {
            let member = &locals[i];
            if !member.state().serves(min_epoch) {
                continue;
            }
            let load = member.counters.outstanding.load(Ordering::Relaxed);
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((i, load));
            }
        }
        let Some((i, _)) = best else {
            self.primary_reads.fetch_add(1, Ordering::Relaxed);
            return RoutedSnapshot::primary(self.primary.snapshot());
        };
        let (member, link) = (&locals[i], locals[i].local().expect("local prefix"));
        member.counters.routed_reads.fetch_add(1, Ordering::Relaxed);
        let lease = ReadLease::acquire(&member.counters.outstanding);
        // Order matters: snapshot *after* the state check that got us
        // here — the replica publishes its store's epoch before its
        // state, and stores only move forward, so the snapshot's epoch
        // is at least the watermark the pick saw.
        RoutedSnapshot {
            target: RouteTarget::Engine(link.store.snapshot()),
            origin: ReadOrigin::Replica(i),
            _lease: Some(lease),
        }
    }

    /// Point-in-time cluster metrics (schema `csag-cluster-metrics-v2`
    /// via [`ClusterMetrics::to_json`]).
    pub fn metrics(&self) -> ClusterMetrics {
        let primary_epoch = self.primary.published_epoch();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ClusterMetrics {
            primary_epoch,
            records: load(&self.records),
            pinned_reads: load(&self.reads.pinned_reads),
            unpinned_reads: load(&self.reads.unpinned_reads),
            primary_reads: load(&self.primary_reads),
            pinned_waits: load(&self.reads.pinned_waits),
            pinned_rejects: load(&self.reads.pinned_rejects),
            members: self
                .members()
                .iter()
                .map(|m| m.metrics(primary_epoch))
                .collect(),
            shards: Vec::new(),
        }
    }
}

impl ReadSource for Router {
    /// Cluster routing: the primary's publish watermark is the gate (a
    /// replica can never be ahead of the primary, so a pin no replica
    /// has reached is a pin the primary's publish will wake). Once
    /// admitted, the read goes to the least-loaded replica that serves
    /// the pin — for an unpinned read, the primary's current epoch — and
    /// to the primary when none does.
    fn route_read(&self, pin: Option<u64>, wait: Duration) -> Result<RoutedSnapshot, CsagError> {
        let min_epoch = self.primary.watch.admit_read(pin, wait, &self.reads)?;
        Ok(self.pick(min_epoch))
    }
}

impl Drop for Router {
    /// Shuts every replica thread down and joins it.
    fn drop(&mut self) {
        for member in self.members().iter() {
            member.stop();
        }
    }
}

/// How a member is linked to the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberKind {
    /// A replica thread in the router's process (`local-<i>`).
    Local,
    /// A follower process fed over `csag-repl v1`.
    Remote,
}

/// Point-in-time view of one member, inside [`ClusterMetrics`] — the
/// same row for both kinds; a counter the kind never moves reads 0.
#[derive(Clone, Debug)]
pub struct MemberMetrics {
    /// `local-<i>`, or the follower's self-declared name (the key).
    pub name: String,
    /// In process or across a socket.
    pub kind: MemberKind,
    /// Current lifecycle state.
    pub health: ReplicaHealth,
    /// `true` while a consumer is attached: the replica thread (for the
    /// router's life) or a live replication connection.
    pub connected: bool,
    /// Highest epoch the member has published (remote: acked).
    pub watermark: u64,
    /// Replication lag: primary epoch minus this watermark.
    pub lag: u64,
    /// Log records replayed (remote: shipped, tail replays included).
    pub records: u64,
    /// Snapshots installed (remote: shipped) — each one is a reseed.
    pub reseeds: u64,
    /// Times this member was marked degraded.
    pub degraded: u64,
    /// Failed replays, induced or gap-detected (local only: a follower's
    /// reaches the router as a dropped connection).
    pub apply_errors: u64,
    /// Reads the router has routed here (local only).
    pub routed_reads: u64,
    /// Reads currently leased against this member (local only).
    pub outstanding: u64,
    /// Payload bytes shipped: snapshots + framed records (remote only).
    pub bytes_shipped: u64,
    /// Acks received (remote only).
    pub acks: u64,
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
    /// Per-member detail: in-process replicas first, then followers in
    /// handshake order.
    pub members: Vec<MemberMetrics>,
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
    /// Queries homed here whose candidate region crossed shards (run on
    /// the view's journal snapshot instead).
    pub gathers: u64,
    /// Total wall-clock spent answering those queries on the journal,
    /// in milliseconds.
    pub merge_ms: f64,
}

impl ClusterMetrics {
    /// Serializes as one JSON object, schema `csag-cluster-metrics-v2`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("schema").string("csag-cluster-metrics-v2");
        w.key("primary_epoch").uint(self.primary_epoch);
        w.key("records").uint(self.records);
        w.key("pinned_reads").uint(self.pinned_reads);
        w.key("unpinned_reads").uint(self.unpinned_reads);
        w.key("primary_reads").uint(self.primary_reads);
        w.key("pinned_waits").uint(self.pinned_waits);
        w.key("pinned_rejects").uint(self.pinned_rejects);
        w.key("members").begin_array();
        for m in &self.members {
            w.begin_object();
            w.key("name").string(&m.name);
            w.key("kind").string(match m.kind {
                MemberKind::Local => "local",
                MemberKind::Remote => "remote",
            });
            w.key("health").string(m.health.name());
            w.key("connected").boolean(m.connected);
            for (key, count) in [
                ("watermark", m.watermark),
                ("lag", m.lag),
                ("records", m.records),
                ("reseeds", m.reseeds),
                ("degraded", m.degraded),
                ("apply_errors", m.apply_errors),
                ("routed_reads", m.routed_reads),
                ("outstanding", m.outstanding),
                ("bytes_shipped", m.bytes_shipped),
                ("acks", m.acks),
            ] {
                w.key(key).uint(count);
            }
            w.end_object();
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
