//! Cluster members. A replica is one thing — an ordered [`LogRecord`]
//! consumer that publishes a watermark — whether it is a thread in this
//! process or a `csag replica` process across a socket, so the router
//! keeps one `Member` per replica and the two kinds differ only in
//! their `Link`. Both run the same consumer (`replay_record` /
//! `install_snapshot`): the replica thread here, the follower session
//! in [`crate::cluster::remote`].
//!
//! The channel **is** the log: records arrive in epoch order because
//! the router serializes primary-apply + fan-out under one write lock.
//! A member therefore never reorders or merges; it degrades on a gap, a
//! divergence, an induced failure (in process) or a dropped connection
//! (socket), and a degraded in-process member keeps draining its
//! channel (discarding records) so the reseed the router enqueues *in
//! order* with later records lands with everything after it lined up.

use crate::cluster::health::{ReplicaHealth, StatusCell};
use crate::cluster::replication::LogRecord;
use crate::cluster::router::{MemberKind, MemberMetrics};
use crate::engine::store::EpochCell;
use crate::engine::{GraphStore, Replay, Snapshot};
use csag_graph::AttributedGraph;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle replica thread waits for a record before
/// heartbeating again.
const IDLE_BEAT: Duration = Duration::from_millis(20);

/// In-process members are named `local-<i>`; the prefix is reserved (a
/// remote hello claiming it is refused).
pub(crate) const LOCAL_PREFIX: &str = "local-";

/// Replays one record onto a member's store — the one reaction to
/// [`GraphStore::replay`], for both member kinds. `Ok(true)`: applied
/// (and counted); `Ok(false)`: overlap a snapshot already contained.
///
/// # Errors
/// A gap or a divergence: the store no longer mirrors the log. The
/// caller leaves the stream (degrade, or drop the session) and is
/// reseeded.
pub(crate) fn replay_record(
    store: &GraphStore,
    record: &LogRecord,
    applied: &AtomicU64,
) -> Result<bool, String> {
    match store.replay(record) {
        Replay::Skipped => Ok(false),
        Replay::Applied => {
            applied.fetch_add(1, Ordering::Relaxed);
            Ok(true)
        }
        Replay::Gap { expected } => Err(format!(
            "epoch gap: expected {expected}, stream sent {}",
            record.epoch
        )),
        Replay::Diverged { reached } => Err(format!(
            "applying record {} left the store at epoch {reached}",
            record.epoch
        )),
    }
}

/// Installs a reseed snapshot: the store restarts from `graph` at
/// `epoch` (records at or below it are then skipped as overlap).
/// Counted *before* the reset publishes the epoch, so a waiter woken by
/// that publish already reads the count.
pub(crate) fn install_snapshot(
    store: &GraphStore,
    graph: Arc<AttributedGraph>,
    epoch: u64,
    installed: &AtomicU64,
) {
    installed.fetch_add(1, Ordering::Relaxed);
    store.reset_to(graph, epoch);
}

/// What the router sends down a member's channel.
pub(crate) enum Feed {
    /// One replication log record.
    Record(LogRecord),
    /// Full-state catch-up for an in-process member: rebuild from the
    /// primary's snapshot graph at this epoch. (A socket member's
    /// catch-up is its connection's handshake instead.)
    Reseed(Arc<AttributedGraph>, u64),
}

/// Per-member counters, one set for both kinds — what each one counts
/// is documented on the [`MemberMetrics`] row that reports it.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) records: AtomicU64,
    pub(crate) reseeds: AtomicU64,
    pub(crate) apply_errors: AtomicU64,
    pub(crate) routed_reads: AtomicU64,
    /// Shared with every `ReadLease` against this member, whose drop
    /// releases the slot (the router's least-loaded signal).
    pub(crate) outstanding: Arc<AtomicU64>,
    pub(crate) bytes_shipped: AtomicU64,
    pub(crate) acks: AtomicU64,
}

/// One replica as the router tracks it. Socket members are keyed by the
/// follower's name and survive disconnects, so the counters describe
/// the replica, not the connection.
pub(crate) struct Member {
    pub(crate) name: String,
    pub(crate) status: StatusCell,
    /// In process: the store's own publish watermark. Socket: the
    /// highest epoch the follower has *acked*. Either way it stays
    /// frozen while the member is out of the stream — a degraded member
    /// never looks caught up.
    pub(crate) watermark: Arc<EpochCell>,
    pub(crate) counters: Counters,
    /// The channel of whoever consumes for this member right now: the
    /// replica thread (attached for life), or the live replication
    /// connection — `None` while a follower is detached (records are
    /// simply not sent; its reconnect handshake catches it up from its
    /// own epoch) and after shutdown.
    feed: Mutex<Option<mpsc::Sender<Feed>>>,
    /// Bumped on every attach; a stale connection's detach is a no-op,
    /// so a fast reconnect is never clobbered by the old teardown.
    generation: AtomicU64,
    pub(crate) link: Link,
}

/// Where a member's consumer runs.
pub(crate) enum Link {
    /// A replica thread in this process.
    Local(Box<LocalLink>),
    /// A follower process fed over `csag-repl v1`.
    Socket,
}

/// The in-process link: a store the router may route reads to, the
/// thread, and the test seams.
pub(crate) struct LocalLink {
    pub(crate) store: GraphStore,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// Test seam: stop consuming the channel (records queue up —
    /// simulated replication lag) while still heartbeating.
    pub(crate) paused: AtomicBool,
    /// Test seam: additionally stop heartbeating while paused.
    pub(crate) silenced: AtomicBool,
    /// Test seam: fail the next apply (induced replica failure).
    pub(crate) fail_next: AtomicBool,
}

impl Member {
    /// A detached member; `watermark` starts where its consumer does.
    fn new(name: String, watermark: Arc<EpochCell>, link: Link) -> Member {
        Member {
            name,
            status: StatusCell::new(),
            watermark,
            counters: Counters::default(),
            feed: Mutex::new(None),
            generation: AtomicU64::new(0),
            link,
        }
    }

    /// A socket member named `name`, detached until its first attach.
    pub(crate) fn remote(name: &str) -> Member {
        Member::new(name.to_string(), EpochCell::new(0), Link::Socket)
    }

    /// Spawns in-process member `local-<i>`, seeded from `seed`.
    pub(crate) fn spawn_local(i: usize, seed: &Snapshot) -> Arc<Member> {
        let store = GraphStore::from_arc_at(seed.engine().graph_arc(), seed.epoch());
        let watermark = Arc::clone(store.watermark());
        let link = Link::Local(Box::new(LocalLink {
            store,
            thread: Mutex::new(None),
            paused: AtomicBool::new(false),
            silenced: AtomicBool::new(false),
            fail_next: AtomicBool::new(false),
        }));
        let member = Arc::new(Member::new(format!("{LOCAL_PREFIX}{i}"), watermark, link));
        let (tx, rx) = mpsc::channel();
        member.attach(tx);
        let thread = std::thread::Builder::new()
            .name(format!("csag-replica-{i}"))
            .spawn({
                let member = Arc::clone(&member);
                move || member.replica_loop(&rx)
            })
            .expect("spawn replica thread");
        let link = member.local().expect("just built with a local link");
        *link.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread);
        member
    }

    /// The in-process link, if this member has one.
    pub(crate) fn local(&self) -> Option<&LocalLink> {
        match &self.link {
            Link::Local(link) => Some(link),
            Link::Socket => None,
        }
    }

    fn feed(&self) -> std::sync::MutexGuard<'_, Option<mpsc::Sender<Feed>>> {
        self.feed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `true` while a consumer is attached.
    pub(crate) fn connected(&self) -> bool {
        self.feed().is_some()
    }

    /// Attaches a fresh consumer's channel, superseding any previous
    /// one (dropping the old sender makes a stale connection's forward
    /// loop exit). Returns the attach generation for [`Member::detach`].
    pub(crate) fn attach(&self, tx: mpsc::Sender<Feed>) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        *self.feed() = Some(tx);
        self.status.beat();
        generation
    }

    /// Tears down the connection attached at `generation`: clears the
    /// feed and degrades the member (out of the caught-up set, its
    /// watermark frozen). A stale generation is a no-op.
    pub(crate) fn detach(&self, generation: u64) {
        if self.generation.load(Ordering::Acquire) == generation {
            *self.feed() = None;
            self.status.set_health(ReplicaHealth::Degraded);
        }
    }

    /// The fan-out step for one member (under the router's write lock).
    /// A degraded in-process member is reseeded from `snap`, the
    /// post-batch primary, instead; a detached member is skipped; a
    /// send nobody receives any more (the connection thread is gone)
    /// degrades the member now rather than at the next health check.
    pub(crate) fn deliver(&self, record: &LogRecord, snap: &Snapshot) {
        if self.reseed_if_degraded(snap) {
            return;
        }
        let mut feed = self.feed();
        let record = || Feed::Record(record.clone());
        if feed.as_ref().is_some_and(|tx| tx.send(record()).is_err()) {
            *feed = None;
            self.status.set_health(ReplicaHealth::Degraded);
        }
    }

    /// Queues a reseed from `snap` when this in-process member is
    /// degraded (`true` when one was queued); it rejoins the rotation
    /// once rebuilt. Socket members reseed on their own reconnect.
    pub(crate) fn reseed_if_degraded(&self, snap: &Snapshot) -> bool {
        if self.local().is_none() || self.status.health() != ReplicaHealth::Degraded {
            return false;
        }
        self.status.set_health(ReplicaHealth::Reseeding);
        if let Some(tx) = self.feed().as_ref() {
            let _ = tx.send(Feed::Reseed(snap.engine().graph_arc(), snap.epoch()));
        }
        true
    }

    /// The replica thread body: runs until the router drops the feed.
    fn replica_loop(&self, rx: &mpsc::Receiver<Feed>) {
        let link = self.local().expect("only local members run a thread");
        loop {
            if !link.silenced.load(Ordering::Relaxed) {
                self.status.beat();
            }
            if link.paused.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            match rx.recv_timeout(IDLE_BEAT) {
                Ok(Feed::Record(record)) => {
                    // Unhealthy = out of the rotation: discard until the
                    // queued reseed lands (the watermark stays frozen).
                    let healthy = self.status.health() == ReplicaHealth::Healthy;
                    let replay = || replay_record(&link.store, &record, &self.counters.records);
                    if link.fail_next.swap(false, Ordering::Relaxed)
                        || (healthy && replay().is_err())
                    {
                        self.counters.apply_errors.fetch_add(1, Ordering::Relaxed);
                        self.status.set_health(ReplicaHealth::Degraded);
                    }
                }
                Ok(Feed::Reseed(graph, epoch)) => {
                    install_snapshot(&link.store, graph, epoch, &self.counters.reseeds);
                    self.status.set_health(ReplicaHealth::Healthy);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
        }
    }

    /// Stops and joins the replica thread (router drop): with the feed
    /// gone it drains what is queued, then exits. No-op for socket
    /// members.
    pub(crate) fn stop(&self) {
        let Some(link) = self.local() else { return };
        link.paused.store(false, Ordering::Relaxed);
        *self.feed() = None;
        let mut thread = link.thread.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(thread) = thread.take() {
            let _ = thread.join();
        }
    }

    /// Records one `ack <epoch>` from the follower: heartbeat, advance
    /// the watermark (never backward), and return to healthy — an
    /// acking follower is alive and applying, whatever state a drop or
    /// reseed left the member in.
    pub(crate) fn note_ack(&self, epoch: u64) {
        self.status.beat();
        self.watermark.publish(epoch);
        self.counters.acks.fetch_add(1, Ordering::Relaxed);
        if self.status.health() != ReplicaHealth::Healthy {
            self.status.set_health(ReplicaHealth::Healthy);
        }
    }

    /// This member's row of [`crate::cluster::ClusterMetrics`].
    pub(crate) fn metrics(&self, primary_epoch: u64) -> MemberMetrics {
        let watermark = self.watermark.current();
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MemberMetrics {
            name: self.name.clone(),
            kind: match self.link {
                Link::Local(_) => MemberKind::Local,
                Link::Socket => MemberKind::Remote,
            },
            health: self.status.health(),
            connected: self.connected(),
            watermark,
            lag: primary_epoch.saturating_sub(watermark),
            records: count(&self.counters.records),
            reseeds: count(&self.counters.reseeds),
            degraded: self.status.degraded_marks(),
            apply_errors: count(&self.counters.apply_errors),
            routed_reads: count(&self.counters.routed_reads),
            outstanding: count(&self.counters.outstanding),
            bytes_shipped: count(&self.counters.bytes_shipped),
            acks: count(&self.counters.acks),
        }
    }
}
