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

use crate::cluster::health::{MemberState, ReplicaHealth};
use crate::cluster::replication::LogRecord;
use crate::cluster::router::{MemberKind, MemberMetrics};
use crate::engine::store::Watched;
use crate::engine::{GraphStore, Replay, Snapshot};
use csag_graph::AttributedGraph;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    status: Watched<Status>,
    pub(crate) counters: Counters,
    pub(crate) link: Link,
}

/// Who consumes for a member right now and where it stands, changed
/// together under one lock: each change wakes [`Member::wait_until`].
struct Status {
    /// Changed only by [`Status::set`]. The watermark stays frozen
    /// while the member is out of the stream, and a degraded member
    /// serves no epoch.
    state: MemberState,
    /// Bumped on every attach and every detach: an ack or a detach
    /// quoting an older one comes from a consumer that is gone.
    generation: u64,
    /// The replica thread's channel (attached for life), or the live
    /// replication connection's — `None` while a follower is detached
    /// (records are simply not sent; its reconnect handshake catches it
    /// up from its own epoch) and after shutdown.
    feed: Option<mpsc::Sender<Feed>>,
    /// The last heartbeat (across a socket: the last ack).
    beat: Instant,
    /// Transitions *into* `Degraded` (a monotonic incident counter).
    degraded: u64,
}

impl Status {
    /// The one transition: to `health` with the watermark at `epoch`
    /// (never backward), counting an incident on the way into
    /// `Degraded`.
    fn set(&mut self, health: ReplicaHealth, epoch: u64) {
        if health == ReplicaHealth::Degraded && self.state.health != ReplicaHealth::Degraded {
            self.degraded += 1;
        }
        let epoch = epoch.max(self.state.epoch);
        self.state = MemberState { health, epoch };
    }
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
    /// A detached, healthy member whose watermark starts at `epoch`,
    /// where its consumer does.
    fn new(name: String, epoch: u64, link: Link) -> Member {
        Member {
            name,
            status: Watched::new(Status {
                state: MemberState {
                    health: ReplicaHealth::Healthy,
                    epoch,
                },
                generation: 0,
                feed: None,
                beat: Instant::now(),
                degraded: 0,
            }),
            counters: Counters::default(),
            link,
        }
    }

    /// A socket member named `name`, detached until its first attach.
    pub(crate) fn remote(name: &str) -> Member {
        Member::new(name.to_string(), 0, Link::Socket)
    }

    /// Spawns in-process member `local-<i>`, seeded from `seed`.
    pub(crate) fn spawn_local(i: usize, seed: &Snapshot) -> Arc<Member> {
        let store = GraphStore::from_arc_at(seed.engine().graph_arc(), seed.epoch());
        let link = Link::Local(Box::new(LocalLink {
            store,
            thread: Mutex::new(None),
            paused: AtomicBool::new(false),
            silenced: AtomicBool::new(false),
            fail_next: AtomicBool::new(false),
        }));
        let name = format!("{LOCAL_PREFIX}{i}");
        let member = Arc::new(Member::new(name, seed.epoch(), link));
        let (tx, rx) = mpsc::channel();
        let generation = member.attach(tx, false);
        let thread = std::thread::Builder::new()
            .name(format!("csag-replica-{i}"))
            .spawn({
                let member = Arc::clone(&member);
                move || member.replica_loop(&rx, generation)
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

    /// Health and watermark, read together.
    pub(crate) fn state(&self) -> MemberState {
        self.status.lock().state
    }

    /// Attaches a fresh consumer's channel, superseding any previous
    /// one (dropping the old sender makes a stale connection's forward
    /// loop exit); `reseed` when it starts from a snapshot. Beats, and
    /// returns the generation the consumer's acks and detach quote.
    pub(crate) fn attach(&self, tx: mpsc::Sender<Feed>, reseed: bool) -> u64 {
        self.status.update(|s| {
            s.generation += 1;
            s.feed = Some(tx);
            s.beat = Instant::now();
            if reseed {
                s.set(ReplicaHealth::Reseeding, 0);
            }
            s.generation
        })
    }

    /// Tears down the connection attached at `generation`: clears the
    /// feed, degrades the member and retires the generation, so its
    /// late acks are refused. A stale generation is a no-op, so a fast
    /// reconnect is never clobbered by the old teardown.
    pub(crate) fn detach(&self, generation: u64) {
        self.status.update(|s| {
            if s.generation == generation {
                s.generation += 1;
                s.feed = None;
                s.set(ReplicaHealth::Degraded, 0);
            }
        });
    }

    /// The consumer attached at `generation` applied `epoch` (a record
    /// or a snapshot; across a socket, an `ack <epoch>` line): it is
    /// alive and in the stream, so it is healthy at that watermark,
    /// whatever a drop, a silence or a reseed left it in.
    pub(crate) fn ack(&self, generation: u64, epoch: u64) {
        self.status.update(|s| {
            if s.generation == generation {
                s.beat = Instant::now();
                s.set(ReplicaHealth::Healthy, epoch);
            }
        });
    }

    /// Degrades a healthy member silent for more than `max_silence`
    /// (across a socket: not acking); `true` when this call did.
    pub(crate) fn degrade_if_silent(&self, max_silence: Duration) -> bool {
        self.status.update(|s| {
            let healthy = s.state.health == ReplicaHealth::Healthy;
            let degrade = healthy && s.beat.elapsed() > max_silence;
            if degrade {
                s.set(ReplicaHealth::Degraded, 0);
            }
            degrade
        })
    }

    /// Blocks until the state satisfies `done`, or `timeout` elapses;
    /// `true` when it does.
    pub(crate) fn wait_until(&self, timeout: Duration, done: impl Fn(MemberState) -> bool) -> bool {
        self.status.wait_until(timeout, |s| done(s.state))
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
        self.status.update(|s| {
            let record = || Feed::Record(record.clone());
            if s.feed.as_ref().is_some_and(|tx| tx.send(record()).is_err()) {
                s.feed = None;
                s.set(ReplicaHealth::Degraded, 0);
            }
        });
    }

    /// Queues a reseed from `snap` when this in-process member is
    /// degraded (`true` when one was queued); it rejoins the rotation
    /// once rebuilt. Socket members reseed on their own reconnect.
    pub(crate) fn reseed_if_degraded(&self, snap: &Snapshot) -> bool {
        self.local().is_some()
            && self.status.update(|s| {
                if s.state.health != ReplicaHealth::Degraded {
                    return false;
                }
                s.set(ReplicaHealth::Reseeding, 0);
                if let Some(tx) = &s.feed {
                    let _ = tx.send(Feed::Reseed(snap.engine().graph_arc(), snap.epoch()));
                }
                true
            })
    }

    /// The replica thread body: runs until the router drops the feed.
    /// It acks what it applies, as a follower does, under the
    /// `generation` it was attached at.
    fn replica_loop(&self, rx: &mpsc::Receiver<Feed>, generation: u64) {
        let link = self.local().expect("only local members run a thread");
        loop {
            if !link.silenced.load(Ordering::Relaxed) {
                self.status.lock().beat = Instant::now();
            }
            if link.paused.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            match rx.recv_timeout(IDLE_BEAT) {
                Ok(Feed::Record(record)) => {
                    // Unhealthy = out of the rotation: discard until the
                    // queued reseed lands (the watermark stays frozen).
                    let healthy = self.state().health == ReplicaHealth::Healthy;
                    let replay = || replay_record(&link.store, &record, &self.counters.records);
                    if link.fail_next.swap(false, Ordering::Relaxed)
                        || (healthy && replay().is_err())
                    {
                        self.counters.apply_errors.fetch_add(1, Ordering::Relaxed);
                        self.status.update(|s| s.set(ReplicaHealth::Degraded, 0));
                    } else if healthy {
                        self.ack(generation, record.epoch);
                    }
                }
                Ok(Feed::Reseed(graph, epoch)) => {
                    install_snapshot(&link.store, graph, epoch, &self.counters.reseeds);
                    self.ack(generation, epoch);
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
        self.status.lock().feed = None;
        let mut thread = link.thread.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(thread) = thread.take() {
            let _ = thread.join();
        }
    }

    /// This member's row of [`crate::cluster::ClusterMetrics`].
    pub(crate) fn metrics(&self, primary_epoch: u64) -> MemberMetrics {
        let status = self.status.lock();
        let watermark = status.state.epoch;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MemberMetrics {
            name: self.name.clone(),
            kind: match self.link {
                Link::Local(_) => MemberKind::Local,
                Link::Socket => MemberKind::Remote,
            },
            health: status.state.health,
            connected: status.feed.is_some(),
            watermark,
            lag: primary_epoch.saturating_sub(watermark),
            records: count(&self.counters.records),
            reseeds: count(&self.counters.reseeds),
            degraded: status.degraded,
            apply_errors: count(&self.counters.apply_errors),
            routed_reads: count(&self.counters.routed_reads),
            outstanding: count(&self.counters.outstanding),
            bytes_shipped: count(&self.counters.bytes_shipped),
            acks: count(&self.counters.acks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GraphUpdate;
    use csag_datasets::paper_examples::figure1_imdb;
    use ReplicaHealth::{Degraded, Healthy, Reseeding};

    /// The member reads `(health, epoch)`, and the one predicate agrees:
    /// it serves the epochs up to its watermark while healthy, and none
    /// otherwise.
    fn check(member: &Member, health: ReplicaHealth, epoch: u64, step: &str) {
        let state = member.state();
        assert_eq!(state, MemberState { health, epoch }, "{step}");
        assert_eq!(state.serves(epoch), health == Healthy, "{step}");
        assert_eq!(state.serves(0), health == Healthy, "{step}");
        assert!(!state.serves(epoch + 1), "{step}");
    }

    /// Every transition of both kinds, each checked against the
    /// predicate: attach (to a stream or a snapshot), ack, detach, a
    /// failed send, silence, an induced replay failure, a queued reseed
    /// and its install, and a record applied.
    #[test]
    fn every_transition_publishes_health_and_watermark_in_one_step() {
        let member = Member::remote("f");
        check(&member, Healthy, 0, "new");
        let (tx, _rx) = mpsc::channel();
        let first = member.attach(tx, false);
        check(&member, Healthy, 0, "attach to a stream");
        member.ack(first, 5);
        check(&member, Healthy, 5, "ack");
        member.ack(first, 4);
        check(&member, Healthy, 5, "the watermark never moves backward");
        member.detach(first);
        check(&member, Degraded, 5, "detach");
        assert!(!member.metrics(0).connected);
        member.ack(first, 6);
        check(&member, Degraded, 5, "a detached connection's late ack");
        let (tx, rx) = mpsc::channel();
        let second = member.attach(tx, true);
        check(&member, Reseeding, 5, "attach to a snapshot");
        member.detach(first);
        check(&member, Reseeding, 5, "a stale detach");
        member.ack(second, 7);
        check(&member, Healthy, 7, "the first ack after the snapshot");

        assert!(!member.degrade_if_silent(Duration::from_secs(3600)));
        // The silence under test.
        std::thread::sleep(Duration::from_millis(2));
        assert!(member.degrade_if_silent(Duration::ZERO));
        check(&member, Degraded, 7, "silence");
        assert!(!member.degrade_if_silent(Duration::ZERO), "one incident");
        member.ack(second, 8);
        check(&member, Healthy, 8, "an ack heals a silent member");

        let (g, q) = figure1_imdb();
        let primary = GraphStore::new(g);
        let snap = primary.snapshot();
        drop(rx);
        member.deliver(&LogRecord::new(9, Vec::new()), &snap);
        check(&member, Degraded, 8, "a send nobody receives");
        assert!(!member.metrics(0).connected);
        assert!(!member.reseed_if_degraded(&snap), "reseeds on reconnect");
        assert_eq!(member.metrics(9).degraded, 3);

        // An in-process member whose replica loop runs inline, over
        // what one attach queued, until the feed is dropped.
        let local = Member::new(
            format!("{LOCAL_PREFIX}0"),
            0,
            Link::Local(Box::new(LocalLink {
                store: GraphStore::from_arc_at(snap.engine().graph_arc(), 0),
                thread: Mutex::new(None),
                paused: AtomicBool::new(false),
                silenced: AtomicBool::new(false),
                fail_next: AtomicBool::new(false),
            })),
        );
        let consume = |queue: &dyn Fn()| {
            let (tx, rx) = mpsc::channel();
            let generation = local.attach(tx, false);
            queue();
            local.stop();
            local.replica_loop(&rx, generation);
        };
        let link = local.local().expect("in process");
        check(&local, Healthy, 0, "new");
        consume(&|| {
            link.fail_next.store(true, Ordering::Relaxed);
            local.deliver(&LogRecord::new(1, Vec::new()), &snap);
        });
        check(&local, Degraded, 0, "an induced replay failure");
        let edge = |v| vec![GraphUpdate::AddEdge { u: q, v }];
        primary.apply(&edge(0)).expect("endpoints exist");
        consume(&|| {
            let snap = primary.snapshot();
            assert!(local.reseed_if_degraded(&snap));
            check(&local, Reseeding, 0, "a queued reseed");
            assert!(!local.reseed_if_degraded(&snap), "one reseed per incident");
        });
        check(&local, Healthy, 1, "the reseed installed");
        primary.apply(&edge(1)).expect("endpoints exist");
        consume(&|| local.deliver(&LogRecord::new(2, edge(1)), &primary.snapshot()));
        check(&local, Healthy, 2, "a record applied");
        assert_eq!(link.store.published_epoch(), 2);
        let row = local.metrics(2);
        assert_eq!((row.apply_errors, row.reseeds, row.records), (1, 1, 1));
    }
}
