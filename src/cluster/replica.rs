//! The replica worker: one thread per replica consuming the router's
//! replication channel, replaying [`LogRecord`]s onto its own
//! [`GraphStore`] (whose publish watermark is the replica's
//! high-watermark), and heartbeating.
//!
//! The channel **is** the log: records arrive in epoch order because
//! the router serializes primary-apply + fan-out under one write lock.
//! A replica therefore never reorders or merges — it hands each record
//! to [`GraphStore::replay`] (apply the next epoch, skip the overlap a
//! reseed leaves behind) and degrades itself on a gap, a divergence or
//! an induced failure. Degraded replicas
//! keep draining the channel (discarding records) so the queued reseed
//! — which the router enqueues *in order* with later records — lands
//! with everything after it still lined up.

use crate::cluster::health::{ReplicaHealth, StatusCell};
use crate::cluster::replication::LogRecord;
use crate::engine::{GraphStore, Replay};
use csag_graph::AttributedGraph;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long an idle replica waits for a record before heartbeating again.
const IDLE_BEAT: Duration = Duration::from_millis(20);

/// What the router sends down a replica's channel.
pub(crate) enum ReplicaMsg {
    /// Apply one replication log record.
    Apply(LogRecord),
    /// Replace the replica's store with a rebuild from the primary's
    /// epoch-`epoch` snapshot graph (full-state catch-up).
    Reseed {
        graph: Arc<AttributedGraph>,
        epoch: u64,
    },
    /// Drain and exit (router drop).
    Shutdown,
}

/// State shared between a replica's thread and the router.
pub(crate) struct ReplicaState {
    pub(crate) id: usize,
    /// The replica's store. Its publish watermark *is* the replica's
    /// high-watermark: it moves only when a record applies or a reseed
    /// ([`GraphStore::reset_to`]) lands, and stays frozen while the
    /// replica is degraded and discarding records.
    pub(crate) store: GraphStore,
    pub(crate) status: StatusCell,
    pub(crate) applied: AtomicU64,
    pub(crate) apply_errors: AtomicU64,
    pub(crate) reseeds: AtomicU64,
    pub(crate) routed_reads: AtomicU64,
    /// Reads currently leased against this replica (load-balancing
    /// signal; decremented by `ReadLease::drop`).
    pub(crate) outstanding: Arc<AtomicU64>,
    /// Test/bench seam: stop consuming the channel (records queue up —
    /// simulated replication lag) while still heartbeating.
    pub(crate) paused: AtomicBool,
    /// Test/bench seam: additionally stop heartbeating while paused,
    /// so `Router::health_check` sees a silent replica.
    pub(crate) silenced: AtomicBool,
    /// Test/bench seam: fail the next apply (induced replica failure).
    pub(crate) fail_next: AtomicBool,
}

impl ReplicaState {
    pub(crate) fn new(id: usize, store: GraphStore) -> Self {
        ReplicaState {
            id,
            store,
            status: StatusCell::new(),
            applied: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            reseeds: AtomicU64::new(0),
            routed_reads: AtomicU64::new(0),
            outstanding: Arc::new(AtomicU64::new(0)),
            paused: AtomicBool::new(false),
            silenced: AtomicBool::new(false),
            fail_next: AtomicBool::new(false),
        }
    }
}

/// The replica thread body.
pub(crate) fn replica_loop(state: Arc<ReplicaState>, rx: mpsc::Receiver<ReplicaMsg>) {
    loop {
        if !state.silenced.load(Ordering::Relaxed) {
            state.status.beat();
        }
        if state.paused.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        match rx.recv_timeout(IDLE_BEAT) {
            Ok(ReplicaMsg::Apply(record)) => apply_record(&state, record),
            Ok(ReplicaMsg::Reseed { graph, epoch }) => {
                // Full-state catch-up: rebuild the store (fresh core
                // peel) at the primary's epoch numbering, then rejoin
                // the rotation. Records queued behind this message with
                // epoch <= `epoch` are skipped by the overlap check.
                state.store.reset_to(graph, epoch);
                state.reseeds.fetch_add(1, Ordering::Relaxed);
                state.status.set_health(ReplicaHealth::Healthy);
            }
            Ok(ReplicaMsg::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

fn apply_record(state: &ReplicaState, record: LogRecord) {
    if state.fail_next.swap(false, Ordering::Relaxed) {
        state.apply_errors.fetch_add(1, Ordering::Relaxed);
        state.status.set_health(ReplicaHealth::Degraded);
        return;
    }
    if state.status.health() != ReplicaHealth::Healthy {
        // Out of the rotation: discard until the queued reseed lands.
        // The watermark stays frozen, so no pinned read can route here.
        return;
    }
    match state.store.replay(&record) {
        // Overlap with a reseed snapshot that already contained this
        // batch's effects: numbering is already covered.
        Replay::Skipped => {}
        Replay::Applied => {
            state.applied.fetch_add(1, Ordering::Relaxed);
        }
        // A gap in the log (should be impossible over an in-order
        // channel): this replica's state can no longer be trusted.
        Replay::Gap { .. } | Replay::Diverged { .. } => {
            state.apply_errors.fetch_add(1, Ordering::Relaxed);
            state.status.set_health(ReplicaHealth::Degraded);
        }
    }
}
