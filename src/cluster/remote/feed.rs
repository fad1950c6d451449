//! The router-side representation of a remote replica: the
//! [`RemoteMember`] registry entry the [`crate::cluster::Router`] fans
//! records into, plus the catch-up decision ([`CatchUp`]) the
//! replication listener executes during a `csag-repl v1` handshake.

use crate::cluster::health::{ReplicaHealth, StatusCell};
use crate::cluster::replication::LogRecord;
use crate::engine::store::EpochCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};

/// Everything one handshaken replication connection needs, produced
/// atomically by [`crate::cluster::Router::attach_remote`].
pub(crate) struct RemoteAttach {
    /// The (new or re-attached) registry entry.
    pub(crate) member: Arc<RemoteMember>,
    /// The live-record channel this connection forwards.
    pub(crate) feed: mpsc::Receiver<LogRecord>,
    /// Attach generation, for [`RemoteMember::detach`].
    pub(crate) generation: u64,
    /// The catch-up the connection must execute before forwarding.
    pub(crate) catch_up: CatchUp,
}

/// How a freshly-handshaken follower gets from its epoch to the
/// primary's: decided by [`crate::cluster::Router::attach_remote`]
/// under the write lock, executed by the listener's connection thread.
pub(crate) enum CatchUp {
    /// The follower's state at `from` can be resumed: it is level with
    /// the primary (`records` empty) or the log still covers the gap.
    /// Replay `records` (epochs contiguous above `from`), then live
    /// records.
    Tail {
        /// The epoch the follower proved (echoed back in the header).
        from: u64,
        /// The `(from, pinned]` run read back from the WAL segments.
        records: Vec<LogRecord>,
    },
    /// The follower is behind the pruned log horizon (or has no state
    /// at all): ship a full snapshot at `epoch`, then `tail` records
    /// covering `(epoch, pinned]`, then live records.
    Snapshot {
        /// The epoch the snapshot payload captures.
        epoch: u64,
        /// The raw `csag-graph v1` payload (a checkpoint file's bytes
        /// when the primary is WAL-backed — streamed, not re-encoded).
        bytes: Vec<u8>,
        /// Records between the snapshot and the attach-time epoch.
        tail: Vec<LogRecord>,
    },
}

/// One remote replica as the router tracks it: health + heartbeat
/// ([`StatusCell`]), the acked high-watermark, shipping counters, and
/// the live feed channel (if a connection is attached).
///
/// Members are keyed by follower name and survive disconnects: a
/// reconnect with the same name re-attaches to the same entry, so
/// `degraded`/`reseeds` counters describe the replica, not the
/// connection.
pub(crate) struct RemoteMember {
    pub(crate) name: String,
    pub(crate) status: StatusCell,
    /// Highest epoch the follower has *acked* (applied and published on
    /// its side). Frozen while disconnected — a degraded remote never
    /// looks caught-up.
    pub(crate) watermark: Arc<EpochCell>,
    pub(crate) records_sent: AtomicU64,
    pub(crate) bytes_shipped: AtomicU64,
    /// Full snapshots shipped (the reseed counter).
    pub(crate) snapshots_shipped: AtomicU64,
    pub(crate) acks: AtomicU64,
    pub(crate) connected: AtomicBool,
    /// The live connection's record channel; `None` while disconnected
    /// (records are simply not sent — the reconnect handshake catches
    /// the follower up from its own epoch).
    feed: Mutex<Option<mpsc::Sender<LogRecord>>>,
    /// Bumped on every attach; a stale connection's detach (its
    /// generation no longer current) is a no-op, so a fast reconnect is
    /// never clobbered by the old connection's teardown.
    generation: AtomicU64,
}

impl RemoteMember {
    pub(crate) fn new(name: &str) -> Self {
        RemoteMember {
            name: name.to_string(),
            status: StatusCell::new(),
            watermark: EpochCell::new(0),
            records_sent: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            snapshots_shipped: AtomicU64::new(0),
            acks: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            feed: Mutex::new(None),
            generation: AtomicU64::new(0),
        }
    }

    /// Attaches a fresh connection's feed, superseding any previous one
    /// (dropping the old sender makes the stale connection's forward
    /// loop exit). Returns the attach generation for [`Self::detach`].
    pub(crate) fn attach(&self, tx: mpsc::Sender<LogRecord>) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        *self.feed.lock().unwrap_or_else(PoisonError::into_inner) = Some(tx);
        self.connected.store(true, Ordering::Release);
        self.status.beat();
        generation
    }

    /// Tears down the connection attached at `generation`: clears the
    /// feed, marks the member degraded (out of the caught-up set, its
    /// watermark frozen). A stale generation is a no-op.
    pub(crate) fn detach(&self, generation: u64) {
        if self.generation.load(Ordering::Acquire) != generation {
            return;
        }
        *self.feed.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.connected.store(false, Ordering::Release);
        self.status.set_health(ReplicaHealth::Degraded);
    }

    /// Queues one live record to the attached connection (no-op while
    /// disconnected). A send failure (connection thread already gone)
    /// degrades the member immediately instead of waiting for the
    /// health check.
    pub(crate) fn send(&self, record: &LogRecord) {
        let mut feed = self.feed.lock().unwrap_or_else(PoisonError::into_inner);
        let delivered = match feed.as_ref() {
            Some(tx) => tx.send(record.clone()).is_ok(),
            None => return,
        };
        if !delivered {
            *feed = None;
            self.connected.store(false, Ordering::Release);
            self.status.set_health(ReplicaHealth::Degraded);
        }
    }

    /// Records one `ack <epoch>` from the follower: heartbeat, advance
    /// the watermark (never backward), and return to healthy — an
    /// acking follower is alive and applying, whatever state a drop or
    /// reseed left the member in.
    pub(crate) fn note_ack(&self, epoch: u64) {
        self.status.beat();
        self.watermark.publish(epoch);
        self.acks.fetch_add(1, Ordering::Relaxed);
        if self.status.health() != ReplicaHealth::Healthy {
            self.status.set_health(ReplicaHealth::Healthy);
        }
    }
}
