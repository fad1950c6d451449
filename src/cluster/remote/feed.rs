//! What one `csag-repl v1` handshake hands the listener's connection
//! thread: the socket [`Member`] it feeds and the catch-up decision
//! ([`CatchUp`]) it executes first.

use crate::cluster::replica::{Feed, Member};
use crate::cluster::replication::LogRecord;
use std::sync::{mpsc, Arc};

/// Everything one handshaken replication connection needs, produced
/// atomically by [`crate::cluster::Router::attach_remote`].
pub(crate) struct RemoteAttach {
    /// The (new or re-attached) member-table entry.
    pub(crate) member: Arc<Member>,
    /// The live-record channel this connection forwards.
    pub(crate) feed: mpsc::Receiver<Feed>,
    /// Attach generation, for [`Member::detach`].
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
