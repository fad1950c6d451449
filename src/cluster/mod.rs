//! # `csag::cluster` — replicated stores behind an epoch-consistent router
//!
//! One [`crate::engine::GraphStore`] is one writer lock and one
//! machine's worth of read throughput. This module scales the read
//! path out: a [`Router`] owns the write path — it applies
//! [`GraphUpdate`](crate::engine::GraphUpdate) batches to a **primary**
//! store and fans each batch out as a [`LogRecord`] to N in-process
//! **replica** stores — and load-balances reads across the replicas
//! with epoch-consistency guarantees.
//!
//! ## The guarantees
//!
//! * **Epoch lockstep.** The replication log format is `csag-updates
//!   v1`, one [`LogRecord`] per published epoch; every store bumps its
//!   epoch exactly once per batch (no-op and erroneous batches
//!   included), so primary and replicas that consumed the same records
//!   agree on epoch numbering — and, because
//!   [`GraphStore::apply`](crate::engine::GraphStore::apply) is
//!   deterministic, on every answer at equal epochs, byte for byte.
//! * **Pinned reads never read backward.** A read pinned to epoch `E`
//!   (wire key `"epoch"`, [`Request::with_epoch`](crate::service::Request::with_epoch))
//!   is only routed to a store whose published high-watermark is
//!   `>= E`: a caught-up replica, else the primary, else a bounded
//!   condvar wait for the publish — else the typed
//!   [`CsagError::EpochUnavailable`](crate::engine::CsagError) rejection.
//! * **Unpinned reads balance.** They go to the least-loaded healthy
//!   replica that has caught up to the primary's current epoch
//!   (outstanding-lease counting; the primary is the fallback, and the
//!   only store when `--replicas 0`).
//! * **Failure degrades, then heals.** A replica that fails an apply
//!   (or goes silent past [`Router::health_check`]'s budget) is marked
//!   [`ReplicaHealth::Degraded`], leaves the read rotation with its
//!   watermark frozen (so no pinned read can land on stale state), and
//!   is reseeded from the primary's current snapshot on the next write
//!   (or [`Router::heal`]) — clients never see a failed response from
//!   the transition.
//!
//! ## One kind of member
//!
//! SEA is index-free: a replica needs the graph and the update log and
//! nothing else. So a replica is one thing — an ordered [`LogRecord`]
//! consumer that publishes a watermark — and the router keeps **one
//! member table** whose entries differ only in their *link*: a thread
//! in this process (a store the router may route reads to, a record
//! channel, the test seams), or a socket to a [`Follower`] in another
//! process, attached by a [`ReplListener`] speaking `csag-repl v1`
//! over TCP/UDS (handshake on the follower's epoch, WAL-tail replay or
//! checkpoint snapshot shipping to catch up, then the framed live
//! stream, acks coming back as the watermark). Both kinds replay
//! through one consumer and live one lifecycle — replay failures,
//! silence and dropped connections degrade; the next write (in
//! process) or reconnect (socket) reseeds — read through one accessor
//! set keyed by member name ([`Router::member_health`],
//! [`Router::member_watermark`], [`Router::wait_member_caught_up`],
//! [`Router::wait_caught_up`]; in-process replica `i` is `local-<i>`)
//! and one [`MemberMetrics`] row.
//!
//! ```
//! use csag::cluster::{ReadSource, Router};
//! use csag::datasets::paper_examples::figure1_imdb;
//! use csag::engine::{CommunityQuery, GraphUpdate, Method};
//! use std::time::Duration;
//!
//! let (graph, q) = figure1_imdb();
//! let router = Router::over_graph(graph, 2);
//! router.apply(&[GraphUpdate::AddEdge { u: q, v: 0 }]).unwrap();
//! router.wait_caught_up(Duration::from_secs(5));
//!
//! // A read pinned to epoch 1 is never served by a store that has not
//! // published epoch 1.
//! let routed = router
//!     .route_read(Some(1), Duration::from_millis(100))
//!     .unwrap();
//! assert!(routed.epoch() >= 1);
//! let result = routed
//!     .snapshot()
//!     .engine()
//!     .run(&CommunityQuery::new(Method::Exact, q).with_k(3))
//!     .unwrap();
//! assert!(result.community.contains(&q));
//! ```

pub mod health;
pub mod remote;
pub mod replica;
pub mod replication;
pub mod router;
pub mod shard;

pub use health::ReplicaHealth;
pub use remote::{Follower, FollowerConfig, ReplListener};
pub use replication::LogRecord;
pub use router::{
    ClusterMetrics, MemberKind, MemberMetrics, ReadOrigin, ReadSource, RoutedSnapshot, Router,
    ShardSectionMetrics,
};
pub use shard::{ClusterView, ShardPlan, ShardedRouter};
