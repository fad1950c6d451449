//! # `csag::service` — admission-controlled community search under load
//!
//! The engine ([`crate::engine::Engine`]) answers one query; the
//! [`Service`] answers *traffic*. It wraps an evolving
//! [`GraphStore`] behind a request/response API built for sustained
//! concurrent load: a [`Request`] carries a
//! [`CommunityQuery`](crate::engine::CommunityQuery) plus the caller's
//! serving intent — a [`Priority`], an optional deadline, and a
//! [`QueryClass`] label — and [`Service::submit`] returns a [`Ticket`]
//! whose [`Response`] wraps the engine's answer in its serving envelope
//! (epoch, class, queue wait, deadline slack, coalescing/degradation
//! flags).
//!
//! ## Invariants
//!
//! The service holds five invariants, in roughly the order they matter
//! when the graph is on fire:
//!
//! 1. **Bounded admission.** At most `capacity` requests, whatever
//!    their class, are admitted but unanswered at any instant. Beyond
//!    that, [`Service::submit`] sheds *immediately* with
//!    [`crate::engine::CsagError::Overloaded`] carrying a `retry_after`
//!    derived from the observed drain rate — the queue never grows
//!    without bound, and latency of admitted work stays predictable.
//! 2. **Every admitted request is answered.** A ticket's
//!    [`Ticket::wait`] always returns: workers drain the queue even
//!    through shutdown, and invalid queries are rejected *before*
//!    admission so they never occupy a slot.
//! 3. **Identical in-flight queries coalesce.** Two admitted requests
//!    whose queries fingerprint identically (same knobs, same seed,
//!    *same store epoch*, and the same deadline *presence* — a
//!    deadline-free request never rides a computation the clock may
//!    stop) share one engine computation;
//!    every waiter receives the same `Arc<CommunityResult>`
//!    (observable via `Arc::ptr_eq`). Coalesced requests still consume
//!    admission slots — coalescing dedups *work*, not *load
//!    accounting* — and a higher-priority duplicate escalates the
//!    queued job.
//! 4. **Deadlines stop a search, they never rewrite it.** At dispatch
//!    the time left before the job's tightest deadline caps the query's
//!    [`time_budget`](crate::engine::CommunityQuery::time_budget), which
//!    every method that loops polls at its loop head. A late request
//!    answers with its best community so far instead of timing out:
//!    SEA's certificate is still judged against the requested error
//!    bound, Exact's is its proven bracket. The response's `degraded`
//!    flag says the search returned at or after that deadline; a
//!    deadline too far away to represent never expires.
//! 5. **Epoch isolation.** Each job pins a store [`Snapshot`] at
//!    admission; queries never coalesce across epochs, and the
//!    response names the epoch it answered from.
//!
//! ```
//! use csag::datasets::paper_examples::figure1_imdb;
//! use csag::engine::{CommunityQuery, Method};
//! use csag::service::{Priority, Request, Service, ServiceConfig};
//! use std::time::Duration;
//!
//! let (graph, q) = figure1_imdb();
//! let service = Service::over_graph(graph, ServiceConfig::default());
//! let response = service
//!     .run(
//!         Request::new(CommunityQuery::new(Method::Sea, q).with_k(3))
//!             .with_priority(Priority::Interactive)
//!             .with_deadline(Duration::from_millis(250)),
//!     )
//!     .expect("admitted");
//! let result = response.outcome.expect("a 3-core exists");
//! assert!(result.community.contains(&q));
//! assert_eq!(response.epoch, 0);
//! assert!(service.metrics().admitted >= 1);
//! ```
//!
//! On the wire, the same API speaks the `csag-wire` JSON-lines
//! protocol (normative spec: `docs/wire-protocol.md`): **v1** is the
//! strictly-ordered stdin/stdout mode of `csag serve`, and **v2** is
//! the pipelined socket mode served by [`Transport`] over TCP and
//! unix-domain sockets — many concurrent connections, each submitting
//! bursts of requests in one batched admission
//! ([`Service::submit_batch`]) and receiving responses out of order,
//! matched by client-assigned `id`.

pub mod admission;
pub mod metrics;
pub mod request;
pub mod scheduler;
pub mod transport;
pub mod wire;

pub use metrics::{HistogramSnapshot, MetricsSnapshot, ServiceMetrics};
pub use request::{Priority, QueryClass, Request, Response, Ticket};
pub use transport::{BoundAddr, Transport};
pub use wire::{parse_wire_request, rejection_to_json, response_to_json, WireRequest};

use crate::cluster::{ReadSource, Router, ShardedRouter};
use crate::engine::{CsagError, GraphStore, Snapshot};
use csag_graph::AttributedGraph;
use scheduler::{ReplyTo, Shared};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of a [`Service`]. The defaults suit an interactive
/// deployment on commodity hardware; every knob has a `with_*` setter.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing queries (each owns a private
    /// [`csag_graph::QueryWorkspace`], so the steady-state hot path
    /// stays allocation-free per worker).
    pub workers: usize,
    /// Bound on admitted-but-unanswered requests (invariant 1).
    pub capacity: usize,
    /// How long an epoch-pinned request *without* a deadline may wait
    /// for its pinned epoch to publish before the typed
    /// [`CsagError::EpochUnavailable`](crate::engine::CsagError)
    /// rejection (a request with a deadline waits at most that deadline
    /// instead).
    pub epoch_wait: Duration,
    /// Start with dequeuing paused (submissions are still admitted and
    /// queued). A deterministic seam for tests and staged rollouts;
    /// call [`Service::resume`] to open the floodgates.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: crate::engine::batch::available_threads(),
            capacity: 256,
            epoch_wait: Duration::from_millis(250),
            start_paused: false,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-thread count (at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the global admission bound (at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Sets the deadline-free epoch-pin wait budget.
    pub fn with_epoch_wait(mut self, d: Duration) -> Self {
        self.epoch_wait = d;
        self
    }

    /// Starts the service with dequeuing paused.
    pub fn paused(mut self) -> Self {
        self.start_paused = true;
        self
    }
}

/// The admission-controlled serving front of a [`GraphStore`] (or a
/// [`Router`]-fronted replica cluster — [`Service::over_cluster`]). See
/// the [module docs](self) for the invariants it holds.
pub struct Service {
    /// Where reads are routed: the store itself, a replica [`Router`]
    /// or a [`ShardedRouter`] — the scheduler only ever sees the trait.
    source: Arc<dyn ReadSource>,
    /// The store writes land on first: the only store, the cluster
    /// primary, or the sharded cluster's journal.
    primary: Arc<GraphStore>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service (and its worker pool) over an existing store.
    /// The store stays shared: callers keep applying
    /// [`GraphStore::apply`] batches while the service runs, and new
    /// submissions pin the newest epoch.
    pub fn new(store: Arc<GraphStore>, config: ServiceConfig) -> Self {
        Service::over(store.clone(), store, config)
    }

    /// [`Service::new`] over a fresh single-epoch store built from
    /// `graph` (the static-graph convenience).
    pub fn over_graph(graph: AttributedGraph, config: ServiceConfig) -> Self {
        Service::new(Arc::new(GraphStore::new(graph)), config)
    }

    /// Starts a service over a replica cluster: reads are routed by the
    /// [`Router`] (unpinned reads balance across caught-up replicas;
    /// epoch-pinned reads only land on a store that published the
    /// epoch), writes keep going through [`Router::apply`].
    pub fn over_cluster(router: Arc<Router>, config: ServiceConfig) -> Self {
        let primary = Arc::clone(router.primary());
        Service::over(router, primary, config)
    }

    /// Starts a service over a sharded cluster: every read receives an
    /// epoch-pinned [`crate::cluster::ClusterView`] and runs through
    /// the shard planner; writes keep going through
    /// [`ShardedRouter::apply`].
    pub fn over_shards(router: Arc<ShardedRouter>, config: ServiceConfig) -> Self {
        let journal = Arc::clone(router.journal());
        Service::over(router, journal, config)
    }

    fn over(source: Arc<dyn ReadSource>, primary: Arc<GraphStore>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared::new(
            config.capacity,
            workers,
            config.epoch_wait,
            config.start_paused,
        ));
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("csag-service-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn service worker")
            })
            .collect();
        Service {
            source,
            primary,
            shared,
            workers: handles,
        }
    }

    /// Submits one request: admit-or-shed, then queue or coalesce.
    ///
    /// # Errors
    /// * [`CsagError::InvalidParams`] — the query fails validation
    ///   (rejected before admission; costs no slot).
    /// * [`CsagError::Overloaded`] — admission capacity is exhausted;
    ///   retry after the carried back-off.
    pub fn submit(&self, request: Request) -> Result<Ticket, CsagError> {
        self.shared.submit(self.source.as_ref(), request)
    }

    /// Submits a burst of requests as **one batch**: every request is
    /// validated, admitted-or-shed, and queued/coalesced under a single
    /// scheduler lock acquisition, and the worker pool is woken at most
    /// once for the whole batch (observable via
    /// [`MetricsSnapshot::wakes`]). This is the amortized path the
    /// pipelined socket transport rides; in-process callers with bursty
    /// workloads get the same economics here.
    ///
    /// Outcomes are positionally aligned with `requests`; each entry
    /// fails or succeeds independently with the same error cases as
    /// [`Service::submit`]. The whole batch pins one store epoch.
    pub fn submit_batch(&self, requests: Vec<Request>) -> Vec<Result<Ticket, CsagError>> {
        let mut receivers = Vec::with_capacity(requests.len());
        let entries = requests
            .into_iter()
            .map(|req| {
                let (tx, rx) = mpsc::channel();
                receivers.push(rx);
                (req, ReplyTo::Ticket(tx))
            })
            .collect();
        self.shared
            .submit_many(self.source.as_ref(), entries)
            .into_iter()
            .zip(receivers)
            .map(|(outcome, rx)| outcome.map(|id| Ticket { id, rx }))
            .collect()
    }

    /// The transport's submission seam: one parsed wire batch in, every
    /// admitted request's eventual [`Response`] delivered to `tx` (the
    /// connection's completion channel), and every rejected or shed
    /// entry answered immediately on the same channel — so the writer
    /// thread is the single place a connection's lines come from.
    pub(crate) fn submit_wire_batch(
        &self,
        batch: Vec<(Arc<str>, Request)>,
        tx: &mpsc::Sender<transport::Outgoing>,
    ) {
        let mut ids = Vec::with_capacity(batch.len());
        let entries = batch
            .into_iter()
            .map(|(id, req)| {
                ids.push(Arc::clone(&id));
                (req, ReplyTo::Connection { tx: tx.clone(), id })
            })
            .collect();
        for (outcome, id) in self
            .shared
            .submit_many(self.source.as_ref(), entries)
            .into_iter()
            .zip(ids)
        {
            if let Err(error) = outcome {
                let _ = tx.send(transport::Outgoing::Reject { id, error });
            }
        }
    }

    /// Submit + wait: the blocking convenience for callers without
    /// their own ticket bookkeeping.
    ///
    /// # Errors
    /// Same as [`Service::submit`].
    pub fn run(&self, request: Request) -> Result<Response, CsagError> {
        Ok(self.submit(request)?.wait())
    }

    /// The underlying evolving store — the only store, the cluster
    /// primary, or the sharded cluster's journal. **Single-store
    /// services** apply updates through this; a service started with
    /// [`Service::over_cluster`] / [`Service::over_shards`] must be
    /// written through the router it was given ([`Router::apply`] /
    /// [`ShardedRouter::apply`]) — writing this store directly would
    /// leave the replicas or shards permanently behind.
    pub fn store(&self) -> &GraphStore {
        &self.primary
    }

    /// Pins the primary store's current epoch (a read-side
    /// convenience).
    pub fn snapshot(&self) -> Snapshot {
        self.primary.snapshot()
    }

    /// Point-in-time serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Admitted-but-unanswered request count.
    pub fn pending(&self) -> usize {
        self.shared.pending()
    }

    /// Holds queued work back (running computations finish; submissions
    /// keep being admitted and queued).
    pub fn pause(&self) {
        self.shared.pause();
    }

    /// Releases held-back work.
    pub fn resume(&self) {
        self.shared.resume();
    }
}

impl Drop for Service {
    /// Graceful teardown: the queue drains (every admitted request is
    /// answered — invariant 2 survives shutdown), then the pool joins.
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// The service is the thing callers share across their own threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Service>();
};
