//! The worker-pool scheduler: a priority queue of *jobs* (one job per
//! distinct in-flight computation), coalescing of identical queries, a
//! dispatch-time cap of the query's time budget at its tightest
//! deadline, and fan-out of one shared `Arc<CommunityResult>` to every
//! waiter.
//!
//! Locking discipline: all scheduler state lives behind one mutex
//! (`Shared::state`); the critical sections are map/heap operations
//! only. Query execution — the expensive part — always happens outside
//! the lock, on a worker's private [`QueryWorkspace`].

use crate::cluster::{ReadSource, RoutedSnapshot};
use crate::engine::{CommunityQuery, CsagError};
use crate::service::admission::Admission;
use crate::service::metrics::ServiceMetrics;
use crate::service::request::{Priority, QueryClass, Request, Response, Ticket};
use crate::service::transport::Outgoing;
use csag_core::clock::{deadline_after, expired};
use csag_graph::QueryWorkspace;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Where one admitted waiter's [`Response`] is delivered.
pub(crate) enum ReplyTo {
    /// An in-process caller blocked on a [`Ticket`].
    Ticket(mpsc::Sender<Response>),
    /// A transport connection's completion channel; `id` is the
    /// client-assigned wire id token, carried along so the connection's
    /// writer can emit the response line out of order.
    Connection {
        tx: mpsc::Sender<Outgoing>,
        id: Arc<str>,
    },
}

impl ReplyTo {
    /// Delivers the response. A dropped receiver (caller gave up, or
    /// the connection closed) just means nobody is listening; the
    /// computation and its metrics still counted.
    fn deliver(self, response: Response) {
        match self {
            ReplyTo::Ticket(tx) => {
                let _ = tx.send(response);
            }
            ReplyTo::Connection { tx, id } => {
                let _ = tx.send(Outgoing::Done { id, response });
            }
        }
    }
}

/// One admitted request waiting on a job's outcome.
struct Waiter {
    request_id: u64,
    priority: Priority,
    class: QueryClass,
    submitted: Instant,
    deadline_at: Option<Instant>,
    coalesced: bool,
    reply: ReplyTo,
}

/// One distinct in-flight computation and everyone waiting on it.
struct Job {
    query: CommunityQuery,
    /// The routed read the job answers from: pins both the snapshot
    /// and (for replica reads) the replica's load-accounting lease.
    routed: RoutedSnapshot,
    key: String,
    /// Highest priority among the job's waiters (coalescing escalates).
    priority: Priority,
    running: bool,
    waiters: Vec<Waiter>,
}

/// A heap entry pointing at a queued job. Orders by priority first,
/// then FIFO by arrival within a priority. Entries can go stale (job
/// escalated, started, or finished); the pop loop discards those.
#[derive(PartialEq, Eq)]
struct ReadyEntry {
    priority: Priority,
    arrival: u64,
    job_id: u64,
}

impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .cmp(&other.priority)
            .then(other.arrival.cmp(&self.arrival))
    }
}

impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// Mutex-guarded scheduler state.
pub(crate) struct SchedState {
    admission: Admission,
    jobs: HashMap<u64, Job>,
    /// Coalescing index: query fingerprint (epoch included) → job id,
    /// for every queued *or running* job.
    by_key: HashMap<String, u64>,
    ready: BinaryHeap<ReadyEntry>,
    next_job_id: u64,
    next_request_id: u64,
    next_arrival: u64,
    paused: bool,
    shutdown: bool,
}

/// State shared between the submit path and the worker pool.
pub(crate) struct Shared {
    state: Mutex<SchedState>,
    work: Condvar,
    pub(crate) metrics: ServiceMetrics,
    /// How long an epoch-pinned read without a deadline may wait for
    /// its epoch to publish before the typed rejection.
    epoch_wait: Duration,
    /// Global completion sequence (coalesced waiters share a number).
    finish_seq: AtomicU64,
}

impl Shared {
    pub(crate) fn new(
        capacity: usize,
        workers: usize,
        epoch_wait: Duration,
        start_paused: bool,
    ) -> Self {
        Shared {
            state: Mutex::new(SchedState {
                admission: Admission::new(capacity, workers),
                jobs: HashMap::new(),
                by_key: HashMap::new(),
                ready: BinaryHeap::new(),
                next_job_id: 0,
                next_request_id: 0,
                next_arrival: 0,
                paused: start_paused,
                shutdown: false,
            }),
            work: Condvar::new(),
            metrics: ServiceMetrics::default(),
            epoch_wait,
            finish_seq: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits or sheds one request. On admission the request either
    /// becomes a new queued job or coalesces onto the identical
    /// in-flight one.
    pub(crate) fn submit(
        &self,
        source: &dyn ReadSource,
        req: Request,
    ) -> Result<Ticket, CsagError> {
        let (tx, rx) = mpsc::channel();
        let mut outcomes = self.submit_many(source, vec![(req, ReplyTo::Ticket(tx))]);
        outcomes
            .pop()
            .expect("one entry in, one outcome out")
            .map(|id| Ticket { id, rx })
    }

    /// Batched admission, the pipelined-transport fast path: every
    /// entry is validated, admitted-or-shed, and queued/coalesced under
    /// **one** lock acquisition, and at most **one** worker wake-up is
    /// issued for the whole batch (`notify_one` when a single job was
    /// queued, `notify_all` otherwise) — a connection submitting N
    /// requests back-to-back costs one scheduler wake, not N.
    ///
    /// Outcomes are positionally aligned with `entries`: `Ok(request
    /// id)` for admitted entries (the reply sink will receive exactly
    /// one [`Response`]), `Err` for entries rejected before admission
    /// or shed by it (the reply sink will receive nothing — the caller
    /// owns the rejection).
    ///
    /// Unpinned entries share **one** routed snapshot: entries that
    /// arrived together answer from the same epoch. Epoch-pinned
    /// entries route individually (their pin may demand a newer epoch,
    /// or a bounded wait for one); a pin no store satisfies in time is
    /// rejected pre-admission with the typed `EpochUnavailable`.
    pub(crate) fn submit_many(
        &self,
        source: &dyn ReadSource,
        entries: Vec<(Request, ReplyTo)>,
    ) -> Vec<Result<u64, CsagError>> {
        // Pre-lock, per entry: counting, validation, routing,
        // fingerprinting. Degenerate queries are a caller bug, not
        // load: reject before admission so they never occupy a queue
        // slot (counted as `rejected`, so submitted == admitted + shed
        // + rejected always balances). That includes the one method the
        // homogeneous engine can never answer — admitting it would burn
        // a slot and a dispatch on a guaranteed InvalidParams — and
        // unroutable epoch pins.
        // One arrival instant: a deadline runs from submission, through
        // any wait for a pinned epoch and the search alike.
        let arrived = Instant::now();
        let mut batch_route: Option<RoutedSnapshot> = None;
        let mut outcomes: Vec<Option<Result<u64, CsagError>>> = Vec::with_capacity(entries.len());
        let mut admissible: Vec<(usize, Request, ReplyTo, String, RoutedSnapshot)> =
            Vec::with_capacity(entries.len());
        for (req, reply) in entries {
            self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
            if let Err(e) = req.query.validate() {
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                outcomes.push(Some(Err(e)));
                continue;
            }
            if req.query.method == crate::engine::Method::SeaHetero {
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                outcomes.push(Some(Err(CsagError::invalid(
                    "method sea-hetero needs the original heterogeneous graph; \
                     the service fronts a homogeneous GraphStore — run it through HeteroEngine",
                ))));
                continue;
            }
            let routed = match req.pin_epoch {
                None => {
                    if batch_route.is_none() {
                        match source.route_read(None, Duration::ZERO) {
                            Ok(r) => batch_route = Some(r),
                            Err(e) => {
                                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                                outcomes.push(Some(Err(e)));
                                continue;
                            }
                        }
                    }
                    batch_route.clone().expect("just routed")
                }
                Some(epoch) => {
                    let wait = match deadline_after(arrived, req.deadline) {
                        Some(at) => at.saturating_duration_since(Instant::now()),
                        None => req.deadline.unwrap_or(self.epoch_wait),
                    };
                    match source.route_read(Some(epoch), wait) {
                        Ok(r) => r,
                        Err(e) => {
                            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                            outcomes.push(Some(Err(e)));
                            continue;
                        }
                    }
                }
            };
            let key = fingerprint(&req.query, routed.epoch(), req.deadline.is_some());
            admissible.push((outcomes.len(), req, reply, key, routed));
            outcomes.push(None);
        }

        let mut newly_ready = 0usize;
        let mut st = self.lock();
        for (ix, req, reply, key, routed) in admissible {
            if st.shutdown {
                self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                outcomes[ix] = Some(Err(CsagError::Overloaded {
                    retry_after: Duration::from_millis(1),
                }));
                continue;
            }
            if let Err(e) = st.admission.try_admit() {
                self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                outcomes[ix] = Some(Err(e));
                continue;
            }
            let request_id = st.next_request_id;
            st.next_request_id += 1;
            let mut waiter = Waiter {
                request_id,
                priority: req.priority,
                class: req.class,
                submitted: arrived,
                deadline_at: deadline_after(arrived, req.deadline),
                coalesced: false,
                reply,
            };
            match st.by_key.get(&key).copied() {
                Some(job_id) => {
                    // Identical query already queued or running: ride it.
                    waiter.coalesced = true;
                    self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                    let escalate = {
                        let job = st.jobs.get_mut(&job_id).expect("indexed job exists");
                        job.waiters.push(waiter);
                        if req.priority > job.priority {
                            job.priority = req.priority;
                            !job.running
                        } else {
                            false
                        }
                    };
                    if escalate {
                        // Requeue at the higher priority; the old entry
                        // goes stale and is discarded on pop.
                        let arrival = st.next_arrival;
                        st.next_arrival += 1;
                        st.ready.push(ReadyEntry {
                            priority: req.priority,
                            arrival,
                            job_id,
                        });
                        newly_ready += 1;
                    }
                }
                None => {
                    let job_id = st.next_job_id;
                    st.next_job_id += 1;
                    st.jobs.insert(
                        job_id,
                        Job {
                            query: req.query,
                            routed,
                            key: key.clone(),
                            priority: req.priority,
                            running: false,
                            waiters: vec![waiter],
                        },
                    );
                    st.by_key.insert(key, job_id);
                    let arrival = st.next_arrival;
                    st.next_arrival += 1;
                    st.ready.push(ReadyEntry {
                        priority: req.priority,
                        arrival,
                        job_id,
                    });
                    newly_ready += 1;
                }
            }
            self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
            outcomes[ix] = Some(Ok(request_id));
        }
        // Wake amortization: one notification for the whole batch.
        match newly_ready {
            0 => {}
            1 => {
                self.work.notify_one();
                self.metrics.wakes.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.work.notify_all();
                self.metrics.wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(st);
        outcomes
            .into_iter()
            .map(|o| o.expect("every entry resolved"))
            .collect()
    }

    /// Stops dequeuing (already-running computations finish).
    pub(crate) fn pause(&self) {
        self.lock().paused = true;
    }

    /// Resumes dequeuing.
    pub(crate) fn resume(&self) {
        self.lock().paused = false;
        self.work.notify_all();
    }

    /// Admitted-but-unanswered request count (a load probe).
    pub(crate) fn pending(&self) -> usize {
        self.lock().admission.pending()
    }

    /// Marks the service down and wakes every worker so the queue
    /// drains and the pool exits.
    pub(crate) fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    /// The worker loop: pick the highest-priority queued job, cap its
    /// time budget at the tightest waiter's deadline, run it on this
    /// worker's private workspace, and fan the shared outcome out to
    /// every waiter.
    pub(crate) fn worker_loop(self: &Arc<Self>) {
        let mut ws = QueryWorkspace::new();
        loop {
            // Pick a job (or exit once shut down and drained).
            let (job_id, mut query, routed, earliest_deadline) = {
                let mut st = self.lock();
                let picked = loop {
                    if st.shutdown && st.ready.is_empty() {
                        return;
                    }
                    // A paused scheduler holds work back — except during
                    // shutdown, when draining takes precedence.
                    if !st.paused || st.shutdown {
                        let mut picked = None;
                        while let Some(entry) = st.ready.pop() {
                            if let Some(job) = st.jobs.get_mut(&entry.job_id) {
                                if !job.running {
                                    job.running = true;
                                    picked = Some(entry.job_id);
                                    break;
                                }
                            }
                            // Stale entry (job finished or already
                            // running, or this was a pre-escalation
                            // duplicate): discard.
                        }
                        if let Some(id) = picked {
                            break id;
                        }
                        if st.shutdown && st.ready.is_empty() {
                            return;
                        }
                    }
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                };
                let job = &st.jobs[&picked];
                (
                    picked,
                    job.query.clone(),
                    job.routed.clone(),
                    job.waiters.iter().filter_map(|w| w.deadline_at).min(),
                )
            };

            // A deadline stops the search, it never rewrites the query:
            // the tightest waiter's remaining time caps the time budget
            // every looping method polls.
            let dispatched = Instant::now();
            if let Some(at) = earliest_deadline {
                let remaining = at.saturating_duration_since(dispatched);
                query.time_budget = Some(query.time_budget.map_or(remaining, |t| t.min(remaining)));
            }

            // Execute outside the lock, on this worker's workspace. A
            // panicking query must not wedge the job (its waiters would
            // block forever and every later identical submission would
            // coalesce onto the corpse): catch the unwind, answer the
            // waiters with a typed error, and retire the worker's
            // workspace (its pooled state may be mid-mutation).
            let warm = routed.warm_hit(query.q, query.gamma);
            let t = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                routed.run_with_workspace(&query, &mut ws)
            }));
            // Degraded: the search ran into its tightest deadline.
            let degraded = expired(earliest_deadline);
            let outcome = match run {
                Ok(outcome) => outcome.map(Arc::new),
                Err(panic) => {
                    ws = QueryWorkspace::new();
                    let what = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    Err(CsagError::invalid(format!(
                        "internal: query execution panicked ({what}); this is a csag bug"
                    )))
                }
            };
            let service_ms = t.elapsed().as_secs_f64() * 1e3;
            self.metrics.executed.fetch_add(1, Ordering::Relaxed);
            if warm {
                self.metrics.warm_hits.fetch_add(1, Ordering::Relaxed);
            }
            let sequence = self.finish_seq.fetch_add(1, Ordering::Relaxed) + 1;

            // Retire the job under the lock; fan out after releasing it.
            let waiters = {
                let mut st = self.lock();
                let job = st.jobs.remove(&job_id).expect("running job exists");
                if st.by_key.get(&job.key) == Some(&job_id) {
                    st.by_key.remove(&job.key);
                }
                st.admission.observe_service_ms(service_ms);
                st.admission.release(job.waiters.len());
                job.waiters
            };
            let epoch = routed.epoch();
            let done = Instant::now();
            for w in waiters {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                if outcome.is_err() {
                    self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                }
                if degraded {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                }
                let latency_ms = done.saturating_duration_since(w.submitted).as_secs_f64() * 1e3;
                self.metrics.record_latency(w.priority, latency_ms);
                let deadline_slack_ms = w.deadline_at.map(|at| {
                    if done <= at {
                        at.duration_since(done).as_secs_f64() * 1e3
                    } else {
                        -(done.duration_since(at).as_secs_f64() * 1e3)
                    }
                });
                let queue_wait = dispatched.saturating_duration_since(w.submitted);
                let Waiter {
                    request_id,
                    priority,
                    class,
                    coalesced,
                    reply,
                    ..
                } = w;
                reply.deliver(Response {
                    request_id,
                    epoch,
                    priority,
                    class,
                    coalesced,
                    degraded,
                    queue_wait,
                    deadline_slack_ms,
                    sequence,
                    outcome: outcome.clone(),
                });
            }
        }
    }
}

/// A stable identity for "the same computation": every knob that can
/// change the answer, plus the epoch the pinned snapshot serves —
/// queries against different graph versions must never coalesce —
/// plus whether the request carries a deadline at all: a deadline-free
/// request must never ride a computation the clock may stop (deadlined
/// requests coalesce with each other; the tightest deadline governs).
/// Floats contribute their exact bit patterns.
fn fingerprint(q: &CommunityQuery, epoch: u64, deadlined: bool) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{epoch}|{deadlined}|{}|{}|{}|{}|{:x}|{:x}|{:x}|{:x}|{:x}|{:x}|{:?}|{}|{:?}|{:?}|{:?}|{:?}",
        q.method.name(),
        q.q,
        q.k,
        q.model,
        q.gamma.to_bits(),
        q.error_bound.to_bits(),
        q.confidence.to_bits(),
        q.hoeffding_epsilon.to_bits(),
        q.hoeffding_confidence.to_bits(),
        q.lambda.to_bits(),
        q.size_bound,
        q.seed,
        q.pruning,
        q.step_budget,
        q.time_budget,
        q.evac_max_root,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;

    #[test]
    fn fingerprint_separates_what_matters() {
        let base = CommunityQuery::new(Method::Sea, 3).with_k(4);
        let same = CommunityQuery::new(Method::Sea, 3).with_k(4);
        assert_eq!(fingerprint(&base, 0, false), fingerprint(&same, 0, false));
        // Different epoch, node, seed, accuracy knob, or deadline
        // presence ⇒ different job.
        assert_ne!(fingerprint(&base, 0, false), fingerprint(&base, 1, false));
        assert_ne!(
            fingerprint(&base, 0, false),
            fingerprint(&base, 0, true),
            "deadline-free requests never ride a job the clock may stop"
        );
        assert_ne!(
            fingerprint(&base, 0, false),
            fingerprint(&base.clone().with_query(4), 0, false)
        );
        assert_ne!(
            fingerprint(&base, 0, false),
            fingerprint(&base.clone().with_seed(7), 0, false)
        );
        assert_ne!(
            fingerprint(&base, 0, false),
            fingerprint(&base.clone().with_error_bound(0.1), 0, false)
        );
        assert_ne!(
            fingerprint(&base, 0, false),
            fingerprint(&base.clone().with_method(Method::Exact), 0, false)
        );
    }

    #[test]
    fn ready_entries_order_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        heap.push(ReadyEntry {
            priority: Priority::Standard,
            arrival: 0,
            job_id: 10,
        });
        heap.push(ReadyEntry {
            priority: Priority::Interactive,
            arrival: 2,
            job_id: 11,
        });
        heap.push(ReadyEntry {
            priority: Priority::Standard,
            arrival: 1,
            job_id: 12,
        });
        heap.push(ReadyEntry {
            priority: Priority::Batch,
            arrival: 3,
            job_id: 13,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.job_id)).collect();
        assert_eq!(order, vec![11, 10, 12, 13]);
    }
}
