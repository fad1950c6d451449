//! The serving request/response vocabulary: [`Request`] (a
//! [`CommunityQuery`] plus serving intent — deadline, priority, class
//! label), [`Ticket`] (the waiter's handle), and [`Response`] (the
//! serving envelope around the engine's [`CommunityResult`]).

use crate::engine::{CommunityQuery, CommunityResult, CsagError};
use std::fmt;
use std::str::FromStr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Scheduling priority of a request. Higher priorities dequeue first;
/// within a priority the queue is FIFO (no starvation *within* a class;
/// sustained high-priority load can starve lower tiers by design —
/// shedding, not queueing, is the overload mechanism).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort background work (analytics refills, prefetching).
    Batch,
    /// The default tier.
    Standard,
    /// Latency-sensitive user-facing requests.
    Interactive,
}

impl Priority {
    /// Stable lower-case name (also the wire / JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Standard => "standard",
            Priority::Interactive => "interactive",
        }
    }

    /// Every priority, ascending.
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Standard, Priority::Interactive];

    /// Dense index (for per-priority metrics arrays).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Priority {
    type Err = CsagError;

    fn from_str(s: &str) -> Result<Self, CsagError> {
        Priority::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                CsagError::invalid(format!(
                    "unknown priority `{s}` (expected one of: batch, standard, interactive)"
                ))
            })
    }
}

/// A tenant/workload label. The response echoes it (wire key `"class"`);
/// admission counts every class against the one `capacity` bound.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryClass(String);

impl QueryClass {
    /// The class every request belongs to unless it says otherwise.
    pub const DEFAULT: &'static str = "default";

    /// A class with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        QueryClass(label.into())
    }

    /// The class label.
    pub fn label(&self) -> &str {
        &self.0
    }
}

impl Default for QueryClass {
    fn default() -> Self {
        QueryClass(QueryClass::DEFAULT.to_string())
    }
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A community-search request as the serving layer sees it: the engine
/// query plus the caller's latency/priority intent and class label.
///
/// ```
/// use csag::engine::{CommunityQuery, Method};
/// use csag::service::{Priority, Request};
/// use std::time::Duration;
///
/// let req = Request::new(CommunityQuery::new(Method::Sea, 7).with_k(3))
///     .with_priority(Priority::Interactive)
///     .with_deadline(Duration::from_millis(50))
///     .with_class("tenant-a");
/// assert_eq!(req.priority, Priority::Interactive);
/// ```
#[derive(Clone, Debug)]
pub struct Request {
    /// What to compute.
    pub query: CommunityQuery,
    /// Scheduling priority (default [`Priority::Standard`]).
    pub priority: Priority,
    /// Latency budget, measured from submission. At dispatch the time
    /// left caps the query's [`CommunityQuery::time_budget`], so a late
    /// request answers with its best community so far rather than
    /// timing out. A deadline too far away to represent never expires.
    pub deadline: Option<Duration>,
    /// Tenant/workload label, echoed in the response.
    pub class: QueryClass,
    /// Epoch pin: the answer must come from store epoch `>=` this (wire
    /// key `"epoch"`). Routing waits a bounded time for the epoch to
    /// publish — the request's deadline if it has one, the service's
    /// `epoch_wait` otherwise — then rejects with the typed
    /// [`CsagError::EpochUnavailable`](crate::engine::CsagError).
    /// `None` (the default) reads from any current epoch.
    pub pin_epoch: Option<u64>,
}

impl Request {
    /// A standard-priority, deadline-free request in the default class.
    pub fn new(query: CommunityQuery) -> Self {
        Request {
            query,
            priority: Priority::Standard,
            deadline: None,
            class: QueryClass::default(),
            pin_epoch: None,
        }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the latency budget (measured from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the tenant/workload label.
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = QueryClass::new(class);
        self
    }

    /// Pins the read to store epoch `epoch` or later (see
    /// [`Request::pin_epoch`]).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.pin_epoch = Some(epoch);
        self
    }
}

/// The serving envelope around one answered request.
#[derive(Clone, Debug)]
pub struct Response {
    /// The id [`super::Service::submit`] assigned (echoed on the wire).
    pub request_id: u64,
    /// The store epoch the answering snapshot pinned.
    pub epoch: u64,
    /// The priority the request was admitted at.
    pub priority: Priority,
    /// The tenant/workload label the request carried.
    pub class: QueryClass,
    /// Whether this request rode on an identical in-flight computation
    /// instead of running its own (its `outcome` is then the *same*
    /// `Arc` every coalesced waiter got).
    pub coalesced: bool,
    /// Whether the search returned at or after the tightest deadline
    /// among the requests sharing its computation, so the clock may
    /// have stopped it early.
    pub degraded: bool,
    /// Time the request spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Wall-clock margin left on the deadline when the answer was ready
    /// (negative: the deadline was missed by that much; `None`: no
    /// deadline was set, or it lies too far away to represent).
    pub deadline_slack_ms: Option<f64>,
    /// Global completion sequence number (strictly increasing in the
    /// order computations finished; coalesced waiters share their
    /// computation's number).
    pub sequence: u64,
    /// The engine's answer, shared (not copied) between coalesced
    /// waiters, or the typed error the computation produced.
    pub outcome: Result<Arc<CommunityResult>, CsagError>,
}

/// A claim on a submitted request's [`Response`].
///
/// Admission already happened by the time a ticket exists — the request
/// is queued (or coalesced onto an in-flight computation) and *will* be
/// answered; [`Ticket::wait`] blocks until it is.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// The request id the service assigned (matches
    /// [`Response::request_id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives.
    ///
    /// # Panics
    /// If the service was torn down without answering — impossible
    /// through the public API ([`super::Service`]'s drop drains the
    /// queue before joining its workers).
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .expect("service answers every admitted request")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;

    #[test]
    fn priority_names_round_trip_and_order() {
        for p in Priority::ALL {
            assert_eq!(p.name().parse::<Priority>().unwrap(), p);
        }
        assert!("urgent".parse::<Priority>().is_err());
        assert!(Priority::Interactive > Priority::Standard);
        assert!(Priority::Standard > Priority::Batch);
        assert_eq!(Priority::Batch.index(), 0);
        assert_eq!(Priority::Interactive.index(), 2);
    }

    #[test]
    fn request_builder_defaults() {
        let req = Request::new(CommunityQuery::new(Method::Sea, 1));
        assert_eq!(req.priority, Priority::Standard);
        assert!(req.deadline.is_none());
        assert_eq!(req.class.label(), "default");
        assert!(req.pin_epoch.is_none());
        let req = req
            .with_priority(Priority::Batch)
            .with_deadline(Duration::from_millis(10))
            .with_class("t")
            .with_epoch(3);
        assert_eq!(req.priority, Priority::Batch);
        assert_eq!(req.deadline, Some(Duration::from_millis(10)));
        assert_eq!(req.class.label(), "t");
        assert_eq!(req.pin_epoch, Some(3));
    }
}
