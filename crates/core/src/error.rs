//! The workspace-wide typed error for community-search runs.
//!
//! Every public run API in `csag-core` and `csag-baselines` returns
//! `Result<_, CsagError>` so callers can tell apart the four failure
//! modes that `Option` used to conflate:
//!
//! * the parameters were never runnable ([`CsagError::InvalidParams`]),
//! * the query node does not exist ([`CsagError::QueryNodeNotFound`]),
//! * no community satisfies the model — a definitive, correct "no"
//!   ([`CsagError::NoCommunity`]),
//! * a resource guard refused the search before it began
//!   ([`CsagError::BudgetExhausted`]: E-VAC's root-size limit; a search
//!   a budget stops still answers with its best community so far),
//! * a serving layer shed the request before it ran at all
//!   ([`CsagError::Overloaded`], carrying a suggested back-off),
//! * a pinned epoch nobody had published yet
//!   ([`CsagError::EpochUnavailable`]),
//! * the write-ahead log stopped accepting appends, so the store is
//!   serving reads but rejecting writes
//!   ([`CsagError::DurabilityUnavailable`]).

use csag_decomp::Maintainer;
use csag_graph::NodeId;
use std::fmt;
use std::time::Duration;

/// Typed failure of a community-search run.
#[derive(Clone, Debug, PartialEq)]
pub enum CsagError {
    /// The parameters can never produce a meaningful run (e.g. an error
    /// bound outside `(0, 1)`, a size bound with `l > h`, `k < 2` at the
    /// engine level).
    InvalidParams {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The query node id is outside the graph.
    QueryNodeNotFound {
        /// The requested query node.
        q: NodeId,
        /// Number of nodes in the graph (valid ids are `0..nodes`).
        nodes: usize,
    },
    /// No community containing the query node satisfies the structural
    /// model — a definitive negative, not a resource limit.
    NoCommunity {
        /// Why no community exists (model, k, locality).
        reason: String,
    },
    /// A resource guard refused the search before any community was
    /// found: E-VAC's root exceeded its size limit.
    BudgetExhausted,
    /// A serving layer refused to queue the request: admission capacity
    /// is exhausted, so the request was shed instead of waiting
    /// unboundedly. Nothing ran — retrying after `retry_after` is
    /// expected to succeed once the queue drains.
    Overloaded {
        /// Suggested back-off before retrying (derived from the
        /// service's observed drain rate).
        retry_after: Duration,
    },
    /// A read pinned to a store epoch that no reachable replica (nor
    /// the primary) had published within the caller's wait budget.
    /// Nothing ran; retrying once writes catch up — or without the pin
    /// — is expected to succeed.
    EpochUnavailable {
        /// The epoch the read was pinned to.
        requested: u64,
        /// The highest epoch published when the wait gave up.
        published: u64,
    },
    /// The store's write-ahead log could not durably record a write
    /// (disk full, I/O error, failed fsync), so the write was rejected
    /// *before* touching the graph. Reads keep being served from the
    /// last durable epoch; nothing was lost and nothing half-applied.
    DurabilityUnavailable {
        /// Why the log rejected the append.
        reason: String,
    },
}

impl fmt::Display for CsagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsagError::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
            CsagError::QueryNodeNotFound { q, nodes } => {
                write!(f, "query node {q} not found (graph has {nodes} nodes)")
            }
            CsagError::NoCommunity { reason } => write!(f, "no community: {reason}"),
            CsagError::BudgetExhausted => {
                write!(f, "budget exhausted before any community was found")
            }
            CsagError::Overloaded { retry_after } => write!(
                f,
                "service overloaded: request shed, retry after {:.0} ms",
                retry_after.as_secs_f64() * 1000.0
            ),
            CsagError::EpochUnavailable {
                requested,
                published,
            } => write!(
                f,
                "epoch {requested} not yet published (latest published epoch is {published})"
            ),
            CsagError::DurabilityUnavailable { reason } => write!(
                f,
                "durability unavailable: write rejected, reads still served ({reason})"
            ),
        }
    }
}

impl std::error::Error for CsagError {}

impl CsagError {
    /// Convenience constructor for [`CsagError::InvalidParams`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        CsagError::InvalidParams {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`CsagError::NoCommunity`].
    pub fn no_community(reason: impl Into<String>) -> Self {
        CsagError::NoCommunity {
            reason: reason.into(),
        }
    }

    /// `true` for [`CsagError::NoCommunity`] — the only variant that is a
    /// definitive "the answer is empty" rather than a caller mistake or a
    /// resource limit.
    pub fn is_no_community(&self) -> bool {
        matches!(self, CsagError::NoCommunity { .. })
    }
}

/// Checks that `q` indexes a node of a graph with `nodes` nodes.
pub fn check_query_node(q: NodeId, nodes: usize) -> Result<(), CsagError> {
    if (q as usize) < nodes {
        Ok(())
    } else {
        Err(CsagError::QueryNodeNotFound { q, nodes })
    }
}

/// `q`'s root — its maximal connected community in the whole graph
/// ([`Maintainer::maximal`]) — or the typed "no community" answer.
pub fn root_of(m: &mut Maintainer<'_>, q: NodeId) -> Result<Vec<NodeId>, CsagError> {
    m.maximal(q).ok_or_else(|| {
        let (model, k) = (m.model(), m.k());
        CsagError::no_community(format!("node {q} is in no connected {model} at k = {k}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let e = CsagError::invalid("k must be >= 2");
        assert!(e.to_string().contains("k must be >= 2"));
        let e = CsagError::QueryNodeNotFound { q: 7, nodes: 5 };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("5"));
        let e = CsagError::no_community("no 3-core contains node 0");
        assert!(e.is_no_community());
        assert!(e.to_string().contains("3-core"));
        let e = CsagError::BudgetExhausted;
        assert_eq!(
            e.to_string(),
            "budget exhausted before any community was found"
        );
        assert!(!e.is_no_community());
        let e = CsagError::Overloaded {
            retry_after: Duration::from_millis(25),
        };
        assert!(e.to_string().contains("retry after 25 ms"));
        assert!(!e.is_no_community());
        let e = CsagError::EpochUnavailable {
            requested: 9,
            published: 4,
        };
        assert!(e.to_string().contains("epoch 9"));
        assert!(e.to_string().contains("4"));
        assert!(!e.is_no_community());
        let e = CsagError::DurabilityUnavailable {
            reason: "fsync failed: No space left on device".into(),
        };
        assert!(e.to_string().contains("write rejected"));
        assert!(e.to_string().contains("No space left"));
        assert!(!e.is_no_community());
    }

    #[test]
    fn query_node_check() {
        assert!(check_query_node(0, 1).is_ok());
        assert_eq!(
            check_query_node(3, 3),
            Err(CsagError::QueryNodeNotFound { q: 3, nodes: 3 })
        );
    }
}
