//! k-core and k-truss decomposition and maintenance.
//!
//! Community search needs two structural operations over and over:
//!
//! 1. *Global decomposition* — coreness of every node
//!    ([`kcore::core_decomposition`], Batagelj–Zaversnik peeling) and
//!    trussness of every edge ([`ktruss::truss_decomposition`]).
//! 2. *Restricted maximality* — "the maximal connected k-core (or k-truss)
//!    containing `q` inside this node subset". The exact enumeration of
//!    §IV and the SEA candidate search of §V both peel thousands of node
//!    subsets per query, so [`Maintainer`] peels on epoch-stamped scratch
//!    arrays (cleared only when the epoch counter wraps) to make each
//!    restricted peel cost O(|subset| + internal edges) with zero
//!    allocation in the steady state; a k-truss peel lays out and counts
//!    only the region its walk from `q` reaches. A query thread borrows
//!    those arrays from its [`csag_graph::QueryWorkspace`], so a read
//!    does not allocate them either.
//!
//! The [`CommunityModel`] enum abstracts over the two cohesion models so
//! the search algorithms in `csag-core` are written once (paper §VI-C).
//! One [`EpochIndex`] per graph holds the tables every query shares —
//! coreness, node trussness, per-edge trussness and the components — each
//! built lazily, once. No read needs a per-graph edge numbering: a k-truss
//! peel numbers the edges of the subset it peels.

pub mod incremental;
pub mod index;
pub mod kcore;
pub mod ktruss;
pub mod maintainer;

pub use incremental::{patch_node_trussness, CoreMaintainer, TrussMaintainer};
pub use index::{EdgeTrussness, EpochIndex};
pub use kcore::{core_decomposition, max_connected_kcore};
pub use ktruss::{
    max_connected_ktruss, node_max_trussness, truss_decomposition, truss_decompositions,
};
pub use maintainer::{CommunityModel, Maintainer};
