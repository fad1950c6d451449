//! The paper's primary contribution: CS-AG (exact) and Approx-CS-AG (SEA).
//!
//! * [`distance`] — the q-centric composite attribute distance (§II-A):
//!   Jaccard over textual tokens, normalized Manhattan over numerical
//!   attributes, blended by γ; plus the community distance δ (Def. 4).
//! * [`exact`] — the exact enumeration with priority ordering and three
//!   pruning strategies (§IV, Algorithm 1), with per-strategy ablation
//!   switches and state counters for the Table IV study.
//! * [`sea`] — the index-free sampling-estimation pipeline with a runtime
//!   accuracy guarantee (§V): Hoeffding-sized neighborhoods,
//!   attribute-aware sampling, BLB confidence intervals, Theorem-11 early
//!   termination, and error-based incremental sampling. Includes the
//!   size-bounded extension (§VI-B) and the k-truss model (§VI-C).
//! * [`hetero_cs`] — the heterogeneous-graph extension: approximate
//!   (k,P)-core/(k,P)-truss search over meta-path projections (§VI-A).
//! * [`clock`] — the one stop rule of a wall-clock budget: a checked
//!   conversion to a deadline, polled at each method's loop head.
//!
//! ```
//! use csag_core::distance::DistanceParams;
//! use csag_core::exact::{Exact, ExactParams};
//! use csag_core::EpochIndex;
//! use csag_graph::GraphBuilder;
//!
//! // A 4-clique where node 3 is attribute-far from the query node 0.
//! let mut b = GraphBuilder::new(1);
//! for value in [0.0, 0.1, 0.2, 1.0] {
//!     b.add_node(&["t"], &[value]);
//! }
//! for u in 0..4u32 {
//!     for v in (u + 1)..4 {
//!         b.add_edge(u, v).unwrap();
//!     }
//! }
//! let g = b.build().unwrap();
//! let result = Exact::new(&g, &EpochIndex::new(), DistanceParams::default())
//!     .run(0, &ExactParams::default().with_k(2))
//!     .expect("0 sits in a 2-core");
//! // Node 3 is dropped: {0,1,2} is the most attribute-cohesive 2-core.
//! assert_eq!(result.community, vec![0, 1, 2]);
//! ```

pub mod clock;
pub mod distance;
pub mod error;
pub mod exact;
pub mod hetero_cs;
pub mod sea;

pub use distance::{
    composite_distance, composite_distance_attrs, jaccard_distance, manhattan_distance,
    DistanceParams, QueryDistances,
};
pub use error::CsagError;
pub use exact::{Exact, ExactParams, ExactResult, PruningConfig};
pub use hetero_cs::SeaHetero;
pub use sea::{Sea, SeaParams, SeaResult, SeaRound, SeaTiming};

// Re-export the model enum and the per-graph index so downstream users
// rarely need csag-decomp directly.
pub use csag_decomp::{CommunityModel, EpochIndex};
