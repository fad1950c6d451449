//! Re-implementations of the community-search baselines the paper compares
//! against (§VII-A, methods 5–11).
//!
//! Each baseline optimizes *its own* attribute-cohesiveness metric over the
//! same structural model (connected k-core by default, k-truss variants via
//! [`csag_core::CommunityModel`]):
//!
//! * [`mod@acq`] — ACQ (Fang et al., PVLDB'16): maximize the number of the
//!   query's textual attributes shared by *every* community member.
//! * [`atc`] — ATC/LocATC (Huang & Lakshmanan, PVLDB'17): maximize the
//!   attribute coverage score `Σ_{a ∈ A(q)} |V_a ∩ V_H|² / |V_H|` by local
//!   search.
//! * [`mod@vac`] — VAC (Liu et al., ICDE'20): minimize the maximum pairwise
//!   attribute distance; the approximate peeling variant and the exact
//!   branch-and-bound (`E-VAC`, feasible only on small graphs — exactly as
//!   reported in the paper).
//!
//! Each peels through a borrowed [`csag_decomp::Maintainer`], which fixes
//! the model and k and reads q's root (its maximal connected community)
//! off the screens of its [`csag_core::EpochIndex`]. The engine lends one
//! on the worker's pooled peel scratch ([`Maintainer::in_workspace`]), and
//! VAC reads `f(·,q)` from the engine's distance table; a standalone
//! caller builds a [`Maintainer::new`] over a fresh `EpochIndex::new()`.
//!
//! [`Maintainer::in_workspace`]: csag_decomp::Maintainer::in_workspace
//! [`Maintainer::new`]: csag_decomp::Maintainer::new
//!
//! These are faithful ports of the published *objectives and search
//! strategies*, not line-by-line translations of the authors' Java code;
//! the qualitative comparison of Table II / Figure 5 is what they exist to
//! reproduce.

pub mod acq;
pub mod atc;
pub mod vac;

use csag_graph::NodeId;

pub use acq::acq;
pub use atc::{loc_atc, local_seed};
pub use vac::{e_vac, vac, EVacLimits};

// Every baseline returns `Result<BaselineResult, CsagError>`; re-export
// the workspace error so downstream crates need not import `csag-core`
// just to match on failures.
pub use csag_core::error::CsagError;

/// Output of a baseline method.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// The community found (sorted node ids, contains the query).
    pub community: Vec<NodeId>,
    /// The value of the method's own objective for `community`
    /// (ACQ: #shared attributes; ATC: coverage score; VAC: min-max
    /// distance). Interpretation depends on the method.
    pub objective: f64,
}
