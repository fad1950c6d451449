//! The unified query builder: one description for every method.
//!
//! A [`CommunityQuery`] names the query node, the structural model
//! (`k` + k-core/k-truss), the [`Method`] to answer with, and the
//! accuracy/budget knobs that method understands. Accuracy knobs a
//! method does not use are simply ignored, so the same query can be
//! replayed across methods (the comparison tables of the paper do exactly
//! that); the budgets bind every method that loops, each in its own unit
//! ([`CommunityQuery::step_budget`]).
//!
//! Validation happens *at build time*: [`CommunityQuery::build`] (or
//! [`CommunityQuery::validate`], which the engine also calls defensively
//! on every run) rejects degenerate parameters with
//! [`CsagError::InvalidParams`] instead of silently producing runs whose
//! guarantees are vacuous.

use super::error::CsagError;
use csag_core::distance::DistanceParams;
use csag_core::exact::{ExactParams, PruningConfig};
use csag_core::sea::SeaParams;
use csag_decomp::CommunityModel;
use csag_graph::NodeId;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which algorithm answers the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's exact CS-AG enumeration (§IV): δ-optimal, exponential
    /// worst case, budget-boundable.
    Exact,
    /// The paper's SEA sampling-estimation pipeline (§V): approximate
    /// with a statistical accuracy certificate.
    Sea,
    /// SEA restricted to a size window `[l, h]` (§VI-B). Requires
    /// [`CommunityQuery::with_size_bound`].
    SeaSizeBounded,
    /// SEA on a heterogeneous graph (§VI-A): samples the (k,P)-core
    /// neighborhood *before* projecting, so the full meta-path
    /// projection is never materialized. Only a
    /// [`super::HeteroEngine`] can answer it — a homogeneous
    /// [`super::Engine`] rejects it with [`CsagError::InvalidParams`].
    SeaHetero,
    /// ACQ baseline (Fang et al., PVLDB'16): shared-attribute
    /// maximization.
    Acq,
    /// LocATC baseline (Huang & Lakshmanan, PVLDB'17): attribute-coverage
    /// local search.
    Atc,
    /// Approximate VAC baseline (Liu et al., ICDE'20): min-max peeling.
    Vac,
    /// Exact VAC branch-and-bound (feasible on small roots only; guarded
    /// by [`CommunityQuery::with_evac_max_root`]).
    EVac,
}

impl Method {
    /// Stable lower-case name (also the CLI / JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            Method::Exact => "exact",
            Method::Sea => "sea",
            Method::SeaSizeBounded => "sea-size-bounded",
            Method::SeaHetero => "sea-hetero",
            Method::Acq => "acq",
            Method::Atc => "atc",
            Method::Vac => "vac",
            Method::EVac => "evac",
        }
    }

    /// Every method, in the order the paper's tables list them.
    pub const ALL: [Method; 8] = [
        Method::Exact,
        Method::Sea,
        Method::SeaSizeBounded,
        Method::SeaHetero,
        Method::Acq,
        Method::Atc,
        Method::Vac,
        Method::EVac,
    ];
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Method {
    type Err = CsagError;

    fn from_str(s: &str) -> Result<Self, CsagError> {
        Method::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                CsagError::invalid(format!(
                    "unknown method `{s}` (expected one of: exact, sea, sea-size-bounded, \
                     sea-hetero, acq, atc, vac, evac)"
                ))
            })
    }
}

/// A validated, method-agnostic community-search request.
///
/// Construct with [`CommunityQuery::new`], chain `with_*` setters, and
/// finish with [`CommunityQuery::build`] for build-time validation:
///
/// ```
/// use csag::engine::{CommunityQuery, Method};
///
/// let query = CommunityQuery::new(Method::Sea, 5)
///     .with_k(3)
///     .with_error_bound(0.05)
///     .build()
///     .expect("parameters are sane");
/// assert_eq!(query.k, 3);
/// assert!(CommunityQuery::new(Method::Sea, 5)
///     .with_error_bound(1.5)
///     .build()
///     .is_err());
/// ```
#[derive(Clone, Debug)]
pub struct CommunityQuery {
    /// The algorithm answering the query.
    pub method: Method,
    /// The query node.
    pub q: NodeId,
    /// Structural cohesion parameter k (≥ 2).
    pub k: u32,
    /// Community model (k-core default, k-truss per §VI-C).
    pub model: CommunityModel,
    /// Balance factor γ of the composite attribute distance (`[0, 1]`).
    pub gamma: f64,
    /// User error bound `e` on the relative error of δ⋆ (SEA).
    pub error_bound: f64,
    /// CI confidence level `1 − α` (SEA).
    pub confidence: f64,
    /// Hoeffding estimation error ϵ (SEA, Theorem 10).
    pub hoeffding_epsilon: f64,
    /// Hoeffding confidence `1 − β` (SEA, Theorem 10).
    pub hoeffding_confidence: f64,
    /// Initial sampling fraction λ (SEA).
    pub lambda: f64,
    /// Size window `[l, h]` (required by [`Method::SeaSizeBounded`]).
    pub size_bound: Option<(usize, usize)>,
    /// RNG seed for the sampling methods; runs are deterministic per
    /// seed.
    pub seed: u64,
    /// Pruning strategies for [`Method::Exact`] (Table IV ablation).
    pub pruning: PruningConfig,
    /// Step budget of every method that loops, polled with `time_budget`
    /// at one stop poll per loop head: SEA's and VAC's rounds, LocATC's
    /// steps, E-VAC's states, Exact's warm-start rungs, descent steps and
    /// states. `None` keeps each method's default (SEA 5, VAC 5 000,
    /// LocATC 120, Exact and E-VAC unbounded); 0 stops at the first head
    /// that may stop. An answer's `provenance.rounds` is its steps: asked
    /// again with that budget and no time budget, it is the same answer.
    pub step_budget: Option<u64>,
    /// Wall-clock budget, polled at the same loop heads as
    /// `step_budget`; a stopped search answers with its best community
    /// so far. A service deadline only ever lowers it.
    pub time_budget: Option<Duration>,
    /// Root-size guard for [`Method::EVac`]: refuse larger roots with
    /// [`CsagError::BudgetExhausted`], mirroring the paper's `-` rows.
    pub evac_max_root: Option<usize>,
}

impl CommunityQuery {
    /// A query with the paper's §VII-A default parameters.
    pub fn new(method: Method, q: NodeId) -> Self {
        let sea = SeaParams::default();
        let exact = ExactParams::default();
        CommunityQuery {
            method,
            q,
            k: sea.k,
            model: sea.model,
            gamma: DistanceParams::default().gamma,
            error_bound: sea.error_bound,
            confidence: sea.confidence,
            hoeffding_epsilon: sea.hoeffding_epsilon,
            hoeffding_confidence: sea.hoeffding_confidence,
            lambda: sea.lambda,
            size_bound: None,
            seed: 42,
            pruning: exact.pruning,
            step_budget: None,
            time_budget: None,
            evac_max_root: Some(400),
        }
    }

    /// Retargets the query to another node (handy for replaying one
    /// configured template across a query workload).
    pub fn with_query(mut self, q: NodeId) -> Self {
        self.q = q;
        self
    }

    /// Switches the answering method.
    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Sets `k`.
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Sets the community model.
    pub fn with_model(mut self, model: CommunityModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the balance factor γ.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the user error bound `e`.
    pub fn with_error_bound(mut self, e: f64) -> Self {
        self.error_bound = e;
        self
    }

    /// Sets the CI confidence level `1 − α`.
    pub fn with_confidence(mut self, c: f64) -> Self {
        self.confidence = c;
        self
    }

    /// Sets the Hoeffding pair `(ϵ, 1 − β)`.
    pub fn with_hoeffding(mut self, epsilon: f64, confidence: f64) -> Self {
        self.hoeffding_epsilon = epsilon;
        self.hoeffding_confidence = confidence;
        self
    }

    /// Sets the initial sampling fraction λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the size window `[l, h]`.
    pub fn with_size_bound(mut self, l: usize, h: usize) -> Self {
        self.size_bound = Some((l, h));
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the exact method's pruning configuration.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = pruning;
        self
    }

    /// Sets a step budget (see [`CommunityQuery::step_budget`]).
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.step_budget = Some(steps);
        self
    }

    /// Sets a wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets E-VAC's root-size guard (`None` = accept any root).
    pub fn with_evac_max_root(mut self, max_root: Option<usize>) -> Self {
        self.evac_max_root = max_root;
        self
    }

    /// Validates and returns the query (the build-time gate).
    ///
    /// # Errors
    /// [`CsagError::InvalidParams`] naming the offending parameter.
    pub fn build(self) -> Result<Self, CsagError> {
        self.validate()?;
        Ok(self)
    }

    /// Checks every parameter for runnability; see
    /// [`CommunityQuery::build`].
    ///
    /// # Errors
    /// [`CsagError::InvalidParams`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), CsagError> {
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(CsagError::invalid(format!(
                "gamma must lie in [0, 1] (got {})",
                self.gamma
            )));
        }
        // The SEA parameter envelope covers k ≥ 2, the accuracy pair, the
        // Hoeffding pair, λ and the size bound — shared by
        // every method so a query stays replayable across methods.
        self.sea_params().validate()?;
        if self.method == Method::SeaSizeBounded && self.size_bound.is_none() {
            return Err(CsagError::invalid(
                "method sea-size-bounded requires a size bound; call with_size_bound(l, h)",
            ));
        }
        Ok(())
    }

    /// The distance parameters implied by `gamma`.
    pub fn distance_params(&self) -> DistanceParams {
        DistanceParams::with_gamma(self.gamma)
    }

    /// The equivalent `csag-core` SEA parameters.
    pub(crate) fn sea_params(&self) -> SeaParams {
        SeaParams {
            k: self.k,
            model: self.model,
            error_bound: self.error_bound,
            confidence: self.confidence,
            hoeffding_epsilon: self.hoeffding_epsilon,
            hoeffding_confidence: self.hoeffding_confidence,
            lambda: self.lambda,
            size_bound: self.size_bound,
            step_budget: self.step_budget,
            time_budget: self.time_budget,
            ..SeaParams::default()
        }
    }

    /// The equivalent `csag-core` exact parameters.
    pub(crate) fn exact_params(&self) -> ExactParams {
        ExactParams {
            k: self.k,
            model: self.model,
            pruning: self.pruning,
            step_budget: self.step_budget,
            time_budget: self.time_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>().unwrap(), m);
        }
        assert!("bogus".parse::<Method>().is_err());
    }

    #[test]
    fn build_validates_every_knob() {
        let ok = CommunityQuery::new(Method::Sea, 0).build();
        assert!(ok.is_ok());
        let cases = [
            CommunityQuery::new(Method::Sea, 0).with_k(1),
            CommunityQuery::new(Method::Sea, 0).with_k(0),
            CommunityQuery::new(Method::Sea, 0).with_error_bound(0.0),
            CommunityQuery::new(Method::Sea, 0).with_error_bound(2.0),
            CommunityQuery::new(Method::Sea, 0).with_confidence(1.0),
            CommunityQuery::new(Method::Sea, 0).with_gamma(1.5),
            CommunityQuery::new(Method::Sea, 0).with_gamma(-0.1),
            CommunityQuery::new(Method::Sea, 0).with_lambda(0.0),
            CommunityQuery::new(Method::Sea, 0).with_size_bound(9, 4),
            CommunityQuery::new(Method::SeaSizeBounded, 0),
        ];
        for c in cases {
            let shown = format!("{c:?}");
            assert!(
                matches!(c.build(), Err(CsagError::InvalidParams { .. })),
                "{shown} should fail validation"
            );
        }
        // A zero step budget stops at the first loop head that may stop.
        for method in Method::ALL
            .into_iter()
            .filter(|&m| m != Method::SeaSizeBounded)
        {
            let zero = CommunityQuery::new(method, 0).with_step_budget(0).build();
            assert_eq!(zero.map(|q| q.step_budget).ok(), Some(Some(0)), "{method}");
        }
    }

    #[test]
    fn knobs_map_onto_core_params() {
        let q = CommunityQuery::new(Method::Exact, 3)
            .with_k(5)
            .with_model(CommunityModel::KTruss)
            .with_pruning(PruningConfig::NO_P3)
            .with_step_budget(100);
        let e = q.exact_params();
        assert_eq!(e.k, 5);
        assert_eq!(e.model, CommunityModel::KTruss);
        assert_eq!(e.pruning, PruningConfig::NO_P3);
        assert_eq!(e.step_budget, Some(100));
        assert_eq!(q.sea_params().step_budget, Some(100));

        let q = CommunityQuery::new(Method::Sea, 3)
            .with_k(4)
            .with_error_bound(0.1)
            .with_hoeffding(0.2, 0.9)
            .with_lambda(0.5)
            .with_size_bound(3, 9)
            .with_time_budget(Duration::from_millis(7));
        let s = q.sea_params();
        assert_eq!(s.k, 4);
        assert_eq!(s.error_bound, 0.1);
        assert_eq!(s.hoeffding_epsilon, 0.2);
        assert_eq!(s.hoeffding_confidence, 0.9);
        assert_eq!(s.lambda, 0.5);
        assert_eq!(s.size_bound, Some((3, 9)));
        assert_eq!(s.time_budget, Some(Duration::from_millis(7)));
    }
}
