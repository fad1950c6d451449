//! SEA: the sampling-estimation approximate CS-AG algorithm (paper §V).
//!
//! The pipeline (Figure 4):
//!
//! 1. **Sampling-based maximal H̃ₖ finding (§V-A)** — determine the minimum
//!    neighborhood size |Gq| from the Hoeffding bound (Theorem 10), grow
//!    `Gq` around `q` by best-first search on `f(·,q)` (or take `q`'s
//!    component outright when the bound reaches `n` — a slice of the
//!    [`EpochIndex`]'s components), draw
//!    `|S| = λ·|V_Gq|` samples with probability ∝ `1 − f(v,q)` (Eq. 5),
//!    and peel the induced graph `Gq[S]` to the maximal connected
//!    community of `q`.
//! 2. **Estimation with accuracy guarantee (§V-B)** — estimate δ⋆ of each
//!    candidate with a Bag-of-Little-Bootstraps confidence interval
//!    `δ⋆ ± ε` at level `1 − α`; stop as soon as `ε ≤ δ⋆·e/(1+e)`
//!    (Theorem 11). Candidates are the fixed points of the paper's
//!    most-dissimilar-node greedy walk, generated directly as peeled
//!    prefixes of the closest members (see [`prefix_ladder`]).
//! 3. **Error-based incremental sampling (§V-C)** — if no candidate
//!    certifies, enlarge the sample by `|ΔS|` (Eq. 12) and repeat.
//!
//! Size-bounded search (§VI-B) plugs in through
//! [`SeaParams::size_bound`]; the k-truss model (§VI-C) through
//! [`SeaParams::model`]; heterogeneous graphs (§VI-A) through
//! [`crate::hetero_cs`], which calls [`sea_on_population`] on a meta-path
//! projection.
//!
//! SEA never copies the graph: the population `Gq` is a sorted list of the
//! graph's own node ids, every peel is restricted to a subset of it, and
//! one [`QueryDistances`] table per `(q, γ)` serves growth, sampling
//! weights and estimation.

use crate::clock::{deadline_after, expired};
use crate::distance::{DistanceParams, QueryDistances};
use crate::error::{check_query_node, CsagError};
use csag_decomp::{CommunityModel, EpochIndex, Maintainer};
use csag_graph::{AttributedGraph, FixedBitSet, MinScored, NodeId, QueryWorkspace};
use csag_stats::{
    incremental_sample_size, min_population_size, satisfies_error_bound,
    weighted_sample_without_replacement_into, z_for_confidence, Blb, ConfidenceInterval,
};
use rand::Rng;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Parameters of a SEA query. Defaults match the paper's §VII-A setup.
#[derive(Clone, Debug)]
pub struct SeaParams {
    /// Structure cohesion parameter k.
    pub k: u32,
    /// Community model (k-core default, k-truss per §VI-C).
    pub model: CommunityModel,
    /// User error bound `e` on the relative error of δ⋆ (default 2%).
    pub error_bound: f64,
    /// Confidence level `1 − α` of the CI (default 95%).
    pub confidence: f64,
    /// Hoeffding estimation error ϵ (default 0.05).
    pub hoeffding_epsilon: f64,
    /// Hoeffding confidence `1 − β` (default 95%).
    pub hoeffding_confidence: f64,
    /// Initial sampling fraction λ of |V_Gq| (default 0.2).
    pub lambda: f64,
    /// Bag-of-Little-Bootstraps configuration.
    pub blb: Blb,
    /// Maximum sampling/estimation rounds before giving up and returning
    /// the best uncertified candidate (paper: `N_e ≤ 5` in practice). The
    /// cap applies once some candidate has been estimated; until then the
    /// sample keeps growing, so "no community" always means the whole
    /// population was peeled.
    pub max_rounds: usize,
    /// Optional size bound `[l, h]` (§VI-B).
    pub size_bound: Option<(usize, usize)>,
    /// Wall-clock budget (`None` = unlimited), polled at each round's
    /// head once some candidate has been estimated. A stopped search
    /// answers like the same query whose `max_rounds` is the number of
    /// rounds it ran.
    pub time_budget: Option<Duration>,
}

impl Default for SeaParams {
    fn default() -> Self {
        SeaParams {
            k: 4,
            model: CommunityModel::KCore,
            error_bound: 0.02,
            confidence: 0.95,
            hoeffding_epsilon: 0.05,
            hoeffding_confidence: 0.95,
            lambda: 0.2,
            blb: Blb::default(),
            max_rounds: 5,
            size_bound: None,
            time_budget: None,
        }
    }
}

impl SeaParams {
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

    /// Sets a size bound `[l, h]` (§VI-B). Degenerate bounds (`l = 0` or
    /// `l > h`) are reported by [`SeaParams::validate`] at run time.
    pub fn with_size_bound(mut self, l: usize, h: usize) -> Self {
        self.size_bound = Some((l, h));
        self
    }

    /// Checks every parameter for runnability. Called by [`Sea::run`]
    /// before any work happens, and by the `csag::engine` query builder
    /// at build time.
    ///
    /// # Errors
    /// [`CsagError::InvalidParams`] naming the offending parameter:
    /// `k ≥ 2`, `error_bound ∈ (0,1)`, `confidence ∈ (0,1)`, the
    /// Hoeffding pair in `(0,1)`, `lambda ∈ (0,1]`, `1 ≤ l ≤ h` for size
    /// bounds, and at least one round.
    pub fn validate(&self) -> Result<(), CsagError> {
        if self.k < 2 {
            return Err(CsagError::invalid(format!(
                "k must be >= 2 (got {}); a 1-core is any connected subgraph",
                self.k
            )));
        }
        if !(self.error_bound > 0.0 && self.error_bound < 1.0) {
            return Err(CsagError::invalid(format!(
                "error_bound must lie in (0, 1) (got {})",
                self.error_bound
            )));
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(CsagError::invalid(format!(
                "confidence must lie in (0, 1) (got {})",
                self.confidence
            )));
        }
        if !(self.hoeffding_epsilon > 0.0 && self.hoeffding_epsilon < 1.0) {
            return Err(CsagError::invalid(format!(
                "hoeffding_epsilon must lie in (0, 1) (got {})",
                self.hoeffding_epsilon
            )));
        }
        if !(self.hoeffding_confidence > 0.0 && self.hoeffding_confidence < 1.0) {
            return Err(CsagError::invalid(format!(
                "hoeffding_confidence must lie in (0, 1) (got {})",
                self.hoeffding_confidence
            )));
        }
        if !(self.lambda > 0.0 && self.lambda <= 1.0) {
            return Err(CsagError::invalid(format!(
                "lambda must lie in (0, 1] (got {})",
                self.lambda
            )));
        }
        if let Some((l, h)) = self.size_bound {
            if l < 1 || l > h {
                return Err(CsagError::invalid(format!(
                    "size bound requires 1 <= l <= h (got [{l}, {h}])"
                )));
            }
        }
        if self.max_rounds == 0 {
            return Err(CsagError::invalid("max_rounds must be at least 1"));
        }
        Ok(())
    }

    /// The minimum community size used by the Hoeffding bound: `l` when
    /// size-bounded, else the model minimum (`k+1` core / `k` truss).
    pub fn min_members(&self) -> usize {
        match self.size_bound {
            Some((l, _)) => l,
            None => self.model.min_size(self.k),
        }
    }
}

/// One sampling/estimation round of the pipeline (Table VI rows).
#[derive(Clone, Debug)]
pub struct SeaRound {
    /// Point estimate δ⋆ of the round's final candidate.
    pub delta_star: f64,
    /// Margin of error ε of that candidate.
    pub moe: f64,
    /// Samples added *before* this round (0 for the first).
    pub added_samples: usize,
    /// Candidates examined during greedy search this round.
    pub candidates_examined: usize,
    /// Wall-clock time of the round.
    pub elapsed: Duration,
}

/// Wall-clock breakdown over the three pipeline steps (Figure 5(d)).
#[derive(Clone, Copy, Debug, Default)]
pub struct SeaTiming {
    /// S1: neighborhood construction + sampling + peeling.
    pub sampling: Duration,
    /// S2: BLB estimation + greedy candidate search.
    pub estimation: Duration,
    /// S3: error-based incremental sampling.
    pub incremental: Duration,
}

/// Result of a SEA query.
#[derive(Clone, Debug)]
pub struct SeaResult {
    /// The approximate community (sorted node ids of the *input graph*,
    /// contains `q`).
    pub community: Vec<NodeId>,
    /// Point estimate δ⋆ (the exact attribute distance of `community`).
    pub delta_star: f64,
    /// Confidence interval δ⋆ ± ε of `community` at the requested level.
    pub ci: ConfidenceInterval,
    /// Whether Theorem 11's stopping rule fired on some candidate of this
    /// run (`false` when `max_rounds` or the time budget ran out, the
    /// whole population was sampled, or a draw added nothing).
    /// `community` is the lowest-δ⋆ candidate estimated, not necessarily
    /// the one that fired, so a certified result's `ci` can be wider than
    /// Theorem 11 allows.
    pub certified: bool,
    /// Round-by-round log (Table VI).
    pub rounds: Vec<SeaRound>,
    /// Per-step timing (Figure 5(d)).
    pub timing: SeaTiming,
    /// Size of the sampling population |V_Gq|.
    pub population_size: usize,
    /// Final sample size |S|.
    pub sample_size: usize,
}

/// The SEA solver for homogeneous attributed graphs.
pub struct Sea<'g> {
    g: &'g AttributedGraph,
    index: &'g EpochIndex,
    dparams: DistanceParams,
}

impl<'g> Sea<'g> {
    /// Creates a solver over `g` with the given distance parameters,
    /// reading `g`'s tables (components, and the coreness or
    /// node-trussness screen q's root is walked in) from `index` — an
    /// engine lends its own; a standalone caller a fresh
    /// [`EpochIndex::new`].
    pub fn new(g: &'g AttributedGraph, index: &'g EpochIndex, dparams: DistanceParams) -> Self {
        Sea { g, index, dparams }
    }

    /// Runs the full SEA pipeline for query `q`.
    ///
    /// # Errors
    /// * [`CsagError::InvalidParams`] — `params` fail
    ///   [`SeaParams::validate`].
    /// * [`CsagError::QueryNodeNotFound`] — `q` is outside the graph.
    /// * [`CsagError::NoCommunity`] — no community of the requested
    ///   model/k containing `q` exists within the sampled neighborhood
    ///   even at full population.
    pub fn run<R: Rng + ?Sized>(
        &self,
        q: NodeId,
        params: &SeaParams,
        rng: &mut R,
    ) -> Result<SeaResult, CsagError> {
        check_query_node(q, self.g.n())?;
        let dist = QueryDistances::new(q, self.g.n(), self.dparams);
        self.run_in_workspace(q, params, rng, &dist, &mut QueryWorkspace::new())
    }

    /// Like [`Sea::run`], but reads `f(·,q)` from a caller-provided
    /// distance table — growth, sampling weights and estimation all share
    /// it, so a table that is already warm is never recomputed — and
    /// recycles a caller-provided [`QueryWorkspace`], so repeated queries
    /// on one thread reuse every bitset, heap and scratch buffer of the
    /// hot path (the `csag::engine` / batch-executor seam).
    ///
    /// # Errors
    /// In addition to the [`Sea::run`] errors,
    /// [`CsagError::InvalidParams`] when `dist` was built for a different
    /// query node or different distance parameters.
    pub fn run_in_workspace<R: Rng + ?Sized>(
        &self,
        q: NodeId,
        params: &SeaParams,
        rng: &mut R,
        dist: &QueryDistances,
        ws: &mut QueryWorkspace,
    ) -> Result<SeaResult, CsagError> {
        params.validate()?;
        check_query_node(q, self.g.n())?;
        if dist.q() != q || dist.params() != self.dparams {
            return Err(CsagError::invalid(
                "distance cache was built for a different query or γ",
            ));
        }
        let t0 = Instant::now();

        // §V-A: minimum |Gq| by Theorem 10, then best-first growth (q's
        // component when the bound reaches n).
        let min_gq = min_population_size(
            params.min_members(),
            self.g.n(),
            params.hoeffding_epsilon,
            1.0 - params.hoeffding_confidence,
        );
        let mut grown = ws.take_nodes();
        let population = if min_gq >= self.g.n() {
            self.index.components(self.g).of(q)
        } else {
            grow_neighborhood_into(self.g, q, min_gq, dist, ws, &mut grown);
            &grown[..]
        };
        let sampling_setup = t0.elapsed();

        let result = search_population(self, population, q, dist, params, rng, ws);
        ws.put_nodes(grown);
        let mut result = result?;
        result.timing.sampling += sampling_setup;
        Ok(result)
    }
}

/// Best-first (smallest `f(·,q)` first) neighborhood growth from `q` until
/// `min_size` nodes are collected or the component is exhausted (§V-A).
/// Returns the collected nodes (sorted); always contains `q`.
///
/// When `min_size` reaches the graph's node count — Theorem 10's bound is
/// capped at `n`, so this is every graph below ≈ 11 k nodes at the default
/// ϵ = β = 0.05 — growth cannot stop early and its answer is exactly `q`'s
/// connected component, in any visiting order. That case is a plain walk
/// that reads no `f(·,q)` at all.
pub fn grow_neighborhood(
    g: &AttributedGraph,
    q: NodeId,
    min_size: usize,
    dist: &QueryDistances,
) -> Vec<NodeId> {
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::with_capacity(min_size.min(g.n()).max(1));
    grow_neighborhood_into(g, q, min_size, dist, &mut ws, &mut out);
    out
}

/// Allocation-free twin of [`grow_neighborhood`]: collects into `out`
/// (cleared first) using pooled workspace state. With a warmed workspace
/// and a capacious `out` this is the zero-allocation steady state the
/// counting-allocator test asserts.
///
/// `min_size ≥ n` takes the component walk: `out` doubles as the walk's
/// stack and is then refilled from the pooled `taken` bitset, which
/// iterates in ascending order — no heap, no `f(·,q)` lookup, no sort.
/// Below `n` the growth is best-first on `f(·,q)`.
pub fn grow_neighborhood_into(
    g: &AttributedGraph,
    q: NodeId,
    min_size: usize,
    dist: &QueryDistances,
    ws: &mut QueryWorkspace,
    out: &mut Vec<NodeId>,
) {
    let mut taken = ws.take_bitset(g.n());
    out.clear();
    if min_size >= g.n() {
        taken.insert(q);
        out.push(q);
        while let Some(v) = out.pop() {
            for &w in g.neighbors(v) {
                if taken.insert(w) {
                    out.push(w);
                }
            }
        }
        out.extend(taken.iter());
        ws.put_bitset(taken);
        return;
    }
    let mut queued = ws.take_bitset(g.n());
    let mut heap = ws.take_heap();
    queued.insert(q);
    heap.push(MinScored {
        score: 0.0,
        node: q,
    });
    while let Some(MinScored { node: v, .. }) = heap.pop() {
        if !taken.insert(v) {
            continue;
        }
        out.push(v);
        if out.len() >= min_size.max(1) {
            break;
        }
        for &w in g.neighbors(v) {
            if !taken.contains(w) && queued.insert(w) {
                heap.push(MinScored {
                    score: dist.get(g, w),
                    node: w,
                });
            }
        }
    }
    out.sort_unstable();
    ws.put_heap(heap);
    ws.put_bitset(queued);
    ws.put_bitset(taken);
}

/// Pooled scratch of one [`sea_on_population`] call. `weights` and
/// `in_sample` are indexed by *position in the population* (so the seeded
/// draws do not depend on which graph the population lives in); every
/// node buffer holds ids of the graph.
struct PopulationBufs {
    weights: Vec<f64>,
    in_sample: FixedBitSet,
    keys: Vec<(f64, NodeId)>,
    picks: Vec<NodeId>,
    sample_nodes: Vec<NodeId>,
    root: Vec<NodeId>,
    data: Vec<f64>,
    best_comm: Vec<NodeId>,
    /// [`Blb::estimate_into`]'s scratch.
    blb_values: Vec<f64>,
    blb_indices: Vec<u32>,
}

/// Runs sampling + estimation + incremental sampling over a *population*:
/// a sorted list of distinct nodes of `g` that contains `q` (the grown
/// neighborhood `Gq`, or every node of a meta-path projection for
/// heterogeneous graphs). Nothing is copied — every peel is restricted to
/// a subset of `population` inside `g`, distances are read from `dist`
/// (the `f(·,q)` table of `g`), and the community comes back in `g`'s own
/// node ids. Scratch buffers are recycled through `ws`.
///
/// # Errors
/// [`CsagError::NoCommunity`] when the population holds no community of
/// the requested model/k containing `q` (or none inside the requested size
/// window); [`CsagError::InvalidParams`] for parameters that fail
/// [`SeaParams::validate`], a `dist` built for another query node, or a
/// population without `q`.
pub fn sea_on_population<R: Rng + ?Sized>(
    g: &AttributedGraph,
    population: &[NodeId],
    q: NodeId,
    dist: &QueryDistances,
    params: &SeaParams,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<SeaResult, CsagError> {
    search_population(
        &Sea::new(g, &EpochIndex::new(), dist.params()),
        population,
        q,
        dist,
        params,
        rng,
        ws,
    )
}

/// [`sea_on_population`] over `sea`'s graph, peeling through `sea`'s index.
fn search_population<R: Rng + ?Sized>(
    sea: &Sea<'_>,
    population: &[NodeId],
    q: NodeId,
    dist: &QueryDistances,
    params: &SeaParams,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<SeaResult, CsagError> {
    let g = sea.g;
    params.validate()?;
    check_query_node(q, g.n())?;
    debug_assert!(
        population.windows(2).all(|w| w[0] < w[1])
            && population.last().is_none_or(|&v| (v as usize) < g.n()),
        "population must be sorted, distinct and inside the graph"
    );
    let q_pos = match population.binary_search(&q) {
        Ok(pos) if dist.q() == q => pos,
        _ => {
            return Err(CsagError::invalid(
                "population or distance table does not belong to the query node",
            ))
        }
    };
    // Checked out of the caller's workspace up front so every exit path
    // of the search returns them.
    let mut maintainer = Maintainer::in_workspace(g, sea.index, params.model, params.k, ws);
    let mut bufs = PopulationBufs {
        weights: ws.take_f64s(),
        in_sample: ws.take_bitset(population.len()),
        keys: ws.take_scored(),
        picks: ws.take_nodes(),
        sample_nodes: ws.take_nodes(),
        root: ws.take_nodes(),
        data: ws.take_f64s(),
        best_comm: ws.take_nodes(),
        blb_values: ws.take_f64s(),
        blb_indices: ws.take_nodes(),
    };
    bufs.in_sample.insert(q_pos as u32);
    let res = sea_population_inner(
        &mut maintainer,
        population,
        dist,
        params,
        rng,
        &mut bufs,
        ws,
    );
    maintainer.release(ws);
    ws.put_f64s(bufs.weights);
    ws.put_bitset(bufs.in_sample);
    ws.put_scored(bufs.keys);
    ws.put_nodes(bufs.picks);
    ws.put_nodes(bufs.sample_nodes);
    ws.put_nodes(bufs.root);
    ws.put_f64s(bufs.data);
    ws.put_nodes(bufs.best_comm);
    ws.put_f64s(bufs.blb_values);
    ws.put_nodes(bufs.blb_indices);
    res
}

/// The search proper, with `q` already in the sample; the ladder's scratch
/// comes from `ws`. The time budget runs from here.
fn sea_population_inner<R: Rng + ?Sized>(
    maintainer: &mut Maintainer<'_>,
    population: &[NodeId],
    dist: &QueryDistances,
    params: &SeaParams,
    rng: &mut R,
    bufs: &mut PopulationBufs,
    ws: &mut QueryWorkspace,
) -> Result<SeaResult, CsagError> {
    let g = maintainer.graph();
    let n = population.len();
    let q = dist.q();
    // One text for both ways of finding nothing (no root at full sample, no
    // candidate inside the size window), in the caller's own node ids.
    let no_community = || {
        CsagError::no_community(format!(
            "even the full sampled neighborhood holds no {} of node {q} at k = {}{}",
            params.model,
            params.k,
            match params.size_bound {
                Some((l, h)) => format!(" within the size bound [{l}, {h}]"),
                None => String::new(),
            }
        ))
    };
    let deadline = deadline_after(Instant::now(), params.time_budget);
    let z = z_for_confidence(params.confidence);
    let mut timing = SeaTiming::default();
    let mut rounds: Vec<SeaRound> = Vec::new();

    // Attribute-aware sampling weights Ps(v) ∝ 1 − f(v,q) (Eq. 5).
    let t_weights = Instant::now();
    bufs.weights
        .extend(population.iter().map(|&v| 1.0 - dist.get(g, v)));
    let initial =
        ((params.lambda * n as f64).ceil() as usize).clamp(params.min_members().min(n), n);
    add_samples(bufs, initial.saturating_sub(1), rng);
    timing.sampling += t_weights.elapsed();

    let mut best: Option<(f64, f64)> = None; // (δ⋆, ε) of `bufs.best_comm`
    let mut certified = false;
    let mut added_this_round = 0usize;

    let mut round = 0usize;
    while round < params.max_rounds || best.is_none() {
        // The one clock poll: between rounds, once there is an answer to
        // return, so a stopped search is the same query capped at the
        // rounds it ran.
        if best.is_some() && expired(deadline) {
            break;
        }
        round += 1;
        let round_start = Instant::now();

        // S1: peel the induced sample to the maximal community of q.
        let t1 = Instant::now();
        bufs.sample_nodes.clear();
        bufs.sample_nodes
            .extend(bufs.in_sample.iter().map(|i| population[i as usize]));
        let have_root = maintainer.maximal_within_into(q, &bufs.sample_nodes, &mut bufs.root);
        timing.sampling += t1.elapsed();

        if !have_root {
            // No community in the sample: enlarge (double) and retry, or
            // fail definitively once the whole population is sampled.
            if bufs.in_sample.count() == n {
                return Err(no_community());
            }
            let t3 = Instant::now();
            let add = bufs.in_sample.count().max(1);
            let added = add_samples(bufs, add, rng);
            added_this_round += added;
            timing.incremental += t3.elapsed();
            continue;
        }

        // S2: BLB estimation over the prefix ladder, in ascending size. SEA
        // keeps the lowest-δ⋆ candidate of any round (δ⋆ is not monotone in
        // size); the first one to pass Theorem 11 ends the search and sets
        // `certified`, and is kept only if it is also the lowest.
        let t2 = Instant::now();
        let mut candidates_examined = 0usize;
        let mut last_est: Option<(f64, f64, usize)> = None; // (δ⋆, ε, |S_blb|)
        let window_top = params.size_bound.map(|(_, h)| 2 * h);
        prefix_ladder(
            maintainer,
            dist,
            &bufs.root,
            params.min_members(),
            window_top,
            ws,
            |rung, cand| {
                let Some(cand) = cand else {
                    return ControlFlow::Continue(());
                };
                if params
                    .size_bound
                    .is_some_and(|(l, h)| cand.len() < l || cand.len() > h)
                {
                    return ControlFlow::Continue(());
                }
                candidates_examined += 1;
                bufs.data.clear();
                if cand.len() == rung.len() + 1 {
                    // The peel kept the whole prefix (the output is a subset, so
                    // equal size means equal set): the δ numerator is over the
                    // rung verbatim — no per-member lookups or filtering.
                    bufs.data.extend(rung.iter().map(|&(f, _)| f));
                } else {
                    bufs.data
                        .extend(cand.iter().filter(|&&v| v != q).map(|&v| dist.get(g, v)));
                }
                let est = params.blb.estimate_into(
                    &bufs.data,
                    z,
                    rng,
                    &mut bufs.blb_values,
                    &mut bufs.blb_indices,
                );
                last_est = Some((est.point, est.moe, est.blb_sample_size));
                if best.is_none_or(|(d, _)| est.point < d) {
                    best = Some((est.point, est.moe));
                    bufs.best_comm.clear();
                    bufs.best_comm.extend_from_slice(cand);
                }
                if satisfies_error_bound(est.moe, est.point, params.error_bound) {
                    certified = true;
                    return ControlFlow::Break(());
                }
                if candidates_examined >= MAX_CANDIDATES_PER_ROUND {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        timing.estimation += t2.elapsed();

        let (ds, moe, sblb) = last_est.unwrap_or((0.0, f64::INFINITY, bufs.in_sample.count()));
        rounds.push(SeaRound {
            delta_star: ds,
            moe,
            added_samples: added_this_round,
            candidates_examined,
            elapsed: round_start.elapsed(),
        });
        added_this_round = 0;

        if certified {
            break;
        }

        // S3: error-based incremental sampling (Eq. 12).
        if bufs.in_sample.count() == n {
            break; // Nothing left to add; return best effort.
        }
        let t3 = Instant::now();
        let want = incremental_sample_size(
            sblb.max(1),
            moe.min(1e6),
            ds,
            params.error_bound,
            params.blb.scale_exponent,
        )
        .max(1);
        let added = add_samples(bufs, want, rng);
        added_this_round += added;
        timing.incremental += t3.elapsed();
        if added == 0 {
            break;
        }
    }

    let (delta_star, moe) = best.ok_or_else(no_community)?;
    Ok(SeaResult {
        ci: ConfidenceInterval {
            center: delta_star,
            moe,
            confidence: params.confidence,
        },
        delta_star,
        certified,
        rounds,
        timing,
        population_size: n,
        sample_size: bufs.in_sample.count(),
        community: bufs.best_comm[..].to_vec(),
    })
}

/// Most candidates one round of the ladder estimates. Bounds the estimation
/// step on giant sampled communities; certification normally ends a round
/// long before the cap.
const MAX_CANDIDATES_PER_ROUND: usize = 128;

/// The prefix ladder of SEA's candidate scan (§V-B) and of Exact's warm
/// start: peels growing prefixes of `root`'s members closest to `q =
/// dist.q()`.
///
/// The paper walks candidates by deleting the single most dissimilar node
/// from the root. On sampled roots that span several attribute scales that
/// walk can collapse the community before it reaches the attribute-tight
/// core, so the ladder generates the walk's fixed points directly: it sorts
/// `root ∖ {q}` by `(f(·,q), id)` into `by_f` and peels `{q} ∪
/// by_f[..size]` through [`Maintainer::maximal_within_into`] for each rung
/// size. Sizes start at `min_members − 1` (at least 1). Without a
/// `window_top` they grow ×5/4 (at least by one) up to the whole list,
/// which is the last rung; with one they take every size up to
/// `window_top` (capped at the list).
///
/// After every rung, `visit(&by_f[..size], cand)` runs; returning
/// [`ControlFlow::Break`] ends the ladder. `cand` is the peeled community
/// when it is a fixed point no earlier rung reached, else `None`: peels of
/// growing prefixes are nested, so a candidate as long as the last one is
/// that same set. The scratch comes from `ws`.
pub fn prefix_ladder(
    m: &mut Maintainer<'_>,
    dist: &QueryDistances,
    root: &[NodeId],
    min_members: usize,
    window_top: Option<usize>,
    ws: &mut QueryWorkspace,
    mut visit: impl FnMut(&[(f64, NodeId)], Option<&[NodeId]>) -> ControlFlow<()>,
) {
    let g = m.graph();
    let q = dist.q();
    let mut by_f = ws.take_scored();
    let mut prefix = ws.take_nodes();
    let mut cand = ws.take_nodes();
    by_f.extend(
        root.iter()
            .filter(|&&v| v != q)
            .map(|&v| (dist.get(g, v), v)),
    );
    by_f.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)));
    let top = window_top.map_or(by_f.len(), |t| t.min(by_f.len()));
    let mut size = min_members.saturating_sub(1).max(1);
    let mut last_len = 0;
    while size <= top {
        prefix.clear();
        prefix.push(q);
        prefix.extend(by_f[..size].iter().map(|&(_, v)| v));
        let fresh = m.maximal_within_into(q, &prefix, &mut cand) && cand.len() != last_len;
        if fresh {
            last_len = cand.len();
        }
        if visit(&by_f[..size], fresh.then_some(&cand[..])).is_break() {
            break;
        }
        size = if window_top.is_some() || size == top {
            size + 1
        } else {
            (size * 5 / 4).max(size + 1).min(top)
        };
    }
    ws.put_scored(by_f);
    ws.put_nodes(prefix);
    ws.put_nodes(cand);
}

/// Draws up to `want` *new* samples (positions not yet in `in_sample`)
/// by weighted sampling without replacement over the unsampled positions;
/// returns how many were added.
fn add_samples<R: Rng + ?Sized>(bufs: &mut PopulationBufs, want: usize, rng: &mut R) -> usize {
    let PopulationBufs {
        weights,
        in_sample,
        keys,
        picks,
        ..
    } = bufs;
    weighted_sample_without_replacement_into(
        weights,
        |i| in_sample.contains(i as u32),
        want,
        rng,
        keys,
        picks,
    );
    for &p in picks.iter() {
        in_sample.insert(p);
    }
    picks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{Exact, ExactParams};
    use csag_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two planted communities of 12 nodes each, bridged by a few edges.
    /// Community A (containing q=0) has attribute value ~0.1, community B
    /// ~0.9, so A is attribute-cohesive around q.
    fn planted(seed: u64) -> AttributedGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(1);
        for i in 0..24 {
            let base = if i < 12 { 0.1 } else { 0.9 };
            let jitter = rng.gen_range(-0.05..0.05);
            let topic = if i < 12 { "alpha" } else { "beta" };
            b.add_node(&[topic], &[base + jitter]);
        }
        // Dense intra-community edges.
        for block in [0u32, 12] {
            for u in block..block + 12 {
                for v in (u + 1)..block + 12 {
                    if rng.gen_bool(0.7) {
                        b.add_edge(u, v).unwrap();
                    }
                }
            }
        }
        // Sparse bridges.
        for _ in 0..6 {
            let u = rng.gen_range(0..12);
            let v = rng.gen_range(12..24);
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sea_returns_valid_community() {
        let g = planted(1);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let params = SeaParams::default().with_k(3).with_error_bound(0.1);
        let mut rng = StdRng::seed_from_u64(7);
        let res = sea.run(0, &params, &mut rng).expect("community exists");
        assert!(res.community.contains(&0));
        assert!(res.community.len() >= 4, "at least k+1 nodes");
        // Structural validity: every member has >= k in-community neighbors.
        for &v in &res.community {
            let d = g
                .neighbors(v)
                .iter()
                .filter(|w| res.community.binary_search(w).is_ok())
                .count();
            assert!(d >= 3, "node {v} has degree {d} in community");
        }
        assert!(csag_graph::traversal::is_connected_subset(
            &g,
            &res.community
        ));
        assert!(!res.rounds.is_empty());
        assert!(res.population_size >= res.sample_size);
    }

    #[test]
    fn sea_prefers_attribute_cohesive_side() {
        let g = planted(2);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let params = SeaParams::default().with_k(3).with_error_bound(0.05);
        let mut rng = StdRng::seed_from_u64(3);
        let res = sea.run(0, &params, &mut rng).unwrap();
        // Community should stay mostly within the first block.
        let outsiders = res.community.iter().filter(|&&v| v >= 12).count();
        assert!(
            outsiders * 3 <= res.community.len(),
            "too many dissimilar members: {outsiders}/{}",
            res.community.len()
        );
    }

    #[test]
    fn sea_delta_close_to_exact_when_certified() {
        let g = planted(3);
        let dp = DistanceParams::default();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, dp)
            .run(0, &ExactParams::default().with_k(3))
            .unwrap();
        let sea = Sea::new(&g, &index, dp);
        let params = SeaParams::default().with_k(3).with_error_bound(0.05);
        let mut rng = StdRng::seed_from_u64(11);
        let res = sea.run(0, &params, &mut rng).unwrap();
        if res.certified {
            let rel = (res.delta_star - exact.delta).abs() / exact.delta;
            // Certification promises e with confidence 1-α; allow 3x slack
            // for the single-draw test.
            assert!(rel < 0.15, "relative error {rel}");
        }
    }

    #[test]
    fn sea_is_deterministic_under_seed() {
        let g = planted(4);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let params = SeaParams::default().with_k(3);
        let a = sea.run(0, &params, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = sea.run(0, &params, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.community, b.community);
        assert_eq!(a.delta_star, b.delta_star);
    }

    #[test]
    fn sea_no_kcore_is_a_typed_error() {
        let mut b = GraphBuilder::new(1);
        b.add_node(&["x"], &[0.0]);
        b.add_node(&["x"], &[1.0]);
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            sea.run(0, &SeaParams::default().with_k(3), &mut rng),
            Err(CsagError::NoCommunity { .. })
        ));
        // Out-of-range query nodes are reported as such, not as "no
        // community".
        assert!(matches!(
            sea.run(17, &SeaParams::default().with_k(3), &mut rng),
            Err(CsagError::QueryNodeNotFound { q: 17, .. })
        ));
    }

    #[test]
    fn size_bound_is_respected() {
        let g = planted(6);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let params = SeaParams::default()
            .with_k(2)
            .with_error_bound(0.25)
            .with_size_bound(3, 8);
        let mut rng = StdRng::seed_from_u64(9);
        if let Ok(res) = sea.run(0, &params, &mut rng) {
            assert!(
                res.community.len() <= 8,
                "size bound violated: {}",
                res.community.len()
            );
            assert!(res.community.len() >= 3);
        }
    }

    #[test]
    fn grow_neighborhood_prefers_similar_nodes() {
        let g = planted(7);
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        let nb = grow_neighborhood(&g, 0, 12, &dist);
        assert_eq!(nb.len(), 12);
        assert!(nb.contains(&0));
        // Most collected nodes should be from the similar block 0..12.
        let similar = nb.iter().filter(|&&v| v < 12).count();
        assert!(similar >= 9, "best-first should stay local: {similar}/12");
    }

    #[test]
    fn grow_neighborhood_exhausts_component() {
        let g = planted(8);
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        let nb = grow_neighborhood(&g, 0, 10_000, &dist);
        assert_eq!(nb.len(), 24, "whole connected component");
    }

    /// The `_into` twin must agree with the allocating wrapper while
    /// reusing one workspace across many calls.
    #[test]
    fn grow_neighborhood_into_reuses_workspace() {
        let g = planted(9);
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for min_size in [1, 5, 12, 24, 100] {
            grow_neighborhood_into(&g, 0, min_size, &dist, &mut ws, &mut out);
            assert_eq!(out, grow_neighborhood(&g, 0, min_size, &dist));
        }
    }

    #[test]
    fn params_builder_and_min_members() {
        let p = SeaParams::default().with_k(5);
        assert_eq!(p.min_members(), 6);
        let p = p.with_model(CommunityModel::KTruss);
        assert_eq!(p.min_members(), 5);
        let p = p.with_size_bound(9, 20);
        assert_eq!(p.min_members(), 9);
    }

    #[test]
    fn validate_rejects_degenerate_params() {
        let bad = [
            SeaParams::default().with_k(1),
            SeaParams::default().with_error_bound(0.0),
            SeaParams::default().with_error_bound(1.0),
            SeaParams::default().with_confidence(0.0),
            SeaParams::default().with_confidence(1.5),
            SeaParams::default().with_hoeffding(0.0, 0.95),
            SeaParams::default().with_hoeffding(0.05, 1.0),
            SeaParams::default().with_lambda(0.0),
            SeaParams::default().with_lambda(1.2),
            SeaParams::default().with_size_bound(5, 3),
            SeaParams::default().with_size_bound(0, 3),
        ];
        for p in bad {
            assert!(
                matches!(p.validate(), Err(CsagError::InvalidParams { .. })),
                "{p:?} should be rejected"
            );
        }
        assert!(SeaParams::default().validate().is_ok());
        assert!(SeaParams::default()
            .with_size_bound(3, 3)
            .validate()
            .is_ok());
        // Degenerate runs are refused before any sampling happens.
        let g = planted(1);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            sea.run(0, &SeaParams::default().with_k(1), &mut rng),
            Err(CsagError::InvalidParams { .. })
        ));
    }
}
