//! The exact CS-AG algorithm (paper §IV, Algorithm 1).
//!
//! Starting from the maximal connected k-core of `q`, enumerate sub-states
//! by deleting nodes in descending composite-distance order (*priority
//! enumeration*), with three pruning strategies:
//!
//! * **P1 — duplicate states** (Theorems 3–4): a substate reached by
//!   deleting `v` whose cascade removed a node `v_m` with
//!   `f(v_m,q) > f(u,q)` (`u` = the node whose deletion created the current
//!   state) was already visited along another branch.
//! * **P2 — unnecessary states** (Theorem 5): only delete nodes with
//!   `f(·,q) > δ(current state)`.
//! * **P3 — unpromising states** (Theorem 6): prune a state whose
//!   lower-bound distance ([`QueryDistances::lower_bound`] of its
//!   smallest `min_size − 1` distances, Eqs. 3–4) is no better than the
//!   best δ found so far.
//!
//! Each strategy can be toggled independently ([`PruningConfig`]) to
//! reproduce the paper's Table IV ablation. A step/time budget stops
//! runaway configurations — the way the paper reports `> 8 days` — and
//! the stopped search still answers: its best community so far, marked
//! incomplete, with a proven Theorem-6 lower bound on the optimum (see
//! [`ExactResult`]).

use crate::clock::Stop;
use crate::distance::{DistanceParams, QueryDistances};
use crate::error::{check_query_node, root_of, CsagError};
use crate::sea::prefix_ladder;
use csag_decomp::{CommunityModel, EpochIndex, Maintainer};
use csag_graph::{AttributedGraph, NodeId, QueryWorkspace};
use std::ops::ControlFlow;
use std::time::Duration;

/// Which pruning strategies are active (Table IV ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruningConfig {
    /// P1: prune duplicate states (Theorems 3–4).
    pub duplicate: bool,
    /// P2: prune unnecessary states (Theorem 5).
    pub unnecessary: bool,
    /// P3: prune unpromising states (Theorem 6).
    pub unpromising: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig {
            duplicate: true,
            unnecessary: true,
            unpromising: true,
        }
    }
}

impl PruningConfig {
    /// All prunings on (the paper's `Exact`).
    pub const ALL: PruningConfig = PruningConfig {
        duplicate: true,
        unnecessary: true,
        unpromising: true,
    };
    /// P1+P2 (the paper's `Exact\P3`).
    pub const NO_P3: PruningConfig = PruningConfig {
        duplicate: true,
        unnecessary: true,
        unpromising: false,
    };
    /// P1 only (the paper's `Exact\P3+P2`).
    pub const P1_ONLY: PruningConfig = PruningConfig {
        duplicate: true,
        unnecessary: false,
        unpromising: false,
    };
    /// No prunings (the paper's `Exact w/o P`).
    pub const NONE: PruningConfig = PruningConfig {
        duplicate: false,
        unnecessary: false,
        unpromising: false,
    };
}

/// Parameters of an exact search.
#[derive(Clone, Debug)]
pub struct ExactParams {
    /// Structure cohesion parameter k.
    pub k: u32,
    /// Community model (k-core by default; k-truss per §VI-C).
    pub model: CommunityModel,
    /// Active pruning strategies.
    pub pruning: PruningConfig,
    /// Stop after this many steps (`None` = unlimited): each warm-start
    /// rung, each descent step and each search state is one.
    pub step_budget: Option<u64>,
    /// Abort after this much wall-clock time (`None` = unlimited).
    pub time_budget: Option<Duration>,
}

impl Default for ExactParams {
    fn default() -> Self {
        ExactParams {
            k: 4,
            model: CommunityModel::KCore,
            pruning: PruningConfig::default(),
            step_budget: None,
            time_budget: None,
        }
    }
}

impl ExactParams {
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

    /// Sets the pruning configuration.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = pruning;
        self
    }

    /// Sets a time budget.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

/// Result of an exact CS-AG search. A `complete` search's community is
/// δ-optimal under the chosen model. A search its step or time budget
/// stopped returns the best community found so far, and the optimum lies
/// in `[lower_bound, delta]`.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The best community found (sorted node ids, contains `q`).
    pub community: Vec<NodeId>,
    /// Its attribute distance δ.
    pub delta: f64,
    /// A proven lower bound on the optimal δ: `delta` itself when the
    /// search completed. When a budget stopped it, the smallest of `delta`
    /// and the Theorem-6 bounds of the states whose subtrees the stop left
    /// unexplored.
    pub lower_bound: f64,
    /// Whether the search ran to the end, so `community` is δ-optimal.
    pub complete: bool,
    /// Number of states visited in the search tree (root included).
    pub states_explored: u64,
    /// Steps passed: warm-start rungs and descent steps, then states.
    pub steps: u64,
}

/// The exact CS-AG solver.
pub struct Exact<'g> {
    g: &'g AttributedGraph,
    index: &'g EpochIndex,
    dparams: DistanceParams,
}

struct SearchCtx<'g> {
    g: &'g AttributedGraph,
    q: NodeId,
    pruning: PruningConfig,
    /// Members besides q that any community has: `min_size − 1`, the
    /// Theorem-6 bound's `need`.
    need: usize,
    best: Vec<NodeId>,
    best_delta: f64,
    stop: Stop,
    /// Smallest Theorem-6 bound over the subtrees a stop left unexplored,
    /// folded in as the recursion unwinds from it (∞ while none is).
    unexplored_bound: f64,
    /// Free per-recursion-level buffer sets. Each `enumerate` level pops
    /// one set on entry and pushes it back on exit, so the enumeration
    /// allocates only up to its deepest-ever recursion and then reuses —
    /// no per-expansion clones of candidate lists or substates.
    free: Vec<LevelBufs>,
}

/// The scratch one recursion level of [`enumerate`] needs.
#[derive(Default)]
struct LevelBufs {
    /// Candidate deletions `(f(v,q), v)` of the current state.
    cands: Vec<(f64, NodeId)>,
    /// The state minus the deleted node (peel input).
    work: Vec<NodeId>,
    /// The maximal community within `work` (peel output).
    substate: Vec<NodeId>,
    /// Smallest-distances buffer of the Theorem-6 lower bound.
    lb: Vec<f64>,
}

impl<'g> Exact<'g> {
    /// Creates a solver over `g` with the given distance parameters,
    /// reading q's root off `index`'s coreness or node-trussness screen —
    /// an engine lends its own index; a standalone caller a fresh
    /// [`EpochIndex::new`].
    pub fn new(g: &'g AttributedGraph, index: &'g EpochIndex, dparams: DistanceParams) -> Self {
        Exact { g, index, dparams }
    }

    /// Runs the exact search from query node `q`.
    ///
    /// # Errors
    /// * [`CsagError::QueryNodeNotFound`] — `q` is outside the graph.
    /// * [`CsagError::NoCommunity`] — `q` has no community under the
    ///   chosen model/k (e.g. no k-core contains it).
    ///
    /// A budget stop is not an error: see [`ExactResult::complete`].
    pub fn run(&self, q: NodeId, params: &ExactParams) -> Result<ExactResult, CsagError> {
        check_query_node(q, self.g.n())?;
        let dist = QueryDistances::new(q, self.g.n(), self.dparams);
        self.run_in_workspace(q, params, &dist, &mut QueryWorkspace::new())
    }

    /// Like [`Exact::run`], but reuses a caller-provided per-query
    /// distance cache (the seam the `csag::engine` facade uses to share
    /// `f(·,q)` evaluations across methods and repeated queries) and a
    /// caller-provided [`QueryWorkspace`] for the warm-start scratch (the
    /// batch-executor seam; the enumeration's per-level buffers pool
    /// internally).
    ///
    /// # Errors
    /// In addition to the [`Exact::run`] errors,
    /// [`CsagError::InvalidParams`] when `dist` was built for a different
    /// query node or different distance parameters.
    pub fn run_in_workspace(
        &self,
        q: NodeId,
        params: &ExactParams,
        dist: &QueryDistances,
        ws: &mut QueryWorkspace,
    ) -> Result<ExactResult, CsagError> {
        check_query_node(q, self.g.n())?;
        if dist.q() != q || dist.params() != self.dparams {
            return Err(CsagError::invalid(
                "distance cache was built for a different query or γ",
            ));
        }
        let mut maintainer =
            Maintainer::in_workspace(self.g, self.index, params.model, params.k, ws);
        let result = self.search(q, params, dist, &mut maintainer, ws);
        maintainer.release(ws);
        result
    }

    /// The search proper, peeling through `maintainer`.
    fn search(
        &self,
        q: NodeId,
        params: &ExactParams,
        dist: &QueryDistances,
        maintainer: &mut Maintainer<'_>,
        ws: &mut QueryWorkspace,
    ) -> Result<ExactResult, CsagError> {
        let mut stop = Stop::new(params.time_budget, params.step_budget);
        let root = root_of(maintainer, q)?;

        dist.warm(self.g, &root);
        let root_delta = dist.delta(self.g, &root);

        // Warm start, two phases. Phase 1: the [`prefix_ladder`] — the
        // δ-optimum is close to "the nearest nodes that still hold a
        // community", so some prefix lands near it at a cost of
        // O(#prefixes · |E_root|). Phase 2: greedy farthest-node descent
        // from the best prefix, refining the incumbent one deletion at a
        // time. Neither phase affects optimality — they only tighten the
        // Theorem-6 bound before enumeration starts, which shrinks the
        // search tree by orders of magnitude on homogeneous-attribute
        // communities.
        let mut incumbent = (root.clone(), root_delta);
        prefix_ladder(
            maintainer,
            dist,
            &root,
            params.model.min_size(params.k),
            None,
            ws,
            |_, cand| {
                if let Some(cand) = cand {
                    let d = dist.delta(self.g, cand);
                    if d < incumbent.1 {
                        incumbent.0.clear();
                        incumbent.0.extend_from_slice(cand);
                        incumbent.1 = d;
                    }
                }
                if stop.poll(true) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );

        let mut cur = ws.take_nodes();
        let mut shrunk = ws.take_nodes();
        let mut cand = ws.take_nodes();
        cur.extend_from_slice(&incumbent.0);
        while !stop.poll(true) {
            let Some((_, worst)) = cur
                .iter()
                .filter(|&&v| v != q)
                .map(|&v| (dist.get(self.g, v), v))
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)))
            else {
                break;
            };
            shrunk.clear();
            shrunk.extend(cur.iter().copied().filter(|&x| x != worst));
            if !maintainer.maximal_within_into(q, &shrunk, &mut cand) {
                break;
            }
            let d = dist.delta(self.g, &cand);
            if d < incumbent.1 {
                incumbent.0.clear();
                incumbent.0.extend_from_slice(&cand);
                incumbent.1 = d;
            }
            std::mem::swap(&mut cur, &mut cand);
        }
        ws.put_nodes(cur);
        ws.put_nodes(shrunk);
        ws.put_nodes(cand);

        // Every step from here on enters one state.
        let warm_steps = stop.steps();
        let mut ctx = SearchCtx {
            g: self.g,
            q,
            pruning: params.pruning,
            need: params.model.min_size(params.k).saturating_sub(1),
            best: incumbent.0,
            best_delta: incumbent.1,
            stop,
            unexplored_bound: f64::INFINITY,
            free: Vec::new(),
        };
        enumerate(&mut ctx, maintainer, dist, &root, root_delta, f64::INFINITY);

        Ok(ExactResult {
            delta: ctx.best_delta,
            lower_bound: ctx.best_delta.min(ctx.unexplored_bound),
            complete: !ctx.stop.stopped(),
            community: ctx.best,
            states_explored: ctx.stop.steps() - warm_steps,
            steps: ctx.stop.steps(),
        })
    }
}

/// Folds the Theorem-6 bound of `state` into the bound on what a stop
/// left unexplored: every state below it is a subset, so none has a
/// smaller δ.
fn fold_unexplored(ctx: &mut SearchCtx<'_>, dist: &QueryDistances, state: &[NodeId]) {
    let mut buf = ctx.free.pop().unwrap_or_default();
    let lb = dist.lower_bound(ctx.g, state, ctx.need, &mut buf.lb);
    ctx.unexplored_bound = ctx.unexplored_bound.min(lb);
    ctx.free.push(buf);
}

fn enumerate(
    ctx: &mut SearchCtx<'_>,
    maintainer: &mut Maintainer<'_>,
    dist: &QueryDistances,
    state: &[NodeId],
    state_delta: f64,
    f_u: f64,
) {
    // A budget of B admits B steps and stops at the attempt to enter the
    // next state, which the stop leaves unexplored.
    if ctx.stop.poll(true) {
        fold_unexplored(ctx, dist, state);
        return;
    }

    // This level's buffers: popped from the free pool, pushed back on
    // every exit. Steady-state recursion therefore reuses the deepest
    // prior level's allocations instead of cloning per expansion.
    let mut level = ctx.free.pop().unwrap_or_default();

    // P3: prune unpromising states (Theorem 6).
    if ctx.pruning.unpromising {
        let lb = dist.lower_bound(ctx.g, state, ctx.need, &mut level.lb);
        if lb >= ctx.best_delta {
            ctx.free.push(level);
            return;
        }
    }

    // Candidate deletions: by Theorem 5 only nodes with f(·,q) > δ(state)
    // can improve δ (P2); otherwise every non-q node is a candidate.
    level.cands.clear();
    level.cands.extend(
        state
            .iter()
            .filter(|&&v| v != ctx.q)
            .map(|&v| (dist.get(ctx.g, v), v))
            .filter(|&(f, _)| !ctx.pruning.unnecessary || f > state_delta),
    );
    // Priority enumeration: descending f(·,q) (Lemma 1). Ties broken by id
    // for determinism.
    level
        .cands
        .sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN").then(a.1.cmp(&b.1)));

    for idx in 0..level.cands.len() {
        let (f_v, v) = level.cands[idx];
        level.work.clear();
        level.work.extend(state.iter().copied().filter(|&x| x != v));
        if !maintainer.maximal_within_into(ctx.q, &level.work, &mut level.substate) {
            // Deleting v collapses q's community; no substate to visit.
            continue;
        }
        let substate = &level.substate;

        // P1: duplicate-state pruning (Theorem 4). v_m is the deleted node
        // with the largest f(·,q) among everything the cascade removed.
        if ctx.pruning.duplicate {
            let mut f_vm = f_v;
            // `state` and `substate` are sorted; walk both to find removals.
            let (mut i, mut j) = (0, 0);
            while i < state.len() {
                if j < substate.len() && state[i] == substate[j] {
                    i += 1;
                    j += 1;
                } else {
                    let removed = state[i];
                    if removed != v {
                        f_vm = f_vm.max(dist.get(ctx.g, removed));
                    }
                    i += 1;
                }
            }
            if f_vm > f_u {
                continue;
            }
        }

        let sub_delta = dist.delta(ctx.g, substate);
        if sub_delta < ctx.best_delta {
            ctx.best_delta = sub_delta;
            ctx.best.clear();
            ctx.best.extend_from_slice(substate);
        }
        enumerate(ctx, maintainer, dist, &level.substate, sub_delta, f_v);
        if ctx.stop.stopped() {
            // Unwinding from a stop: the candidates after this one are
            // unexplored subtrees of `state`.
            if idx + 1 < level.cands.len() {
                fold_unexplored(ctx, dist, state);
            }
            break;
        }
    }
    ctx.free.push(level);
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    /// The paper's Figure 2(c)/Figure 3 example: the connected 2-core on
    /// {v1..v6} with q = v5 and the composite distances printed above
    /// Figure 3: f(v1,q)=0.7, f(v2,q)=0.6, f(v3,q)=0.6, f(v4,q)=0.5,
    /// f(v6,q)=0.3.
    ///
    /// We realize these distances with a single numerical attribute and
    /// γ = 0 (node value = desired distance, q = 0, range [0,1] via two
    /// anchor values).
    fn figure3_graph() -> (AttributedGraph, NodeId) {
        let mut b = GraphBuilder::new(1);
        // Index 0 unused anchor at 1.0 to pin normalization to [0,1].
        // Nodes: v1..v6 at indices 1..=6; q = v5 (index 5, value 0).
        let values = [1.0, 0.7, 0.6, 0.6, 0.5, 0.0, 0.3];
        for &x in &values {
            b.add_node(&[], &[x]);
        }
        // Edges of the 2-core in Fig 2(c): v1-v2, v1-v3, v2-v3, v2-v4,
        // v3-v6, v4-v5, v5-v6, v4-v6, v1-v5.
        // Chosen so every node has degree >= 2 and the search tree of
        // Fig 3 makes sense (v1's deletion keeps a 2-core, etc.).
        for (u, v) in [
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 6),
            (4, 5),
            (5, 6),
            (4, 6),
            (1, 5),
        ] {
            b.add_edge(u, v).unwrap();
        }
        (b.build().unwrap(), 5)
    }

    fn exact_params() -> ExactParams {
        ExactParams::default().with_k(2)
    }

    #[test]
    fn distances_match_figure3() {
        let (g, q) = figure3_graph();
        let dist = QueryDistances::new(q, g.n(), DistanceParams::with_gamma(0.0));
        let expect = [(1, 0.7), (2, 0.6), (3, 0.6), (4, 0.5), (6, 0.3)];
        for (v, f) in expect {
            assert!((dist.get(&g, v) - f).abs() < 1e-12, "f(v{v},q)");
        }
        // δ(H̃₂) = (0.7+0.6+0.6+0.5+0.3)/5 = 0.54 (paper Example 2).
        let root = csag_decomp::max_connected_kcore(&g, q, 2).unwrap();
        assert_eq!(root, vec![1, 2, 3, 4, 5, 6]);
        assert!((dist.delta(&g, &root) - 0.54).abs() < 1e-12);
    }

    #[test]
    fn exact_finds_optimum_on_figure3() {
        let (g, q) = figure3_graph();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::with_gamma(0.0));
        let res = exact.run(q, &exact_params()).unwrap();
        assert!(res.community.contains(&q));
        // Brute-force reference: try every subset containing q that is a
        // connected 2-core.
        let (best_delta, best) = brute_force(&g, q, 2);
        assert!(
            (res.delta - best_delta).abs() < 1e-12,
            "exact delta {} vs brute {}",
            res.delta,
            best_delta
        );
        assert_eq!(res.community, best);
    }

    /// Brute force over all subsets (graph is tiny).
    fn brute_force(g: &AttributedGraph, q: NodeId, k: u32) -> (f64, Vec<NodeId>) {
        let n = g.n();
        let dist = QueryDistances::new(q, n, DistanceParams::with_gamma(0.0));
        let mut best = (f64::INFINITY, Vec::new());
        for mask in 1u32..(1 << n) {
            if mask & (1 << q) == 0 {
                continue;
            }
            let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&v| mask & (1 << v) != 0).collect();
            // Is it a connected k-core by itself?
            let ok_deg = nodes.iter().all(|&v| {
                g.neighbors(v)
                    .iter()
                    .filter(|w| nodes.binary_search(w).is_ok())
                    .count()
                    >= k as usize
            });
            if !ok_deg || !csag_graph::traversal::is_connected_subset(g, &nodes) {
                continue;
            }
            let d = dist.delta(g, &nodes);
            if d < best.0 - 1e-15 {
                best = (d, nodes);
            }
        }
        best
    }

    #[test]
    fn pruning_preserves_optimality() {
        let (g, q) = figure3_graph();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::with_gamma(0.0));
        let reference = exact.run(q, &exact_params()).unwrap();
        for pruning in [
            PruningConfig::NO_P3,
            PruningConfig::P1_ONLY,
            PruningConfig::NONE,
        ] {
            let res = exact.run(q, &exact_params().with_pruning(pruning)).unwrap();
            assert!(
                (res.delta - reference.delta).abs() < 1e-12,
                "pruning {pruning:?} changed the optimum"
            );
            assert_eq!(res.community, reference.community, "pruning {pruning:?}");
        }
    }

    #[test]
    fn more_pruning_visits_fewer_states() {
        let (g, q) = figure3_graph();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::with_gamma(0.0));
        let full = exact.run(q, &exact_params()).unwrap();
        let no_p3 = exact
            .run(q, &exact_params().with_pruning(PruningConfig::NO_P3))
            .unwrap();
        let p1 = exact
            .run(q, &exact_params().with_pruning(PruningConfig::P1_ONLY))
            .unwrap();
        let none = exact
            .run(q, &exact_params().with_pruning(PruningConfig::NONE))
            .unwrap();
        assert!(full.states_explored <= no_p3.states_explored);
        assert!(no_p3.states_explored <= p1.states_explored);
        assert!(p1.states_explored <= none.states_explored);
        assert!(
            none.states_explored > full.states_explored,
            "prunings must bite: {} vs {}",
            none.states_explored,
            full.states_explored
        );
    }

    #[test]
    fn no_community_is_a_typed_error() {
        let (g, _q) = figure3_graph();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::default());
        // Node 0 is isolated: no 2-core.
        assert!(matches!(
            exact.run(0, &exact_params()),
            Err(CsagError::NoCommunity { .. })
        ));
        // k too large for anyone.
        assert!(matches!(
            exact.run(5, &exact_params().with_k(10)),
            Err(CsagError::NoCommunity { .. })
        ));
        // Out-of-range query node is a distinct error.
        assert!(matches!(
            exact.run(99, &exact_params()),
            Err(CsagError::QueryNodeNotFound { q: 99, .. })
        ));
    }

    #[test]
    fn step_budget_surfaces_best_so_far() {
        let (g, q) = figure3_graph();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::with_gamma(0.0));
        let params = exact_params().with_pruning(PruningConfig::NONE);
        let full = exact.run(q, &params).unwrap();
        assert!(full.complete && full.states_explored > 2);
        assert_eq!(full.lower_bound, full.delta);
        let steps = full.steps - full.states_explored + 2;
        let stopped = exact
            .run(
                q,
                &ExactParams {
                    step_budget: Some(steps),
                    ..params
                },
            )
            .unwrap();
        assert!(!stopped.complete);
        assert_eq!((stopped.states_explored, stopped.steps), (2, steps));
        // The best-so-far is a valid community, and the proven bracket
        // holds the optimum.
        assert!(stopped.community.contains(&q));
        assert!(stopped.lower_bound <= full.delta && full.delta <= stopped.delta);
    }

    /// A budget of B passes B steps: a search that needs exactly one state
    /// after its warm start completes under a budget of its steps.
    #[test]
    fn a_budget_of_b_expands_b_states() {
        let mut b = GraphBuilder::new(1);
        for x in [0.0, 0.1, 0.2, 0.3, 0.4] {
            b.add_node(&[], &[x]);
        }
        for u in 0..5 {
            for v in u + 1..5 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::default());
        let params = ExactParams::default().with_k(4);
        let full = exact.run(0, &params).unwrap();
        assert_eq!(full.states_explored, 1);
        let steps = full.steps;
        let budgeted = exact
            .run(
                0,
                &ExactParams {
                    step_budget: Some(steps),
                    ..params
                },
            )
            .unwrap();
        assert!(budgeted.complete);
        assert_eq!(budgeted.community, full.community);
        assert_eq!(budgeted.delta, full.delta);
    }

    #[test]
    fn mismatched_distance_cache_is_rejected() {
        let (g, q) = figure3_graph();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::with_gamma(0.0));
        let mut ws = QueryWorkspace::new();
        let wrong_q = QueryDistances::new(1, g.n(), DistanceParams::with_gamma(0.0));
        assert!(matches!(
            exact.run_in_workspace(q, &exact_params(), &wrong_q, &mut ws),
            Err(CsagError::InvalidParams { .. })
        ));
        let wrong_gamma = QueryDistances::new(q, g.n(), DistanceParams::with_gamma(0.7));
        assert!(matches!(
            exact.run_in_workspace(q, &exact_params(), &wrong_gamma, &mut ws),
            Err(CsagError::InvalidParams { .. })
        ));
    }

    #[test]
    fn truss_model_runs() {
        // 4-clique plus a pendant triangle; k-truss(4) = the clique.
        let mut b = GraphBuilder::new(1);
        for x in [0.0, 0.2, 0.4, 0.6, 0.9, 1.0] {
            b.add_node(&[], &[x]);
        }
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 5),
        ] {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build().unwrap();
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::with_gamma(0.0));
        let params = ExactParams::default()
            .with_k(4)
            .with_model(CommunityModel::KTruss);
        let res = exact.run(0, &params).unwrap();
        assert_eq!(res.community, vec![0, 1, 2, 3]);
    }
}
