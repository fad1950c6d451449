//! VAC: vertex-centric attributed community search by min-max attribute
//! distance (Liu, Zhu, Zhao, Huang, Xu, Gao — ICDE 2020; the paper's
//! comparators (8)–(11)).
//!
//! VAC's objective is to minimize the *maximum pairwise* attribute distance
//! inside the community — it optimizes the worst case, which is exactly the
//! behaviour Figure 1(d) critiques: once the worst case cannot improve
//! (because deleting the offending node collapses the k-core), the method
//! halts, regardless of how dissimilar other members are to `q`.
//!
//! * [`vac`] — the approximate algorithm. Like the published approximation
//!   it exploits the triangle inequality through a pivot: the node farthest
//!   from the query is the 2-approximate worst-case offender, so each round
//!   deletes the farthest remaining node and re-peels, halting when the
//!   community would collapse. A round budget keeps giant k-cores
//!   bounded (the paper's own runs take `>4h` in such regimes).
//! * [`e_vac`] — the exact branch-and-bound over worst-pair endpoints,
//!   feasible only on small inputs (the SEA paper could not finish it
//!   within a week on large graphs); guarded by [`EVacLimits`].

use crate::BaselineResult;
use csag_core::clock::Stop;
use csag_core::distance::{composite_distance, DistanceParams, QueryDistances};
use csag_core::error::{check_query_node, root_of, CsagError};
use csag_decomp::Maintainer;
use csag_graph::{AttributedGraph, NodeId};
use std::collections::HashSet;
use std::time::Duration;

/// Above this community size the exact O(|H|²) pairwise scan is replaced
/// by a pivot double-sweep (a classic 2-approximation that lower-bounds
/// the true max).
const EXACT_PAIRWISE_LIMIT: usize = 2_048;

/// The maximum pairwise composite distance within `community`, with one of
/// its attaining pairs; `(0.0, None)` for communities of fewer than two
/// nodes.
///
/// Exact (O(|H|²)) up to 2,048 members; beyond that a pivot double-sweep
/// approximation is used (pick the node farthest from an anchor, then the
/// farthest from it), which is within a factor 2 of the true value by the
/// triangle inequality and exact in practice on metric-like data.
pub fn max_pairwise_distance(
    g: &AttributedGraph,
    community: &[NodeId],
    dparams: DistanceParams,
) -> (f64, Option<(NodeId, NodeId)>) {
    if community.len() < 2 {
        return (0.0, None);
    }
    if community.len() <= EXACT_PAIRWISE_LIMIT {
        let mut worst = 0.0;
        let mut pair = None;
        for (i, &u) in community.iter().enumerate() {
            for &v in &community[i + 1..] {
                let d = composite_distance(g, u, v, dparams);
                if d > worst {
                    worst = d;
                    pair = Some((u, v));
                }
            }
        }
        (worst, pair)
    } else {
        let anchor = community[0];
        let farthest = |from: NodeId| -> (f64, NodeId) {
            community
                .iter()
                .map(|&v| (composite_distance(g, from, v, dparams), v))
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)))
                .expect("non-empty")
        };
        let (_, a) = farthest(anchor);
        let (d, b) = farthest(a);
        (d, Some((a.min(b), a.max(b))))
    }
}

/// The approximate VAC: pivot-guided worst-case peeling.
///
/// `dist` is the distance table of the query node `q = dist.q()`, whose
/// parameters the objective is measured with too. Each round deletes the
/// surviving node with the largest `f(·, q)` (the 2-approximate
/// worst-case offender; never `q`) and re-peels through `maintainer`.
/// Halts when the deletion would collapse the community, when all
/// distances reach 0, after `step_budget` rounds (`None` =
/// [`DEFAULT_ROUNDS`]), or at the first round head past `time_budget`
/// (`None` = unlimited). The returned objective is the (possibly
/// approximated) min-max distance of the final community.
///
/// # Errors
/// [`CsagError::QueryNodeNotFound`] for an out-of-range `q`;
/// [`CsagError::NoCommunity`] when `q` has no community.
pub fn vac(
    maintainer: &mut Maintainer<'_>,
    dist: &QueryDistances,
    step_budget: Option<u64>,
    time_budget: Option<Duration>,
) -> Result<BaselineResult, CsagError> {
    let (g, q) = (maintainer.graph(), dist.q());
    check_query_node(q, g.n())?;
    let mut stop = Stop::new(time_budget, step_budget.or(Some(DEFAULT_ROUNDS)));
    let mut current = root_of(maintainer, q)?;
    // Each round's subset and peel reuse two buffers.
    let (mut without, mut next) = (Vec::new(), Vec::new());

    while !stop.poll(true) {
        let Some((f_worst, worst)) = current
            .iter()
            .filter(|&&v| v != q)
            .map(|&v| (dist.get(g, v), v))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)))
        else {
            break;
        };
        if f_worst == 0.0 {
            break; // worst case cannot improve below zero
        }
        without.clear();
        without.extend(current.iter().copied().filter(|&x| x != worst));
        if !maintainer.maximal_within_into(q, &without, &mut next) {
            break; // would collapse the community: halt (Fig 1(d))
        }
        std::mem::swap(&mut current, &mut next);
    }

    let (objective, _) = max_pairwise_distance(g, &current, dist.params());
    Ok(BaselineResult {
        community: current,
        objective,
        steps: stop.steps(),
    })
}

/// [`vac`]'s rounds when the caller sets no step budget.
pub const DEFAULT_ROUNDS: u64 = 5_000;

/// Resource limits for [`e_vac`]. Unset fields mean "unlimited".
#[derive(Clone, Copy, Debug, Default)]
pub struct EVacLimits {
    /// Maximum number of branch-and-bound states.
    pub step_budget: Option<u64>,
    /// Refuse outright ([`CsagError::BudgetExhausted`]) if the maximal
    /// community is larger than this — mirrors the paper only reporting
    /// E-VAC on its two smallest datasets.
    pub max_root: Option<usize>,
    /// Wall-clock budget.
    pub time_budget: Option<Duration>,
}

/// The exact VAC: branch-and-bound on worst-pair endpoints, peeling
/// through `maintainer`.
///
/// The optimal min-max community must exclude at least one endpoint of any
/// pair realizing a distance above the optimum, so branching on the two
/// endpoints of the current worst pair explores every optimum. States are
/// deduplicated by their node sets; [`EVacLimits`] bounds the exponential
/// worst case.
///
/// The root is scored before any budget check, so a step or time limit
/// only truncates the search: the result is then the best community
/// found so far, as for [`vac`] at its iteration cap. E-VAC minimises
/// the max-pairwise distance, not δ, so a truncated run has no δ-bracket
/// to report.
///
/// # Errors
/// [`CsagError::QueryNodeNotFound`] for an out-of-range `q`;
/// [`CsagError::NoCommunity`] when `q` has no community;
/// [`CsagError::BudgetExhausted`] when the root exceeded
/// [`EVacLimits::max_root`] (refused outright).
pub fn e_vac(
    maintainer: &mut Maintainer<'_>,
    q: NodeId,
    dparams: DistanceParams,
    limits: &EVacLimits,
) -> Result<BaselineResult, CsagError> {
    let g = maintainer.graph();
    check_query_node(q, g.n())?;
    let mut stop = Stop::new(limits.time_budget, limits.step_budget);
    let root = root_of(maintainer, q)?;
    if limits.max_root.is_some_and(|m| root.len() > m) {
        // The paper refuses E-VAC on large roots outright (its `-` rows).
        return Err(CsagError::BudgetExhausted);
    }

    let mut best_obj = f64::INFINITY;
    let mut best: Vec<NodeId> = Vec::new();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    let mut stack: Vec<Vec<NodeId>> = vec![root];

    while let Some(state) = stack.pop() {
        if seen.contains(&state) {
            continue;
        }
        // Each new state is a step; the root always is.
        if stop.poll(!best.is_empty()) {
            break;
        }
        seen.insert(state.clone());
        let (obj, pair) = max_pairwise_distance(g, &state, dparams);
        if obj < best_obj {
            best_obj = obj;
            best = state.clone();
        }
        let Some((u, v)) = pair else { continue };
        if obj == 0.0 {
            continue; // cannot improve below zero
        }
        for victim in [u, v] {
            if victim == q {
                continue;
            }
            let without: Vec<NodeId> = state.iter().copied().filter(|&x| x != victim).collect();
            if let Some(next) = maintainer.maximal_within(q, &without) {
                if !seen.contains(&next) {
                    stack.push(next);
                }
            }
        }
    }

    Ok(BaselineResult {
        community: best,
        objective: best_obj,
        steps: stop.steps(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_decomp::{CommunityModel, EpochIndex};
    use csag_graph::GraphBuilder;

    /// VAC on a standalone k-core maintainer and a fresh distance table.
    fn run_vac(
        g: &AttributedGraph,
        q: NodeId,
        k: u32,
        dparams: DistanceParams,
        step_budget: Option<u64>,
    ) -> Result<BaselineResult, CsagError> {
        let index = EpochIndex::new();
        let mut maintainer = Maintainer::new(g, &index, CommunityModel::KCore, k);
        vac(
            &mut maintainer,
            &QueryDistances::new(q, g.n(), dparams),
            step_budget,
            None,
        )
    }

    /// E-VAC on a standalone k-core maintainer.
    fn run_e_vac(
        g: &AttributedGraph,
        q: NodeId,
        k: u32,
        dparams: DistanceParams,
        limits: &EVacLimits,
    ) -> Result<BaselineResult, CsagError> {
        let index = EpochIndex::new();
        let mut maintainer = Maintainer::new(g, &index, CommunityModel::KCore, k);
        e_vac(&mut maintainer, q, dparams, limits)
    }

    /// 5-clique with one numerical outlier (node 4).
    fn clique_with_outlier() -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for x in [0.0, 0.05, 0.1, 0.15, 1.0] {
            b.add_node(&["t"], &[x]);
        }
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn max_pairwise_identifies_outlier() {
        let g = clique_with_outlier();
        let (d, pair) = max_pairwise_distance(&g, &[0, 1, 2, 3, 4], DistanceParams::default());
        assert!((d - 0.5).abs() < 1e-12, "γ=0.5, numeric gap 1.0");
        assert_eq!(pair, Some((0, 4)));
        let (d2, pair2) = max_pairwise_distance(&g, &[0], DistanceParams::default());
        assert_eq!(d2, 0.0);
        assert_eq!(pair2, None);
    }

    #[test]
    fn vac_peels_outlier() {
        let g = clique_with_outlier();
        let res = run_vac(&g, 0, 3, DistanceParams::default(), None).unwrap();
        assert_eq!(res.community, vec![0, 1, 2, 3], "outlier removed");
        assert!(res.objective < 0.08);
    }

    #[test]
    fn vac_halts_when_deletion_would_collapse() {
        let g = clique_with_outlier();
        // k=4 forces the full 5-clique: deleting any node collapses it.
        let res = run_vac(&g, 0, 4, DistanceParams::default(), None).unwrap();
        assert_eq!(res.community, vec![0, 1, 2, 3, 4]);
        assert!((res.objective - 0.5).abs() < 1e-12);
    }

    #[test]
    fn vac_step_budget_is_honored() {
        let g = clique_with_outlier();
        // Zero rounds: the root itself is returned.
        let res = run_vac(&g, 0, 2, DistanceParams::default(), Some(0)).unwrap();
        assert_eq!((res.community, res.steps), (vec![0, 1, 2, 3, 4], 0));
        let full = run_vac(&g, 0, 2, DistanceParams::default(), None).unwrap();
        let again = run_vac(&g, 0, 2, DistanceParams::default(), Some(full.steps)).unwrap();
        assert_eq!((again.community, again.steps), (full.community, full.steps));
        // So does a zero time budget: the clock is polled before each
        // round.
        let index = EpochIndex::new();
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        let mut m = Maintainer::new(&g, &index, CommunityModel::KCore, 2);
        let res = vac(&mut m, &dist, None, Some(Duration::ZERO)).unwrap();
        assert_eq!(res.community, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn e_vac_matches_or_beats_vac() {
        let g = clique_with_outlier();
        for k in [2u32, 3] {
            let a = run_vac(&g, 0, k, DistanceParams::default(), None).unwrap();
            let e = run_e_vac(&g, 0, k, DistanceParams::default(), &EVacLimits::default()).unwrap();
            assert!(
                e.objective <= a.objective + 1e-12,
                "k={k}: exact {} vs approx {}",
                e.objective,
                a.objective
            );
        }
    }

    #[test]
    fn e_vac_respects_limits() {
        let g = clique_with_outlier();
        let run = |limits: EVacLimits| run_e_vac(&g, 0, 2, DistanceParams::default(), &limits);
        let full = run(EVacLimits::default()).unwrap();
        // A 1-step budget scores the root, then truncates to it.
        let one = run(EVacLimits {
            step_budget: Some(1),
            ..Default::default()
        })
        .unwrap();
        assert!(one.community.contains(&0));
        assert!(one.objective >= full.objective);
        // A zero time budget still scores the root.
        let root = run(EVacLimits {
            time_budget: Some(Duration::ZERO),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(root.community, vec![0, 1, 2, 3, 4]);
        // The root-size guard refuses outright.
        assert_eq!(
            run(EVacLimits {
                max_root: Some(3),
                ..Default::default()
            })
            .unwrap_err(),
            CsagError::BudgetExhausted
        );
    }

    #[test]
    fn vac_never_deletes_q() {
        // q is itself the outlier; VAC must keep it.
        let mut b = GraphBuilder::new(1);
        for x in [1.0, 0.0, 0.05, 0.1, 0.15] {
            b.add_node(&["t"], &[x]);
        }
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        let res = run_vac(&g, 0, 2, DistanceParams::default(), None).unwrap();
        assert!(res.community.contains(&0));
    }

    #[test]
    fn typed_error_without_community() {
        let mut b = GraphBuilder::new(1);
        b.add_node(&["t"], &[0.0]);
        b.add_node(&["t"], &[1.0]);
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            run_vac(&g, 0, 2, DistanceParams::default(), None),
            Err(CsagError::NoCommunity { .. })
        ));
        assert!(matches!(
            run_e_vac(&g, 0, 2, DistanceParams::default(), &EVacLimits::default()),
            Err(CsagError::NoCommunity { .. })
        ));
    }

    #[test]
    fn pivot_approximation_on_large_communities() {
        // Build a community bigger than the exact limit with one clear
        // outlier pair; the double sweep must find a distance close to it.
        let n = EXACT_PAIRWISE_LIMIT + 10;
        let mut b = GraphBuilder::new(1);
        for i in 0..n {
            let x = if i == 0 {
                0.0
            } else if i == 1 {
                1.0
            } else {
                0.5
            };
            b.add_node(&["t"], &[x]);
        }
        // A long path suffices; structure is irrelevant to the metric.
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1).unwrap();
        }
        let g = b.build().unwrap();
        let comm: Vec<u32> = (0..n as u32).collect();
        let (d, _) = max_pairwise_distance(&g, &comm, DistanceParams::with_gamma(0.0));
        assert!(d >= 0.5, "double sweep found {d}, true max is 1.0");
    }
}
