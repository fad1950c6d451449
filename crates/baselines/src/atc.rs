//! LocATC: local search for attribute-coverage maximization (Huang &
//! Lakshmanan, PVLDB 2017; the paper's comparators (5)–(6)).
//!
//! ATC scores a community `H` by
//! `score(H) = Σ_{a ∈ Aᵗ(q)} |V_a ∩ V_H|² / |V_H|`,
//! where `V_a` is the set of nodes carrying attribute `a`. The score grows
//! when members exactly match many of the query's textual attributes — the
//! metric the running example (Figure 1(b)) shows over-including textually
//! identical but numerically dissimilar nodes.
//!
//! `LocATC` is the fast *local* variant: instead of starting from the
//! global (possibly graph-sized) maximal k-core, it grows a bounded
//! neighborhood around `q` (the published method likewise expands locally
//! from a Steiner-tree seed), peels it to a community, and then greedily
//! deletes the node whose removal improves the score most, until no
//! single-node deletion helps.

use crate::BaselineResult;
use csag_core::clock::{deadline_after, expired};
use csag_core::error::{check_query_node, CsagError};
use csag_decomp::Maintainer;
use csag_graph::{AttributedGraph, FixedBitSet, NodeId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How many low-contribution candidates are probed per greedy step.
/// Probing all |H| nodes per step would make the local search O(|H|³);
/// the published heuristic also restricts attention to unpromising nodes.
const PROBE_LIMIT: usize = 8;

/// Maximum greedy steps. Giant k-cores (the whole graph on dense social
/// networks) would otherwise take thousands of peels; the published local
/// method is likewise an early-terminating heuristic.
const MAX_STEPS: usize = 120;

/// Size cap of the local BFS neighborhood the search starts from.
const LOCAL_LIMIT: usize = 1_500;

/// Collects up to `LOCAL_LIMIT` nodes around `q` by BFS, preferring
/// nodes that match many of `q`'s attributes (ties by discovery order).
///
/// Public because it doubles as [`loc_atc`]'s *read footprint*: the BFS
/// only ever scans the adjacency of nodes it returns, and the search
/// then stays inside the seed-induced subgraph — so a caller that can
/// prove every returned node's adjacency is exact on some subgraph
/// (the sharded cluster's coverage check) knows `loc_atc` answers
/// identically there.
pub fn local_seed(g: &AttributedGraph, q: NodeId) -> Vec<NodeId> {
    let mut seen = FixedBitSet::new(g.n());
    let mut queue = VecDeque::new();
    let mut out = Vec::with_capacity(LOCAL_LIMIT);
    seen.insert(q);
    queue.push_back(q);
    while let Some(v) = queue.pop_front() {
        out.push(v);
        if out.len() >= LOCAL_LIMIT {
            break;
        }
        for &w in g.neighbors(v) {
            if seen.insert(w) {
                queue.push_back(w);
            }
        }
    }
    out.sort_unstable();
    out
}

/// ATC attribute-coverage score of `community` w.r.t. `q`'s tokens.
pub fn atc_score(g: &AttributedGraph, q: NodeId, community: &[NodeId]) -> f64 {
    if community.is_empty() {
        return 0.0;
    }
    let h = community.len() as f64;
    g.tokens(q)
        .iter()
        .map(|&a| {
            let va = community
                .iter()
                .filter(|&&v| g.tokens(v).binary_search(&a).is_ok())
                .count() as f64;
            va * va / h
        })
        .sum()
}

/// Runs LocATC: greedy score-improving deletions from the maximal
/// connected community of `q` in its local neighborhood, under
/// `maintainer`'s model and k. A step starts only while `time_budget`
/// (`None` = unlimited) lasts; a stopped search returns its current
/// community.
///
/// # Errors
/// [`CsagError::QueryNodeNotFound`] for an out-of-range `q`;
/// [`CsagError::NoCommunity`] when `q` has no community in its local
/// neighborhood.
pub fn loc_atc(
    maintainer: &mut Maintainer<'_>,
    q: NodeId,
    time_budget: Option<Duration>,
) -> Result<BaselineResult, CsagError> {
    let g = maintainer.graph();
    check_query_node(q, g.n())?;
    let deadline = deadline_after(Instant::now(), time_budget);
    let seed = local_seed(g, q);
    let mut current = maintainer.maximal_within(q, &seed).ok_or_else(|| {
        let (model, k) = (maintainer.model(), maintainer.k());
        CsagError::no_community(format!(
            "node {q} is in no connected {model} at k = {k} within its local neighborhood"
        ))
    })?;
    let mut current_score = atc_score(g, q, &current);
    // The probes reuse these: the ranked candidates, a probe's subset and
    // peel, and the best probe of the step so far.
    let (mut candidates, mut without) = (Vec::new(), Vec::new());
    let (mut next, mut best) = (Vec::new(), Vec::new());

    for _ in 0..MAX_STEPS {
        if expired(deadline) {
            break;
        }
        // Rank candidates by how few of q's tokens they match (they drag
        // the coverage down the most), then probe the top few.
        candidates.clear();
        candidates.extend(current.iter().copied().filter(|&v| v != q).map(|v| {
            let matched = g
                .tokens(q)
                .iter()
                .filter(|a| g.tokens(v).binary_search(a).is_ok())
                .count();
            (matched, v)
        }));
        candidates.sort_unstable();

        let mut best_score: Option<f64> = None;
        for &(_, v) in candidates.iter().take(PROBE_LIMIT) {
            without.clear();
            without.extend(current.iter().copied().filter(|&x| x != v));
            if maintainer.maximal_within_into(q, &without, &mut next) {
                let s = atc_score(g, q, &next);
                if s > current_score + 1e-12 && best_score.is_none_or(|bs| s > bs) {
                    best_score = Some(s);
                    std::mem::swap(&mut best, &mut next);
                }
            }
        }
        match best_score {
            Some(s) => {
                current_score = s;
                std::mem::swap(&mut current, &mut best);
            }
            None => break,
        }
    }

    Ok(BaselineResult {
        community: current,
        objective: current_score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_decomp::{CommunityModel, EpochIndex};
    use csag_graph::GraphBuilder;

    /// LocATC on a standalone maintainer over a fresh index.
    fn run(
        g: &AttributedGraph,
        q: NodeId,
        k: u32,
        model: CommunityModel,
    ) -> Result<BaselineResult, CsagError> {
        loc_atc(
            &mut Maintainer::new(g, &EpochIndex::new(), model, k),
            q,
            None,
        )
    }

    /// Nodes 0..3 share q's tokens; 4..5 are off-topic but structurally
    /// attached; everything forms a 2-core.
    fn graph() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..4 {
            b.add_node(&["movie", "crime"], &[]);
        }
        b.add_node(&["tv"], &[]);
        b.add_node(&["tv"], &[]);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (2, 4),
            (4, 5),
            (3, 5),
        ] {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn score_matches_figure1_formula() {
        let g = graph();
        // For community {0,1,2,3}: both attributes covered by all 4 nodes:
        // score = 2 * 4²/4 = 8.
        assert!((atc_score(&g, 0, &[0, 1, 2, 3]) - 8.0).abs() < 1e-12);
        // Full graph: 2 * 4²/6 ≈ 5.33.
        assert!((atc_score(&g, 0, &[0, 1, 2, 3, 4, 5]) - 2.0 * 16.0 / 6.0).abs() < 1e-12);
        assert_eq!(atc_score(&g, 0, &[]), 0.0);
    }

    #[test]
    fn loc_atc_peels_off_topic_nodes() {
        let g = graph();
        let res = run(&g, 0, 2, CommunityModel::KCore).unwrap();
        assert_eq!(res.community, vec![0, 1, 2, 3]);
        assert!((res.objective - 8.0).abs() < 1e-12);
        // A zero time budget stops before the first step: the peeled
        // neighborhood answers.
        let index = EpochIndex::new();
        let mut m = Maintainer::new(&g, &index, CommunityModel::KCore, 2);
        let res = loc_atc(&mut m, 0, Some(Duration::ZERO)).unwrap();
        assert_eq!(res.community, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn loc_atc_errors_without_community() {
        let g = graph();
        assert!(matches!(
            run(&g, 0, 4, CommunityModel::KCore),
            Err(CsagError::NoCommunity { .. })
        ));
    }

    #[test]
    fn loc_atc_keeps_q_even_if_offtopic() {
        // q itself has rare tokens; the algorithm must never delete q.
        let mut b = GraphBuilder::new(0);
        b.add_node(&["weird"], &[]);
        for _ in 0..4 {
            b.add_node(&["pop"], &[]);
        }
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        let res = run(&g, 0, 2, CommunityModel::KCore).unwrap();
        assert!(res.community.contains(&0));
    }

    #[test]
    fn loc_atc_truss_variant_runs() {
        let g = graph();
        let res = run(&g, 0, 3, CommunityModel::KTruss).unwrap();
        assert!(res.community.contains(&0));
        assert!(res.community.len() >= 3);
    }
}
