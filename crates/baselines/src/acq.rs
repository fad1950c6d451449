//! ACQ: attributed community query by shared-attribute maximization
//! (Fang, Cheng, Luo, Hu — PVLDB 2016; the paper's comparator (7)).
//!
//! ACQ looks for a connected k-core containing `q` whose members *all*
//! share as many of `q`'s textual attributes as possible. Because the
//! criterion is equality matching on token sets, numerical attributes play
//! no role — which is precisely the weakness the SEA paper's metric
//! addresses (a dataset with only numerical attributes makes ACQ return
//! nothing, Table V).

use crate::BaselineResult;
use csag_core::error::{check_query_node, root_of, CsagError};
use csag_decomp::Maintainer;
use csag_graph::NodeId;

/// Maximum number of query attributes enumerated exhaustively; queries
/// with more tokens fall back to a greedy subset descent.
const EXHAUSTIVE_ATTR_LIMIT: usize = 16;

/// Runs ACQ: among all subsets `S ⊆ Aᵗ(q)`, find the largest `|S|` such
/// that a connected community of `maintainer`'s model and k containing `q`
/// exists in which every member carries all tokens of `S`; return that
/// community (the largest one over ties in `|S|`).
///
/// Falls back to the plain maximal connected community when no attribute
/// can be shared by any community (`objective = 0`).
///
/// # Errors
/// [`CsagError::QueryNodeNotFound`] for an out-of-range `q`;
/// [`CsagError::NoCommunity`] when `q` has no community at all.
pub fn acq(maintainer: &mut Maintainer<'_>, q: NodeId) -> Result<BaselineResult, CsagError> {
    let g = maintainer.graph();
    check_query_node(q, g.n())?;
    // The search space is always inside q's maximal community.
    let root = root_of(maintainer, q)?;

    let q_tokens: Vec<u32> = g.tokens(q).to_vec();
    let t = q_tokens.len();

    let mut best: Option<(usize, Vec<NodeId>)> = None;
    if t > 0 && t <= EXHAUSTIVE_ATTR_LIMIT {
        // Enumerate subsets grouped by descending popcount; the first size
        // with any feasible community wins.
        let mut masks: Vec<u32> = (1u32..(1 << t)).collect();
        masks.sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));
        let mut winning_size: Option<u32> = None;
        for mask in masks {
            if let Some(sz) = winning_size {
                if mask.count_ones() < sz {
                    break;
                }
            }
            let subset: Vec<u32> = (0..t)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| q_tokens[i])
                .collect();
            let eligible: Vec<NodeId> = root
                .iter()
                .copied()
                .filter(|&v| has_all_tokens(g.tokens(v), &subset))
                .collect();
            if eligible.len() < maintainer.min_size() {
                continue;
            }
            if let Some(comm) = maintainer.maximal_within(q, &eligible) {
                let better = match &best {
                    None => true,
                    Some((sz, cur)) => {
                        mask.count_ones() as usize > *sz
                            || (mask.count_ones() as usize == *sz && comm.len() > cur.len())
                    }
                };
                if better {
                    best = Some((mask.count_ones() as usize, comm));
                }
                winning_size = Some(mask.count_ones().max(winning_size.unwrap_or(0)));
            }
        }
    } else if t > EXHAUSTIVE_ATTR_LIMIT {
        // Greedy descent: start from all tokens, drop the token whose
        // removal admits the largest eligible set, until feasible.
        let mut subset = q_tokens.clone();
        loop {
            let eligible: Vec<NodeId> = root
                .iter()
                .copied()
                .filter(|&v| has_all_tokens(g.tokens(v), &subset))
                .collect();
            if let Some(comm) = maintainer.maximal_within(q, &eligible) {
                best = Some((subset.len(), comm));
                break;
            }
            if subset.len() <= 1 {
                break;
            }
            // Drop the rarest token within the root (least supported).
            let (idx, _) = subset
                .iter()
                .enumerate()
                .map(|(i, &tok)| {
                    let support = root
                        .iter()
                        .filter(|&&v| g.tokens(v).binary_search(&tok).is_ok())
                        .count();
                    (i, support)
                })
                .min_by_key(|&(_, s)| s)
                .expect("non-empty subset");
            subset.remove(idx);
        }
    }

    let (shared, community) = best.unwrap_or((0, root));
    Ok(BaselineResult {
        community,
        objective: shared as f64,
    })
}

/// `true` if the sorted token list `have` contains every token of `want`.
fn has_all_tokens(have: &[u32], want: &[u32]) -> bool {
    want.iter().all(|t| have.binary_search(t).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_decomp::{CommunityModel, EpochIndex};
    use csag_graph::{AttributedGraph, GraphBuilder};

    /// ACQ on a standalone maintainer over a fresh index.
    fn run(
        g: &AttributedGraph,
        q: NodeId,
        k: u32,
        model: CommunityModel,
    ) -> Result<BaselineResult, CsagError> {
        acq(&mut Maintainer::new(g, &EpochIndex::new(), model, k), q)
    }

    /// A 6-node graph: nodes 0-3 share {movie, crime}; node 4 only
    /// {movie}; node 5 shares nothing. All form one 2-core.
    fn graph() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        b.add_node(&["movie", "crime"], &[]); // q
        b.add_node(&["movie", "crime"], &[]);
        b.add_node(&["movie", "crime", "extra"], &[]);
        b.add_node(&["movie", "crime"], &[]);
        b.add_node(&["movie"], &[]);
        b.add_node(&["tv"], &[]);
        // Dense core among 0..4, ring through 5.
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (0, 4),
            (1, 4),
            (4, 5),
            (0, 5),
        ] {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn acq_maximizes_shared_attributes() {
        let g = graph();
        let res = run(&g, 0, 2, CommunityModel::KCore).unwrap();
        assert_eq!(res.objective, 2.0, "shares both movie and crime");
        assert_eq!(res.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn acq_relaxes_when_necessary() {
        let g = graph();
        // k=3: {0,1,2,3} is a 3-core sharing 2 attrs — still wins.
        let res = run(&g, 0, 3, CommunityModel::KCore).unwrap();
        assert_eq!(res.objective, 2.0);
        assert_eq!(res.community, vec![0, 1, 2, 3]);
    }

    #[test]
    fn acq_with_no_token_overlap_falls_back() {
        let mut b = GraphBuilder::new(0);
        b.add_node(&["solo"], &[]);
        for _ in 0..3 {
            b.add_node(&["other"], &[]);
        }
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        let res = run(&g, 0, 2, CommunityModel::KCore).unwrap();
        assert_eq!(res.objective, 0.0, "no attribute shared by all");
        assert_eq!(
            res.community,
            vec![0, 1, 2, 3],
            "falls back to plain k-core"
        );
    }

    #[test]
    fn acq_errors_without_kcore() {
        let mut b = GraphBuilder::new(0);
        b.add_node(&["a"], &[]);
        b.add_node(&["a"], &[]);
        b.add_edge(0, 1).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            run(&g, 0, 2, CommunityModel::KCore),
            Err(CsagError::NoCommunity { .. })
        ));
        assert!(matches!(
            run(&g, 9, 2, CommunityModel::KCore),
            Err(CsagError::QueryNodeNotFound { q: 9, .. })
        ));
    }

    #[test]
    fn acq_query_without_tokens() {
        let mut b = GraphBuilder::new(0);
        b.add_node(&[], &[]);
        for _ in 0..3 {
            b.add_node(&["x"], &[]);
        }
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        let res = run(&g, 0, 2, CommunityModel::KCore).unwrap();
        assert_eq!(res.objective, 0.0);
        assert_eq!(res.community.len(), 4);
    }

    #[test]
    fn acq_truss_variant() {
        let g = graph();
        let res = run(&g, 0, 3, CommunityModel::KTruss).unwrap();
        assert!(res.community.contains(&0));
        assert!(res.objective >= 1.0);
    }
}
