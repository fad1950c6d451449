//! Cross-method evaluation metrics (paper §VII-A/B).
//!
//! Every compared method optimizes a different attribute-cohesiveness
//! metric; Table II scores each community under *all* of them:
//!
//! * `δ(·)` — the paper's q-centric composite distance (lower is better),
//!   from [`csag_core::distance`];
//! * min-max pairwise distance — VAC's objective (lower is better), from
//!   [`mod@csag_baselines::vac`];
//! * attribute coverage — ATC's objective (higher is better), from
//!   [`mod@csag_baselines::atc`];
//! * `#shared attributes` — ACQ's objective (higher is better),
//!   implemented here.
//!
//! Plus [`f1_score`]/[`best_f1`] against ground-truth communities
//! (Table III, Figure 6) and [`relative_error`] (Figure 5(b)).

use csag_graph::{AttributedGraph, NodeId};

pub use csag_baselines::atc::atc_score;
pub use csag_baselines::vac::max_pairwise_distance;

/// Relative error `|approx − exact| / exact`. Returns 0 when both are 0
/// and infinity when only the exact value is 0.
pub fn relative_error(approx: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if approx == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (approx - exact).abs() / exact
    }
}

/// F1 score between a found community and a ground-truth community
/// (both sorted node-id slices).
pub fn f1_score(found: &[NodeId], truth: &[NodeId]) -> f64 {
    if found.is_empty() || truth.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < found.len() && j < truth.len() {
        match found[i].cmp(&truth[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    if inter == 0 {
        return 0.0;
    }
    let precision = inter as f64 / found.len() as f64;
    let recall = inter as f64 / truth.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// Best F1 of `found` against any of the ground-truth communities — the
/// standard protocol when a node belongs to several circles.
pub fn best_f1(found: &[NodeId], truths: &[Vec<NodeId>]) -> f64 {
    truths
        .iter()
        .map(|t| f1_score(found, t))
        .fold(0.0, f64::max)
}

/// ACQ's metric: the number of the query's textual attributes carried by
/// *every* member of the community (q included).
pub fn shared_attributes(g: &AttributedGraph, q: NodeId, community: &[NodeId]) -> usize {
    if community.is_empty() {
        return 0;
    }
    g.tokens(q)
        .iter()
        .filter(|&&a| {
            community
                .iter()
                .all(|&v| g.tokens(v).binary_search(&a).is_ok())
        })
        .count()
}

/// Direction of a metric for ranking purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values rank better (distances).
    LowerBetter,
    /// Larger values rank better (scores, F1).
    HigherBetter,
}

/// Competition ranks (1-based; ties share the best rank, like the paper's
/// Table II parentheses). `NaN` values rank last.
pub fn ranks(values: &[f64], direction: Direction) -> Vec<usize> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (x, y) = (values[a], values[b]);
        let ord = x.partial_cmp(&y).unwrap_or_else(|| {
            if x.is_nan() && y.is_nan() {
                std::cmp::Ordering::Equal
            } else if x.is_nan() {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        });
        match direction {
            Direction::LowerBetter => ord,
            Direction::HigherBetter => ord.reverse(),
        }
    });
    let mut out = vec![0usize; n];
    let mut rank = 1usize;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        for &idx in &order[i..=j] {
            out[idx] = rank;
        }
        rank += j - i + 1;
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    #[test]
    fn relative_error_cases() {
        assert!((relative_error(0.11, 0.10) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.1, 0.1), 0.0);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(0.1, 0.0), f64::INFINITY);
    }

    #[test]
    fn f1_cases() {
        assert_eq!(f1_score(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(f1_score(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(f1_score(&[], &[1]), 0.0);
        // found {1,2,3,4}, truth {3,4,5,6}: p=0.5, r=0.5, f1=0.5.
        assert!((f1_score(&[1, 2, 3, 4], &[3, 4, 5, 6]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn best_f1_takes_max() {
        let truths = vec![vec![1, 2], vec![3, 4, 5, 6]];
        let f = best_f1(&[3, 4, 5], &truths);
        // Against second: p=1, r=0.75 -> 6/7.
        assert!((f - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!(best_f1(&[9], &truths), 0.0);
        assert_eq!(best_f1(&[1], &[]), 0.0);
    }

    #[test]
    fn shared_attributes_is_min_over_members() {
        let mut b = GraphBuilder::new(0);
        b.add_node(&["a", "b", "c"], &[]); // q
        b.add_node(&["a", "b"], &[]);
        b.add_node(&["a"], &[]);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(shared_attributes(&g, 0, &[0, 1, 2]), 1);
        assert_eq!(shared_attributes(&g, 0, &[0, 1]), 2);
        assert_eq!(shared_attributes(&g, 0, &[0]), 3);
        assert_eq!(shared_attributes(&g, 0, &[]), 0);
    }

    #[test]
    fn ranks_with_ties() {
        // Values 0.486(x3), 0.491, 0.489, 0.475 — mirrors Table II col 1.
        let vals = [0.486, 0.491, 0.489, 0.486, 0.486, 0.475];
        let r = ranks(&vals, Direction::LowerBetter);
        assert_eq!(r, vec![2, 6, 5, 2, 2, 1]);
        let r = ranks(&[1.0, 2.0, 3.0], Direction::HigherBetter);
        assert_eq!(r, vec![3, 2, 1]);
    }

    #[test]
    fn ranks_handle_nan_last() {
        let vals = [0.5, f64::NAN, 0.2];
        let r = ranks(&vals, Direction::LowerBetter);
        assert_eq!(r, vec![2, 3, 1]);
    }
}
