//! The q-centric attribute distance metric (paper §II-A).
//!
//! * Textual attributes: Jaccard distance
//!   `fᵗ(u,v) = 1 − |Aᵗ(u) ∩ Aᵗ(v)| / |Aᵗ(u) ∪ Aᵗ(v)|`.
//! * Numerical attributes: dimension-normalized Manhattan distance
//!   `f#(u,v) = (Σᵢ |Z(A#(u)ᵢ) − Z(A#(v)ᵢ)|) / m` over min-max normalized
//!   coordinates `Z(·)` (normalization happens at graph build time).
//! * Composite: `f(u,v) = γ·fᵗ(u,v) + (1−γ)·f#(u,v)` with the balance
//!   factor `γ ∈ [0,1]`.
//! * Community attribute distance (Def. 4):
//!   `δ(H) = (Σ_{u ∈ V_H \ q} f(u,q)) / (|V_H| − 1)`.
//!
//! All distances lie in `[0, 1]`.

use csag_graph::attrs::NodeAttributes;
use csag_graph::{AttributedGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parameters of the composite attribute distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceParams {
    /// Balance factor γ: weight of the textual (Jaccard) part; the
    /// numerical (Manhattan) part gets `1 − γ`.
    pub gamma: f64,
}

impl Default for DistanceParams {
    /// γ = 0.5, the paper's balanced setting.
    fn default() -> Self {
        DistanceParams { gamma: 0.5 }
    }
}

impl DistanceParams {
    /// Creates parameters with the given γ (clamped into `[0,1]`).
    pub fn with_gamma(gamma: f64) -> Self {
        DistanceParams {
            gamma: gamma.clamp(0.0, 1.0),
        }
    }
}

/// Jaccard distance between two *sorted* token-id slices. Two empty sets
/// are identical (distance 0).
pub fn jaccard_distance(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    1.0 - inter as f64 / union as f64
}

/// Mean absolute difference between two equal-length normalized vectors
/// (the paper's `f#`). Zero dimensions give distance 0.
pub fn manhattan_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    sum / a.len() as f64
}

/// Composite attribute distance `f(u, v)` over an attribute store.
pub fn composite_distance_attrs(
    attrs: &NodeAttributes,
    u: NodeId,
    v: NodeId,
    params: DistanceParams,
) -> f64 {
    let ft = jaccard_distance(attrs.tokens(u), attrs.tokens(v));
    let fn_ = manhattan_distance(attrs.numeric_normalized(u), attrs.numeric_normalized(v));
    params.gamma * ft + (1.0 - params.gamma) * fn_
}

/// Composite attribute distance `f(u, v)` on a homogeneous graph.
pub fn composite_distance(
    g: &AttributedGraph,
    u: NodeId,
    v: NodeId,
    params: DistanceParams,
) -> f64 {
    composite_distance_attrs(g.attrs(), u, v, params)
}

/// Lazily memoized `f(·, q)` values for one query. Every algorithm in the
/// workspace computes node-to-query distances through this cache so a
/// node's distance is evaluated at most once per query *node* — the table
/// outlives individual queries inside the engine's distance cache.
///
/// The table is **lock-free and shared**: each slot is an atomic `f64`
/// bit-pattern, NaN meaning "not computed yet". [`QueryDistances::get`]
/// therefore takes `&self`, so one table behind an `Arc` can serve many
/// concurrent queries on the same query node; racing writers store the
/// *same* deterministic value, making the race benign, and a warm hit in
/// the engine cache is an `Arc` clone instead of an `O(|V|)` table copy.
#[derive(Debug)]
pub struct QueryDistances {
    q: NodeId,
    params: DistanceParams,
    vals: Vec<AtomicU64>,
}

/// NaN bit-pattern marking an uncomputed slot. Composite distances live in
/// `[0, 1]`, so a stored value is never NaN.
const UNSET: u64 = f64::NAN.to_bits();

impl QueryDistances {
    /// Creates an empty cache for query node `q` over a graph with `n`
    /// nodes. NaN marks "not computed yet".
    pub fn new(q: NodeId, n: usize, params: DistanceParams) -> Self {
        QueryDistances {
            q,
            params,
            vals: (0..n).map(|_| AtomicU64::new(UNSET)).collect(),
        }
    }

    /// The query node.
    pub fn q(&self) -> NodeId {
        self.q
    }

    /// The distance parameters in use.
    pub fn params(&self) -> DistanceParams {
        self.params
    }

    /// `f(v, q)`, computing and memoizing on first access. Relaxed
    /// ordering suffices: the computation is deterministic, so every
    /// thread that writes a slot writes identical bits.
    #[inline]
    pub fn get(&self, g: &AttributedGraph, v: NodeId) -> f64 {
        let slot = &self.vals[v as usize];
        let cached = f64::from_bits(slot.load(Ordering::Relaxed));
        if !cached.is_nan() {
            return cached;
        }
        let d = composite_distance_attrs(g.attrs(), v, self.q, self.params);
        slot.store(d.to_bits(), Ordering::Relaxed);
        d
    }

    /// Precomputes distances for all of `nodes`.
    pub fn warm(&self, g: &AttributedGraph, nodes: &[NodeId]) {
        for &v in nodes {
            self.get(g, v);
        }
    }

    /// How many slots hold a computed distance (test/observability aid).
    pub fn computed(&self) -> usize {
        self.vals
            .iter()
            .filter(|s| !f64::from_bits(s.load(Ordering::Relaxed)).is_nan())
            .count()
    }

    /// A private copy of the table with the slots of `stale` re-marked
    /// "not computed". The evolving-graph engine uses this to carry a
    /// warm table across an epoch whose update changed the attributes of
    /// a few nodes: every other memoized distance survives, while the
    /// stale slots lazily recompute against the *new* graph. (The shared
    /// original is never mutated — queries still running on the old epoch
    /// keep their values.)
    pub fn clone_with_reset(&self, stale: &[NodeId]) -> Self {
        let copy = self.clone();
        for &v in stale {
            if let Some(slot) = copy.vals.get(v as usize) {
                slot.store(UNSET, Ordering::Relaxed);
            }
        }
        copy
    }

    /// Attribute distance δ of a community (Def. 4): the mean `f(·, q)`
    /// over its members excluding `q`. A community of just `{q}` has δ = 0.
    pub fn delta(&self, g: &AttributedGraph, nodes: &[NodeId]) -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for &v in nodes {
            if v != self.q {
                sum += self.get(g, v);
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }

    /// The Theorem-6 lower bound (Eqs. 3–4): the mean of the `need`
    /// smallest `f(·, q)` over `nodes` (q excluded, as in δ), or the mean
    /// of all of them when there are no more than `need`. Every community
    /// inside `nodes` with at least `need` members besides q has δ at
    /// least this, and the bound of a subset is never lower. `buf` is
    /// reusable scratch.
    pub fn lower_bound(
        &self,
        g: &AttributedGraph,
        nodes: &[NodeId],
        need: usize,
        buf: &mut Vec<f64>,
    ) -> f64 {
        if need == 0 {
            return 0.0;
        }
        buf.clear();
        buf.extend(
            nodes
                .iter()
                .filter(|&&v| v != self.q)
                .map(|&v| self.get(g, v)),
        );
        if buf.len() <= need {
            return if buf.is_empty() {
                0.0
            } else {
                buf.iter().sum::<f64>() / buf.len() as f64
            };
        }
        buf.select_nth_unstable_by(need - 1, |a, b| a.partial_cmp(b).expect("no NaN"));
        buf[..need].iter().sum::<f64>() / need as f64
    }
}

impl Clone for QueryDistances {
    fn clone(&self) -> Self {
        QueryDistances {
            q: self.q,
            params: self.params,
            vals: self
                .vals
                .iter()
                .map(|s| AtomicU64::new(s.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    #[test]
    fn jaccard_cases() {
        assert_eq!(jaccard_distance(&[], &[]), 0.0);
        assert_eq!(jaccard_distance(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(jaccard_distance(&[1, 2], &[3, 4]), 1.0);
        // |∩|=1, |∪|=3 -> 1 - 1/3.
        assert!((jaccard_distance(&[1, 2], &[2, 3]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_distance(&[1], &[]), 1.0);
    }

    #[test]
    fn manhattan_cases() {
        assert_eq!(manhattan_distance(&[], &[]), 0.0);
        assert_eq!(manhattan_distance(&[0.5], &[0.5]), 0.0);
        assert!((manhattan_distance(&[0.0, 1.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((manhattan_distance(&[0.2, 0.4], &[0.4, 0.2]) - 0.2).abs() < 1e-12);
    }

    fn movie_graph() -> AttributedGraph {
        // Three nodes: two similar crime movies, one action TV series.
        let mut b = GraphBuilder::new(2);
        b.add_node(&["movie", "crime", "drama"], &[9.2, 1.6e6]);
        b.add_node(&["movie", "crime", "drama"], &[9.0, 1.1e6]);
        b.add_node(&["tvseries", "action"], &[5.5, 1.2e4]);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        b.build().unwrap()
    }

    use csag_graph::AttributedGraph;

    #[test]
    fn composite_blends_with_gamma() {
        let g = movie_graph();
        let pure_text = composite_distance(&g, 0, 2, DistanceParams::with_gamma(1.0));
        assert_eq!(pure_text, 1.0, "no shared tokens");
        let pure_num = composite_distance(&g, 0, 2, DistanceParams::with_gamma(0.0));
        assert!(
            (pure_num - 1.0).abs() < 1e-12,
            "extremes of both normalized dims"
        );
        let blended = composite_distance(&g, 0, 1, DistanceParams::default());
        // Same tokens; numeric: rating (9.2 vs 9.0 over range 3.7) and
        // count (1.6M vs 1.1M over range ~1.588M).
        let num = ((9.2f64 - 9.0) / 3.7 + (1.6e6 - 1.1e6) / (1.6e6 - 1.2e4)) / 2.0;
        assert!(
            (blended - 0.5 * num).abs() < 1e-9,
            "{blended} vs {}",
            0.5 * num
        );
    }

    #[test]
    fn distance_is_a_metric_like_quantity() {
        let g = movie_graph();
        for u in 0..3 {
            assert_eq!(composite_distance(&g, u, u, DistanceParams::default()), 0.0);
            for v in 0..3 {
                let d_uv = composite_distance(&g, u, v, DistanceParams::default());
                let d_vu = composite_distance(&g, v, u, DistanceParams::default());
                assert!((d_uv - d_vu).abs() < 1e-12, "symmetry");
                assert!((0.0..=1.0).contains(&d_uv), "bounded");
            }
        }
    }

    #[test]
    fn query_cache_memoizes_and_computes_delta() {
        let g = movie_graph();
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        assert_eq!(dist.get(&g, 0), 0.0, "f(q,q) = 0");
        let d1 = dist.get(&g, 1);
        let d2 = dist.get(&g, 2);
        // δ over the whole graph as a community.
        let delta = dist.delta(&g, &[0, 1, 2]);
        assert!((delta - (d1 + d2) / 2.0).abs() < 1e-12);
        // δ of {q} alone is 0.
        assert_eq!(dist.delta(&g, &[0]), 0.0);
        assert_eq!(dist.q(), 0);
    }

    /// The table memoizes through `&self`, so one instance can be shared
    /// across threads; racing writers agree bit-for-bit.
    #[test]
    fn query_cache_is_shareable_across_threads() {
        let g = movie_graph();
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        assert_eq!(dist.computed(), 0);
        let serial: Vec<f64> = (0..3).map(|v| dist.get(&g, v)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 0..3 {
                        assert_eq!(dist.get(&g, v), serial[v as usize]);
                    }
                });
            }
        });
        assert_eq!(dist.computed(), 3);
        let copy = dist.clone();
        assert_eq!(copy.computed(), 3);
        assert_eq!(copy.get(&g, 2), serial[2]);
    }

    #[test]
    fn clone_with_reset_forgets_only_stale_slots() {
        let g = movie_graph();
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        dist.warm(&g, &[0, 1, 2]);
        assert_eq!(dist.computed(), 3);
        let copy = dist.clone_with_reset(&[1, 99]); // out-of-range ids are ignored
        assert_eq!(copy.computed(), 2, "only slot 1 was forgotten");
        assert_eq!(dist.computed(), 3, "the original is untouched");
        assert_eq!(copy.get(&g, 1), dist.get(&g, 1), "lazy recompute agrees");
    }

    #[test]
    fn lower_bound_averages_the_closest() {
        let g = movie_graph();
        let dist = QueryDistances::new(0, g.n(), DistanceParams::default());
        let (d1, d2) = (dist.get(&g, 1), dist.get(&g, 2));
        let mut buf = Vec::new();
        assert_eq!(dist.lower_bound(&g, &[0, 1, 2], 1, &mut buf), d1.min(d2));
        let all = dist.lower_bound(&g, &[0, 1, 2], 5, &mut buf);
        assert!((all - dist.delta(&g, &[0, 1, 2])).abs() < 1e-12);
        assert_eq!(dist.lower_bound(&g, &[0, 1, 2], 0, &mut buf), 0.0);
        assert_eq!(dist.lower_bound(&g, &[0], 2, &mut buf), 0.0);
    }

    #[test]
    fn gamma_is_clamped() {
        assert_eq!(DistanceParams::with_gamma(7.0).gamma, 1.0);
        assert_eq!(DistanceParams::with_gamma(-1.0).gamma, 0.0);
    }
}
