//! A reusable, model-generic "maximal community within a node subset"
//! operation.
//!
//! The paper's algorithms are written against the k-core model and then
//! extended to k-truss by swapping the maintenance step (§VI-C). The
//! [`Maintainer`] realizes that swap point: `csag-core`'s exact enumeration
//! and SEA pipeline call [`Maintainer::maximal_within`] without knowing
//! which model is active.

use crate::kcore::{peel_to_kcore_into, peel_to_kcore_scratch, PeelScratch};
use crate::ktruss::{peel_to_ktruss_into, peel_to_ktruss_scratch, EdgeIndex, TrussScratch};
use csag_graph::{AttributedGraph, NodeId};
use std::borrow::Cow;

/// Structure cohesiveness model (paper §II-A and §VI-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommunityModel {
    /// Connected k-core: every member has ≥ k neighbors in the community.
    KCore,
    /// Connected k-truss: every community edge closes ≥ k−2 triangles.
    KTruss,
}

impl CommunityModel {
    /// Smallest possible community size for the model at a given `k`
    /// (a (k+1)-clique is the smallest k-core; a k-clique the smallest
    /// k-truss) — used by Theorem 10 and its §VI-C variant.
    pub fn min_size(&self, k: u32) -> usize {
        match self {
            CommunityModel::KCore => k as usize + 1,
            CommunityModel::KTruss => k as usize,
        }
    }
}

impl std::fmt::Display for CommunityModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommunityModel::KCore => write!(f, "k-core"),
            CommunityModel::KTruss => write!(f, "k-truss"),
        }
    }
}

enum Scratch<'g> {
    Core(PeelScratch),
    Truss(Box<TrussWork<'g>>),
}

struct TrussWork<'g> {
    eidx: Cow<'g, EdgeIndex>,
    scratch: TrussScratch,
}

/// Repeatedly computes maximal connected communities within node subsets of
/// one graph, amortizing scratch allocations across calls.
///
/// A k-truss maintainer peels through an [`EdgeIndex`] of `g`. It either
/// owns one ([`Maintainer::new`], for standalone callers) or borrows one
/// built once per graph ([`Maintainer::with_edge_index`], how the engine's
/// SEA and Exact reads reuse the index of the trussness decomposition
/// that screened them).
pub struct Maintainer<'g> {
    g: &'g AttributedGraph,
    model: CommunityModel,
    k: u32,
    scratch: Scratch<'g>,
}

impl<'g> Maintainer<'g> {
    /// Creates a maintainer for `(model, k)` queries on `g`. For the truss
    /// model this builds an edge index once (O(m log d_max)).
    pub fn new(g: &'g AttributedGraph, model: CommunityModel, k: u32) -> Self {
        Self::with_edge_index(g, model, k, None)
    }

    /// [`Maintainer::new`] that, for the truss model, borrows `eidx` — an
    /// index of this same `g` — instead of building its own; `None`
    /// builds one. The k-core model never reads an edge index.
    pub fn with_edge_index(
        g: &'g AttributedGraph,
        model: CommunityModel,
        k: u32,
        eidx: Option<&'g EdgeIndex>,
    ) -> Self {
        let scratch = match model {
            CommunityModel::KCore => Scratch::Core(PeelScratch::new(g.n())),
            CommunityModel::KTruss => Scratch::Truss(Box::new(TrussWork {
                eidx: match eidx {
                    Some(e) => {
                        debug_assert_eq!(e.m(), g.m(), "edge index of another graph");
                        Cow::Borrowed(e)
                    }
                    None => Cow::Owned(EdgeIndex::new(g)),
                },
                scratch: TrussScratch::new(g.n(), g.m()),
            })),
        };
        Maintainer {
            g,
            model,
            k,
            scratch,
        }
    }

    /// The graph this maintainer operates on.
    pub fn graph(&self) -> &'g AttributedGraph {
        self.g
    }

    /// The structure model in use.
    pub fn model(&self) -> CommunityModel {
        self.model
    }

    /// The cohesion parameter `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Smallest possible community size under this model/k.
    pub fn min_size(&self) -> usize {
        self.model.min_size(self.k)
    }

    /// Maximal connected community containing `q` within the node subset
    /// `nodes` (distinct, in any order), or `None` if `q` does not survive.
    pub fn maximal_within(&mut self, q: NodeId, nodes: &[NodeId]) -> Option<Vec<NodeId>> {
        match &mut self.scratch {
            Scratch::Core(s) => peel_to_kcore_scratch(self.g, q, self.k, nodes, s),
            Scratch::Truss(w) => {
                peel_to_ktruss_scratch(self.g, &w.eidx, q, self.k, nodes, &mut w.scratch)
            }
        }
    }

    /// Allocation-free twin of [`Maintainer::maximal_within`]: writes the
    /// sorted members into `out` (cleared first) and returns whether `q`
    /// survived. The enumeration and SEA hot loops call this with pooled
    /// buffers so steady-state peels never touch the allocator.
    pub fn maximal_within_into(
        &mut self,
        q: NodeId,
        nodes: &[NodeId],
        out: &mut Vec<NodeId>,
    ) -> bool {
        match &mut self.scratch {
            Scratch::Core(s) => peel_to_kcore_into(self.g, q, self.k, nodes, s, out),
            Scratch::Truss(w) => {
                peel_to_ktruss_into(self.g, &w.eidx, q, self.k, nodes, &mut w.scratch, out)
            }
        }
    }

    /// Maximal connected community containing `q` in the whole graph
    /// (paper §IV-A for k-core).
    pub fn maximal(&mut self, q: NodeId) -> Option<Vec<NodeId>> {
        let all: Vec<NodeId> = (0..self.g.n() as NodeId).collect();
        self.maximal_within(q, &all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    /// 5-clique {0..4} with a tail 4-5-6.
    fn clique_with_tail() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..7 {
            b.add_node(&[], &[]);
        }
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v).unwrap();
            }
        }
        b.add_edge(4, 5).unwrap();
        b.add_edge(5, 6).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn core_model_matches_direct_function() {
        let g = clique_with_tail();
        let mut m = Maintainer::new(&g, CommunityModel::KCore, 4);
        assert_eq!(m.maximal(0).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(m.maximal(6), None);
        assert_eq!(
            m.maximal_within(0, &[0, 1, 2, 3]),
            None,
            "only 3 neighbors inside"
        );
        assert_eq!(m.model(), CommunityModel::KCore);
        assert_eq!(m.k(), 4);
        assert_eq!(m.min_size(), 5);
    }

    #[test]
    fn truss_model_peels_edges() {
        let g = clique_with_tail();
        let mut m = Maintainer::new(&g, CommunityModel::KTruss, 5);
        assert_eq!(m.maximal(0).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(m.maximal(5), None, "tail edges have no triangles");
        assert_eq!(m.min_size(), 5);
        assert_eq!(CommunityModel::KTruss.min_size(5), 5);
    }

    #[test]
    fn repeated_calls_are_stable() {
        let g = clique_with_tail();
        for model in [CommunityModel::KCore, CommunityModel::KTruss] {
            let mut m = Maintainer::new(&g, model, 3);
            let first = m.maximal(2).unwrap();
            for _ in 0..20 {
                assert_eq!(m.maximal(2).unwrap(), first);
            }
        }
    }

    /// Borrowing a prebuilt index peels exactly as building one.
    #[test]
    fn borrowed_edge_index_peels_like_an_owned_one() {
        let g = clique_with_tail();
        let eidx = EdgeIndex::new(&g);
        for model in [CommunityModel::KCore, CommunityModel::KTruss] {
            for k in 2..6 {
                let mut owned = Maintainer::new(&g, model, k);
                let mut borrowed = Maintainer::with_edge_index(&g, model, k, Some(&eidx));
                for q in 0..g.n() as NodeId {
                    assert_eq!(borrowed.maximal(q), owned.maximal(q), "{model} k={k} q={q}");
                    let subset = [0, 1, 2, 4, 5];
                    assert_eq!(
                        borrowed.maximal_within(q, &subset),
                        owned.maximal_within(q, &subset)
                    );
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CommunityModel::KCore.to_string(), "k-core");
        assert_eq!(CommunityModel::KTruss.to_string(), "k-truss");
    }
}
