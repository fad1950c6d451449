//! A reusable, model-generic "maximal community within a node subset"
//! operation.
//!
//! The paper's algorithms are written against the k-core model and then
//! extended to k-truss by swapping the maintenance step (§VI-C). The
//! [`Maintainer`] realizes that swap point: `csag-core`'s exact enumeration
//! and SEA pipeline call [`Maintainer::maximal_within`] without knowing
//! which model is active.

use crate::kcore::peel_to_kcore_into;
use crate::ktruss::peel_to_ktruss_into;
use crate::EpochIndex;
use csag_graph::{AttributedGraph, NodeId, PeelScratch, QueryWorkspace};

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

/// Repeatedly computes maximal connected communities within node subsets of
/// one graph; the graph's tables come from a borrowed [`EpochIndex`].
///
/// Every peel runs on one epoch-stamped [`PeelScratch`]: `n`-sized node
/// arrays, plus, under k-truss, row slots (two per edge) of the largest
/// region a peel's walk from `q` reached — the peel numbers the edges
/// itself. A standalone maintainer ([`Maintainer::new`]) allocates its
/// own. A query-serving thread instead checks the scratch out of its
/// [`QueryWorkspace`] ([`Maintainer::in_workspace`]) and hands it back
/// ([`Maintainer::release`]), so a steady-state read neither allocates nor
/// zero-fills an `O(n)` array.
pub struct Maintainer<'g> {
    g: &'g AttributedGraph,
    index: &'g EpochIndex,
    model: CommunityModel,
    k: u32,
    scratch: PeelScratch,
}

impl<'g> Maintainer<'g> {
    /// Creates a maintainer for `(model, k)` queries on `g`, whose tables
    /// `index` holds (an engine lends its own; others a fresh
    /// [`EpochIndex::new`]), with scratch of its own. Nothing is built
    /// until a peel needs it.
    pub fn new(
        g: &'g AttributedGraph,
        index: &'g EpochIndex,
        model: CommunityModel,
        k: u32,
    ) -> Self {
        Self::with_scratch(g, index, model, k, PeelScratch::default())
    }

    /// Like [`Maintainer::new`], but takes the peel scratch from `ws`
    /// (grown to `g` if it is smaller); give it back with
    /// [`Maintainer::release`].
    pub fn in_workspace(
        g: &'g AttributedGraph,
        index: &'g EpochIndex,
        model: CommunityModel,
        k: u32,
        ws: &mut QueryWorkspace,
    ) -> Self {
        Self::with_scratch(g, index, model, k, ws.take_peel())
    }

    /// Returns the peel scratch to `ws`.
    pub fn release(self, ws: &mut QueryWorkspace) {
        ws.put_peel(self.scratch);
    }

    /// A maintainer peeling on `scratch`, fitted to `g`'s nodes.
    fn with_scratch(
        g: &'g AttributedGraph,
        index: &'g EpochIndex,
        model: CommunityModel,
        k: u32,
        mut scratch: PeelScratch,
    ) -> Self {
        scratch.fit(g.n());
        Maintainer {
            g,
            index,
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
        let mut out = Vec::new();
        self.maximal_within_into(q, nodes, &mut out).then_some(out)
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
        let s = &mut self.scratch;
        match self.model {
            CommunityModel::KCore => peel_to_kcore_into(self.g, q, self.k, nodes, s, out),
            CommunityModel::KTruss => peel_to_ktruss_into(self.g, q, self.k, nodes, s, out),
        }
    }

    /// Maximal connected community containing `q` in the whole graph
    /// (§IV-A, §VI-C), or `None`: the walk from `q` over `{v : coreness(v)
    /// ≥ k}` for k-core, over the edges of trussness ≥ k for k-truss, once
    /// the node table (coreness or node trussness) admits `q`
    /// (docs/architecture.md, "One per-epoch index").
    pub fn maximal(&mut self, q: NodeId) -> Option<Vec<NodeId>> {
        let (g, k, index) = (self.g, self.k, self.index);
        let screen = match self.model {
            CommunityModel::KCore => index.coreness(g),
            CommunityModel::KTruss => index.node_trussness(g),
        };
        if screen[q as usize] < k {
            return None;
        }
        let trussness = (self.model == CommunityModel::KTruss).then(|| index.edge_trussness(g));
        let e = self.scratch.next_epoch();
        let [_, _, visited, ..] = &mut self.scratch.node;
        visited[q as usize] = e;
        let mut walked = vec![q];
        let mut next = 0;
        while let Some(&v) = walked.get(next) {
            next += 1;
            let row = trussness.map(|t| t.row(g, v));
            for (i, &w) in g.neighbors(v).iter().enumerate() {
                let cohesive = row.map_or(screen[w as usize] >= k, |r| r[i] >= k);
                if cohesive && visited[w as usize] != e {
                    visited[w as usize] = e;
                    walked.push(w);
                }
            }
        }
        walked.sort_unstable();
        Some(walked)
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
        let index = EpochIndex::new();
        let mut m = Maintainer::new(&g, &index, CommunityModel::KCore, 4);
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
        let index = EpochIndex::new();
        let mut m = Maintainer::new(&g, &index, CommunityModel::KTruss, 5);
        assert_eq!(m.maximal(0).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(m.maximal(5), None, "tail edges have no triangles");
        assert_eq!(m.min_size(), 5);
        assert_eq!(CommunityModel::KTruss.min_size(5), 5);
    }

    #[test]
    fn repeated_calls_are_stable() {
        let g = clique_with_tail();
        let index = EpochIndex::new();
        for model in [CommunityModel::KCore, CommunityModel::KTruss] {
            let mut m = Maintainer::new(&g, &index, model, 3);
            let first = m.maximal(2).unwrap();
            for _ in 0..20 {
                assert_eq!(m.maximal(2).unwrap(), first);
            }
        }
    }

    /// The root walk answers as the full-graph peel, on a fresh index and
    /// on one seeded with from-scratch tables.
    #[test]
    fn root_walk_matches_the_full_peel() {
        use crate::{core_decomposition, max_connected_kcore, max_connected_ktruss};
        let g = clique_with_tail();
        let seeded = EpochIndex::seeded(
            core_decomposition(&g),
            Some(crate::node_max_trussness(&g)),
            Some(crate::EdgeTrussness::new(
                &g,
                &crate::truss_decomposition(&g),
            )),
        );
        for index in [&EpochIndex::new(), &seeded] {
            for k in 2..7 {
                let mut core = Maintainer::new(&g, index, CommunityModel::KCore, k);
                let mut truss = Maintainer::new(&g, index, CommunityModel::KTruss, k);
                for q in 0..g.n() as NodeId {
                    assert_eq!(
                        core.maximal(q),
                        max_connected_kcore(&g, q, k),
                        "k={k} q={q}"
                    );
                    assert_eq!(
                        truss.maximal(q),
                        max_connected_ktruss(&g, q, k),
                        "k={k} q={q}"
                    );
                }
            }
        }
        assert_eq!(seeded.truss_decomp_computations(), 0);
    }

    /// A pooled scratch peels across the epoch wrap exactly as a fresh one
    /// does. The first peel (epoch 1, at a `k` no node reaches) leaves
    /// every node stamped as in the subset and removed, and every edge as
    /// removed; only the clear at the wrap keeps those stamps from reading
    /// as written by the peel that reuses epoch 1 after it.
    #[test]
    fn pooled_scratch_peels_across_the_epoch_wrap() {
        let g = clique_with_tail();
        let index = EpochIndex::new();
        let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
        for model in [CommunityModel::KCore, CommunityModel::KTruss] {
            let mut ws = QueryWorkspace::new();
            let mut m = Maintainer::in_workspace(&g, &index, model, 9, &mut ws);
            assert_eq!(m.maximal_within(0, &all), None);
            m.release(&mut ws);
            let mut scratch = ws.take_peel();
            assert_eq!(scratch.epoch(), 1);
            scratch.advance_epoch_to(u32::MAX - 1);
            ws.put_peel(scratch);

            for k in 2..6 {
                let mut fresh = Maintainer::new(&g, &index, model, k);
                let mut pooled = Maintainer::in_workspace(&g, &index, model, k, &mut ws);
                for q in 0..g.n() as NodeId {
                    for subset in [&all[..], &all[..5], &all[2..]] {
                        assert_eq!(
                            pooled.maximal_within(q, subset),
                            fresh.maximal_within(q, subset),
                            "{model} k={k} q={q} {subset:?}"
                        );
                    }
                    assert_eq!(pooled.maximal(q), fresh.maximal(q), "{model} k={k} q={q}");
                }
                pooled.release(&mut ws);
            }
            let epoch = ws.take_peel().epoch();
            assert!(epoch < 1_000, "wrapped to 1 (now at {epoch})");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CommunityModel::KCore.to_string(), "k-core");
        assert_eq!(CommunityModel::KTruss.to_string(), "k-truss");
    }
}
