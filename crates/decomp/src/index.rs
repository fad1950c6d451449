//! The per-epoch index: the tables of one immutable graph that every
//! query on it shares, each built lazily, at most once.

use crate::kcore::core_decomposition;
use crate::ktruss::{node_maxima, truss_decomposition};
use csag_graph::traversal::Components;
use csag_graph::AttributedGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Lazily built tables of one graph, shared by every query on it:
/// coreness (`{v : coreness(v) ≥ k}` is the k-core), node trussness (the
/// largest trussness of an edge at each node), per-edge trussness in CSR
/// order (kept from the decomposition, never present on a seeded index)
/// and the [`Components`]. Nothing here is sized by the graph's edges for
/// a read's sake: a k-truss peel numbers the edges of its own subset, and
/// the per-edge table exists only because the decomposition produced it
/// (a store's first write adopts it to seed its trussness repair).
///
/// The index does not hold the graph: every accessor takes it. An engine
/// lends its own index to every method; a caller with no engine lends a
/// fresh [`EpochIndex::new`]. Each table is built at most once, through
/// `&self`, and the index counts how often each decomposition ran.
#[derive(Debug, Default)]
pub struct EpochIndex {
    coreness: OnceLock<Vec<u32>>,
    node_trussness: OnceLock<Vec<u32>>,
    edge_trussness: OnceLock<Vec<u32>>,
    components: OnceLock<Components>,
    core_runs: AtomicUsize,
    truss_runs: AtomicUsize,
}

impl EpochIndex {
    /// An index with every table still to build.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index seeded with tables maintained elsewhere (a store repairs
    /// them across epochs). Seeding counts as no decomposition run.
    pub fn seeded(coreness: Vec<u32>, node_trussness: Option<Vec<u32>>) -> Self {
        EpochIndex {
            coreness: OnceLock::from(coreness),
            node_trussness: node_trussness.map(OnceLock::from).unwrap_or_default(),
            ..Self::default()
        }
    }

    /// Core numbers of every node of `g` (Batagelj–Zaversnik).
    #[inline]
    pub fn coreness(&self, g: &AttributedGraph) -> &[u32] {
        let coreness = self.coreness.get_or_init(|| {
            self.core_runs.fetch_add(1, Ordering::Relaxed);
            core_decomposition(g)
        });
        debug_assert_eq!(coreness.len(), g.n(), "coreness of another graph");
        coreness
    }

    /// Maximum trussness over each node's incident edges (0 when it has
    /// none). The decomposition behind it also fills the per-edge table.
    #[inline]
    pub fn node_trussness(&self, g: &AttributedGraph) -> &[u32] {
        let node_max = self.node_trussness.get_or_init(|| {
            self.truss_runs.fetch_add(1, Ordering::Relaxed);
            let edge_trussness = truss_decomposition(g);
            let node_max = node_maxima(g, &edge_trussness);
            let _ = self.edge_trussness.set(edge_trussness);
            node_max
        });
        debug_assert_eq!(node_max.len(), g.n(), "node trussness of another graph");
        node_max
    }

    /// The connected components of `g`, built in `O(n + m)` on first use.
    pub fn components(&self, g: &AttributedGraph) -> &Components {
        self.components.get_or_init(|| Components::new(g))
    }

    /// The node trussness table, only if it is already resident.
    pub fn node_trussness_if_computed(&self) -> Option<&Vec<u32>> {
        self.node_trussness.get()
    }

    /// The per-edge trussness table in CSR order (`table[g.row_range(v)]`
    /// is `v`'s row), only if this index ran the truss decomposition
    /// itself.
    pub fn edge_trussness_if_computed(&self) -> Option<&[u32]> {
        self.edge_trussness.get().map(Vec::as_slice)
    }

    /// How many times the core decomposition has run (0 or 1; a seeded
    /// table counts 0).
    pub fn decomp_computations(&self) -> usize {
        self.core_runs.load(Ordering::Relaxed)
    }

    /// How many times the truss decomposition has run (0 or 1; a seeded
    /// table counts 0).
    pub fn truss_decomp_computations(&self) -> usize {
        self.truss_runs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktruss::node_max_trussness;
    use csag_graph::GraphBuilder;

    /// Two triangles joined by a bridge, plus an isolated node.
    fn bridged_triangles() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..7 {
            b.add_node(&[], &[]);
        }
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn tables_are_built_once_and_match_the_decompositions() {
        let g = bridged_triangles();
        let index = EpochIndex::new();
        assert!(index.node_trussness_if_computed().is_none());
        assert!(index.edge_trussness_if_computed().is_none());
        for _ in 0..3 {
            assert_eq!(index.coreness(&g), core_decomposition(&g));
            assert_eq!(index.node_trussness(&g), node_max_trussness(&g));
        }
        assert_eq!(index.decomp_computations(), 1);
        assert_eq!(index.truss_decomp_computations(), 1);
        let edge_trussness = index.edge_trussness_if_computed().unwrap();
        assert_eq!(edge_trussness.len(), 2 * g.m());
        assert_eq!(edge_trussness, truss_decomposition(&g));
        assert_eq!(index.components(&g).of(6), &[6]);
        assert_eq!(index.components(&g).of(0), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_seeded_index_runs_no_decomposition() {
        let g = bridged_triangles();
        let index = EpochIndex::seeded(core_decomposition(&g), Some(node_max_trussness(&g)));
        assert_eq!(index.coreness(&g), core_decomposition(&g));
        assert_eq!(index.node_trussness(&g), node_max_trussness(&g));
        assert_eq!(index.decomp_computations(), 0);
        assert_eq!(index.truss_decomp_computations(), 0);
        assert!(index.edge_trussness_if_computed().is_none());
    }
}
