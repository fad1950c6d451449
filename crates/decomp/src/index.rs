//! The per-epoch index: the tables of one immutable graph that every
//! query on it shares, each built lazily, at most once.

use crate::kcore::core_decomposition;
use crate::ktruss::truss_decomposition;
use csag_graph::graph::{chunk_rows, CHUNK};
use csag_graph::traversal::Components;
use csag_graph::{AttributedGraph, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The trussness of every edge of one graph in CSR order (v's row is
/// parallel to `g.neighbors(v)`, every edge in both ends' rows), held in
/// the graph's chunking, the rows of 16 consecutive nodes ([`CHUNK`]) a
/// chunk, each behind an `Arc`: a store's epochs share every chunk a
/// batch left untouched, so an epoch costs the chunks its batch edited,
/// not `2·m` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeTrussness {
    pub(crate) chunks: Vec<Arc<[u32]>>,
}

impl EdgeTrussness {
    /// The table of `g` from its CSR-order values, as
    /// [`truss_decomposition`] returns them.
    pub fn new(g: &AttributedGraph, flat: &[u32]) -> Self {
        Self::build(g, |_| None, |v| &flat[g.row_range(v)])
    }

    /// The table of `g` whose chunk `c` is `kept(c)`, or else the rows
    /// `row(v)` of its nodes laid end to end.
    pub(crate) fn build<'a>(
        g: &AttributedGraph,
        kept: impl Fn(usize) -> Option<Arc<[u32]>>,
        row: impl Fn(NodeId) -> &'a [u32],
    ) -> Self {
        EdgeTrussness {
            chunks: chunk_rows(g.n(), kept, row),
        }
    }

    /// `v`'s row of the table of `g` (empty past `g`'s nodes).
    #[inline]
    pub fn row(&self, g: &AttributedGraph, v: NodeId) -> &[u32] {
        if v as usize >= g.n() {
            return &[];
        }
        let c = v as usize / CHUNK;
        let base = g.row_range((c * CHUNK) as NodeId).start;
        let row = g.row_range(v);
        &self.chunks[c][row.start - base..row.end - base]
    }

    /// The chunks, each shared with every epoch that holds it; their
    /// concatenation is what [`truss_decomposition`] returns.
    pub fn chunks(&self) -> &[Arc<[u32]>] {
        &self.chunks
    }
}

/// Lazily built tables of one graph, shared by every query on it:
/// coreness (`{v : coreness(v) ≥ k}` is the k-core), per-edge trussness
/// ([`EdgeTrussness`]; q's k-truss root is q's component over the edges
/// of trussness ≥ k), node trussness (each node's largest edge
/// trussness) and the [`Components`]. The per-edge table is the one copy
/// of trussness: a store hands each epoch the one its repair published,
/// a fresh index decomposes for it, and no read sizes anything else by
/// `m`.
///
/// The index does not hold the graph: every accessor takes it. An engine
/// lends its own index to every method; a caller with no engine lends a
/// fresh [`EpochIndex::new`]. Each table is built at most once, through
/// `&self`, and the index counts how often each decomposition ran.
#[derive(Debug, Default)]
pub struct EpochIndex {
    coreness: OnceLock<Vec<u32>>,
    node_trussness: OnceLock<Vec<u32>>,
    edge_trussness: OnceLock<EdgeTrussness>,
    components: OnceLock<Components>,
    core_runs: AtomicUsize,
    truss_runs: AtomicUsize,
}

impl EpochIndex {
    /// An index with every table still to build.
    pub fn new() -> Self {
        Self::default()
    }

    /// An index seeded with tables maintained elsewhere (a store's
    /// repaired ones); a table left out is built on first use. Seeding
    /// counts as no decomposition run.
    pub fn seeded(
        coreness: Vec<u32>,
        node_trussness: Option<Vec<u32>>,
        edge_trussness: Option<EdgeTrussness>,
    ) -> Self {
        EpochIndex {
            coreness: OnceLock::from(coreness),
            node_trussness: node_trussness.map(OnceLock::from).unwrap_or_default(),
            edge_trussness: edge_trussness.map(OnceLock::from).unwrap_or_default(),
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
    /// none), folded from the per-edge table.
    #[inline]
    pub fn node_trussness(&self, g: &AttributedGraph) -> &[u32] {
        let node_max = self.node_trussness.get_or_init(|| {
            let table = self.edge_trussness(g);
            let max = |v| table.row(g, v).iter().copied().max().unwrap_or(0);
            (0..g.n() as NodeId).map(max).collect()
        });
        debug_assert_eq!(node_max.len(), g.n(), "node trussness of another graph");
        node_max
    }

    /// The trussness of every edge of `g`.
    pub fn edge_trussness(&self, g: &AttributedGraph) -> &EdgeTrussness {
        self.edge_trussness.get_or_init(|| {
            self.truss_runs.fetch_add(1, Ordering::Relaxed);
            EdgeTrussness::new(g, &truss_decomposition(g))
        })
    }

    /// The connected components of `g`, built in `O(n + m)` on first use.
    pub fn components(&self, g: &AttributedGraph) -> &Components {
        self.components.get_or_init(|| Components::new(g))
    }

    /// The per-edge trussness table, only if it is already resident
    /// (what a store's truss repair adopts).
    pub fn edge_trussness_if_computed(&self) -> Option<&EdgeTrussness> {
        self.edge_trussness.get()
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
        assert!(index.edge_trussness_if_computed().is_none());
        assert_eq!(index.truss_decomp_computations(), 0, "nothing built yet");
        assert_eq!(index.node_trussness(&g), node_max_trussness(&g));
        assert_eq!(index.truss_decomp_computations(), 1, "built on first use");
        for _ in 0..3 {
            assert_eq!(index.coreness(&g), core_decomposition(&g));
            assert_eq!(index.node_trussness(&g), node_max_trussness(&g));
            assert_eq!(
                index.edge_trussness(&g).chunks().concat(),
                truss_decomposition(&g)
            );
        }
        assert_eq!(index.decomp_computations(), 1);
        assert_eq!(index.truss_decomp_computations(), 1);
        assert_eq!(index.components(&g).of(6), &[6]);
        assert_eq!(index.components(&g).of(0), &[0, 1, 2, 3, 4, 5]);
    }

    /// Rows come back from their chunks, across chunk boundaries and for
    /// nodes with no edge.
    #[test]
    fn a_table_reads_back_every_row() {
        let mut b = GraphBuilder::new(0);
        for _ in 0..3 * CHUNK + 5 {
            b.add_node(&[], &[]);
        }
        for v in 1..(3 * CHUNK + 5) as NodeId {
            if v % 7 != 0 {
                b.add_edge(v - 1, v).unwrap();
                b.add_edge(v / 2, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        let flat = truss_decomposition(&g);
        let table = EdgeTrussness::new(&g, &flat);
        assert_eq!(table.chunks().len(), 4);
        assert_eq!(table.chunks().concat(), flat);
        for v in 0..g.n() as NodeId {
            assert_eq!(table.row(&g, v), &flat[g.row_range(v)], "row {v}");
        }
    }

    #[test]
    fn a_seeded_index_runs_no_decomposition() {
        let g = bridged_triangles();
        let table = EdgeTrussness::new(&g, &truss_decomposition(&g));
        let index = EpochIndex::seeded(
            core_decomposition(&g),
            Some(node_max_trussness(&g)),
            Some(table.clone()),
        );
        assert_eq!(index.coreness(&g), core_decomposition(&g));
        assert_eq!(index.node_trussness(&g), node_max_trussness(&g));
        assert_eq!(index.edge_trussness_if_computed(), Some(&table));
        assert_eq!(index.decomp_computations(), 0);
        assert_eq!(index.truss_decomp_computations(), 0);
        // Node trussness alone: the per-edge table is built on demand.
        let nodes_only =
            EpochIndex::seeded(core_decomposition(&g), Some(node_max_trussness(&g)), None);
        assert_eq!(nodes_only.node_trussness(&g), node_max_trussness(&g));
        assert_eq!(nodes_only.truss_decomp_computations(), 0);
        assert_eq!(nodes_only.edge_trussness(&g), &table);
        assert_eq!(nodes_only.truss_decomp_computations(), 1);
    }
}
