//! The undirected attributed graph in CSR layout, its adjacency held in
//! shared chunks of rows.

use crate::attrs::{NodeAttributes, TokenInterner};
use crate::NodeId;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Nodes whose rows make up one chunk of a chunked row table: the
/// adjacency of an [`AttributedGraph`], and every per-edge table laid out
/// parallel to it.
pub const CHUNK: usize = 16;

/// The nodes of chunk `c` of a row table over `n` nodes.
pub fn chunk_nodes(c: usize, n: usize) -> Range<usize> {
    c * CHUNK..n.min((c + 1) * CHUNK)
}

/// The chunks of a row table over `n` nodes: chunk `c` is `kept(c)`, or
/// else the rows `row(v)` of its nodes laid end to end, built with one
/// allocation.
pub fn chunk_rows<'a, T: Copy + 'a>(
    n: usize,
    kept: impl Fn(usize) -> Option<Arc<[T]>>,
    row: impl Fn(NodeId) -> &'a [T],
) -> Vec<Arc<[T]>> {
    let mut scratch = Vec::new();
    (0..n.div_ceil(CHUNK))
        .map(|c| {
            kept(c).unwrap_or_else(|| {
                scratch.clear();
                for v in chunk_nodes(c, n) {
                    scratch.extend_from_slice(row(v as NodeId));
                }
                Arc::from(&scratch[..])
            })
        })
        .collect()
}

/// An undirected homogeneous graph with node attributes (paper Def. 1).
///
/// Stored in compressed sparse row layout: `offsets[v]..offsets[v+1]` is
/// the position range of the sorted neighbor list of `v` in the flat
/// adjacency, which every edge enters in both endpoints' lists;
/// self-loops and parallel edges are removed at build time. The flat
/// adjacency is held in chunks of the rows of [`CHUNK`] consecutive
/// nodes, each behind an `Arc` and never edited in place, so graphs share
/// every chunk whose rows they have in common: an epoch published by
/// [`crate::update::MutableGraph`] points at each of its predecessor's
/// chunks that its batch left untouched, and a clone copies no row.
///
/// The attribute block sits behind an `Arc` the same way, so graphs that
/// differ only in structure share it.
#[derive(Clone, Debug)]
pub struct AttributedGraph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) chunks: Vec<Arc<[NodeId]>>,
    pub(crate) attrs: Arc<NodeAttributes>,
}

impl AttributedGraph {
    /// Assembles a graph from already-validated CSR parts (the builder and
    /// the restrictions end here), cutting `targets` into chunks.
    pub(crate) fn from_csr_parts(
        offsets: Vec<usize>,
        targets: &[NodeId],
        attrs: Arc<NodeAttributes>,
    ) -> Self {
        let row = |v: NodeId| &targets[offsets[v as usize]..offsets[v as usize + 1]];
        let chunks = chunk_rows(offsets.len() - 1, |_| None, row);
        AttributedGraph::from_chunks(offsets, chunks, attrs)
    }

    /// Assembles a graph from its offsets and row chunks (what
    /// [`crate::update::MutableGraph`] publishes).
    pub(crate) fn from_chunks(
        offsets: Vec<usize>,
        chunks: Vec<Arc<[NodeId]>>,
        attrs: Arc<NodeAttributes>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), attrs.n() + 1);
        debug_assert_eq!(chunks.len(), attrs.n().div_ceil(CHUNK));
        AttributedGraph {
            offsets,
            chunks,
            attrs,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.offsets[self.n()] / 2
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        let c = v / CHUNK;
        let base = self.offsets[c * CHUNK];
        &self.chunks[c][self.offsets[v] - base..self.offsets[v + 1] - base]
    }

    /// Degree of `v` in the full graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// CSR position range of `v`'s neighbor row within the flat adjacency
    /// (the chunks laid end to end); used by edge-indexed algorithms (e.g.
    /// truss peeling) to align per-adjacency-entry side tables.
    #[inline]
    pub fn row_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The adjacency's chunks in node order, each shared with every graph
    /// that holds it; chunk `c` is the rows of the nodes
    /// `c·CHUNK..(c+1)·CHUNK` laid end to end.
    pub fn row_chunks(&self) -> &[Arc<[NodeId]>] {
        &self.chunks
    }

    /// Returns `true` if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let row = self.neighbors(a);
        // Short rows: a branch-predictable linear scan beats the
        // binary_search setup + unpredictable probes. Real-world degree
        // distributions put most nodes under this threshold.
        if row.len() <= Self::LINEAR_SCAN_MAX_ROW {
            row.contains(&b)
        } else {
            row.binary_search(&b).is_ok()
        }
    }

    /// Neighbor rows at or below this length are probed linearly by
    /// [`AttributedGraph::has_edge`].
    pub const LINEAR_SCAN_MAX_ROW: usize = 8;

    /// Iterates all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Node attribute storage.
    #[inline]
    pub fn attrs(&self) -> &NodeAttributes {
        &self.attrs
    }

    /// Sorted textual token ids of `v`.
    #[inline]
    pub fn tokens(&self, v: NodeId) -> &[u32] {
        self.attrs.tokens(v)
    }

    /// Min-max normalized numerical attributes of `v`.
    #[inline]
    pub fn numeric(&self, v: NodeId) -> &[f64] {
        self.attrs.numeric_normalized(v)
    }

    /// Raw numerical attributes of `v` as supplied to the builder.
    #[inline]
    pub fn numeric_raw(&self, v: NodeId) -> &[f64] {
        self.attrs.numeric_raw(v)
    }

    /// The token interner, for mapping ids back to attribute strings.
    pub fn interner(&self) -> &TokenInterner {
        self.attrs.interner()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree (`2m/n`, 0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.offsets[self.n()] as f64 / self.n() as f64
        }
    }

    /// Materializes the subgraph induced by `nodes` (need not be sorted;
    /// duplicates are an error in debug builds). Attribute normalization is
    /// inherited from `self`, so distances computed in the induced graph
    /// equal those in the parent.
    pub fn induced(&self, nodes: &[NodeId]) -> InducedSubgraph {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        debug_assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate node in induced()"
        );
        let mut from_original: HashMap<NodeId, NodeId> = HashMap::with_capacity(sorted.len());
        for (new_id, &orig) in sorted.iter().enumerate() {
            from_original.insert(orig, new_id as NodeId);
        }

        let mut offsets = Vec::with_capacity(sorted.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for &orig in &sorted {
            for &w in self.neighbors(orig) {
                if let Some(&new_w) = from_original.get(&w) {
                    targets.push(new_w);
                }
            }
            // Neighbor lists of the parent are sorted by original id; the
            // remapping is monotone, so the new lists stay sorted.
            offsets.push(targets.len());
        }

        let attrs = Arc::new(self.attrs.restrict(&sorted));
        InducedSubgraph {
            graph: AttributedGraph::from_csr_parts(offsets, &targets, attrs),
            to_original: sorted,
            from_original,
        }
    }
}

/// A materialized induced subgraph along with its id mappings.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph, with dense ids `0..to_original.len()`.
    pub graph: AttributedGraph,
    /// `to_original[new_id] = original_id` (sorted ascending).
    pub to_original: Vec<NodeId>,
    /// Inverse of `to_original`.
    pub from_original: HashMap<NodeId, NodeId>,
}

impl InducedSubgraph {
    /// Maps an original-graph node id into the subgraph, if present.
    pub fn local(&self, original: NodeId) -> Option<NodeId> {
        self.from_original.get(&original).copied()
    }

    /// Maps a subgraph node id back to the original graph.
    pub fn original(&self, local: NodeId) -> NodeId {
        self.to_original[local as usize]
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    /// Builds the 5-cycle 0-1-2-3-4-0 with a chord 1-3.
    fn cycle_with_chord() -> crate::AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for i in 0..5 {
            b.add_node(&["t"], &[i as f64]);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn csr_basics() {
        let g = cycle_with_chord();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(4), 2);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 12.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = cycle_with_chord();
        assert!(g.has_edge(1, 3));
        assert!(g.has_edge(3, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 2));
    }

    /// `has_edge` takes the linear path on rows ≤ LINEAR_SCAN_MAX_ROW and
    /// the binary path above it; both must answer identically. A star
    /// center of degree 20 forces the binary path (the probe's other
    /// endpoint has degree 1, but the scan always walks the shorter row,
    /// so we compare center-to-leaf against a brute-force edge list).
    #[test]
    fn has_edge_linear_and_binary_paths_agree() {
        let mut b = GraphBuilder::new(0);
        let hub_deg = 2 * crate::AttributedGraph::LINEAR_SCAN_MAX_ROW + 4;
        // Node 0 is the hub; 1..=hub_deg are leaves; leaves also form a
        // chain so some leaf rows have degree 3 (linear path) while
        // leaf-to-leaf non-edges exercise short-row misses.
        for _ in 0..=hub_deg {
            b.add_node(&[], &[]);
        }
        for v in 1..=hub_deg as u32 {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..hub_deg as u32 {
            b.add_edge(v, v + 1).unwrap();
        }
        let g = b.build().unwrap();
        assert!(g.degree(0) > crate::AttributedGraph::LINEAR_SCAN_MAX_ROW);
        assert!(g.degree(2) <= crate::AttributedGraph::LINEAR_SCAN_MAX_ROW);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                let brute = g
                    .edges()
                    .any(|(a, b)| (a, b) == (u.min(v), u.max(v)) && u != v);
                assert_eq!(g.has_edge(u, v), brute, "({u}, {v})");
            }
        }
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = cycle_with_chord();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        assert!(edges.contains(&(1, 3)));
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn induced_subgraph_remaps_ids_and_keeps_edges() {
        let g = cycle_with_chord();
        let sub = g.induced(&[3, 1, 2]); // sorted to [1,2,3]
        assert_eq!(sub.to_original, vec![1, 2, 3]);
        assert_eq!(sub.graph.n(), 3);
        // Edges inside {1,2,3}: (1,2), (2,3), (1,3).
        assert_eq!(sub.graph.m(), 3);
        let l1 = sub.local(1).unwrap();
        let l3 = sub.local(3).unwrap();
        assert!(sub.graph.has_edge(l1, l3));
        assert_eq!(sub.original(l1), 1);
        assert_eq!(sub.local(0), None);
        assert_eq!(sub.original(l3), 3);
    }

    #[test]
    fn induced_subgraph_inherits_normalization() {
        let g = cycle_with_chord();
        let sub = g.induced(&[0, 4]);
        // Node 4 had the max raw value 4.0 -> normalized 1.0 in the parent;
        // the restriction must keep that value rather than renormalize.
        let l4 = sub.local(4).unwrap();
        assert_eq!(sub.graph.numeric(l4), &[1.0]);
        assert_eq!(sub.graph.numeric_raw(l4), &[4.0]);
    }

    #[test]
    fn induced_neighbor_lists_are_sorted() {
        let g = cycle_with_chord();
        let sub = g.induced(&[0, 1, 2, 3, 4]);
        for v in 0..5 {
            let nb = sub.graph.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "sorted: {nb:?}");
        }
    }
}
