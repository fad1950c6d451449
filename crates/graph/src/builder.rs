//! Builder for [`AttributedGraph`].

use crate::attrs::{sort_dedup, NodeAttributes, TokenInterner, TokenRows};
use crate::graph::AttributedGraph;
use crate::NodeId;
use std::sync::Arc;

/// Errors raised while assembling a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint does not refer to an added node.
    NodeOutOfRange { node: NodeId, n: usize },
    /// A node was added with the wrong numerical dimensionality.
    DimMismatch {
        node: NodeId,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range (graph has {n} nodes)")
            }
            GraphError::DimMismatch {
                node,
                expected,
                got,
            } => {
                write!(
                    f,
                    "node {node} has {got} numerical attributes, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incrementally assembles an [`AttributedGraph`].
///
/// Self-loops are dropped and parallel edges deduplicated at
/// [`build`](GraphBuilder::build) time. All nodes must share the numerical
/// dimensionality given to [`new`](GraphBuilder::new).
///
/// Token rows go straight into one flat array, the edge list grows by
/// fixed-size blocks instead of copying itself to double, and `build`
/// lays the adjacency out in one target array, compacts it in place and
/// cuts it into the graph's row chunks once the edge list is gone: a
/// built graph's tables have exactly their length, and no more than two
/// copies of the edges are held at once while it is built.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    interner: TokenInterner,
    rows: TokenRows,
    dims: usize,
    numeric: Vec<f64>,
    /// Edges in blocks of [`EDGE_BLOCK`], so the list grows without
    /// copying itself.
    edges: Vec<Vec<(NodeId, NodeId)>>,
    deferred_error: Option<GraphError>,
}

/// Edges per block of [`GraphBuilder`]'s edge list.
const EDGE_BLOCK: usize = 4096;

impl GraphBuilder {
    /// Creates a builder for graphs whose nodes carry `dims` numerical
    /// attributes each.
    pub fn new(dims: usize) -> Self {
        GraphBuilder {
            interner: TokenInterner::new(),
            rows: TokenRows::with_capacity(0),
            dims,
            numeric: Vec::new(),
            edges: Vec::new(),
            deferred_error: None,
        }
    }

    /// Pre-allocates for `nodes` nodes and `edges` edges.
    pub fn with_capacity(dims: usize, nodes: usize, edges: usize) -> Self {
        let mut b = Self::new(dims);
        b.rows = TokenRows::with_capacity(nodes);
        b.numeric.reserve(nodes * dims);
        b.edges.reserve(edges.div_ceil(EDGE_BLOCK));
        b
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Adds a node with the given textual tokens and numerical attributes,
    /// returning its id. A dimensionality mismatch is reported by
    /// [`build`](GraphBuilder::build) (so bulk loading code does not need a
    /// `?` on every row).
    pub fn add_node(&mut self, textual: &[&str], numerical: &[f64]) -> NodeId {
        self.rows
            .push(textual.iter().map(|t| self.interner.intern(t)));
        self.add_numeric(numerical)
    }

    /// Adds a node whose tokens are already interned ids (used by the
    /// dataset generators, which intern topics up front).
    pub fn add_node_interned(&mut self, tokens: Vec<u32>, numerical: &[f64]) -> NodeId {
        self.rows.push(tokens);
        self.add_numeric(numerical)
    }

    /// Records the numeric row of the node just added; returns its id.
    fn add_numeric(&mut self, numerical: &[f64]) -> NodeId {
        let id = (self.rows.len() - 1) as NodeId;
        if numerical.len() == self.dims {
            self.numeric.extend_from_slice(numerical);
        } else if self.deferred_error.is_none() {
            // The row is dropped, not padded out to `dims`: `build` fails
            // on the recorded error anyway, and padding would allocate
            // whatever `dims` claims.
            self.deferred_error = Some(GraphError::DimMismatch {
                node: id,
                expected: self.dims,
                got: numerical.len(),
            });
        }
        id
    }

    /// Interns a token without attaching it to a node (lets generators
    /// pre-intern vocabulary).
    pub fn intern(&mut self, token: &str) -> u32 {
        self.interner.intern(token)
    }

    /// Adds an undirected edge. Endpoints must already exist.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.rows.len();
        for node in [u, v] {
            if node as usize >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if u != v {
            match self.edges.last_mut() {
                Some(block) if block.len() < EDGE_BLOCK => block.push((u, v)),
                _ => {
                    let mut block = Vec::with_capacity(EDGE_BLOCK);
                    block.push((u, v));
                    self.edges.push(block);
                }
            }
        }
        Ok(())
    }

    /// Finalizes the graph: sorts and deduplicates adjacency, normalizes
    /// numerical attributes.
    pub fn build(self) -> Result<AttributedGraph, GraphError> {
        if let Some(err) = self.deferred_error {
            return Err(err);
        }
        let n = self.rows.len();
        // Attributes first: cutting the token rows, numerics and vocabulary
        // to their lengths frees their growth slack before the CSR needs
        // room.
        let attrs = NodeAttributes::from_rows(self.interner, self.rows, self.dims, self.numeric);
        let edges = self.edges;
        let listed: usize = edges.iter().map(Vec::len).sum();

        // Counting sort of edge endpoints into CSR: `offsets[v + 1]`
        // counts `v`'s entries, then the prefix sums make `offsets[v]` the
        // start of `v`'s row, which serves as its fill cursor.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges.iter().flatten() {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0 as NodeId; listed * 2];
        for &(u, v) in edges.iter().flatten() {
            targets[offsets[u as usize]] = v;
            offsets[u as usize] += 1;
            targets[offsets[v as usize]] = u;
            offsets[v as usize] += 1;
        }
        drop(edges);
        // Each cursor now sits at its row's end, the next row's start.
        offsets.copy_within(..n, 1);
        offsets[0] = 0;

        // Sort + dedup each row in place, compacting it to the end of the
        // previous one.
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1];
            let kept = sort_dedup(&mut targets[start..end]);
            targets.copy_within(start..start + kept, offsets[v]);
            offsets[v + 1] = offsets[v] + kept;
            start = end;
        }
        Ok(AttributedGraph::from_csr_parts(
            offsets,
            &targets,
            Arc::new(attrs),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_and_self_loops_are_dropped() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_node(&[], &[]);
        let c = b.add_node(&[], &[]);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        b.add_edge(a, a).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(a), &[c]);
        assert_eq!(g.neighbors(c), &[a]);
    }

    #[test]
    fn edge_to_missing_node_is_rejected() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_node(&[], &[]);
        let err = b.add_edge(a, 7).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 7, n: 1 });
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn dim_mismatch_is_reported_at_build() {
        let mut b = GraphBuilder::new(2);
        b.add_node(&[], &[1.0, 2.0]);
        b.add_node(&[], &[1.0]); // wrong
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::DimMismatch {
                node: 1,
                expected: 2,
                got: 1
            }
        );
    }

    /// A mismatched row is recorded, never padded out to `dims`: a builder
    /// told `usize::MAX` dimensions reports the mismatch instead of
    /// allocating for them.
    #[test]
    fn mismatched_rows_are_not_padded() {
        let mut b = GraphBuilder::new(usize::MAX);
        b.add_node(&["x"], &[1.0]);
        b.add_node(&["y"], &[]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DimMismatch {
                node: 0,
                expected: usize::MAX,
                got: 1
            }
        );
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(3).build().unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_neighborhoods() {
        let mut b = GraphBuilder::new(0);
        b.add_node(&["x"], &[]);
        b.add_node(&["y"], &[]);
        let g = b.build().unwrap();
        assert_eq!(g.neighbors(0), &[] as &[u32]);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn interned_node_path_matches_string_path() {
        let mut b = GraphBuilder::new(1);
        let tok = b.intern("movie");
        let v0 = b.add_node_interned(vec![tok], &[1.0]);
        let v1 = b.add_node(&["movie"], &[2.0]);
        let g = b.build().unwrap();
        assert_eq!(g.tokens(v0), g.tokens(v1));
    }
}
