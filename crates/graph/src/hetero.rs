//! Heterogeneous attributed graphs, meta-paths, and projections (§VI-A).
//!
//! A [`HeteroGraph`] carries a node type per node and an edge type per
//! adjacency entry. A [`MetaPath`] `P` (e.g. `A-P-A`, "two authors linked
//! through a paper") induces a *P-neighbor* relation between nodes of the
//! path's end type; community models such as the `(k, P)-core` are ordinary
//! k-cores of the [`ProjectedGraph`] whose edges are P-neighbor pairs.

use crate::attrs::{NodeAttributes, TokenInterner, TokenRows};
use crate::bitset::FixedBitSet;
use crate::graph::AttributedGraph;
use crate::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Dense node-type identifier.
pub type NodeTypeId = u32;
/// Dense edge-type identifier.
pub type EdgeTypeId = u32;

/// A meta-path `t₀ -e₁- t₁ -e₂- … -eₗ- tₗ` over node types `tᵢ` and edge
/// types `eᵢ` (paper §VI-A). `node_types.len() == edge_types.len() + 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaPath {
    /// Node types along the path, starting at the source type.
    pub node_types: Vec<NodeTypeId>,
    /// Edge types between consecutive node types.
    pub edge_types: Vec<EdgeTypeId>,
}

impl MetaPath {
    /// Builds a meta-path, validating the arity relation.
    ///
    /// # Panics
    /// If `node_types.len() != edge_types.len() + 1` or the path is empty.
    pub fn new(node_types: Vec<NodeTypeId>, edge_types: Vec<EdgeTypeId>) -> Self {
        assert!(
            !node_types.is_empty(),
            "meta-path needs at least one node type"
        );
        assert_eq!(
            node_types.len(),
            edge_types.len() + 1,
            "meta-path arity: |node_types| must be |edge_types| + 1"
        );
        MetaPath {
            node_types,
            edge_types,
        }
    }

    /// The type of nodes the path starts and ends on must match for a
    /// symmetric meta-path such as `A-P-A`; this is the *target type* whose
    /// nodes form communities.
    pub fn source_type(&self) -> NodeTypeId {
        self.node_types[0]
    }

    /// The final node type of the path.
    pub fn end_type(&self) -> NodeTypeId {
        *self.node_types.last().expect("non-empty")
    }

    /// Number of edges along the path.
    pub fn len(&self) -> usize {
        self.edge_types.len()
    }

    /// True for the trivial single-node path.
    pub fn is_empty(&self) -> bool {
        self.edge_types.is_empty()
    }

    /// Returns `true` if the path starts and ends on the same node type, as
    /// required for community search over target nodes.
    pub fn is_symmetric_typed(&self) -> bool {
        self.source_type() == self.end_type()
    }
}

/// An undirected heterogeneous graph with typed nodes/edges and the same
/// attribute storage as [`AttributedGraph`].
#[derive(Clone, Debug)]
pub struct HeteroGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    /// Edge type of each adjacency entry, aligned with `targets`.
    target_etypes: Vec<EdgeTypeId>,
    node_types: Vec<NodeTypeId>,
    node_type_names: TokenInterner,
    edge_type_names: TokenInterner,
    attrs: NodeAttributes,
}

impl HeteroGraph {
    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbor list of `v` (all edge types mixed).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Edge types aligned with [`neighbors`](HeteroGraph::neighbors).
    pub fn neighbor_edge_types(&self, v: NodeId) -> &[EdgeTypeId] {
        let v = v as usize;
        &self.target_etypes[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Type of node `v`.
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v as usize]
    }

    /// Resolves a node type name to its id.
    pub fn node_type_id(&self, name: &str) -> Option<NodeTypeId> {
        self.node_type_names.get(name)
    }

    /// Number of distinct node types.
    pub fn node_type_count(&self) -> usize {
        self.node_type_names.len()
    }

    /// Number of distinct edge types.
    pub fn edge_type_count(&self) -> usize {
        self.edge_type_names.len()
    }

    /// Attribute storage (shared layout with homogeneous graphs).
    pub fn attrs(&self) -> &NodeAttributes {
        &self.attrs
    }

    /// All node ids of the given type, ascending.
    pub fn nodes_of_type(&self, t: NodeTypeId) -> Vec<NodeId> {
        (0..self.n() as NodeId)
            .filter(|&v| self.node_types[v as usize] == t)
            .collect()
    }

    /// Count of nodes of the given type.
    pub fn count_of_type(&self, t: NodeTypeId) -> usize {
        self.node_types.iter().filter(|&&x| x == t).count()
    }

    /// Distinct end nodes of path instances of `path` starting at `v`
    /// (the *P-neighbors* of `v`, excluding `v` itself). Level-wise BFS
    /// with per-level dedup: a node belongs to level `i` if some path
    /// instance prefix reaches it, which is exactly what P-neighbor
    /// existence requires.
    ///
    /// Returns an empty vector if `v` is not of the path's source type.
    pub fn p_neighbors(&self, v: NodeId, path: &MetaPath) -> Vec<NodeId> {
        if self.node_type(v) != path.source_type() {
            return Vec::new();
        }
        let mut frontier = vec![v];
        let mut seen = FixedBitSet::new(self.n());
        for step in 0..path.len() {
            let want_etype = path.edge_types[step];
            let want_ntype = path.node_types[step + 1];
            seen.clear();
            let mut next = Vec::new();
            for &u in &frontier {
                let nbrs = self.neighbors(u);
                let etys = self.neighbor_edge_types(u);
                for (&w, &et) in nbrs.iter().zip(etys) {
                    if et == want_etype
                        && self.node_types[w as usize] == want_ntype
                        && seen.insert(w)
                    {
                        next.push(w);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        frontier.retain(|&w| w != v);
        frontier.sort_unstable();
        frontier
    }

    /// Materializes the homogeneous P-projection: nodes are all nodes of the
    /// path's source type, edges connect P-neighbors. Attributes are
    /// restricted to the target nodes (normalization inherited).
    ///
    /// # Panics
    /// If the path is not symmetric-typed (source type ≠ end type).
    pub fn project(&self, path: &MetaPath) -> ProjectedGraph {
        self.project_subset(path, &self.nodes_of_type(path.source_type()))
    }

    /// Like [`project`](HeteroGraph::project) but restricted to the target
    /// nodes in `subset` (original ids). Used by the SEA pipeline, which
    /// only projects the sampled neighborhood instead of the whole graph.
    ///
    /// # Panics
    /// If the path is not symmetric-typed (source type ≠ end type).
    pub fn project_subset(&self, path: &MetaPath, subset: &[NodeId]) -> ProjectedGraph {
        assert!(
            path.is_symmetric_typed(),
            "projection requires a symmetric meta-path (source type == end type)"
        );
        let mut nodes: Vec<NodeId> = subset
            .iter()
            .copied()
            .filter(|&v| self.node_type(v) == path.source_type())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut from_original: HashMap<NodeId, NodeId> = HashMap::with_capacity(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            from_original.insert(v, i as NodeId);
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0usize);
        let mut adj = Vec::new();
        for &v in &nodes {
            for w in self.p_neighbors(v, path) {
                if let Some(&lw) = from_original.get(&w) {
                    adj.push(lw);
                }
            }
            offsets.push(adj.len());
        }
        let attrs = Arc::new(self.attrs.restrict(&nodes));
        let graph = AttributedGraph::from_csr_parts(offsets, &adj, attrs);
        ProjectedGraph {
            graph,
            to_original: nodes,
            from_original,
        }
    }
}

/// A homogeneous projection of a [`HeteroGraph`] under a meta-path,
/// with id mappings back to the original graph.
#[derive(Clone, Debug)]
pub struct ProjectedGraph {
    /// The projected graph over target-type nodes (dense local ids).
    pub graph: AttributedGraph,
    /// `to_original[local] = original` (ascending).
    pub to_original: Vec<NodeId>,
    /// Inverse mapping.
    pub from_original: HashMap<NodeId, NodeId>,
}

impl ProjectedGraph {
    /// Maps an original node id to its projected id, if it is a target node.
    pub fn local(&self, original: NodeId) -> Option<NodeId> {
        self.from_original.get(&original).copied()
    }

    /// Maps a projected id back to the original graph.
    pub fn original(&self, local: NodeId) -> NodeId {
        self.to_original[local as usize]
    }
}

/// Builder for [`HeteroGraph`].
#[derive(Clone, Debug)]
pub struct HeteroGraphBuilder {
    node_type_names: TokenInterner,
    edge_type_names: TokenInterner,
    node_types: Vec<NodeTypeId>,
    interner: TokenInterner,
    rows: TokenRows,
    dims: usize,
    numeric: Vec<f64>,
    edges: Vec<(NodeId, NodeId, EdgeTypeId)>,
}

impl HeteroGraphBuilder {
    /// Creates a builder; every node carries `dims` numerical attributes.
    pub fn new(dims: usize) -> Self {
        HeteroGraphBuilder {
            node_type_names: TokenInterner::new(),
            edge_type_names: TokenInterner::new(),
            node_types: Vec::new(),
            interner: TokenInterner::new(),
            rows: TokenRows::with_capacity(0),
            dims,
            numeric: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Interns a node type name.
    pub fn node_type(&mut self, name: &str) -> NodeTypeId {
        self.node_type_names.intern(name)
    }

    /// Interns an edge type name.
    pub fn edge_type(&mut self, name: &str) -> EdgeTypeId {
        self.edge_type_names.intern(name)
    }

    /// Adds a node of type `ty` with attributes; returns its id.
    ///
    /// # Panics
    /// When `numerical` does not hold exactly `dims` values: no file format
    /// reads into this builder, so only a caller's own bug can trip this.
    pub fn add_node(&mut self, ty: NodeTypeId, textual: &[&str], numerical: &[f64]) -> NodeId {
        let id = self.node_types.len() as NodeId;
        assert_eq!(
            numerical.len(),
            self.dims,
            "node {id} has {} numerical attributes, expected {}",
            numerical.len(),
            self.dims
        );
        self.node_types.push(ty);
        self.rows
            .push(textual.iter().map(|t| self.interner.intern(t)));
        self.numeric.extend_from_slice(numerical);
        id
    }

    /// Adds an undirected typed edge.
    pub fn add_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        ty: EdgeTypeId,
    ) -> Result<(), crate::GraphError> {
        let n = self.node_types.len();
        for node in [u, v] {
            if node as usize >= n {
                return Err(crate::GraphError::NodeOutOfRange { node, n });
            }
        }
        if u != v {
            self.edges.push((u, v, ty));
        }
        Ok(())
    }

    /// Finalizes the heterogeneous graph.
    pub fn build(self) -> HeteroGraph {
        let n = self.node_types.len();
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n {
            offsets.push(offsets[v] + degree[v]);
        }
        let mut cursor = offsets.clone();
        let mut pairs: Vec<(NodeId, EdgeTypeId)> = vec![(0, 0); self.edges.len() * 2];
        for &(u, v, t) in &self.edges {
            pairs[cursor[u as usize]] = (v, t);
            cursor[u as usize] += 1;
            pairs[cursor[v as usize]] = (u, t);
            cursor[v as usize] += 1;
        }
        // Sort each adjacency segment by (target, edge type) and dedup
        // exact duplicates (same neighbor, same type).
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0usize);
        let mut targets = Vec::with_capacity(pairs.len());
        let mut target_etypes = Vec::with_capacity(pairs.len());
        for v in 0..n {
            let seg = &mut pairs[offsets[v]..offsets[v + 1]];
            seg.sort_unstable();
            let mut prev: Option<(NodeId, EdgeTypeId)> = None;
            for &p in seg.iter() {
                if prev != Some(p) {
                    targets.push(p.0);
                    target_etypes.push(p.1);
                    prev = Some(p);
                }
            }
            out_offsets.push(targets.len());
        }
        let attrs = NodeAttributes::from_rows(self.interner, self.rows, self.dims, self.numeric);
        HeteroGraph {
            offsets: out_offsets,
            targets,
            target_etypes,
            node_types: self.node_types,
            node_type_names: self.node_type_names,
            edge_type_names: self.edge_type_names,
            attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny DBLP-style graph: authors a0..a3, papers p0..p2.
    /// a0,a1 wrote p0; a1,a2 wrote p1; a2,a3 wrote p2.
    fn dblp_toy() -> (HeteroGraph, MetaPath, Vec<NodeId>) {
        let mut b = HeteroGraphBuilder::new(1);
        let author = b.node_type("author");
        let paper = b.node_type("paper");
        let writes = b.edge_type("writes");
        let authors: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(author, &["ml"], &[i as f64]))
            .collect();
        let papers: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(paper, &["paper"], &[i as f64]))
            .collect();
        for (a, p) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)] {
            b.add_edge(authors[a], papers[p], writes).unwrap();
        }
        let g = b.build();
        let apa = MetaPath::new(vec![author, paper, author], vec![writes, writes]);
        (g, apa, authors)
    }

    /// A row of the wrong width is the caller's bug, reported as such —
    /// never padded out to whatever `dims` claims.
    #[test]
    #[should_panic(expected = "node 0 has 1 numerical attributes, expected 4000000000")]
    fn mismatched_rows_are_refused_not_padded() {
        let mut b = HeteroGraphBuilder::new(4_000_000_000);
        let t = b.node_type("t");
        b.add_node(t, &[], &[1.0]);
    }

    #[test]
    fn meta_path_arity_enforced() {
        let r = std::panic::catch_unwind(|| MetaPath::new(vec![0, 1], vec![0, 0]));
        assert!(r.is_err());
    }

    #[test]
    fn p_neighbors_follow_apa() {
        let (g, apa, authors) = dblp_toy();
        assert_eq!(g.p_neighbors(authors[0], &apa), vec![authors[1]]);
        assert_eq!(
            g.p_neighbors(authors[1], &apa),
            vec![authors[0], authors[2]]
        );
        assert_eq!(
            g.p_neighbors(authors[2], &apa),
            vec![authors[1], authors[3]]
        );
    }

    #[test]
    fn p_neighbors_of_wrong_type_is_empty() {
        let (g, apa, _) = dblp_toy();
        let paper0 = g.nodes_of_type(g.node_type_id("paper").unwrap())[0];
        assert!(g.p_neighbors(paper0, &apa).is_empty());
    }

    #[test]
    fn projection_builds_coauthor_path_graph() {
        let (g, apa, authors) = dblp_toy();
        let proj = g.project(&apa);
        assert_eq!(proj.graph.n(), 4);
        assert_eq!(proj.graph.m(), 3); // a0-a1, a1-a2, a2-a3
        let l0 = proj.local(authors[0]).unwrap();
        let l1 = proj.local(authors[1]).unwrap();
        assert!(proj.graph.has_edge(l0, l1));
        assert_eq!(proj.original(l0), authors[0]);
        // Attributes carried over.
        assert_eq!(proj.graph.tokens(l0), g.attrs().tokens(authors[0]));
    }

    #[test]
    fn projection_subset_restricts_nodes() {
        let (g, apa, authors) = dblp_toy();
        let proj = g.project_subset(&apa, &[authors[0], authors[1], authors[3]]);
        assert_eq!(proj.graph.n(), 3);
        // a3's only P-neighbor a2 is outside the subset.
        assert_eq!(proj.graph.m(), 1);
        assert_eq!(proj.local(authors[2]), None);
    }

    #[test]
    fn typed_counts() {
        let (g, _, _) = dblp_toy();
        let author = g.node_type_id("author").unwrap();
        let paper = g.node_type_id("paper").unwrap();
        assert_eq!(g.count_of_type(author), 4);
        assert_eq!(g.count_of_type(paper), 3);
        assert_eq!(g.node_type_count(), 2);
        assert_eq!(g.edge_type_count(), 1);
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn longer_meta_path_reaches_two_hops() {
        // A-P-A-P-A: co-authors of co-authors.
        let (g, apa, authors) = dblp_toy();
        let apapa = MetaPath::new(
            vec![
                apa.node_types[0],
                apa.node_types[1],
                apa.node_types[2],
                apa.node_types[1],
                apa.node_types[0],
            ],
            vec![apa.edge_types[0]; 4],
        );
        let nbrs = g.p_neighbors(authors[0], &apapa);
        // a0 -> a1 (via p0) -> {a0, a2} (via p0/p1); a0 removed, plus a1
        // itself is reachable via p0 back-and-forth.
        assert!(nbrs.contains(&authors[2]));
        assert!(!nbrs.contains(&authors[0]));
    }
}
