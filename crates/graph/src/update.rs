//! Graph deltas: [`GraphUpdate`] descriptions and the [`MutableGraph`]
//! overlay that applies them and publishes immutable CSR snapshots.
//!
//! The CSR layout of [`AttributedGraph`] is the right shape for querying
//! but the wrong shape for editing, so evolving-graph support splits the
//! two concerns without copying the graph: a [`MutableGraph`] is an edit
//! overlay on a shared, published graph. It holds only what updates
//! changed — the edited adjacency and token rows, found through a dense
//! per-node slot index, and a copy of the raw numerics once an update
//! writes one — and each [`GraphUpdate`] edits it in `O(degree)`.
//! [`MutableGraph::snapshot`] yields an immutable [`AttributedGraph`]
//! equal to what [`crate::GraphBuilder::build`] would produce from the
//! same rows (fresh offsets, fresh min-max normalization). It builds only
//! the adjacency chunks holding an edited row, and shares every other
//! chunk with the base; a snapshot of a batch that changed no attribute
//! shares the base's attribute block too. A published chunk or block is
//! never edited in place, so sharing cannot alias. The engine's
//! `GraphStore` keeps one overlay on its current epoch's graph and turns
//! each batch into the next epoch with [`MutableGraph::publish`].
//!
//! Updates are *forgiving* about redundancy — adding an edge that already
//! exists, removing one that does not, and self-loops are no-ops, not
//! errors (reported as [`Applied::NoOp`] so callers can count them) —
//! but *strict* about referential integrity: out-of-range endpoints and
//! numerical rows of the wrong dimensionality are [`GraphError`]s and
//! leave the overlay untouched.

use crate::attrs::{NodeAttributes, TokenInterner};
use crate::builder::GraphError;
use crate::graph::{chunk_nodes, AttributedGraph, CHUNK};
use crate::NodeId;
use std::ops::Range;
use std::sync::Arc;

/// One edit to an attributed graph.
///
/// A *batch* (`&[GraphUpdate]`) is applied in order; later updates see
/// the effects of earlier ones (so `AddVertex` followed by `AddEdge` to
/// the new id is valid within one batch).
#[derive(Clone, Debug, PartialEq)]
pub enum GraphUpdate {
    /// Insert the undirected edge `{u, v}` (no-op if present or `u == v`).
    AddEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// Delete the undirected edge `{u, v}` (no-op if absent).
    RemoveEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// Append a new isolated node carrying the given attributes; its id is
    /// the current node count.
    AddVertex {
        /// Textual attribute tokens of the new node.
        tokens: Vec<String>,
        /// Numerical attributes (must match the graph's dimensionality).
        numeric: Vec<f64>,
    },
    /// Replace attributes of an existing node. `None` keeps that side
    /// unchanged.
    SetAttributes {
        /// The node whose attributes change.
        v: NodeId,
        /// New textual tokens, or `None` to keep the current ones.
        tokens: Option<Vec<String>>,
        /// New numerical attributes (full row), or `None` to keep them.
        numeric: Option<Vec<f64>>,
    },
}

impl GraphUpdate {
    /// Parses one line of the `csag-updates v1` text format. A `#` starts
    /// a comment only at the start of a line ([`GraphUpdate::parse_script`]
    /// skips those lines); on a record it is a field.
    ///
    /// ```
    /// use csag_graph::GraphUpdate;
    ///
    /// let script = "\
    /// add-edge 3 17
    /// remove-edge 3 17
    /// add-vertex movie,crime 9.2 1600000
    /// ## `-` keeps node 5's tokens; the numerics are replaced
    /// set-attrs 5 - 7.5 90000
    /// ## tokens only, numerics kept
    /// set-attrs 5 drama
    /// ";
    /// let updates = GraphUpdate::parse_script(script).unwrap();
    /// assert_eq!(updates.len(), 5);
    /// assert_eq!(
    ///     updates[4],
    ///     GraphUpdate::SetAttributes { v: 5, tokens: Some(vec!["drama".into()]), numeric: None }
    /// );
    /// assert!(GraphUpdate::parse_line("set-attrs 5 drama # a note").is_err());
    /// ```
    ///
    /// For `add-vertex`, `-` means an empty token set. For `set-attrs`,
    /// `-` as the token field keeps the node's current tokens, and an
    /// absent numeric tail keeps the current numerics. Numerics must be
    /// finite: `nan`, `inf` and overflowing literals are refused.
    ///
    /// # Errors
    /// A human-readable message naming what failed to parse.
    pub fn parse_line(line: &str) -> Result<GraphUpdate, String> {
        let mut parts = line.split_whitespace();
        let op = parts.next().ok_or("empty update line")?;
        let parse_node = |s: Option<&str>, what: &str| -> Result<NodeId, String> {
            s.ok_or(format!("{op}: missing {what}"))?
                .parse()
                .map_err(|_| format!("{op}: bad {what}"))
        };
        match op {
            "add-edge" | "remove-edge" => {
                let u = parse_node(parts.next(), "endpoint u")?;
                let v = parse_node(parts.next(), "endpoint v")?;
                if parts.next().is_some() {
                    return Err(format!("{op}: trailing fields"));
                }
                Ok(if op == "add-edge" {
                    GraphUpdate::AddEdge { u, v }
                } else {
                    GraphUpdate::RemoveEdge { u, v }
                })
            }
            "add-vertex" => {
                let token_field = parts.next().ok_or("add-vertex: missing token field")?;
                let tokens = parse_tokens(token_field, op)?;
                let numeric = parse_floats(parts, op)?;
                Ok(GraphUpdate::AddVertex {
                    tokens: tokens.unwrap_or_default(),
                    numeric,
                })
            }
            "set-attrs" => {
                let v = parse_node(parts.next(), "node id")?;
                let token_field = parts.next().ok_or("set-attrs: missing token field")?;
                let tokens = parse_tokens(token_field, op)?;
                let floats = parse_floats(parts, op)?;
                let numeric = if floats.is_empty() {
                    None
                } else {
                    Some(floats)
                };
                Ok(GraphUpdate::SetAttributes { v, tokens, numeric })
            }
            other => Err(format!(
                "unknown update `{other}` (expected add-edge, remove-edge, add-vertex, set-attrs)"
            )),
        }
    }

    /// Renders the update as one `csag-updates v1` line — the inverse of
    /// [`GraphUpdate::parse_line`], used by the cluster replication log's
    /// wire framing.
    ///
    /// Numerics render in shortest round-trip form, so `parse_line ∘
    /// to_line` is the identity for every update the text format can
    /// express. Not every value of this type is one: see
    /// [`GraphUpdate::replayable`], the check a writer must pass before
    /// it may log or ship the line.
    pub fn to_line(&self) -> String {
        fn tokens_field(tokens: &[String]) -> String {
            if tokens.is_empty() {
                "-".to_string()
            } else {
                tokens.join(",")
            }
        }
        fn push_floats(s: &mut String, floats: &[f64]) {
            for f in floats {
                s.push(' ');
                s.push_str(&format!("{f:?}"));
            }
        }
        match self {
            GraphUpdate::AddEdge { u, v } => format!("add-edge {u} {v}"),
            GraphUpdate::RemoveEdge { u, v } => format!("remove-edge {u} {v}"),
            GraphUpdate::AddVertex { tokens, numeric } => {
                let mut s = format!("add-vertex {}", tokens_field(tokens));
                push_floats(&mut s, numeric);
                s
            }
            GraphUpdate::SetAttributes { v, tokens, numeric } => {
                let mut s = format!(
                    "set-attrs {v} {}",
                    tokens.as_deref().map_or("-".to_string(), tokens_field)
                );
                if let Some(numeric) = numeric {
                    push_floats(&mut s, numeric);
                }
                s
            }
        }
    }

    /// Whether this update survives its own text form:
    /// `parse_line(to_line(u)) == u`. The rule every log writer enforces
    /// (`GraphStore::apply` refuses a batch holding an update that fails
    /// it), defined *as* the round trip so that format and check cannot
    /// drift. What the format cannot say: a token that is empty on its
    /// own, is a lone `-`, or holds whitespace or a comma;
    /// `SetAttributes` clearing tokens (`Some(vec![])` — `-` means
    /// *keep*) or carrying an empty numeric row; a non-finite numeric.
    /// Updates that came out of [`GraphUpdate::parse_line`] always pass.
    ///
    /// # Errors
    /// What the line reads back as instead, for the writer's refusal.
    pub fn replayable(&self) -> Result<(), String> {
        if matches!(
            self,
            GraphUpdate::AddEdge { .. } | GraphUpdate::RemoveEdge { .. }
        ) {
            return Ok(()); // two integers: nothing to lose
        }
        let line = self.to_line();
        match Self::parse_line(&line) {
            Ok(back) if back == *self => Ok(()),
            Ok(back) => Err(format!("`{line}` reads back as {back:?}")),
            Err(e) => Err(format!("`{line}` does not read back: {e}")),
        }
    }

    /// Parses a whole update script: one update per line, blank lines and
    /// `#` comments skipped.
    ///
    /// # Errors
    /// The first offending line, with its 1-based line number.
    pub fn parse_script(text: &str) -> Result<Vec<GraphUpdate>, String> {
        let mut updates = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            updates.push(Self::parse_line(t).map_err(|e| format!("line {}: {e}", no + 1))?);
        }
        Ok(updates)
    }
}

/// `-` means "no tokens / keep tokens"; otherwise a comma-separated list
/// with no empty token (the graph readers' rule, so an accepted update
/// never leaves a node the graph file cannot hold).
fn parse_tokens(field: &str, op: &str) -> Result<Option<Vec<String>>, String> {
    crate::io::parse_token_field(field)
        .map(|tokens| tokens.map(|t| t.into_iter().map(str::to_owned).collect()))
        .map_err(|e| format!("{op}: {e}"))
}

fn parse_floats<'a>(parts: impl Iterator<Item = &'a str>, op: &str) -> Result<Vec<f64>, String> {
    parts
        .map(|p| {
            crate::io::parse_finite(p).ok_or_else(|| format!("{op}: bad numeric attribute `{p}`"))
        })
        .collect()
}

/// What applying one [`GraphUpdate`] actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The edge `{u, v}` was inserted.
    EdgeAdded(NodeId, NodeId),
    /// The edge `{u, v}` was deleted.
    EdgeRemoved(NodeId, NodeId),
    /// A node with this id was appended.
    VertexAdded(NodeId),
    /// This node's attributes were replaced.
    AttributesSet(NodeId),
    /// The update was redundant (edge already present/absent, self-loop).
    NoOp,
}

/// Marks a node whose row is still the base graph's.
const UNEDITED: u32 = u32::MAX;

/// Rows edited since a base of CSR rows, laid over it: the overlay rule
/// of [`MutableGraph`] (adjacency and token rows) and of the truss
/// repair's per-edge table. A row is copied out of the base on its first
/// edit, so an edit costs only the rows it touches.
///
/// `slot[v]` is `UNEDITED` or the index of `v`'s row in `rows`. The
/// slot vector is dense — 4 bytes a node, allocated by the first edit —
/// because a shard gather edits thousands of rows and pays for a map
/// lookup on each; a node past its end is unedited.
#[derive(Clone, Debug)]
pub struct RowOverlay<T> {
    slot: Vec<u32>,
    rows: Vec<Vec<T>>,
}

impl<T> Default for RowOverlay<T> {
    fn default() -> Self {
        RowOverlay {
            slot: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl<T: Copy> RowOverlay<T> {
    /// Whether no row has been edited.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the row of some node in `nodes` has been edited.
    pub fn any_edited(&self, nodes: Range<usize>) -> bool {
        let end = nodes.end.min(self.slot.len());
        (self.slot.get(nodes.start..end)).is_some_and(|slots| slots.iter().any(|&s| s != UNEDITED))
    }

    fn index(&self, v: usize) -> Option<usize> {
        match self.slot.get(v) {
            Some(&s) if s != UNEDITED => Some(s as usize),
            _ => None,
        }
    }

    /// `v`'s edited row, if any.
    pub fn get(&self, v: NodeId) -> Option<&[T]> {
        self.index(v as usize).map(|i| self.rows[i].as_slice())
    }

    /// `v`'s row for editing; a first edit copies `current` (`v`'s row in
    /// the base) with room for one more entry. `n` is the node count.
    pub fn row_mut(&mut self, v: NodeId, n: usize, current: &[T]) -> &mut Vec<T> {
        let i = match self.index(v as usize) {
            Some(i) => i,
            None => {
                let mut row = Vec::with_capacity(current.len() + 1);
                row.extend_from_slice(current);
                self.insert(v, n, row)
            }
        };
        &mut self.rows[i]
    }

    /// Replaces `v`'s row. `n` is the node count.
    fn set(&mut self, v: NodeId, n: usize, row: Vec<T>) {
        match self.index(v as usize) {
            Some(i) => self.rows[i] = row,
            None => {
                self.insert(v, n, row);
            }
        }
    }

    fn insert(&mut self, v: NodeId, n: usize, row: Vec<T>) -> usize {
        if self.slot.len() < n {
            self.slot.resize(n, UNEDITED);
        }
        let i = self.rows.len();
        // Fewer rows than nodes, and node ids are `u32`.
        self.slot[v as usize] = i as u32;
        self.rows.push(row);
        i
    }

    /// Appends the rows of `nodes` to `flat`, and where each ends to
    /// `offsets` (whose last entry is where `flat` ends): the edited row
    /// where there is one, else the base row, each unedited stretch
    /// copied at once from `base(positions)`, the base's rows at
    /// `base_offsets`; a node past the base without an edited row is
    /// empty.
    fn splice<'a>(
        &self,
        nodes: Range<usize>,
        base_offsets: &[usize],
        base: impl Fn(Range<usize>) -> &'a [T],
        offsets: &mut Vec<usize>,
        flat: &mut Vec<T>,
    ) where
        T: 'a,
    {
        let base_n = base_offsets.len() - 1;
        let origin = offsets[offsets.len() - 1] - flat.len();
        let mut v = nodes.start;
        while v < nodes.end {
            if let Some(row) = self.get(v as NodeId) {
                flat.extend_from_slice(row);
                offsets.push(origin + flat.len());
                v += 1;
                continue;
            }
            let mut end = v + 1;
            while end < nodes.end && self.index(end).is_none() {
                end += 1;
            }
            let stop = end.min(base_n);
            if v < stop {
                let (from, start) = (base_offsets[v], origin + flat.len());
                flat.extend_from_slice(base(from..base_offsets[stop]));
                offsets.extend(base_offsets[v + 1..=stop].iter().map(|&o| o - from + start));
            }
            offsets.resize(end + 1, origin + flat.len());
            v = end;
        }
    }
}

/// An editable overlay on a published [`AttributedGraph`].
///
/// The base graph is shared, not copied: the overlay holds only the
/// adjacency and token rows edited since it (each a sorted `Vec`, found
/// through a dense slot index), and a copy of the raw numerics once an
/// update writes one. An edge toggle costs `O(deg(u) + deg(v))`, an
/// attribute replacement `O(|row|)` — plus one copy of the numerics per
/// batch that edits them. [`MutableGraph::snapshot`] rematerializes the
/// immutable graph in `O(n)` plus the rows of the adjacency chunks the
/// batch edited: every other chunk, and the attribute block when no
/// attribute changed, is the base's. [`MutableGraph::publish`] does the
/// same and makes the result the new base.
#[derive(Clone, Debug)]
pub struct MutableGraph {
    /// The graph the overlay edits; every row it holds no edit for is
    /// read from here.
    base: Arc<AttributedGraph>,
    /// Adjacency rows edited since `base`, each sorted.
    adj: RowOverlay<NodeId>,
    /// Token rows set since `base` (appended vertices included), each
    /// sorted and deduplicated.
    token_rows: RowOverlay<u32>,
    /// Every node's raw numerics, copied from `base` by the first update
    /// that writes one.
    numeric: Option<Vec<f64>>,
    /// Shared with `base` and every snapshot; copied only when an update
    /// brings a token nobody has seen.
    interner: Arc<TokenInterner>,
    n: usize,
    m: usize,
}

impl MutableGraph {
    /// An overlay on `g` with no edits yet: a copy of its offsets,
    /// sharing its row chunks and attribute block.
    pub fn from_graph(g: &AttributedGraph) -> Self {
        MutableGraph::from_arc(Arc::new(g.clone()))
    }

    /// An overlay on the shared graph `base` with no edits yet (no copy).
    pub fn from_arc(base: Arc<AttributedGraph>) -> Self {
        MutableGraph {
            interner: Arc::clone(&base.attrs.interner),
            n: base.n(),
            m: base.m(),
            adj: RowOverlay::default(),
            token_rows: RowOverlay::default(),
            numeric: None,
            base,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Numerical dimensionality every node row must match.
    pub fn dims(&self) -> usize {
        self.base.attrs.dims
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.adj
            .get(v)
            .unwrap_or_else(|| base_neighbors(&self.base, v))
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if (node as usize) < self.n {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node, n: self.n })
        }
    }

    fn check_dims(&self, node: NodeId, row: &[f64]) -> Result<(), GraphError> {
        if row.len() == self.dims() {
            Ok(())
        } else {
            Err(GraphError::DimMismatch {
                node,
                expected: self.dims(),
                got: row.len(),
            })
        }
    }

    /// `a`'s adjacency row for editing.
    fn adj_row(&mut self, a: NodeId) -> &mut Vec<NodeId> {
        self.adj.row_mut(a, self.n, base_neighbors(&self.base, a))
    }

    fn numeric_mut(&mut self) -> &mut Vec<f64> {
        self.numeric
            .get_or_insert_with(|| self.base.attrs.numeric.clone())
    }

    /// Applies one update, reporting what changed.
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfRange`] for unknown endpoints/nodes,
    /// [`GraphError::DimMismatch`] for numerical rows of the wrong width.
    /// On error the overlay is unchanged.
    pub fn apply(&mut self, update: &GraphUpdate) -> Result<Applied, GraphError> {
        match update {
            GraphUpdate::AddEdge { u, v } => {
                self.check_node(*u)?;
                self.check_node(*v)?;
                if u == v || self.has_edge(*u, *v) {
                    return Ok(Applied::NoOp);
                }
                for (a, b) in [(*u, *v), (*v, *u)] {
                    let row = self.adj_row(a);
                    let pos = row.binary_search(&b).unwrap_err();
                    row.insert(pos, b);
                }
                self.m += 1;
                Ok(Applied::EdgeAdded(*u, *v))
            }
            GraphUpdate::RemoveEdge { u, v } => {
                self.check_node(*u)?;
                self.check_node(*v)?;
                if u == v || !self.has_edge(*u, *v) {
                    return Ok(Applied::NoOp);
                }
                for (a, b) in [(*u, *v), (*v, *u)] {
                    let row = self.adj_row(a);
                    let pos = row.binary_search(&b).expect("edge exists");
                    row.remove(pos);
                }
                self.m -= 1;
                Ok(Applied::EdgeRemoved(*u, *v))
            }
            GraphUpdate::AddVertex { tokens, numeric } => {
                let id = self.n as NodeId;
                self.check_dims(id, numeric)?;
                let row = self.intern_row(tokens);
                self.n += 1;
                if !row.is_empty() {
                    self.token_rows.set(id, self.n, row);
                }
                self.numeric_mut().extend_from_slice(numeric);
                Ok(Applied::VertexAdded(id))
            }
            GraphUpdate::SetAttributes { v, tokens, numeric } => {
                self.check_node(*v)?;
                if let Some(row) = numeric {
                    self.check_dims(*v, row)?;
                }
                if let Some(tokens) = tokens {
                    let row = self.intern_row(tokens);
                    self.token_rows.set(*v, self.n, row);
                }
                if let Some(row) = numeric {
                    let start = *v as usize * self.dims();
                    self.numeric_mut()[start..start + row.len()].copy_from_slice(row);
                }
                Ok(Applied::AttributesSet(*v))
            }
        }
    }

    /// The sorted, deduplicated ids of `tokens`, interning new ones.
    fn intern_row(&mut self, tokens: &[String]) -> Vec<u32> {
        let mut row: Vec<u32> = tokens
            .iter()
            .map(|t| match self.interner.get(t) {
                Some(id) => id,
                None => Arc::make_mut(&mut self.interner).intern(t),
            })
            .collect();
        row.sort_unstable();
        row.dedup();
        row
    }

    /// Rebuilds the immutable CSR snapshot: identical to what
    /// [`crate::GraphBuilder`] would produce from the current rows, with
    /// min-max normalization recomputed over the *current* attribute
    /// values (so distances in the snapshot match a from-scratch build of
    /// the updated graph bit-for-bit). It shares every adjacency chunk
    /// of the base whose nodes are unchanged and none of whose rows was
    /// edited, and, when no update since the base changed an attribute,
    /// the base's attribute block.
    pub fn snapshot(&self) -> AttributedGraph {
        self.materialize(self.numeric.clone())
    }

    /// [`MutableGraph::snapshot`], shared, and made the base of an overlay
    /// with no edits: what a store publishes as its next epoch.
    pub fn publish(&mut self) -> Arc<AttributedGraph> {
        let numeric = self.numeric.take();
        let graph = Arc::new(self.materialize(numeric));
        *self = MutableGraph::from_arc(Arc::clone(&graph));
        graph
    }

    /// The snapshot, given the overlay's numerics (`None` when no update
    /// wrote one). A row chunk whose nodes are the base's and none of
    /// whose rows was edited is the base's; only the others are built.
    fn materialize(&self, numeric: Option<Vec<f64>>) -> AttributedGraph {
        let base = &self.base;
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut scratch = Vec::new();
        let chunk = |c| {
            let nodes = chunk_nodes(c, self.n);
            let end = offsets[offsets.len() - 1];
            if nodes == chunk_nodes(c, base.n()) && !self.adj.any_edited(nodes.clone()) {
                let from = base.offsets[nodes.start];
                let rows = &base.offsets[nodes.start + 1..=nodes.end];
                offsets.extend(rows.iter().map(|&o| o - from + end));
                return Arc::clone(&base.chunks[c]);
            }
            // Every base row the built chunk reads lies in base chunk `c`.
            let base_rows = |at: Range<usize>| {
                let first = base.offsets[c * CHUNK];
                &base.chunks[c][at.start - first..at.end - first]
            };
            scratch.clear();
            self.adj
                .splice(nodes, &base.offsets, base_rows, &mut offsets, &mut scratch);
            Arc::from(&scratch[..])
        };
        let chunks = (0..self.n.div_ceil(CHUNK)).map(chunk).collect();
        debug_assert_eq!(offsets[self.n], 2 * self.m);
        let attrs = if self.n == base.n() && self.token_rows.is_empty() && numeric.is_none() {
            Arc::clone(&base.attrs)
        } else {
            // A fresh block: the published one is never edited.
            let old = &base.attrs;
            let edited: usize = self.token_rows.rows.iter().map(Vec::len).sum();
            let mut token_offsets = Vec::with_capacity(self.n + 1);
            token_offsets.push(0usize);
            let mut tokens = Vec::with_capacity(old.tokens.len() + edited);
            let base_rows = |at: Range<usize>| &old.tokens[at];
            self.token_rows.splice(
                0..self.n,
                &old.token_offsets,
                base_rows,
                &mut token_offsets,
                &mut tokens,
            );
            Arc::new(NodeAttributes::from_flat(
                Arc::clone(&self.interner),
                token_offsets,
                tokens,
                old.dims,
                numeric.unwrap_or_else(|| old.numeric.clone()),
            ))
        };
        AttributedGraph::from_chunks(offsets, chunks, attrs)
    }
}

/// `v`'s row in `base`; empty for a node appended since.
fn base_neighbors(base: &AttributedGraph, v: NodeId) -> &[NodeId] {
    if (v as usize) < base.n() {
        base.neighbors(v)
    } else {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        b.add_node(&["movie"], &[1.0]);
        b.add_node(&["movie", "crime"], &[2.0]);
        b.add_node(&["tv"], &[3.0]);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn edge_toggles_round_trip() {
        let g = sample();
        let mut m = MutableGraph::from_graph(&g);
        assert_eq!(m.n(), 3);
        assert_eq!(m.m(), 2);
        assert_eq!(
            m.apply(&GraphUpdate::AddEdge { u: 0, v: 2 }).unwrap(),
            Applied::EdgeAdded(0, 2)
        );
        assert_eq!(
            m.apply(&GraphUpdate::AddEdge { u: 2, v: 0 }).unwrap(),
            Applied::NoOp,
            "already present"
        );
        assert_eq!(
            m.apply(&GraphUpdate::AddEdge { u: 1, v: 1 }).unwrap(),
            Applied::NoOp,
            "self-loop"
        );
        assert!(m.has_edge(0, 2) && m.has_edge(2, 0));
        assert_eq!(m.m(), 3);
        assert_eq!(
            m.apply(&GraphUpdate::RemoveEdge { u: 1, v: 0 }).unwrap(),
            Applied::EdgeRemoved(1, 0)
        );
        assert_eq!(
            m.apply(&GraphUpdate::RemoveEdge { u: 1, v: 0 }).unwrap(),
            Applied::NoOp,
            "already absent"
        );
        let snap = m.snapshot();
        assert_eq!(snap.m(), 2);
        assert!(snap.has_edge(0, 2));
        assert!(!snap.has_edge(0, 1));
        assert!(snap.has_edge(1, 2));
    }

    /// Snapshot equals a from-scratch `GraphBuilder` build of the same
    /// rows: structure, tokens, raw and *normalized* numerics.
    #[test]
    fn snapshot_matches_from_scratch_build() {
        let g = sample();
        let mut m = MutableGraph::from_graph(&g);
        m.apply(&GraphUpdate::AddVertex {
            tokens: vec!["movie".into(), "drama".into()],
            numeric: vec![9.0],
        })
        .unwrap();
        m.apply(&GraphUpdate::AddEdge { u: 3, v: 0 }).unwrap();
        m.apply(&GraphUpdate::SetAttributes {
            v: 2,
            tokens: Some(vec!["tv".into(), "crime".into()]),
            numeric: Some(vec![-5.0]),
        })
        .unwrap();
        let snap = m.snapshot();

        let mut b = GraphBuilder::new(1);
        b.add_node(&["movie"], &[1.0]);
        b.add_node(&["movie", "crime"], &[2.0]);
        b.add_node(&["tv", "crime"], &[-5.0]);
        b.add_node(&["movie", "drama"], &[9.0]);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(3, 0).unwrap();
        let fresh = b.build().unwrap();

        assert_eq!(snap.n(), fresh.n());
        assert_eq!(snap.m(), fresh.m());
        for v in 0..snap.n() as NodeId {
            assert_eq!(snap.neighbors(v), fresh.neighbors(v), "adjacency of {v}");
            assert_eq!(snap.numeric_raw(v), fresh.numeric_raw(v));
            // Normalization recomputed over the updated value range.
            assert_eq!(snap.numeric(v), fresh.numeric(v), "normalized row of {v}");
            fn names(g: &AttributedGraph, v: NodeId) -> Vec<&str> {
                let mut ns: Vec<&str> = g
                    .tokens(v)
                    .iter()
                    .filter_map(|&t| g.interner().name(t))
                    .collect();
                ns.sort_unstable();
                ns
            }
            assert_eq!(names(&snap, v), names(&fresh, v), "tokens of {v}");
        }
    }

    fn graph_bytes(g: &AttributedGraph) -> Vec<u8> {
        let mut out = Vec::new();
        crate::io::write_graph(g, &mut out).unwrap();
        out
    }

    /// An empty batch publishes an equal graph, and a batch that edits
    /// only structure publishes one pointing at its predecessor's
    /// attribute block, leaving the predecessor as it was.
    #[test]
    fn structural_publish_shares_the_attribute_block() {
        let base = Arc::new(sample());
        let before = graph_bytes(&base);
        let mut m = MutableGraph::from_arc(Arc::clone(&base));
        let empty = m.publish();
        assert!(Arc::ptr_eq(&empty.attrs, &base.attrs));
        assert_eq!(graph_bytes(&empty), before);

        m.apply(&GraphUpdate::AddEdge { u: 0, v: 2 }).unwrap();
        m.apply(&GraphUpdate::RemoveEdge { u: 0, v: 1 }).unwrap();
        m.apply(&GraphUpdate::SetAttributes {
            v: 1,
            tokens: None,
            numeric: None,
        })
        .unwrap();
        let next = m.publish();
        assert!(Arc::ptr_eq(&next.attrs, &base.attrs));
        assert!(next.has_edge(0, 2) && !next.has_edge(0, 1));
        assert_eq!(
            graph_bytes(&base),
            before,
            "the previous epoch is untouched"
        );
        // The overlay is rebased onto what it published, with no edits.
        assert!(Arc::ptr_eq(&m.base, &next));
        assert!(m.adj.slot.is_empty() && m.adj.is_empty());
    }

    /// A batch that edits attributes publishes a fresh block whose
    /// normalization is bit-identical to a builder rebuild.
    #[test]
    fn attribute_publish_builds_a_fresh_block_like_a_rebuild() {
        let base = Arc::new(sample());
        let before = graph_bytes(&base);
        let mut m = MutableGraph::from_arc(Arc::clone(&base));
        m.apply(&GraphUpdate::SetAttributes {
            v: 2,
            tokens: Some(vec!["drama".into()]),
            numeric: Some(vec![7.5]),
        })
        .unwrap();
        m.apply(&GraphUpdate::AddVertex {
            tokens: vec![],
            numeric: vec![-1.25],
        })
        .unwrap();
        m.apply(&GraphUpdate::AddEdge { u: 3, v: 1 }).unwrap();
        let next = m.publish();
        assert!(!Arc::ptr_eq(&next.attrs, &base.attrs));
        assert_eq!(
            graph_bytes(&base),
            before,
            "the previous epoch is untouched"
        );
        assert_eq!(base.numeric(2), &[1.0]);

        let mut b = GraphBuilder::new(1);
        b.add_node(&["movie"], &[1.0]);
        b.add_node(&["movie", "crime"], &[2.0]);
        b.add_node(&["drama"], &[7.5]);
        b.add_node(&[], &[-1.25]);
        for (u, v) in [(0, 1), (1, 2), (3, 1)] {
            b.add_edge(u, v).unwrap();
        }
        let fresh = b.build().unwrap();
        assert_eq!(graph_bytes(&next), graph_bytes(&fresh));
        let bits =
            |a: &NodeAttributes| -> Vec<u64> { a.normalized.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&next.attrs), bits(&fresh.attrs));
        assert_eq!(next.attrs().dim_range(0), (-1.25, 7.5));
    }

    #[test]
    fn errors_leave_the_copy_untouched() {
        let g = sample();
        let mut m = MutableGraph::from_graph(&g);
        assert_eq!(
            m.apply(&GraphUpdate::AddEdge { u: 0, v: 9 }),
            Err(GraphError::NodeOutOfRange { node: 9, n: 3 })
        );
        assert_eq!(
            m.apply(&GraphUpdate::AddVertex {
                tokens: vec![],
                numeric: vec![1.0, 2.0],
            }),
            Err(GraphError::DimMismatch {
                node: 3,
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            m.apply(&GraphUpdate::SetAttributes {
                v: 1,
                tokens: None,
                numeric: Some(vec![]),
            }),
            Err(GraphError::DimMismatch {
                node: 1,
                expected: 1,
                got: 0
            })
        );
        assert_eq!(m.n(), 3);
        assert_eq!(m.m(), 2);
        assert_eq!(m.snapshot().numeric_raw(1), &[2.0]);
    }

    #[test]
    fn script_parsing_round_trips() {
        let script = "\
# churn fixture
add-edge 0 2

remove-edge 1 2
add-vertex movie,drama 9.0
add-vertex - 0.5
set-attrs 2 tv,crime -5
set-attrs 0 -
set-attrs 0 drama
";
        let updates = GraphUpdate::parse_script(script).unwrap();
        assert_eq!(updates.len(), 7);
        assert_eq!(updates[0], GraphUpdate::AddEdge { u: 0, v: 2 });
        assert_eq!(updates[1], GraphUpdate::RemoveEdge { u: 1, v: 2 });
        assert_eq!(
            updates[2],
            GraphUpdate::AddVertex {
                tokens: vec!["movie".into(), "drama".into()],
                numeric: vec![9.0],
            }
        );
        assert_eq!(
            updates[3],
            GraphUpdate::AddVertex {
                tokens: vec![],
                numeric: vec![0.5],
            }
        );
        assert_eq!(
            updates[4],
            GraphUpdate::SetAttributes {
                v: 2,
                tokens: Some(vec!["tv".into(), "crime".into()]),
                numeric: Some(vec![-5.0]),
            }
        );
        assert_eq!(
            updates[5],
            GraphUpdate::SetAttributes {
                v: 0,
                tokens: None,
                numeric: None,
            }
        );
        assert_eq!(
            updates[6],
            GraphUpdate::SetAttributes {
                v: 0,
                tokens: Some(vec!["drama".into()]),
                numeric: None,
            }
        );
        for bad in [
            "add-edge 0",
            "add-edge 0 x",
            "add-edge 0 1 2",
            "add-vertex",
            "set-attrs 0 a b",
            "frobnicate 1 2",
        ] {
            assert!(GraphUpdate::parse_line(bad).is_err(), "{bad} must fail");
        }
        assert!(GraphUpdate::parse_script("add-edge 0\n").is_err());
    }

    /// Snapshots share the vocabulary until an update interns a new token;
    /// then the overlay takes a private copy and published snapshots
    /// keep theirs.
    #[test]
    fn interner_is_shared_until_a_new_token_arrives() {
        let g = sample();
        let mut m = MutableGraph::from_graph(&g);
        let set = |tokens: &[&str]| GraphUpdate::SetAttributes {
            v: 0,
            tokens: Some(tokens.iter().map(|t| t.to_string()).collect()),
            numeric: None,
        };
        m.apply(&set(&["tv", "crime"])).unwrap();
        let known = m.snapshot();
        assert!(std::ptr::eq(known.interner(), g.interner()));
        assert!(std::ptr::eq(
            known.induced(&[0, 1]).graph.interner(),
            g.interner()
        ));
        m.apply(&set(&["tv", "western"])).unwrap();
        let grown = m.snapshot();
        assert_eq!(g.interner().get("western"), None);
        assert_eq!(known.interner().get("western"), None);
        let western = grown.interner().get("western").expect("interned");
        assert!(grown.tokens(0).contains(&western));
        assert_eq!(grown.interner().get("tv"), g.interner().get("tv"));
    }

    /// A non-finite value must never reach the log, the followers or the
    /// live store: the text format refuses it with the typed parse error.
    #[test]
    fn non_finite_update_values_are_rejected() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
            assert_eq!(
                GraphUpdate::parse_line(&format!("set-attrs 1 a {bad} 0.5")),
                Err(format!("set-attrs: bad numeric attribute `{bad}`"))
            );
            assert_eq!(
                GraphUpdate::parse_line(&format!("add-vertex - 0.5 {bad}")),
                Err(format!("add-vertex: bad numeric attribute `{bad}`"))
            );
            assert!(
                GraphUpdate::parse_script(&format!("add-edge 0 1\nset-attrs 1 a {bad}\n")).is_err()
            );
        }
    }

    /// A token field the graph file could not hold back is refused where
    /// the update is read, so no accepted update leaves a node whose saved
    /// line no reader accepts.
    #[test]
    fn token_fields_with_empty_tokens_are_rejected() {
        for (field, why) in [
            (",", "empty token in `,`"),
            ("a,,b", "empty token in `a,,b`"),
            ("-,-", "only `-` tokens in `-,-`"),
        ] {
            assert_eq!(
                GraphUpdate::parse_line(&format!("set-attrs 0 {field}")),
                Err(format!("set-attrs: {why}"))
            );
            assert_eq!(
                GraphUpdate::parse_script(&format!("add-edge 0 1\nadd-vertex {field} 0.5\n")),
                Err(format!("line 2: add-vertex: {why}"))
            );
        }
    }

    /// The values `to_line` cannot write faithfully are exactly the ones
    /// `replayable` refuses, each with the line and what it turns into.
    #[test]
    fn replayable_refuses_what_the_text_cannot_say() {
        let set = |tokens: Option<&[&str]>, numeric: Option<Vec<f64>>| GraphUpdate::SetAttributes {
            v: 0,
            tokens: tokens.map(|t| t.iter().map(|t| t.to_string()).collect()),
            numeric,
        };
        let vertex = |tokens: &[&str], numeric: Vec<f64>| GraphUpdate::AddVertex {
            tokens: tokens.iter().map(|t| t.to_string()).collect(),
            numeric,
        };
        for lost in [
            set(Some(&[]), None), // `-` means keep, not clear
            set(Some(&["new york"]), None),
            set(Some(&["a,b"]), None),
            set(Some(&[""]), None),
            set(Some(&["a", "-", ""]), Some(vec![-0.0])), // `a,-,` holds an empty token
            set(Some(&["-"]), None),
            set(Some(&["-", "-"]), None), // `-,-` would be a node's lone `-`
            set(None, Some(vec![])),      // no numeric tail means keep
            set(None, Some(vec![f64::NAN])),
            vertex(&["-"], vec![0.5]),
            vertex(&["tab\there"], vec![0.5]),
            vertex(&[], vec![f64::INFINITY]),
        ] {
            let why = lost.replayable().unwrap_err();
            assert!(why.contains(&lost.to_line()), "{why}");
        }
        assert_eq!(
            set(Some(&[]), None).replayable().unwrap_err(),
            "`set-attrs 0 -` reads back as SetAttributes { v: 0, tokens: None, numeric: None }"
        );
        for kept in [
            set(Some(&["a", "-"]), Some(vec![-0.0])), // `a,-` splits back
            set(None, None),
            vertex(&[], vec![]),
            vertex(&["#", "7"], vec![1e-300]),
            GraphUpdate::AddEdge { u: 1, v: u32::MAX },
        ] {
            assert_eq!(kept.replayable(), Ok(()), "{kept:?}");
        }
    }

    #[test]
    fn to_line_inverts_parse_line() {
        let updates = [
            GraphUpdate::AddEdge { u: 0, v: 2 },
            GraphUpdate::RemoveEdge { u: 1, v: 2 },
            GraphUpdate::AddVertex {
                tokens: vec!["movie".into(), "drama".into()],
                numeric: vec![9.0, 0.1 + 0.2],
            },
            GraphUpdate::AddVertex {
                tokens: vec![],
                numeric: vec![0.5],
            },
            GraphUpdate::SetAttributes {
                v: 2,
                tokens: Some(vec!["tv".into(), "crime".into()]),
                numeric: Some(vec![-5.0]),
            },
            GraphUpdate::SetAttributes {
                v: 0,
                tokens: None,
                numeric: None,
            },
            GraphUpdate::SetAttributes {
                v: 0,
                tokens: Some(vec!["drama".into()]),
                numeric: None,
            },
        ];
        for u in &updates {
            let line = u.to_line();
            assert_eq!(
                &GraphUpdate::parse_line(&line).unwrap(),
                u,
                "`{line}` must round-trip (floats included, bit-for-bit)"
            );
        }
    }
}
