//! Incremental decomposition maintenance under graph updates.
//!
//! The engine's evolving-graph store applies [`csag_graph::GraphUpdate`]
//! batches and must keep its cached decompositions consistent without
//! recomputing them from scratch on every epoch.
//!
//! # Trussness: [`TrussMaintainer`], a local per-edge repair
//!
//! The store's one truss repair path. It edits the per-edge trussness
//! table an epoch published, after each single edge toggle, touching
//! only the edges that change and their triangle neighbours (and copying
//! only their rows), and publishes the next epoch's table, which shares
//! every untouched chunk. Soundness rests on a characterization and two
//! bounds, not on a peel order:
//!
//! * **Greatest fixpoint.** Call `f: E → {2, 3, …}` *feasible* when every
//!   edge `e` lies in at least `f(e) − 2` triangles whose other two edges
//!   have `f ≥ f(e)`. Trussness `τ` is feasible, and it is the pointwise
//!   greatest feasible function: for any feasible `f` the edges with
//!   `f ≥ k` each keep `k − 2` triangles among themselves, so they sit
//!   inside the k-truss and `f ≤ τ`. Hence a work-list that starts from
//!   any pointwise **upper bound** of `τ`, lowers a violating edge by one
//!   and re-queues the edges of its triangles that sat at exactly the old
//!   level (`settle`) can only stop at `τ`: a violating edge at level `k`
//!   cannot be in the k-truss (whose edges all still read `≥ k`), so no
//!   step ever drops below `τ`, and what is left when nothing violates is
//!   feasible, so it is not above `τ` either.
//! * **A removal only lowers, by at most one.** The old values are
//!   therefore an upper bound as they stand; only the edges that shared a
//!   triangle with the removed one can violate at first.
//! * **An insertion only raises, by at most one** (delete the new edge
//!   from a would-be `(k + 2)`-truss: every other edge loses at most one
//!   triangle, leaving a `(k + 1)`-truss of the old graph). The new edge
//!   `{u, v}` itself is bounded by `k2`, the largest `k` with `k − 2`
//!   common neighbours `w` having `min(τ(u,w), τ(v,w)) ≥ k − 1`. An old
//!   edge can rise from `k` to `k + 1` only if `k < k2` and it is reached
//!   from the new edge through triangles whose edges all have `τ ≥ k`,
//!   stepping over edges at exactly level `k` — otherwise the risen edges
//!   not so reached, added to the old `(k + 1)`-truss, would already have
//!   been a `(k + 1)`-truss before the insertion (the level-`k` triangle
//!   connectivity of Huang et al., SIGMOD 2014). Raising exactly that
//!   candidate set by one yields the upper bound `settle` starts from.
//!
//! # Coreness: one peel per structural batch
//!
//! The store recomputes core numbers with one [`core_decomposition`] per
//! batch that changed an edge. A traversal repair visits the *subcore* of
//! the touched edge, and on graphs whose main shell is most of the graph
//! (the benchmark's 5 000-node graph holds 4 662 nodes at core 10) one
//! such walk already costs more than the `O(n + m)` peel — the same order
//! as the CSR snapshot every batch pays anyway.
//!
//! # References kept for tests and the benchmark
//!
//! [`CoreMaintainer`] (per-edge subcore traversal) and
//! [`patch_node_trussness`] (re-peel of every touched connected
//! component) are what the store used before; they have no product
//! caller, and stay as the per-edge / from-scratch references the churn
//! property tests (`tests/prop_maintain.rs`) and `benchmark/` compile
//! against.

use crate::index::EdgeTrussness;
use crate::kcore::core_decomposition;
use crate::ktruss::{for_common_in_rows, node_max_trussness};
use csag_graph::graph::chunk_nodes;
use csag_graph::{AttributedGraph, MutableGraph, NodeId, RowOverlay};
use std::sync::Arc;

/// Incrementally maintained core numbers of an evolving graph.
///
/// Seed it from the initial graph, then report every structural change
/// through [`CoreMaintainer::insert_edge`] / [`CoreMaintainer::remove_edge`]
/// (passing the adjacency *after* the change) and
/// [`CoreMaintainer::add_vertex`]; [`CoreMaintainer::coreness`] is then
/// always equal to a from-scratch [`core_decomposition`] of the current
/// graph. Each edge repair costs `O(|subcore| + its boundary edges)` —
/// for localized churn, far below the `O(n + m)` full peel.
#[derive(Clone, Debug)]
pub struct CoreMaintainer {
    core: Vec<u32>,
    /// Epoch-stamped candidate membership (avoids clearing per repair).
    cand_mark: Vec<u32>,
    /// Epoch-stamped "dropped out of the repair" flag.
    out_mark: Vec<u32>,
    /// Support counters of the current repair's candidates.
    cd: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    cand: Vec<NodeId>,
}

impl CoreMaintainer {
    /// Computes the initial core numbers of `g` and readies the repair
    /// scratch.
    pub fn new(g: &AttributedGraph) -> Self {
        let core = core_decomposition(g);
        let n = core.len();
        CoreMaintainer {
            core,
            cand_mark: vec![0; n],
            out_mark: vec![0; n],
            cd: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            cand: Vec::new(),
        }
    }

    /// The maintained core number of every node.
    pub fn coreness(&self) -> &[u32] {
        &self.core
    }

    /// Registers a new isolated vertex (core number 0).
    pub fn add_vertex(&mut self) {
        self.core.push(0);
        self.cand_mark.push(0);
        self.out_mark.push(0);
        self.cd.push(0);
    }

    fn next_epoch(&mut self) -> u32 {
        // Epoch 0 marks "never touched". A long-lived store repairs one
        // edge per epoch, so the u32 *can* wrap under sustained churn —
        // on wrap, zero the mark vectors and restart at 1 instead of
        // panicking (an O(n) hiccup once per 2^32 repairs).
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.cand_mark.fill(0);
                self.out_mark.fill(0);
                1
            }
        };
        self.epoch
    }

    /// Collects the subcore at level `r`: nodes with `core == r` reachable
    /// from the given roots through nodes of core `r`, in `g`.
    fn collect_candidates(&mut self, g: &MutableGraph, roots: [Option<NodeId>; 2], e: u32) {
        self.cand.clear();
        self.stack.clear();
        for root in roots.into_iter().flatten() {
            if self.cand_mark[root as usize] != e {
                self.cand_mark[root as usize] = e;
                self.stack.push(root);
            }
        }
        while let Some(w) = self.stack.pop() {
            let r = self.core[w as usize];
            self.cand.push(w);
            for &x in g.neighbors(w) {
                if self.core[x as usize] == r && self.cand_mark[x as usize] != e {
                    self.cand_mark[x as usize] = e;
                    self.stack.push(x);
                }
            }
        }
    }

    /// Patches core numbers after the edge `{u, v}` was inserted; `g` must
    /// already contain the edge. Affected nodes (the subcore of the
    /// lower-core endpoint) are promoted to `r + 1` exactly when they keep
    /// `≥ r + 1` supporting neighbors under the cascade.
    pub fn insert_edge(&mut self, g: &MutableGraph, u: NodeId, v: NodeId) {
        let r = self.core[u as usize].min(self.core[v as usize]);
        let e = self.next_epoch();
        let root_u = (self.core[u as usize] == r).then_some(u);
        let root_v = (self.core[v as usize] == r).then_some(v);
        self.collect_candidates(g, [root_u, root_v], e);

        // A candidate's support: neighbors already above level r plus
        // fellow candidates (which would rise with it).
        for i in 0..self.cand.len() {
            let w = self.cand[i];
            let mut d = 0u32;
            for &x in g.neighbors(w) {
                let xi = x as usize;
                if self.core[xi] > r || self.cand_mark[xi] == e {
                    d += 1;
                }
            }
            self.cd[w as usize] = d;
        }

        // Cascade out candidates that cannot reach degree r + 1.
        self.stack.clear();
        for i in 0..self.cand.len() {
            let w = self.cand[i];
            if self.cd[w as usize] < r + 1 {
                self.out_mark[w as usize] = e;
                self.stack.push(w);
            }
        }
        while let Some(w) = self.stack.pop() {
            for &x in g.neighbors(w) {
                let xi = x as usize;
                if self.cand_mark[xi] == e && self.out_mark[xi] != e {
                    self.cd[xi] -= 1;
                    if self.cd[xi] < r + 1 {
                        self.out_mark[xi] = e;
                        self.stack.push(x);
                    }
                }
            }
        }
        for i in 0..self.cand.len() {
            let w = self.cand[i];
            if self.out_mark[w as usize] != e {
                self.core[w as usize] = r + 1;
            }
        }
    }

    /// Patches core numbers after the edge `{u, v}` was removed; `g` must
    /// no longer contain the edge. Affected nodes (the subcores of the
    /// endpoints at the lower core level) are demoted to `r − 1` exactly
    /// when the cascade leaves them `< r` supporting neighbors.
    pub fn remove_edge(&mut self, g: &MutableGraph, u: NodeId, v: NodeId) {
        let r = self.core[u as usize].min(self.core[v as usize]);
        if r == 0 {
            return; // an isolated endpoint: nothing depended on the edge
        }
        let e = self.next_epoch();
        let root_u = (self.core[u as usize] == r).then_some(u);
        let root_v = (self.core[v as usize] == r).then_some(v);
        self.collect_candidates(g, [root_u, root_v], e);

        // A candidate's support: neighbors still at core ≥ r.
        for i in 0..self.cand.len() {
            let w = self.cand[i];
            let mut d = 0u32;
            for &x in g.neighbors(w) {
                if self.core[x as usize] >= r {
                    d += 1;
                }
            }
            self.cd[w as usize] = d;
        }

        self.stack.clear();
        for i in 0..self.cand.len() {
            let w = self.cand[i];
            if self.cd[w as usize] < r {
                self.out_mark[w as usize] = e;
                self.stack.push(w);
            }
        }
        while let Some(w) = self.stack.pop() {
            self.core[w as usize] = r - 1;
            for &x in g.neighbors(w) {
                let xi = x as usize;
                if self.cand_mark[xi] == e && self.out_mark[xi] != e {
                    self.cd[xi] -= 1;
                    if self.cd[xi] < r {
                        self.out_mark[xi] = e;
                        self.stack.push(x);
                    }
                }
            }
        }
    }
}

/// Marks an edge as a rise candidate of the insertion in progress, in
/// the top bit of its table slots (trussness is at most the maximum
/// degree plus one, nowhere near `2^31`).
const CANDIDATE: u32 = 1 << 31;

/// Incrementally maintained per-edge trussness of an evolving graph. See
/// the [module docs](self) for why the repair is exact.
///
/// It adopts an epoch's [`EdgeTrussness`] without copying a value, edits
/// only the rows a repair touches (each copied out on its first edit,
/// [`RowOverlay`]'s rule), and [`TrussMaintainer::publish`]es the next
/// epoch's table and node trussness. Report every edge toggle through
/// `insert_edge` / `remove_edge`, passing the adjacency *after* the
/// change; an appended vertex has no edge and needs no report. A repair
/// visits the changed edges and their triangle neighbours only —
/// [`TrussMaintainer::work`] counts the steps.
#[derive(Clone, Debug)]
pub struct TrussMaintainer {
    /// `rows.row(v)[i]` is the trussness of the edge `{v, g.neighbors(v)
    /// [i]}`: rows parallel to the adjacency, every edge in both
    /// endpoints' rows, so a triangle's two partner values fall out of the
    /// row merge.
    rows: Rows,
    work: u64,
    /// Edges whose support must be re-checked by `settle`.
    queue: Vec<(NodeId, NodeId)>,
    /// Rise candidates of the current insertion, in visit order.
    candidates: Vec<(NodeId, NodeId)>,
    /// Partner minima of the new edge's triangles (for its bound).
    mins: Vec<u32>,
}

/// The published table of `graph`, with the rows edited since laid over
/// it.
#[derive(Clone, Debug)]
struct Rows {
    graph: Arc<AttributedGraph>,
    table: EdgeTrussness,
    edited: RowOverlay<u32>,
}

impl Rows {
    fn row(&self, v: NodeId) -> &[u32] {
        self.edited
            .get(v)
            .unwrap_or_else(|| self.table.row(&self.graph, v))
    }

    /// `v`'s row for editing; `n` is the current node count.
    fn row_mut(&mut self, v: NodeId, n: usize) -> &mut Vec<u32> {
        let current = self.table.row(&self.graph, v);
        self.edited.row_mut(v, n, current)
    }
}

impl TrussMaintainer {
    /// Adopts `table`, the per-edge trussness of `graph`; its chunks are
    /// shared, not copied.
    pub fn adopt(graph: Arc<AttributedGraph>, table: EdgeTrussness) -> Self {
        TrussMaintainer {
            rows: Rows {
                graph,
                table,
                edited: RowOverlay::default(),
            },
            work: 0,
            queue: Vec::new(),
            candidates: Vec::new(),
            mins: Vec::new(),
        }
    }

    /// The table of `graph`, the graph the reported toggles led to, and
    /// its node trussness, given `nodes`, that of the graph last published
    /// (or adopted); later repairs edit this table. A chunk with no edited
    /// row is shared, the others are built afresh, and an edited row's
    /// node takes the row's maximum.
    pub fn publish(
        &mut self,
        graph: &Arc<AttributedGraph>,
        nodes: &[u32],
    ) -> (EdgeTrussness, Vec<u32>) {
        let rows = &self.rows;
        let unedited = |c| !rows.edited.any_edited(chunk_nodes(c, graph.n()));
        let kept = |c| rows.table.chunks.get(c).filter(|_| unedited(c)).cloned();
        let table = EdgeTrussness::build(graph, kept, |v| rows.row(v));
        let mut node_trussness = nodes.to_vec();
        node_trussness.resize(graph.n(), 0);
        for (v, max) in node_trussness.iter_mut().enumerate() {
            if let Some(row) = rows.edited.get(v as NodeId) {
                *max = row.iter().copied().max().unwrap_or(0);
            }
        }
        self.rows = Rows {
            graph: Arc::clone(graph),
            table: table.clone(),
            edited: RowOverlay::default(),
        };
        (table, node_trussness)
    }

    /// Steps taken by every repair so far: one per support re-check, one
    /// per rise candidate visited. Monotone; a clock-free measure of how
    /// local the repairs are.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Repairs the table after the edge `{u, v}` was inserted; `g` must
    /// already contain the edge.
    pub fn insert_edge(&mut self, g: &MutableGraph, u: NodeId, v: NodeId) {
        let (nu, nv, n) = (g.neighbors(u), g.neighbors(v), g.n());
        // Open the two slots first so every row is aligned with `g`. A
        // common neighbour is neither `u` nor `v`, so the merges below
        // never read them before they are set.
        self.rows.row_mut(u, n).insert(slot(nu, v), 0);
        self.rows.row_mut(v, n).insert(slot(nv, u), 0);

        // k2: the largest k with k − 2 triangles whose partners are both
        // at k − 1 or more (they can rise by one, no further).
        let (tu, tv) = (self.rows.row(u), self.rows.row(v));
        self.mins.clear();
        for_common_in_rows(nu, nv, |_, p, q| self.mins.push(tu[p].min(tv[q])));
        self.mins.sort_unstable_by(|a, b| b.cmp(a));
        let triangles = (self.mins.iter().zip(2u32..))
            .take_while(|&(&partners, need)| partners >= need)
            .count();
        let k2 = triangles as u32 + 2;

        // Rise candidates, seeded by the new edge's triangles: in each,
        // the lower partner (both, on a tie) if it sits below k2.
        self.candidates.clear();
        for_common_in_rows(nu, nv, |w, p, q| {
            let k = tu[p].min(tv[q]);
            if k < k2 {
                if tu[p] == k {
                    self.candidates.push((u, w));
                }
                if tv[q] == k {
                    self.candidates.push((v, w));
                }
            }
        });
        self.set(g, u, v, k2);
        self.flag_candidates(g, 0);
        // Then from each candidate at its own level k, through triangles
        // with both partners at k or more, to the partners at exactly k.
        // The new edge reads k2 > k: it carries the walk, never joins it.
        let mut head = 0;
        while head < self.candidates.len() {
            let (x, y) = self.candidates[head];
            head += 1;
            let (nx, ny) = (g.neighbors(x), g.neighbors(y));
            let (tx, ty) = (self.rows.row(x), self.rows.row(y));
            let k = tx[slot(nx, y)] & !CANDIDATE;
            let found = self.candidates.len();
            for_common_in_rows(nx, ny, |w, p, q| {
                if tx[p] & !CANDIDATE >= k && ty[q] & !CANDIDATE >= k {
                    // A flagged slot never equals k: visited once.
                    if tx[p] == k {
                        self.candidates.push((x, w));
                    }
                    if ty[q] == k {
                        self.candidates.push((y, w));
                    }
                }
            });
            self.flag_candidates(g, found);
        }
        self.work += self.candidates.len() as u64;

        // The upper bound: every candidate one up, the new edge at k2.
        self.queue.push((u, v));
        for i in 0..self.candidates.len() {
            let (x, y) = self.candidates[i];
            let raised = (self.rows.row(x)[slot(g.neighbors(x), y)] & !CANDIDATE) + 1;
            self.set(g, x, y, raised);
            self.queue.push((x, y));
        }
        self.settle(g);
    }

    /// Repairs the table after the edge `{u, v}` was removed; `g` must no
    /// longer contain the edge.
    pub fn remove_edge(&mut self, g: &MutableGraph, u: NodeId, v: NodeId) {
        let (nu, nv, n) = (g.neighbors(u), g.neighbors(v), g.n());
        // Where the neighbour would be inserted is where its slot was.
        let (at_u, at_v) = (nu.binary_search(&v), nv.binary_search(&u));
        let gone = self.rows.row_mut(u, n).remove(at_u.unwrap_err());
        self.rows.row_mut(v, n).remove(at_v.unwrap_err());
        // Only an edge that counted the lost triangle can now fall short.
        let (tu, tv) = (self.rows.row(u), self.rows.row(v));
        for_common_in_rows(nu, nv, |w, p, q| {
            if tu[p] <= gone.min(tv[q]) {
                self.queue.push((u, w));
            }
            if tv[q] <= gone.min(tu[p]) {
                self.queue.push((v, w));
            }
        });
        self.settle(g);
    }

    /// Writes `value` into both slots of the edge `{a, b}`.
    fn set(&mut self, g: &MutableGraph, a: NodeId, b: NodeId, value: u32) {
        for (x, y) in [(a, b), (b, a)] {
            self.rows.row_mut(x, g.n())[slot(g.neighbors(x), y)] = value;
        }
    }

    /// Flags both slots of `candidates[from..]` as visited.
    fn flag_candidates(&mut self, g: &MutableGraph, from: usize) {
        for &(x, y) in &self.candidates[from..] {
            for (a, b) in [(x, y), (y, x)] {
                self.rows.row_mut(a, g.n())[slot(g.neighbors(a), b)] |= CANDIDATE;
            }
        }
    }

    /// Drains the queue: an edge at level `k` with fewer than `k − 2`
    /// triangles whose partners are both at `k` or more drops to `k − 1`,
    /// which costs exactly the partners at level `k` of those triangles
    /// one unit of support — they, and the edge itself, are re-checked.
    fn settle(&mut self, g: &MutableGraph) {
        while let Some((a, b)) = self.queue.pop() {
            self.work += 1;
            let (na, nb) = (g.neighbors(a), g.neighbors(b));
            let (ta, tb) = (self.rows.row(a), self.rows.row(b));
            let k = ta[slot(na, b)];
            if k <= 2 {
                continue; // no triangle required
            }
            let mut support = 0;
            for_common_in_rows(na, nb, |_, p, q| {
                if ta[p].min(tb[q]) >= k {
                    support += 1;
                }
            });
            if support + 2 >= k {
                continue;
            }
            for_common_in_rows(na, nb, |w, p, q| {
                if ta[p].min(tb[q]) >= k {
                    if ta[p] == k {
                        self.queue.push((a, w));
                    }
                    if tb[q] == k {
                        self.queue.push((b, w));
                    }
                }
            });
            self.queue.push((a, b));
            self.set(g, a, b, k - 1);
        }
    }
}

/// Position of `b` in the sorted neighbor row `row`.
fn slot(row: &[NodeId], b: NodeId) -> usize {
    row.binary_search(&b).expect("edge is in the adjacency")
}

/// Repairs a [`node_max_trussness`] table after a structural update batch
/// by recomputing exactly the connected components of `new_g` containing
/// a `seed` (the endpoints of every added/removed edge) and copying all
/// other values from `old`. New vertices (ids `≥ old.len()`) start at 0.
///
/// Sound because trussness is component-local, and every node whose
/// component's edge set changed is — in the post-update graph — still
/// reachable from some touched endpoint (truncate any old path at the
/// first removed edge and you land on a seed).
pub fn patch_node_trussness(new_g: &AttributedGraph, old: &[u32], seeds: &[NodeId]) -> Vec<u32> {
    let n = new_g.n();
    let mut out = vec![0u32; n];
    let copy = old.len().min(n);
    out[..copy].copy_from_slice(&old[..copy]);
    if seeds.is_empty() {
        return out;
    }

    // BFS over the union of the seeds' components.
    let mut in_region = vec![false; n];
    let mut region: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !in_region[s as usize] {
            in_region[s as usize] = true;
            stack.push(s);
        }
    }
    while let Some(w) = stack.pop() {
        region.push(w);
        for &x in new_g.neighbors(w) {
            if !in_region[x as usize] {
                in_region[x as usize] = true;
                stack.push(x);
            }
        }
    }
    region.sort_unstable();

    // Re-peel the touched region in isolation; its trussness values are
    // the global ones because no triangle leaves a component.
    let sub = new_g.induced(&region);
    let local = node_max_trussness(&sub.graph);
    for (local_id, &orig) in sub.to_original.iter().enumerate() {
        out[orig as usize] = local[local_id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktruss::truss_decomposition;
    use csag_graph::graph::CHUNK;
    use csag_graph::{GraphBuilder, GraphUpdate};

    fn grid(n: usize, edges: &[(u32, u32)]) -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..n {
            b.add_node(&[], &[]);
        }
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    /// Drives a `MutableGraph` + `CoreMaintainer` through a churn script,
    /// asserting the maintained cores equal a fresh decomposition after
    /// every single step.
    fn drive(initial: &AttributedGraph, script: &[GraphUpdate]) {
        let mut mutable = MutableGraph::from_graph(initial);
        let mut maint = CoreMaintainer::new(initial);
        let mut truss = node_max_trussness(initial);
        for update in script {
            let applied = mutable.apply(update).unwrap();
            let mut seeds: Vec<NodeId> = Vec::new();
            match applied {
                csag_graph::Applied::EdgeAdded(u, v) => {
                    maint.insert_edge(&mutable, u, v);
                    seeds.extend([u, v]);
                }
                csag_graph::Applied::EdgeRemoved(u, v) => {
                    maint.remove_edge(&mutable, u, v);
                    seeds.extend([u, v]);
                }
                csag_graph::Applied::VertexAdded(_) => maint.add_vertex(),
                csag_graph::Applied::AttributesSet(_) | csag_graph::Applied::NoOp => {}
            }
            let snap = mutable.snapshot();
            assert_eq!(
                maint.coreness(),
                core_decomposition(&snap).as_slice(),
                "coreness diverged after {update:?}"
            );
            truss = patch_node_trussness(&snap, &truss, &seeds);
            assert_eq!(
                truss,
                node_max_trussness(&snap),
                "trussness diverged after {update:?}"
            );
        }
    }

    #[test]
    fn insertion_promotes_exactly_the_subcore() {
        // A 4-cycle (core 2 everywhere) plus one chord makes {0,1,2,3}
        // stay core 2, but closing both chords lifts the 4-clique to 3.
        let g = grid(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]);
        drive(
            &g,
            &[
                GraphUpdate::AddEdge { u: 0, v: 2 },
                GraphUpdate::AddEdge { u: 1, v: 3 },
                GraphUpdate::RemoveEdge { u: 1, v: 3 },
                GraphUpdate::RemoveEdge { u: 0, v: 1 },
                GraphUpdate::RemoveEdge { u: 2, v: 3 },
            ],
        );
    }

    #[test]
    fn growth_and_churn_across_components() {
        // Two triangles and an isolated node; churn merges, splits, and
        // grows the graph.
        let g = grid(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        drive(
            &g,
            &[
                GraphUpdate::AddEdge { u: 2, v: 3 },
                GraphUpdate::AddEdge { u: 6, v: 0 },
                GraphUpdate::AddVertex {
                    tokens: vec![],
                    numeric: vec![],
                },
                GraphUpdate::AddEdge { u: 7, v: 1 },
                GraphUpdate::AddEdge { u: 7, v: 2 },
                GraphUpdate::AddEdge { u: 7, v: 0 },
                GraphUpdate::RemoveEdge { u: 2, v: 3 },
                GraphUpdate::RemoveEdge { u: 4, v: 5 },
                GraphUpdate::RemoveEdge { u: 0, v: 1 },
            ],
        );
    }

    #[test]
    fn deletion_cascades_through_the_subcore() {
        // A 5-clique with a pendant path; deleting clique edges cascades
        // demotions through the whole subcore.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        edges.push((4, 5));
        edges.push((5, 6));
        let g = grid(7, &edges);
        drive(
            &g,
            &[
                GraphUpdate::RemoveEdge { u: 0, v: 1 },
                GraphUpdate::RemoveEdge { u: 2, v: 3 },
                GraphUpdate::RemoveEdge { u: 0, v: 4 },
                GraphUpdate::AddEdge { u: 0, v: 1 },
                GraphUpdate::AddEdge { u: 6, v: 4 },
            ],
        );
    }

    /// Epoch wrap-around clears the mark vectors and keeps repairing
    /// correctly instead of panicking (a long-lived store crosses 2^32
    /// single-edge repairs under sustained churn).
    #[test]
    fn epoch_wrap_survives_and_stays_correct() {
        let g = grid(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]);
        let mut mutable = MutableGraph::from_graph(&g);
        let mut maint = CoreMaintainer::new(&g);
        // Pretend 2^32 − 1 repairs already happened, with stale marks.
        maint.epoch = u32::MAX;
        maint.cand_mark.fill(u32::MAX);
        maint.out_mark.fill(u32::MAX);
        mutable.apply(&GraphUpdate::AddEdge { u: 0, v: 2 }).unwrap();
        maint.insert_edge(&mutable, 0, 2);
        assert_eq!(maint.epoch, 1, "wrapped, not panicked");
        assert_eq!(
            maint.coreness(),
            core_decomposition(&mutable.snapshot()).as_slice()
        );
        // The next repair keeps working on the reset marks.
        mutable
            .apply(&GraphUpdate::RemoveEdge { u: 0, v: 2 })
            .unwrap();
        maint.remove_edge(&mutable, 0, 2);
        assert_eq!(
            maint.coreness(),
            core_decomposition(&mutable.snapshot()).as_slice()
        );
    }

    /// What [`drive_truss`] leaves: the maintainer, and the last published
    /// graph, table and node trussness.
    struct Driven {
        maint: TrussMaintainer,
        graph: Arc<AttributedGraph>,
        table: EdgeTrussness,
        nodes: Vec<u32>,
    }

    impl Driven {
        /// The published trussness of the edge `{u, v}`, if it is one.
        fn at(&self, u: NodeId, v: NodeId) -> Option<u32> {
            let g = &self.graph;
            let i = g.neighbors(u).binary_search(&v).ok()?;
            Some(self.table.row(g, u)[i])
        }
    }

    /// Drives a `MutableGraph` + `TrussMaintainer` through `batches`,
    /// publishing both after each batch, and asserts that the published
    /// table is the decomposition of the published graph and the node
    /// table its per-node maximum.
    fn drive_truss(initial: &AttributedGraph, batches: &[&[GraphUpdate]]) -> Driven {
        let mut mutable = MutableGraph::from_graph(initial);
        let table = EdgeTrussness::new(initial, &truss_decomposition(initial));
        let mut maint = TrussMaintainer::adopt(Arc::new(initial.clone()), table);
        let mut nodes = node_max_trussness(initial);
        let mut published = None;
        for batch in batches {
            for update in *batch {
                match mutable.apply(update).unwrap() {
                    csag_graph::Applied::EdgeAdded(u, v) => maint.insert_edge(&mutable, u, v),
                    csag_graph::Applied::EdgeRemoved(u, v) => maint.remove_edge(&mutable, u, v),
                    _ => {}
                }
            }
            let graph = mutable.publish();
            let table;
            (table, nodes) = maint.publish(&graph, &nodes);
            assert_eq!(
                table.chunks().concat(),
                truss_decomposition(&graph),
                "after {batch:?}"
            );
            assert_eq!(nodes, node_max_trussness(&graph), "after {batch:?}");
            published = Some((graph, table, nodes.clone()));
        }
        assert!(maint.queue.is_empty() && maint.rows.edited.is_empty());
        let (graph, table, nodes) = published.expect("one batch at least");
        Driven {
            maint,
            graph,
            table,
            nodes,
        }
    }

    fn add(u: NodeId, v: NodeId) -> GraphUpdate {
        GraphUpdate::AddEdge { u, v }
    }

    fn remove(u: NodeId, v: NodeId) -> GraphUpdate {
        GraphUpdate::RemoveEdge { u, v }
    }

    /// The octahedron K(2,2,2) on pairs {0,1}, {2,3}, {4,5}: every edge in
    /// exactly two triangles, a 4-truss with no slack anywhere.
    fn octahedron() -> AttributedGraph {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                if u / 2 != v / 2 {
                    edges.push((u, v));
                }
            }
        }
        grid(6, &edges)
    }

    #[test]
    fn insertion_closing_a_clique_lifts_the_whole_level() {
        // K5 short of the edge {0, 1}: two 4-cliques glued on a triangle,
        // every edge at 4. Closing it makes K5 — all ten edges at 5,
        // the three among {2, 3, 4} included, which share no triangle
        // with the new edge.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                if (u, v) != (0, 1) {
                    edges.push((u, v));
                }
            }
        }
        let g = grid(5, &edges);
        assert!(truss_decomposition(&g).iter().all(|&t| t == 4));
        let after = drive_truss(&g, &[&[add(0, 1)]]);
        assert!(after.table.chunks().concat().iter().all(|&t| t == 5));
        assert_eq!(after.nodes, [5; 5]);
    }

    #[test]
    fn deletion_cascades_two_hops() {
        // Removing {0, 2} costs its four triangle partners their second
        // triangle; their fall takes the rest of the level with it — the
        // edge {1, 3} shares no triangle, not even a node, with {0, 2}.
        let g = octahedron();
        assert!(truss_decomposition(&g).iter().all(|&t| t == 4));
        let after = drive_truss(&g, &[&[remove(0, 2)]]);
        assert_eq!(after.at(1, 3), Some(3));
        assert_eq!(after.at(0, 2), None);
        assert_eq!(after.nodes, [3; 6]);
    }

    #[test]
    fn insertion_between_components_moves_nothing_else() {
        let g = grid(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let after = drive_truss(&g, &[&[add(2, 3)]]);
        assert_eq!(after.at(2, 3), Some(2));
        assert_eq!(after.nodes, [3, 3, 3, 3, 3, 3, 0]);
        assert_eq!(
            after.maint.work(),
            1,
            "no triangle: the new edge alone is checked"
        );
        // An isolated node's first edge, and a vertex added on the fly,
        // published one by one and in one batch.
        let grown = GraphUpdate::AddVertex {
            tokens: vec![],
            numeric: vec![],
        };
        let script = [add(6, 0), grown, add(7, 6), add(7, 0)];
        let one_by_one: Vec<&[GraphUpdate]> = script.iter().map(std::slice::from_ref).collect();
        for after in [drive_truss(&g, &one_by_one), drive_truss(&g, &[&script])] {
            assert_eq!(after.nodes, [3, 3, 3, 3, 3, 3, 3, 3]);
        }
    }

    #[test]
    fn reinserting_a_removed_edge_restores_every_value() {
        let g = octahedron();
        let script = [remove(0, 2), add(0, 2), remove(4, 1), add(1, 4)];
        // One update a batch (every intermediate state checked), then all
        // four in one batch: the same repairs, the same final table.
        let one_by_one: Vec<&[GraphUpdate]> = script.iter().map(std::slice::from_ref).collect();
        let runs = [drive_truss(&g, &one_by_one), drive_truss(&g, &[&script])];
        for back in &runs {
            assert_eq!(back.table.chunks().concat(), truss_decomposition(&g));
            assert_eq!(back.nodes, node_max_trussness(&g));
            assert!(back.maint.work() > 0, "the counter only grows");
        }
        assert_eq!(runs[0].maint.work(), runs[1].maint.work());
    }

    /// Which chunks of `a` are the very chunks of `b`.
    fn shared(a: &EdgeTrussness, b: &EdgeTrussness) -> Vec<bool> {
        let pairs = a.chunks().iter().zip(b.chunks());
        pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
    }

    /// A batch that moves no edge shares every chunk of the table it
    /// started from; an edit copies only the rows of the edge's ends and
    /// of the edges whose value it moves, and rebuilds only their chunks.
    #[test]
    fn an_edit_copies_the_rows_it_touches_and_shares_the_other_chunks() {
        let n = 3 * CHUNK as NodeId;
        let triangles: Vec<(NodeId, NodeId)> = (0..n / 3)
            .flat_map(|t| {
                [
                    (3 * t, 3 * t + 1),
                    (3 * t + 1, 3 * t + 2),
                    (3 * t, 3 * t + 2),
                ]
            })
            .collect();
        let g = Arc::new(grid(n as usize, &triangles));
        let table = EdgeTrussness::new(&g, &truss_decomposition(&g));
        let mut maint = TrussMaintainer::adopt(Arc::clone(&g), table.clone());
        let nodes = node_max_trussness(&g);
        let (same, same_nodes) = maint.publish(&g, &nodes);
        assert_eq!(shared(&same, &table), [true; 3], "no edit, no copy");
        assert_eq!(same_nodes, nodes);

        let mut mutable = MutableGraph::from_arc(Arc::clone(&g));
        mutable.apply(&add(0, n - 1)).unwrap();
        maint.insert_edge(&mutable, 0, n - 1);
        let touched: Vec<NodeId> = (0..n)
            .filter(|&v| maint.rows.edited.get(v).is_some())
            .collect();
        assert_eq!(touched, [0, n - 1], "a bridge moves no other value");
        let next = mutable.publish();
        let (published, next_nodes) = maint.publish(&next, &nodes);
        assert_eq!(shared(&published, &table), [false, true, false]);
        assert_eq!(published.chunks().concat(), truss_decomposition(&next));
        assert_eq!(next_nodes, node_max_trussness(&next));
    }

    #[test]
    fn trussness_patch_without_seeds_is_a_copy() {
        let g = grid(4, &[(0, 1), (1, 2), (2, 0)]);
        let t = node_max_trussness(&g);
        assert_eq!(patch_node_trussness(&g, &t, &[]), t);
        // Growing n without structural seeds extends with zeros.
        let g5 = grid(5, &[(0, 1), (1, 2), (2, 0)]);
        let patched = patch_node_trussness(&g5, &t, &[]);
        assert_eq!(patched.len(), 5);
        assert_eq!(patched[4], 0);
        assert_eq!(&patched[..4], &t[..]);
    }
}
