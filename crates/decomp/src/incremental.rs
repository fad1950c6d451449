//! Incremental decomposition maintenance under graph updates.
//!
//! The engine's evolving-graph store applies [`csag_graph::GraphUpdate`]
//! batches and must keep its cached decompositions consistent without
//! recomputing them from scratch on every epoch.
//!
//! # Trussness: [`TrussMaintainer`], a local per-edge repair
//!
//! The store's one truss repair path. It holds the trussness of every
//! edge and fixes it up after each single edge toggle, touching only the
//! edges that change and their triangle neighbours. Soundness rests on a
//! characterization and two bounds, not on a peel order:
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

use crate::kcore::core_decomposition;
use crate::ktruss::{for_common_in_rows, node_max_trussness, truss_decomposition};
use csag_graph::{AttributedGraph, MutableGraph, NodeId};

/// Neighbor access shared by the immutable CSR graph and the evolving
/// store's [`MutableGraph`] edit overlay, so the core repair can run
/// directly on whichever representation holds the *post-update* adjacency.
pub trait NeighborAccess {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Sorted neighbor list of `v`.
    fn neighbors_of(&self, v: NodeId) -> &[NodeId];
}

impl NeighborAccess for AttributedGraph {
    fn node_count(&self) -> usize {
        self.n()
    }
    fn neighbors_of(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }
}

impl NeighborAccess for MutableGraph {
    fn node_count(&self) -> usize {
        self.n()
    }
    fn neighbors_of(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }
}

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
        Self::from_coreness(core_decomposition(g))
    }

    /// Adopts already-computed core numbers (must match the current graph).
    pub fn from_coreness(core: Vec<u32>) -> Self {
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
    fn collect_candidates<A: NeighborAccess>(&mut self, g: &A, roots: [Option<NodeId>; 2], e: u32) {
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
            for &x in g.neighbors_of(w) {
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
    pub fn insert_edge<A: NeighborAccess>(&mut self, g: &A, u: NodeId, v: NodeId) {
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
            for &x in g.neighbors_of(w) {
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
            for &x in g.neighbors_of(w) {
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
    pub fn remove_edge<A: NeighborAccess>(&mut self, g: &A, u: NodeId, v: NodeId) {
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
            for &x in g.neighbors_of(w) {
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
            for &x in g.neighbors_of(w) {
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
/// the top bit of its `tau` slots (trussness is at most the maximum
/// degree plus one, nowhere near `2^31`).
const CANDIDATE: u32 = 1 << 31;

/// Incrementally maintained trussness of every edge of an evolving
/// graph, and the per-node maximum the engine screens k-truss queries
/// with. See the [module docs](self) for why the repair is exact.
///
/// Seed it from the initial graph — or from its decomposition, when one
/// is at hand ([`TrussMaintainer::from_decomposition`]) — then report
/// every structural change through [`TrussMaintainer::insert_edge`] /
/// [`TrussMaintainer::remove_edge`] (passing the adjacency *after* the
/// change) and [`TrussMaintainer::add_vertex`];
/// [`TrussMaintainer::node_trussness`] is then always equal to a
/// from-scratch [`node_max_trussness`] of the current graph. A repair
/// visits the changed edges and their triangle neighbours only —
/// [`TrussMaintainer::work`] counts the steps.
#[derive(Clone, Debug)]
pub struct TrussMaintainer {
    /// `tau[v][i]` is the trussness of the edge `{v, neighbors_of(v)[i]}`:
    /// rows parallel to the adjacency, every edge in both endpoints' rows,
    /// so a triangle's two partner values fall out of the row merge.
    tau: Vec<Vec<u32>>,
    /// Maximum of each `tau` row (0 for an isolated node).
    node_max: Vec<u32>,
    work: u64,
    /// Edges whose support must be re-checked by `settle`.
    queue: Vec<(NodeId, NodeId)>,
    /// Rise candidates of the current insertion, in visit order.
    candidates: Vec<(NodeId, NodeId)>,
    /// Nodes that lost an edge at their maximum during this repair.
    dirty: Vec<NodeId>,
    /// Partner minima of the new edge's triangles (for its bound).
    mins: Vec<u32>,
}

impl TrussMaintainer {
    /// Decomposes `g` once and lays the edge trussness out in rows.
    pub fn new(g: &AttributedGraph) -> Self {
        Self::from_decomposition(g, &truss_decomposition(g))
    }

    /// Adopts a finished decomposition of `g` — the CSR-order table
    /// [`truss_decomposition`] returns — and only copies it out in rows.
    pub fn from_decomposition(g: &AttributedGraph, trussness: &[u32]) -> Self {
        let tau: Vec<Vec<u32>> = (0..g.n() as NodeId)
            .map(|v| trussness[g.row_range(v)].to_vec())
            .collect();
        let node_max = tau.iter().map(|row| row_max(row)).collect();
        TrussMaintainer {
            tau,
            node_max,
            work: 0,
            queue: Vec::new(),
            candidates: Vec::new(),
            dirty: Vec::new(),
            mins: Vec::new(),
        }
    }

    /// Maximum trussness over each node's incident edges.
    pub fn node_trussness(&self) -> &[u32] {
        &self.node_max
    }

    /// The maintained trussness of the edge `{u, v}` of `g` (the current
    /// adjacency), or `None` when `g` has no such edge.
    pub fn trussness_of<A: NeighborAccess>(&self, g: &A, u: NodeId, v: NodeId) -> Option<u32> {
        let row = &self.tau[u as usize];
        debug_assert_eq!(row.len(), g.neighbors_of(u).len(), "row {u} misaligned");
        g.neighbors_of(u).binary_search(&v).ok().map(|i| row[i])
    }

    /// Steps taken by every repair so far: one per support re-check, one
    /// per rise candidate visited. Monotone; a clock-free measure of how
    /// local the repairs are.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Registers a new isolated vertex (no edges, node trussness 0).
    pub fn add_vertex(&mut self) {
        self.tau.push(Vec::new());
        self.node_max.push(0);
    }

    /// Repairs the table after the edge `{u, v}` was inserted; `g` must
    /// already contain the edge.
    pub fn insert_edge<A: NeighborAccess>(&mut self, g: &A, u: NodeId, v: NodeId) {
        let (nu, nv) = (g.neighbors_of(u), g.neighbors_of(v));
        // Open the two slots first so every row is aligned with `g`. A
        // common neighbour is neither `u` nor `v`, so the merges below
        // never read them before they are set.
        self.tau[u as usize].insert(slot(nu, v), 0);
        self.tau[v as usize].insert(slot(nv, u), 0);

        // k2: the largest k with k − 2 triangles whose partners are both
        // at k − 1 or more (they can rise by one, no further).
        let (tu, tv) = (&self.tau[u as usize], &self.tau[v as usize]);
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
            let (nx, ny) = (g.neighbors_of(x), g.neighbors_of(y));
            let (tx, ty) = (&self.tau[x as usize], &self.tau[y as usize]);
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
            let raised = (self.tau[x as usize][slot(g.neighbors_of(x), y)] & !CANDIDATE) + 1;
            self.set(g, x, y, raised);
            self.queue.push((x, y));
        }
        self.settle(g);
    }

    /// Repairs the table after the edge `{u, v}` was removed; `g` must no
    /// longer contain the edge.
    pub fn remove_edge<A: NeighborAccess>(&mut self, g: &A, u: NodeId, v: NodeId) {
        let (nu, nv) = (g.neighbors_of(u), g.neighbors_of(v));
        // Where the neighbour would be inserted is where its slot was.
        let gone = self.tau[u as usize].remove(nu.binary_search(&v).unwrap_err());
        self.tau[v as usize].remove(nv.binary_search(&u).unwrap_err());
        for x in [u, v] {
            if self.node_max[x as usize] == gone {
                self.dirty.push(x);
            }
        }
        // Only an edge that counted the lost triangle can now fall short.
        let (tu, tv) = (&self.tau[u as usize], &self.tau[v as usize]);
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

    /// Writes `value` into both slots of the edge `{a, b}` and keeps the
    /// node maxima: a rise lifts them at once, a fall from the maximum
    /// marks the endpoint dirty, to be recomputed when `settle` is done.
    fn set<A: NeighborAccess>(&mut self, g: &A, a: NodeId, b: NodeId, value: u32) {
        for (x, y) in [(a, b), (b, a)] {
            let cell = &mut self.tau[x as usize][slot(g.neighbors_of(x), y)];
            let old = std::mem::replace(cell, value) & !CANDIDATE;
            let max = &mut self.node_max[x as usize];
            if value > *max {
                *max = value;
            } else if value < old && old == *max {
                self.dirty.push(x);
            }
        }
    }

    /// Flags both slots of `candidates[from..]` as visited.
    fn flag_candidates<A: NeighborAccess>(&mut self, g: &A, from: usize) {
        for &(x, y) in &self.candidates[from..] {
            for (a, b) in [(x, y), (y, x)] {
                self.tau[a as usize][slot(g.neighbors_of(a), b)] |= CANDIDATE;
            }
        }
    }

    /// Drains the queue: an edge at level `k` with fewer than `k − 2`
    /// triangles whose partners are both at `k` or more drops to `k − 1`,
    /// which costs exactly the partners at level `k` of those triangles
    /// one unit of support — they, and the edge itself, are re-checked.
    fn settle<A: NeighborAccess>(&mut self, g: &A) {
        while let Some((a, b)) = self.queue.pop() {
            self.work += 1;
            let (na, nb) = (g.neighbors_of(a), g.neighbors_of(b));
            let (ta, tb) = (&self.tau[a as usize], &self.tau[b as usize]);
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
        for x in self.dirty.drain(..) {
            self.node_max[x as usize] = row_max(&self.tau[x as usize]);
        }
    }
}

/// Position of `b` in the sorted neighbor row `row`.
fn slot(row: &[NodeId], b: NodeId) -> usize {
    row.binary_search(&b).expect("edge is in the adjacency")
}

fn row_max(row: &[u32]) -> u32 {
    row.iter().copied().max().unwrap_or(0)
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

    /// Drives a `MutableGraph` + `TrussMaintainer` through a churn script,
    /// asserting after every single step that each `tau` row is aligned
    /// with the adjacency and holds the decomposition's value for its
    /// edge, and that the node table is the per-row maximum.
    fn drive_truss(initial: &AttributedGraph, script: &[GraphUpdate]) -> TrussMaintainer {
        let mut mutable = MutableGraph::from_graph(initial);
        let mut maint = TrussMaintainer::new(initial);
        for update in script {
            match mutable.apply(update).unwrap() {
                csag_graph::Applied::EdgeAdded(u, v) => maint.insert_edge(&mutable, u, v),
                csag_graph::Applied::EdgeRemoved(u, v) => maint.remove_edge(&mutable, u, v),
                csag_graph::Applied::VertexAdded(_) => maint.add_vertex(),
                csag_graph::Applied::AttributesSet(_) | csag_graph::Applied::NoOp => {}
            }
            let snap = mutable.snapshot();
            let fresh = truss_decomposition(&snap);
            assert_eq!(maint.tau.len(), snap.n());
            for v in 0..snap.n() as NodeId {
                let want = &fresh[snap.row_range(v)];
                assert_eq!(maint.tau[v as usize], want, "row {v} after {update:?}");
            }
            assert_eq!(maint.node_trussness(), node_max_trussness(&snap));
        }
        assert!(maint.queue.is_empty() && maint.dirty.is_empty());
        maint
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
        let before = TrussMaintainer::new(&g);
        assert!(before.tau.iter().flatten().all(|&t| t == 4));
        let after = drive_truss(&g, &[add(0, 1)]);
        assert!(after.tau.iter().flatten().all(|&t| t == 5));
        assert_eq!(after.node_trussness(), &[5; 5]);
    }

    #[test]
    fn deletion_cascades_two_hops() {
        // Removing {0, 2} costs its four triangle partners their second
        // triangle; their fall takes the rest of the level with it — the
        // edge {1, 3} shares no triangle, not even a node, with {0, 2}.
        let g = octahedron();
        let before = TrussMaintainer::new(&g);
        assert_eq!(before.trussness_of(&g, 1, 3), Some(4));
        let mut mutable = MutableGraph::from_graph(&g);
        mutable.apply(&remove(0, 2)).unwrap();
        let after = drive_truss(&g, &[remove(0, 2)]);
        assert_eq!(after.trussness_of(&mutable, 1, 3), Some(3));
        assert_eq!(after.trussness_of(&mutable, 0, 2), None);
        assert_eq!(after.node_trussness(), &[3; 6]);
    }

    #[test]
    fn insertion_between_components_moves_nothing_else() {
        let g = grid(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let mut mutable = MutableGraph::from_graph(&g);
        mutable.apply(&add(2, 3)).unwrap();
        let after = drive_truss(&g, &[add(2, 3)]);
        assert_eq!(after.trussness_of(&mutable, 2, 3), Some(2));
        assert_eq!(after.node_trussness(), &[3, 3, 3, 3, 3, 3, 0]);
        assert_eq!(
            after.work(),
            1,
            "no triangle: the new edge alone is checked"
        );
        // An isolated node's first edge, and a vertex added on the fly.
        let grown = GraphUpdate::AddVertex {
            tokens: vec![],
            numeric: vec![],
        };
        let after = drive_truss(&g, &[add(6, 0), grown, add(7, 6), add(7, 0)]);
        assert_eq!(after.node_trussness(), &[3, 3, 3, 3, 3, 3, 3, 3]);
    }

    #[test]
    fn reinserting_a_removed_edge_restores_every_value() {
        let g = octahedron();
        let seeded = TrussMaintainer::new(&g);
        let back = drive_truss(&g, &[remove(0, 2), add(0, 2), remove(4, 1), add(1, 4)]);
        assert_eq!(back.tau, seeded.tau);
        assert_eq!(back.node_trussness(), seeded.node_trussness());
        assert!(back.work() > seeded.work(), "the counter only grows");
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
