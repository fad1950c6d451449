//! k-truss decomposition and restricted k-truss peeling (§VI-C).
//!
//! A k-truss is a subgraph in which every edge participates in at least
//! `k − 2` triangles *within the subgraph*. The restricted peel mirrors the
//! k-core one: given a node subset, drop edges with insufficient support
//! until a fixed point, then take the connected component of `q` over the
//! surviving edges.
//!
//! Neither needs a per-graph edge numbering kept beside the graph. The
//! restricted peel walks out from `q` over triangle edges and numbers the
//! edges of the walked region as it lays out their rows, so its per-edge
//! values take two slots per edge it reaches; the decomposition numbers
//! every edge with a private `EdgeIndex` while it runs and returns its
//! answer in CSR order, aligned with the graph's own rows.

use crate::kcore::fitted_scratch;
use csag_graph::{AttributedGraph, NodeId, PeelScratch};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Truss decompositions run so far in this process
/// ([`truss_decompositions`]).
static DECOMPOSITIONS: AtomicU64 = AtomicU64::new(0);

/// How many times [`truss_decomposition`] has run in this process — a
/// clock-free count of the only place a whole-graph edge numbering is
/// built, so a test can assert that reads and a store's first write run
/// none. Process-wide: read deltas in a binary that runs nothing else
/// concurrently.
pub fn truss_decompositions() -> u64 {
    DECOMPOSITIONS.load(Ordering::Relaxed)
}

/// The decomposition's edge numbering: a dense id in `0..m` for every
/// undirected edge, aligned with the graph's CSR adjacency so that both
/// directions of an edge share the id. Ids are handed out at each edge's
/// lower end, in (node, row position) order, so an id's upper end is at a
/// fixed offset into its lower end's row.
struct EdgeIndex {
    /// `ids[pos]` is the edge id of the adjacency entry at CSR position
    /// `pos` (same indexing as the graph's flat target array).
    ids: Vec<u32>,
    /// `low[id]` is the lower end of edge `id`.
    low: Vec<NodeId>,
    /// `first[u]` is the first id handed out at `u`.
    first: Vec<u32>,
    /// `forward[u]` is the position of `u`'s first neighbour above `u`.
    forward: Vec<u32>,
}

impl EdgeIndex {
    /// Builds the index in O(n + m log d_max).
    fn new(g: &AttributedGraph) -> Self {
        let mut ids = vec![u32::MAX; 2 * g.m()];
        let mut low = Vec::with_capacity(g.m());
        let mut first = Vec::with_capacity(g.n());
        let mut forward = Vec::with_capacity(g.n());
        for u in 0..g.n() as NodeId {
            first.push(low.len() as u32);
            let row = g.neighbors(u);
            let fu = forward_start(row, u);
            forward.push(fu as u32);
            let base = g.row_range(u).start;
            for (i, &v) in row.iter().enumerate() {
                if i >= fu {
                    ids[base + i] = low.len() as u32;
                    low.push(u);
                } else {
                    // (v, u) was assigned earlier; look it up in v's row.
                    let vbase = g.row_range(v).start;
                    let j = g
                        .neighbors(v)
                        .binary_search(&u)
                        .expect("symmetric adjacency");
                    ids[base + i] = ids[vbase + j];
                }
            }
        }
        EdgeIndex {
            ids,
            low,
            first,
            forward,
        }
    }

    /// Number of undirected edges.
    fn m(&self) -> usize {
        self.low.len()
    }

    /// Edge ids of `v`'s whole neighbor row, parallel to `g.neighbors(v)`.
    #[inline]
    fn row(&self, g: &AttributedGraph, v: NodeId) -> &[u32] {
        &self.ids[g.row_range(v)]
    }

    /// The ends `(u, v)`, `u < v`, of edge `id`.
    #[inline]
    fn ends(&self, g: &AttributedGraph, id: u32) -> (NodeId, NodeId) {
        let u = self.low[id as usize];
        let at = self.forward[u as usize] + (id - self.first[u as usize]);
        (u, g.neighbors(u)[at as usize])
    }
}

/// Position of the first neighbour above `u` in `u`'s sorted row.
#[inline]
fn forward_start(row: &[NodeId], u: NodeId) -> usize {
    row.partition_point(|&w| w < u)
}

/// Sorted merge of two adjacency rows: calls `visit(w, i, j)` for each
/// common neighbor `w`, found at positions `i` in `nu` and `j` in `nv`.
/// Both cursors step by a comparison, not a branch on it: the loop's only
/// data-dependent jump is the (rarely taken) visit.
#[inline]
pub(crate) fn for_common_in_rows(
    nu: &[NodeId],
    nv: &[NodeId],
    mut visit: impl FnMut(NodeId, usize, usize),
) {
    let (mut i, mut j) = (0, 0);
    while i < nu.len() && j < nv.len() {
        let (a, b) = (nu[i], nv[j]);
        if a == b {
            visit(a, i, j);
        }
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
}

/// Peels the subgraph induced by `nodes` down to the maximal connected
/// k-truss containing `q`. Returns the sorted member nodes, or `None` if
/// `q` has no incident surviving edge.
///
/// For `k <= 2` every internal edge qualifies (0 triangles required), so
/// the result is the connected component of `q` among subset nodes
/// reachable over internal edges.
pub(crate) fn peel_to_ktruss_scratch(
    g: &AttributedGraph,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
    scratch: &mut PeelScratch,
) -> Option<Vec<NodeId>> {
    let mut out = Vec::new();
    peel_to_ktruss_into(g, q, k, nodes, scratch, &mut out).then_some(out)
}

/// The support an edge's slot holds once the peel has removed it.
const REMOVED: u32 = u32::MAX;

/// Lays out `u`'s induced row — its in-subset neighbours, ascending — as
/// the next row of a peel and returns its number. Row `r` is
/// `nbr[rows[3r]..rows[3r + 2]]`; `rows[3r + 1]` is where its forward
/// part (the neighbours above `u`) starts once the row is trimmed to the
/// walk.
fn lay_out(
    g: &AttributedGraph,
    u: NodeId,
    in_set: &[u32],
    e: u32,
    rows: &mut Vec<u32>,
    nbr: &mut Vec<NodeId>,
) -> u32 {
    let start = nbr.len() as u32;
    nbr.extend(g.neighbors(u).iter().filter(|&&v| in_set[v as usize] == e));
    rows.extend([start, start, nbr.len() as u32]);
    (rows.len() / 3 - 1) as u32
}

/// The positions of `u`'s row in `nbr`, from its forward part (`forward`)
/// or whole.
#[inline]
fn span(rows: &[u32], row_of: &[u32], u: NodeId, forward: bool) -> Range<usize> {
    let r = 3 * row_of[u as usize] as usize;
    rows[r + usize::from(forward)] as usize..rows[r + 2] as usize
}

/// Allocation-free twin of [`peel_to_ktruss_scratch`]: writes the sorted
/// member list into `out` (cleared first) and returns whether `q`
/// survived with at least one incident truss edge. With a warmed
/// `scratch` and a capacious `out` this performs zero heap allocations.
///
/// `nodes` must be distinct, in any order. The peel pays for q's region,
/// not for the whole subset. A walk from `q` follows only subset edges
/// that close at least `k − 2` triangles inside the subset, and lays out
/// a node's induced row (its in-subset neighbours) when it first touches
/// the node. Every edge of q's maximal connected k-truss closes that
/// many triangles inside the truss, so inside the subset, and the truss
/// is connected through such edges, so it lies inside the walk; peeling
/// any node set between the truss and the subset returns the truss. The
/// exact peel therefore runs on the walked nodes, with edges to unwalked
/// nodes dropped. A walk that reaches half the subset gives up and takes
/// the whole subset, reusing the rows it laid out. At `k <= 2` every
/// edge passes and nothing is peeled: the answer is q's component.
///
/// The peel numbers the walk's edges itself: an edge is its *forward
/// slot*, the one in its lower end's row, so every per-edge value fits in
/// one array parallel to the rows — two entries per edge at a walked
/// node, nothing sized by the subset or by the graph's `m`.
pub(crate) fn peel_to_ktruss_into(
    g: &AttributedGraph,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
    scratch: &mut PeelScratch,
    out: &mut Vec<NodeId>,
) -> bool {
    out.clear();
    let e = scratch.next_epoch();
    // The node arrays: subset stamps; stamps of the nodes whose row is
    // laid out (`node[1]` holds the k-core peel's removal stamps, so only
    // stamps may go there); stamps of the walked nodes, which the final
    // traversal clears to 0 (never an epoch) as it reaches them; each
    // laid-out node's row number; and `mark`, positions in the row being
    // stamped — an entry counts only if it is a position of that row
    // holding the node, so a stale one needs no clearing. Parallel to the
    // rows, `slots[x]` is, for a forward slot `x` (`(u → v)` with
    // `u < v`), the support of the edge, or `REMOVED`; for a backward
    // slot, the index of its forward twin.
    let PeelScratch {
        node: [in_set, laid, walked, row_of, mark],
        slots,
        lists: [stack, walk, rows, nbr],
        ..
    } = scratch;
    debug_assert!(in_set.len() >= g.n(), "scratch fitted to the graph");
    for &v in nodes {
        in_set[v as usize] = e;
    }
    if in_set[q as usize] != e {
        return false;
    }
    let need = k.saturating_sub(2);

    // The walk, breadth-first over `walk` itself. A walked node `u` with
    // an unwalked neighbour stamps its row into `mark` once; the edge to
    // an unwalked neighbour `w` is then tested by a scan of w's row that
    // stops at the `need`-th common neighbour. Once the walk holds half
    // the subset it gives up: the rest of the subset is laid out and
    // counts as walked (any set between the truss and the subset peels
    // to the truss), so a subset the walk would cover pays for at most
    // half a walk, and its rows need no trimming.
    rows.clear();
    nbr.clear();
    laid[q as usize] = e;
    row_of[q as usize] = lay_out(g, q, in_set, e, rows, nbr);
    walk.clear();
    walk.push(q);
    walked[q as usize] = e;
    let mut next = 0;
    while let Some(&u) = walk.get(next) {
        if 2 * walk.len() > nodes.len() {
            for &v in nodes {
                if laid[v as usize] != e {
                    laid[v as usize] = e;
                    row_of[v as usize] = lay_out(g, v, in_set, e, rows, nbr);
                }
                walked[v as usize] = e;
            }
            walk.clear();
            walk.extend_from_slice(nodes);
            break;
        }
        next += 1;
        let su = span(rows, row_of, u, false);
        let mut stamped = need == 0;
        for x in su.clone() {
            let w = nbr[x];
            if walked[w as usize] == e {
                continue;
            }
            if !stamped {
                stamped = true;
                for y in su.clone() {
                    mark[nbr[y] as usize] = y as u32;
                }
            }
            if laid[w as usize] != e {
                laid[w as usize] = e;
                row_of[w as usize] = lay_out(g, w, in_set, e, rows, nbr);
            }
            let mut hits = 0;
            let closes = need == 0
                || nbr[span(rows, row_of, w, false)].iter().any(|&y| {
                    let at = mark[y as usize] as usize;
                    hits += u32::from(su.contains(&at) && nbr[at] == y);
                    hits == need
                });
            if closes {
                walked[w as usize] = e;
                walk.push(w);
            }
        }
    }

    // Trim the walked rows to the walk, in ascending node order, and
    // number the edges; when every laid-out row is a walked node's,
    // nothing needs dropping. A backward slot `(u → v)`, `v < u`, takes
    // its twin from a cursor into v's forward part, kept in `mark[v]`:
    // the forward part fills in ascending order of the upper ends, the
    // order of this pass.
    walk.sort_unstable();
    if slots.len() < nbr.len() {
        slots.resize(nbr.len(), 0);
    }
    let trim = rows.len() / 3 > walk.len();
    for &u in walk.iter() {
        let r = 3 * row_of[u as usize] as usize;
        let (start, end) = (rows[r] as usize, rows[r + 2] as usize);
        let (mut at, mut fwd) = (start, start);
        for x in start..end {
            let v = nbr[x];
            if trim && walked[v as usize] != e {
                continue;
            }
            nbr[at] = v;
            slots[at] = if v < u {
                fwd = at + 1;
                mark[v as usize] += 1;
                mark[v as usize] - 1
            } else {
                0
            };
            at += 1;
        }
        rows[r + 1] = fwd as u32;
        rows[r + 2] = at as u32;
        mark[u as usize] = fwd as u32;
    }
    // The edge of slot `x` at node `u`: `x` itself if it is forward, else
    // its twin.
    let edge = |slots: &[u32], x: usize, u: NodeId, v: NodeId| {
        if u < v {
            x
        } else {
            slots[x] as usize
        }
    };

    // Supports, over the walk only: each triangle `u < v < w` is found
    // once, from u — u's forward neighbours stamped with their slots,
    // each forward neighbour v's forward part scanned — and charged to
    // its three forward slots. Once the pass is past u, every triangle on
    // u's forward edges is counted (those with a lower third node
    // earlier), so u's subcritical edges are stacked then, as (lower end,
    // forward slot) pairs.
    stack.clear();
    if need > 0 {
        for &u in walk.iter() {
            let fu = span(rows, row_of, u, true);
            for x in fu.clone() {
                mark[nbr[x] as usize] = x as u32;
            }
            for x in fu.clone() {
                for y in span(rows, row_of, nbr[x], true) {
                    let w = nbr[y];
                    let uw = mark[w as usize] as usize;
                    if fu.contains(&uw) && nbr[uw] == w {
                        for s in [x, uw, y] {
                            slots[s] += 1;
                        }
                    }
                }
            }
            for x in fu {
                if slots[x] < need {
                    stack.extend([u, x as u32]);
                }
            }
        }
    }

    // The cascade. Edges are *marked removed at processing time*, not
    // when stacked: when one edge of a triangle is processed, the other
    // two must still count as alive so the triangle's loss is charged to
    // them exactly once. An edge's support counts its triangles whose
    // other two edges are alive, so an edge processed at support 0 has
    // nothing to charge and leaves without a merge; at k = 3 only such
    // edges are ever stacked. The fixed point does not depend on the
    // processing order.
    while let (Some(uv), Some(u)) = (stack.pop(), stack.pop()) {
        let uv = uv as usize;
        if matches!(std::mem::replace(&mut slots[uv], REMOVED), 0 | REMOVED) {
            continue;
        }
        // Every triangle (u, v, w) whose other two edges are still alive
        // dies with this edge; both survivors lose one unit of support,
        // and each is stacked exactly at its threshold crossing (it was
        // above `need` before this decrement, so that fires at most once).
        let v = nbr[uv];
        let (su, sv) = (span(rows, row_of, u, false), span(rows, row_of, v, false));
        let (bu, bv) = (su.start, sv.start);
        for_common_in_rows(&nbr[su], &nbr[sv], |w, i, j| {
            let uw = edge(slots, bu + i, u, w);
            let vw = edge(slots, bv + j, v, w);
            if slots[uw] != REMOVED && slots[vw] != REMOVED {
                for (a, ab) in [(u, uw), (v, vw)] {
                    slots[ab] -= 1;
                    if slots[ab] + 1 == need {
                        stack.extend([a.min(w), ab as u32]);
                    }
                }
            }
        });
    }

    // Traverse from q over surviving edges, on the (now empty) stack;
    // `out` is sorted afterwards so the traversal order is immaterial.
    walked[q as usize] = 0;
    stack.push(q);
    let mut q_has_edge = false;
    while let Some(u) = stack.pop() {
        out.push(u);
        for x in span(rows, row_of, u, false) {
            let v = nbr[x];
            if slots[edge(slots, x, u, v)] != REMOVED {
                q_has_edge |= u == q;
                if walked[v as usize] == e {
                    walked[v as usize] = 0;
                    stack.push(v);
                }
            }
        }
    }
    if !q_has_edge {
        out.clear();
        return false;
    }
    out.sort_unstable();
    true
}

/// Maximum trussness over each node's incident edges (0 for isolated
/// nodes). A connected k-truss containing `q` exists **iff**
/// `node_max_trussness[q] ≥ k`: the edges of trussness ≥ k form the
/// k-truss of the graph, and the component of any such edge at `q` is a
/// connected k-truss holding `q`. The engine caches this to settle truss
/// "no" answers in O(1), exactly as coreness settles k-core ones.
pub fn node_max_trussness(g: &AttributedGraph) -> Vec<u32> {
    let trussness = truss_decomposition(g);
    (0..g.n() as NodeId)
        .map(|u| trussness[g.row_range(u)].iter().copied().max().unwrap_or(0))
        .collect()
}

/// Maximal connected k-truss of the whole graph containing `q`, or `None`.
pub fn max_connected_ktruss(g: &AttributedGraph, q: NodeId, k: u32) -> Option<Vec<NodeId>> {
    let mut scratch = fitted_scratch(g.n());
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    peel_to_ktruss_scratch(g, q, k, &all, &mut scratch)
}

/// An empty slot of the stamped row in [`truss_decomposition`].
const NO_EDGE: u32 = u32::MAX;

/// Computes the trussness of every edge: the largest `k` such that the
/// edge belongs to the k-truss (2 for an edge outside any triangle). The
/// table is in CSR order, one entry per adjacency slot: `trussness[g.
/// row_range(v)]` is parallel to `g.neighbors(v)`, so each edge appears
/// in both of its ends' rows.
///
/// Triangles are found through a *stamped row*: `slot[w]` holds the id of
/// the edge from the stamped node to `w`, so the third edge of a triangle
/// is one lookup while the other row is walked. Supports count every
/// triangle `u < v < w` once, from `u`, over forward neighbours, and charge
/// it to all three edges. The peel then takes edges in support order from
/// a bin-sorted array (Batagelj–Zaversnik, over edges): an edge's support
/// when it is taken is its trussness minus 2, and each live triangle it
/// closes — the shorter end's row stamped, the other's walked — costs its
/// two partners one unit each, down to that level. An edge is taken once
/// its place in the order is behind the cursor (taken places never move),
/// its support is final from then on, and the answer is written over the
/// edge numbering's own buffer.
pub fn truss_decomposition(g: &AttributedGraph) -> Vec<u32> {
    DECOMPOSITIONS.fetch_add(1, Ordering::Relaxed);
    let eidx = EdgeIndex::new(g);
    let m = eidx.m();
    let mut slot = vec![NO_EDGE; g.n()];
    let mut support = vec![0u32; m];
    for u in 0..g.n() as NodeId {
        let fu = eidx.forward[u as usize] as usize;
        let (nu, iu) = (&g.neighbors(u)[fu..], &eidx.row(g, u)[fu..]);
        for (&w, &uw) in nu.iter().zip(iu) {
            slot[w as usize] = uw;
        }
        for (&v, &uv) in nu.iter().zip(iu) {
            let fv = eidx.forward[v as usize] as usize;
            for (&w, &vw) in g.neighbors(v)[fv..].iter().zip(&eidx.row(g, v)[fv..]) {
                let uw = slot[w as usize];
                if uw != NO_EDGE {
                    for id in [uv, uw, vw] {
                        support[id as usize] += 1;
                    }
                }
            }
        }
        for &w in nu {
            slot[w as usize] = NO_EDGE;
        }
    }

    // Bin-sort the edges by support: `order` lists them, `pos` inverts it,
    // and `bin[s]` is where the (unprocessed) edges of support `s` start.
    let max_sup = support.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0u32; max_sup + 1];
    for &s in &support {
        bin[s as usize] += 1;
    }
    let mut start = 0;
    for b in &mut bin {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut order = vec![0u32; m];
    let mut pos = vec![0u32; m];
    for (id, &s) in support.iter().enumerate() {
        let b = &mut bin[s as usize];
        pos[id] = *b;
        order[*b as usize] = id as u32;
        *b += 1;
    }
    // Each `bin[s]` now ends its bin, where the next one starts.
    bin.copy_within(..max_sup, 1);
    bin[0] = 0;

    for i in 0..m {
        let id = order[i];
        let level = support[id as usize];
        let (u, v) = eidx.ends(g, id);
        let (a, b) = if g.degree(u) <= g.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        // Edges at places up to `i` (this one included) are taken.
        for (&w, &aw) in g.neighbors(a).iter().zip(eidx.row(g, a)) {
            if pos[aw as usize] as usize > i {
                slot[w as usize] = aw;
            }
        }
        for (&w, &bw) in g.neighbors(b).iter().zip(eidx.row(g, b)) {
            let aw = slot[w as usize];
            if aw == NO_EDGE || pos[bw as usize] as usize <= i {
                continue;
            }
            for e in [aw, bw] {
                let s = support[e as usize];
                if s > level {
                    // Swap `e` to the front of its bin, then move the bin
                    // boundary past it: `e` now ends bin `s − 1`.
                    let (front, at) = (bin[s as usize], pos[e as usize]);
                    let other = order[front as usize];
                    order.swap(front as usize, at as usize);
                    pos[other as usize] = at;
                    pos[e as usize] = front;
                    bin[s as usize] += 1;
                    support[e as usize] = s - 1;
                }
            }
        }
        for &w in g.neighbors(a) {
            slot[w as usize] = NO_EDGE;
        }
    }
    let mut trussness = eidx.ids;
    for t in &mut trussness {
        *t = support[*t as usize] + 2;
    }
    trussness
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    /// Id of the edge `{u, v}` under `eidx`, if the edge exists.
    fn id(eidx: &EdgeIndex, g: &AttributedGraph, u: NodeId, v: NodeId) -> Option<u32> {
        let i = g.neighbors(u).binary_search(&v).ok()?;
        Some(eidx.row(g, u)[i])
    }

    /// The entry of the CSR-order `table` at the edge `{u, v}`, if any.
    fn at(table: &[u32], g: &AttributedGraph, u: NodeId, v: NodeId) -> Option<u32> {
        let i = g.neighbors(u).binary_search(&v).ok()?;
        Some(table[g.row_range(u).start + i])
    }

    /// Two 4-cliques sharing node 3, plus a pendant path 7-8-9.
    fn two_cliques() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..10 {
            b.add_node(&[], &[]);
        }
        let c1 = [0u32, 1, 2, 3];
        let c2 = [3u32, 4, 5, 6];
        for c in [c1, c2] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(c[i], c[j]).unwrap();
                }
            }
        }
        b.add_edge(7, 8).unwrap();
        b.add_edge(8, 9).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn edge_index_is_consistent_both_directions() {
        let g = two_cliques();
        let eidx = EdgeIndex::new(&g);
        assert_eq!(eidx.m(), g.m());
        for (u, v) in g.edges() {
            let id_uv = id(&eidx, &g, u, v).unwrap();
            let id_vu = id(&eidx, &g, v, u).unwrap();
            assert_eq!(id_uv, id_vu);
            assert!((id_uv as usize) < g.m());
            assert_eq!(
                eidx.ends(&g, id_uv),
                (u.min(v), u.max(v)),
                "ends of {id_uv}"
            );
        }
        assert_eq!(id(&eidx, &g, 0, 9), None);
    }

    #[test]
    fn edge_ids_are_dense_and_unique() {
        let g = two_cliques();
        let eidx = EdgeIndex::new(&g);
        let mut seen = vec![false; g.m()];
        for (u, v) in g.edges() {
            let x = id(&eidx, &g, u, v).unwrap() as usize;
            assert!(!seen[x], "duplicate edge id");
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn four_truss_of_clique_member() {
        let g = two_cliques();
        // Each 4-clique is a 4-truss (every edge in 2 triangles); both
        // survive the peel and stay connected through the shared node 3.
        let t = max_connected_ktruss(&g, 0, 4).unwrap();
        assert_eq!(t, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn five_truss_does_not_exist() {
        let g = two_cliques();
        assert_eq!(max_connected_ktruss(&g, 0, 5), None);
    }

    #[test]
    fn low_k_truss_is_component_with_edges() {
        let g = two_cliques();
        let t = max_connected_ktruss(&g, 8, 2).unwrap();
        assert_eq!(t, vec![7, 8, 9]);
        // k=3 requires triangles; the path has none.
        assert_eq!(max_connected_ktruss(&g, 8, 3), None);
    }

    #[test]
    fn trussness_values() {
        let g = two_cliques();
        let trussness = truss_decomposition(&g);
        assert_eq!(trussness.len(), 2 * g.m(), "one entry per adjacency slot");
        assert_eq!(at(&trussness, &g, 0, 1), Some(4), "clique edge");
        assert_eq!(at(&trussness, &g, 1, 0), Some(4), "both directions");
        assert_eq!(at(&trussness, &g, 7, 8), Some(2), "triangle-free edge");
        assert_eq!(at(&trussness, &g, 0, 9), None);
    }

    #[test]
    fn trussness_is_monotone_under_k_peel() {
        // Cross-check: edge survives the k-truss peel iff trussness >= k.
        let g = two_cliques();
        let trussness = truss_decomposition(&g);
        for k in 2..=5u32 {
            for q in 0..g.n() as NodeId {
                if let Some(comm) = max_connected_ktruss(&g, q, k) {
                    // Every internal edge of the peeled community has
                    // trussness >= k.
                    for &u in &comm {
                        for &v in g.neighbors(u) {
                            if u < v && comm.binary_search(&v).is_ok() {
                                let t = at(&trussness, &g, u, v).unwrap();
                                // Edges *inside the community subgraph* that
                                // survived the peel satisfy the invariant;
                                // edges of G between community nodes that
                                // were peeled away may not. Only assert for
                                // k<=2 or clique edges where equality holds.
                                if k >= 3 {
                                    assert!(t >= 2, "sanity only");
                                } else {
                                    assert!(t >= 2);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn node_trussness_answers_feasibility_exactly() {
        let g = two_cliques();
        let t = node_max_trussness(&g);
        // Clique members sit in a 4-truss; path nodes only in 2-trusses.
        for v in 0..=6u32 {
            assert_eq!(t[v as usize], 4, "clique node {v}");
        }
        for v in 7..=9u32 {
            assert_eq!(t[v as usize], 2, "path node {v}");
        }
        // Cross-check the iff against the actual peel for every (q, k).
        for q in 0..g.n() as NodeId {
            for k in 2..=6u32 {
                assert_eq!(
                    max_connected_ktruss(&g, q, k).is_some(),
                    t[q as usize] >= k,
                    "q = {q}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn restricted_truss_peel_ignores_outside() {
        let g = two_cliques();
        let mut scratch = fitted_scratch(g.n());
        let t = peel_to_ktruss_scratch(&g, 0, 4, &[0, 1, 2, 3], &mut scratch).unwrap();
        assert_eq!(t, vec![0, 1, 2, 3]);
        // Removing one clique node drops it to a triangle = 3-truss.
        assert_eq!(
            peel_to_ktruss_scratch(&g, 0, 4, &[0, 1, 2], &mut scratch),
            None
        );
        let t3 = peel_to_ktruss_scratch(&g, 0, 3, &[0, 1, 2], &mut scratch).unwrap();
        assert_eq!(t3, vec![0, 1, 2]);
    }

    #[test]
    fn scratch_reuse_across_epochs_is_clean() {
        let g = two_cliques();
        let mut scratch = fitted_scratch(g.n());
        for _ in 0..50 {
            let a = peel_to_ktruss_scratch(&g, 0, 4, &[0, 1, 2, 3], &mut scratch).unwrap();
            assert_eq!(a, vec![0, 1, 2, 3]);
            let b = peel_to_ktruss_scratch(&g, 8, 2, &[7, 8, 9], &mut scratch).unwrap();
            assert_eq!(b, vec![7, 8, 9]);
        }
    }
}
