//! k-core decomposition and restricted k-core peeling.

use csag_graph::{AttributedGraph, NodeId, PeelScratch};

/// Computes the coreness of every node with the O(n + m) bucket-peeling
/// algorithm of Batagelj & Zaversnik.
///
/// `coreness[v]` is the largest `k` such that `v` belongs to the k-core
/// of the graph.
pub fn core_decomposition(g: &AttributedGraph) -> Vec<u32> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut deg: Vec<u32> = (0..n as NodeId).map(|v| g.degree(v) as u32).collect();
    let max_deg = *deg.iter().max().unwrap() as usize;

    // Bucket sort nodes by degree.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for i in 1..bin.len() {
        bin[i] += bin[i - 1];
    }
    let mut pos = vec![0usize; n]; // position of node in `vert`
    let mut vert = vec![0 as NodeId; n]; // nodes sorted by degree
    {
        let mut cursor = bin.clone();
        for v in 0..n as NodeId {
            let d = deg[v as usize] as usize;
            pos[v as usize] = cursor[d];
            vert[cursor[d]] = v;
            cursor[d] += 1;
        }
    }

    // Peel in increasing degree order; `deg` becomes the coreness.
    for i in 0..n {
        let v = vert[i];
        let dv = deg[v as usize];
        for &w in g.neighbors(v) {
            if deg[w as usize] > dv {
                // Swap w to the front of its bucket, then shrink its degree.
                let dw = deg[w as usize] as usize;
                let pw = pos[w as usize];
                let pfront = bin[dw];
                let front = vert[pfront];
                if front != w {
                    vert.swap(pw, pfront);
                    pos[w as usize] = pfront;
                    pos[front as usize] = pw;
                }
                bin[dw] += 1;
                deg[w as usize] -= 1;
            }
        }
    }
    deg
}

/// Peels `nodes` down to the maximal connected k-core containing `q`, using
/// (and reusing) `scratch`. Returns the sorted member list, or `None` if `q`
/// does not survive.
///
/// `nodes` must list distinct node ids; `q` must be among them for a
/// non-`None` result.
pub(crate) fn peel_to_kcore_scratch(
    g: &AttributedGraph,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
    scratch: &mut PeelScratch,
) -> Option<Vec<NodeId>> {
    let mut out = Vec::new();
    peel_to_kcore_into(g, q, k, nodes, scratch, &mut out).then_some(out)
}

/// Allocation-free twin of [`peel_to_kcore_scratch`]: writes the sorted
/// member list into `out` (cleared first) and returns whether `q`
/// survived. With a warmed `scratch` and a capacious `out` this performs
/// zero heap allocations.
pub(crate) fn peel_to_kcore_into(
    g: &AttributedGraph,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
    scratch: &mut PeelScratch,
    out: &mut Vec<NodeId>,
) -> bool {
    out.clear();
    let e = scratch.next_epoch();
    let [in_set, removed, visited, deg, _] = &mut scratch.node;
    debug_assert!(in_set.len() >= g.n(), "scratch fitted to the graph");
    for &v in nodes {
        in_set[v as usize] = e;
    }
    if in_set[q as usize] != e {
        return false;
    }

    // Degrees restricted to the subset.
    for &v in nodes {
        let d = g
            .neighbors(v)
            .iter()
            .filter(|&&w| in_set[w as usize] == e)
            .count() as u32;
        deg[v as usize] = d;
    }

    // Cascade-remove nodes with restricted degree < k.
    let stack = &mut scratch.lists[0];
    stack.clear();
    for &v in nodes {
        if deg[v as usize] < k {
            stack.push(v);
            removed[v as usize] = e;
        }
    }
    while let Some(v) = stack.pop() {
        if v == q {
            // q fell out; drain the rest for cleanliness then bail.
            stack.clear();
            return false;
        }
        for &w in g.neighbors(v) {
            let wi = w as usize;
            if in_set[wi] == e && removed[wi] != e {
                deg[wi] -= 1;
                if deg[wi] < k {
                    removed[wi] = e;
                    stack.push(w);
                }
            }
        }
    }
    if removed[q as usize] == e {
        return false;
    }

    // Connected component of q among the survivors, by DFS on the (now
    // empty) cascade stack; `out` is sorted afterwards so the traversal
    // order is immaterial.
    visited[q as usize] = e;
    stack.push(q);
    while let Some(v) = stack.pop() {
        out.push(v);
        for &w in g.neighbors(v) {
            let wi = w as usize;
            if in_set[wi] == e && removed[wi] != e && visited[wi] != e {
                visited[wi] = e;
                stack.push(w);
            }
        }
    }
    out.sort_unstable();
    true
}

/// A scratch fitted to `n` nodes, for standalone peels.
pub(crate) fn fitted_scratch(n: usize) -> PeelScratch {
    let mut scratch = PeelScratch::default();
    scratch.fit(n);
    scratch
}

/// Maximal connected k-core of the whole graph containing `q` (paper
/// §IV-A), or `None` if `q` has no k-core. The result is sorted.
pub fn max_connected_kcore(g: &AttributedGraph, q: NodeId, k: u32) -> Option<Vec<NodeId>> {
    let mut scratch = fitted_scratch(g.n());
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    peel_to_kcore_scratch(g, q, k, &all, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    /// The paper's Figure 2 graph: H3 has two components {v1..v6} (6-clique
    /// minus some edges) and {v7..v11}; v12 is degree-1.
    ///
    /// We reproduce it exactly from the figure: nodes 1..=12 (0 unused).
    /// Component A: v1-v6 where each has degree ≥ 3; component B: v7-v11.
    fn figure2_graph() -> AttributedGraph {
        let mut b = GraphBuilder::new(0);
        for _ in 0..13 {
            b.add_node(&[], &[]);
        }
        // Component A (from Fig 2(b), a connected 3-core on v1..v6):
        // v1-v2, v1-v3, v1-v5, v2-v3, v2-v4, v2-v6, v3-v4, v3-v6, v4-v5,
        // v4-v6, v5-v6, v1-v4 — gives every node degree >= 3.
        let a_edges = [
            (1, 2),
            (1, 3),
            (1, 5),
            (2, 3),
            (2, 4),
            (2, 6),
            (3, 4),
            (3, 6),
            (4, 5),
            (4, 6),
            (5, 6),
            (1, 4),
        ];
        // Component B: 5 nodes v7..v11 forming a dense block (each deg>=3).
        let b_edges = [
            (7, 8),
            (7, 9),
            (7, 10),
            (8, 9),
            (8, 10),
            (9, 10),
            (9, 11),
            (10, 11),
            (8, 11),
        ];
        for (u, v) in a_edges.iter().chain(&b_edges) {
            b.add_edge(*u, *v).unwrap();
        }
        // v12 hangs off v7 with a single edge.
        b.add_edge(12, 7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn coreness_matches_figure2() {
        let g = figure2_graph();
        let c = core_decomposition(&g);
        assert_eq!(c[0], 0, "node 0 is isolated");
        assert_eq!(c[12], 1, "v12 is in the 1-core only");
        for v in 1..=6 {
            assert_eq!(c[v], 3, "v{v} is in H3 component A");
        }
        for v in 7..=11 {
            assert_eq!(c[v], 3, "v{v} is in H3 component B");
        }
        assert_eq!(c.iter().max(), Some(&3));
    }

    #[test]
    fn connected_kcore_separates_components() {
        let g = figure2_graph();
        // q = v5 in component A: the connected 3-core is v1..v6 (Fig 2(b)).
        let h3 = max_connected_kcore(&g, 5, 3).unwrap();
        assert_eq!(h3, vec![1, 2, 3, 4, 5, 6]);
        // q = v9 in component B.
        let h3b = max_connected_kcore(&g, 9, 3).unwrap();
        assert_eq!(h3b, vec![7, 8, 9, 10, 11]);
        // The 2-core containing v5 excludes v12 and node 0 but spans both
        // dense components? No: components A and B are disconnected, so it
        // stays within A.
        let h2 = max_connected_kcore(&g, 5, 2).unwrap();
        assert_eq!(h2, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn q_without_kcore_returns_none() {
        let g = figure2_graph();
        assert_eq!(max_connected_kcore(&g, 12, 2), None);
        assert_eq!(max_connected_kcore(&g, 0, 1), None);
        // k larger than any coreness.
        assert_eq!(max_connected_kcore(&g, 1, 4), None);
    }

    #[test]
    fn k_zero_returns_component() {
        let g = figure2_graph();
        let h0 = max_connected_kcore(&g, 12, 0).unwrap();
        // v12 connects to component B through v7.
        assert_eq!(h0, vec![7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn restricted_peel_ignores_outside_nodes() {
        let g = figure2_graph();
        let mut scratch = fitted_scratch(g.n());
        // Restrict to {v1,v2,v3,v4}: edges 1-2,1-3,1-4,2-3,2-4,3-4 → a
        // 4-clique, a connected 3-core.
        let got = peel_to_kcore_scratch(&g, 1, 3, &[1, 2, 3, 4], &mut scratch).unwrap();
        assert_eq!(got, vec![1, 2, 3, 4]);
        // Same subset at k=4 collapses.
        assert_eq!(
            peel_to_kcore_scratch(&g, 1, 4, &[1, 2, 3, 4], &mut scratch),
            None
        );
        // q outside the subset.
        assert_eq!(
            peel_to_kcore_scratch(&g, 9, 1, &[1, 2, 3], &mut scratch),
            None
        );
    }

    #[test]
    fn scratch_reuse_is_clean_across_epochs() {
        let g = figure2_graph();
        let mut scratch = fitted_scratch(g.n());
        for _ in 0..100 {
            let a = peel_to_kcore_scratch(&g, 5, 3, &(0..13).collect::<Vec<_>>(), &mut scratch)
                .unwrap();
            assert_eq!(a, vec![1, 2, 3, 4, 5, 6]);
            let b = peel_to_kcore_scratch(&g, 9, 3, &(7..13).collect::<Vec<_>>(), &mut scratch)
                .unwrap();
            assert_eq!(b, vec![7, 8, 9, 10, 11]);
        }
    }

    #[test]
    fn coreness_of_clique() {
        let mut b = GraphBuilder::new(0);
        for _ in 0..6 {
            b.add_node(&[], &[]);
        }
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build().unwrap();
        assert!(core_decomposition(&g).iter().all(|&c| c == 5));
    }
}
