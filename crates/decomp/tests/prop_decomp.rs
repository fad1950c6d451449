//! Property tests: k-core and k-truss invariants on random graphs.

use csag_decomp::{core_decomposition, max_connected_kcore, max_connected_ktruss};
use csag_decomp::{node_max_trussness, truss_decomposition, TrussMaintainer};
use csag_decomp::{CommunityModel, EdgeIndex, EpochIndex, Maintainer};
use csag_graph::{AttributedGraph, GraphBuilder, NodeId, QueryWorkspace};
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..30).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..100);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> csag_graph::AttributedGraph {
    let mut b = GraphBuilder::new(0);
    for _ in 0..n {
        b.add_node(&[], &[]);
    }
    for &(u, v) in edges {
        b.add_edge(u, v).unwrap();
    }
    b.build().unwrap()
}

/// Random graphs of up to four blocks with no edge between blocks. Nodes
/// are dealt to blocks at random, so components interleave in id order
/// and some nodes end up isolated.
fn arb_blocks() -> impl Strategy<Value = AttributedGraph> {
    (2usize..40)
        .prop_flat_map(|n| {
            let block = prop::collection::vec(0u8..4, n);
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..160);
            (block, edges)
        })
        .prop_map(|(block, edges)| {
            let same = |&(u, v): &(u32, u32)| block[u as usize] == block[v as usize];
            let kept: Vec<(u32, u32)> = edges.into_iter().filter(same).collect();
            build(block.len(), &kept)
        })
}

/// Common neighbours of `u` and `v` with their positions in each full row.
fn common_in_rows(g: &AttributedGraph, u: NodeId, v: NodeId) -> Vec<(NodeId, usize, usize)> {
    let (nu, nv) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push((nu[i], i, j));
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Reference: the restricted k-truss peel over *full* CSR rows — supports,
/// the peel and the traversal merge or walk every internal edge's whole
/// rows and filter by subset membership and an internal-edge mark.
fn reference_truss_peel(
    g: &AttributedGraph,
    eidx: &EdgeIndex,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
) -> Option<Vec<NodeId>> {
    let mut inside = vec![false; g.n()];
    for &v in nodes {
        inside[v as usize] = true;
    }
    if !inside[q as usize] {
        return None;
    }
    let need = k.saturating_sub(2);
    let mut edge_in = vec![false; eidx.m()];
    let mut removed = vec![false; eidx.m()];
    let mut support = vec![0u32; eidx.m()];
    let mut edges = Vec::new();
    for &u in nodes {
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if u < v && inside[v as usize] {
                let id = eidx.id_at(g, u, i);
                edge_in[id as usize] = true;
                edges.push((u, v, id));
            }
        }
    }
    for &(u, v, id) in &edges {
        support[id as usize] = common_in_rows(g, u, v)
            .iter()
            .filter(|&&(w, _, _)| inside[w as usize])
            .count() as u32;
    }
    let mut queue: VecDeque<_> = edges
        .iter()
        .copied()
        .filter(|&(_, _, id)| support[id as usize] < need)
        .collect();
    while let Some((u, v, id)) = queue.pop_front() {
        if removed[id as usize] {
            continue;
        }
        removed[id as usize] = true;
        let mut hits = Vec::new();
        for (w, i, j) in common_in_rows(g, u, v) {
            if !inside[w as usize] {
                continue;
            }
            let (uw, vw) = (eidx.id_at(g, u, i), eidx.id_at(g, v, j));
            let alive = |e: u32| edge_in[e as usize] && !removed[e as usize];
            if alive(uw) && alive(vw) {
                hits.push((u, w, uw));
                hits.push((v, w, vw));
            }
        }
        for (a, b, id2) in hits {
            support[id2 as usize] -= 1;
            if support[id2 as usize] + 1 == need {
                queue.push_back((a, b, id2));
            }
        }
    }
    let mut seen = vec![false; g.n()];
    let (mut stack, mut out, mut q_has_edge) = (vec![q], Vec::new(), false);
    seen[q as usize] = true;
    while let Some(u) = stack.pop() {
        out.push(u);
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            let id = eidx.id_at(g, u, i) as usize;
            if inside[v as usize] && edge_in[id] && !removed[id] {
                q_has_edge |= u == q;
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
    }
    out.sort_unstable();
    q_has_edge.then_some(out)
}

/// Oracle: `out[u][v]` is the trussness of the edge `{u, v}` (`None` for a
/// non-edge). For each k afresh, the whole graph's edges are peeled
/// to a fixed point — an edge survives while it closes at least `k − 2`
/// triangles of surviving edges — and an edge's trussness is the largest
/// k it survives.
fn brute_force_trussness(g: &AttributedGraph) -> Vec<Vec<Option<u32>>> {
    let n = g.n();
    let mut out = vec![vec![None; n]; n];
    for (u, v) in g.edges() {
        out[u as usize][v as usize] = Some(2);
        out[v as usize][u as usize] = Some(2);
    }
    for k in 3.. {
        let mut alive: Vec<Vec<bool>> = out
            .iter()
            .map(|r| r.iter().map(Option::is_some).collect())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..n {
                for v in u + 1..n {
                    let triangles = (0..n).filter(|&w| alive[u][w] && alive[v][w]).count();
                    if alive[u][v] && triangles + 2 < k {
                        alive[u][v] = false;
                        alive[v][u] = false;
                        changed = true;
                    }
                }
            }
        }
        if !alive.iter().flatten().any(|&a| a) {
            return out;
        }
        for u in 0..n {
            for v in 0..n {
                if alive[u][v] {
                    out[u][v] = Some(k as u32);
                }
            }
        }
    }
    unreachable!("every edge is peeled once k exceeds n")
}

proptest! {
    /// `Maintainer::maximal` — a walk of the screen table, then for
    /// k-truss one peel of what it walked — equals the full-graph peel
    /// for both models, every node and every k from 2 to the largest
    /// table value + 1. Under a fresh index and under one seeded with
    /// from-scratch tables, whose edge index is then built on first use
    /// with no decomposition.
    #[test]
    fn root_walk_equals_the_full_peel(g in arb_blocks()) {
        let (coreness, trussness) = (core_decomposition(&g), node_max_trussness(&g));
        let seeded = EpochIndex::seeded(coreness.clone(), Some(trussness.clone()));
        let fresh = EpochIndex::new();
        for index in [&fresh, &seeded] {
            for (model, table) in [
                (CommunityModel::KCore, &coreness),
                (CommunityModel::KTruss, &trussness),
            ] {
                let top = table.iter().copied().max().unwrap_or(0);
                for k in 2..=top + 1 {
                    let mut m = Maintainer::new(&g, index, model, k);
                    for q in 0..g.n() as NodeId {
                        let want = match model {
                            CommunityModel::KCore => max_connected_kcore(&g, q, k),
                            CommunityModel::KTruss => max_connected_ktruss(&g, q, k),
                        };
                        prop_assert_eq!(m.maximal(q), want, "{} k={} q={}", model, k, q);
                    }
                }
            }
        }
        prop_assert_eq!(seeded.decomp_computations(), 0);
        prop_assert_eq!(seeded.truss_decomp_computations(), 0);
    }

    /// One pooled peel scratch serves graphs of any size in any order: a
    /// single workspace is reused across three random graphs (larger,
    /// then smaller, then larger again, so the scratch both outgrows a
    /// graph and grows again) and both models, interleaving `maximal` and
    /// `maximal_within_into`. Every answer equals a fresh maintainer's.
    #[test]
    fn pooled_scratch_answers_as_a_fresh_one_across_graphs(
        graphs in (20usize..40, 2usize..12, 12usize..40).prop_flat_map(|(a, b, c)| {
            let graph = |n: usize| (
                Just(n),
                prop::collection::vec((0..n as u32, 0..n as u32), 0..4 * n),
                prop::collection::vec(any::<bool>(), n),
            );
            (graph(a), graph(b), graph(c))
        }),
    ) {
        let mut ws = QueryWorkspace::new();
        let (a, b, c) = graphs;
        for (n, edges, picks) in [a, b, c] {
            let g = build(n, &edges);
            let index = EpochIndex::new();
            let subset: Vec<NodeId> = (0..n as NodeId).filter(|&v| picks[v as usize]).collect();
            let mut out = Vec::new();
            for model in [CommunityModel::KCore, CommunityModel::KTruss] {
                for k in 2u32..5 {
                    let mut fresh = Maintainer::new(&g, &index, model, k);
                    let mut pooled = Maintainer::in_workspace(&g, &index, model, k, &mut ws);
                    for q in 0..n as NodeId {
                        prop_assert_eq!(pooled.maximal(q), fresh.maximal(q), "{} k={} q={}", model, k, q);
                        let want = fresh.maximal_within(q, &subset);
                        let got = pooled.maximal_within_into(q, &subset, &mut out);
                        prop_assert_eq!(got.then_some(&out), want.as_ref(), "{} k={} q={}", model, k, q);
                    }
                    pooled.release(&mut ws);
                }
            }
        }
    }

    /// The induced-row k-truss peel equals the full-row reference on
    /// random subsets — sorted or in arbitrary order, as SEA's prefix
    /// ladder passes them — with one maintainer reused across them all.
    #[test]
    fn induced_row_truss_peel_matches_the_full_row_peel(
        (n, edges) in arb_graph(),
        subsets in prop::collection::vec(
            (0u32..30, prop::collection::vec((any::<bool>(), any::<u32>()), 30)),
            1..6,
        ),
    ) {
        let g = build(n, &edges);
        let eidx = EdgeIndex::new(&g);
        for k in 2u32..6 {
            let index = EpochIndex::new();
            let mut m = Maintainer::new(&g, &index, CommunityModel::KTruss, k);
            for (q, picks) in &subsets {
                let q = q % n as u32;
                let mut keyed: Vec<(u32, NodeId)> = (0..n as NodeId)
                    .filter(|&v| picks[v as usize].0 || v == q)
                    .map(|v| (picks[v as usize].1, v))
                    .collect();
                keyed.sort_unstable();
                let shuffled: Vec<NodeId> = keyed.iter().map(|&(_, v)| v).collect();
                let mut sorted = shuffled.clone();
                sorted.sort_unstable();
                let want = reference_truss_peel(&g, &eidx, q, k, &sorted);
                prop_assert_eq!(&m.maximal_within(q, &shuffled), &want, "k={} q={} {:?}", k, q, shuffled);
                prop_assert_eq!(&m.maximal_within(q, &sorted), &want, "k={} q={} sorted", k, q);
                let all: Vec<NodeId> = (0..n as NodeId).collect();
                prop_assert_eq!(m.maximal(q), reference_truss_peel(&g, &eidx, q, k, &all));
            }
        }
    }

    /// Coreness is consistent with brute-force peeling at every k.
    #[test]
    fn coreness_matches_naive_peel((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let coreness = core_decomposition(&g);
        let kmax = coreness.iter().copied().max().unwrap_or(0);
        for k in 0..=kmax + 1 {
            // Naive k-core: repeatedly remove nodes with degree < k.
            let mut alive: Vec<bool> = vec![true; g.n()];
            loop {
                let mut changed = false;
                for v in 0..g.n() as u32 {
                    if !alive[v as usize] {
                        continue;
                    }
                    let d = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| alive[w as usize])
                        .count() as u32;
                    if d < k {
                        alive[v as usize] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for v in 0..g.n() {
                prop_assert_eq!(
                    alive[v],
                    coreness[v] >= k,
                    "node {} at k={}: coreness {}",
                    v,
                    k,
                    coreness[v]
                );
            }
        }
    }

    /// The maximal connected k-core really is a connected k-core containing
    /// q, and it is maximal (it equals q's component of the global k-core).
    #[test]
    fn connected_kcore_invariants((n, edges) in arb_graph(), q in 0u32..30, k in 0u32..6) {
        let g = build(n, &edges);
        let q = q % g.n() as u32;
        if let Some(comm) = max_connected_kcore(&g, q, k) {
            prop_assert!(comm.binary_search(&q).is_ok());
            // Degree bound inside the community.
            for &v in &comm {
                let d = g
                    .neighbors(v)
                    .iter()
                    .filter(|w| comm.binary_search(w).is_ok())
                    .count() as u32;
                prop_assert!(d >= k, "node {} has in-community degree {} < {}", v, d, k);
            }
            prop_assert!(csag_graph::traversal::is_connected_subset(&g, &comm));
            // Maximality: every node of coreness >= k connected to q inside
            // the global k-core belongs to the community.
            let coreness = core_decomposition(&g);
            let in_core: Vec<u32> =
                (0..g.n() as u32).filter(|&v| coreness[v as usize] >= k).collect();
            let mut mask = csag_graph::FixedBitSet::new(g.n());
            for &v in &in_core {
                mask.insert(v);
            }
            let comp = csag_graph::traversal::component_of(&g, q, Some(&mask));
            prop_assert_eq!(comm, comp);
        } else {
            // q must not have coreness >= k.
            let coreness = core_decomposition(&g);
            prop_assert!(coreness[q as usize] < k || k == 0);
        }
    }

    /// Every edge inside a connected k-truss closes >= k-2 triangles within
    /// the *edge-surviving* subgraph; we check the weaker node-level
    /// invariant: the community is connected and each member has an edge.
    #[test]
    fn connected_ktruss_invariants((n, edges) in arb_graph(), q in 0u32..30, k in 2u32..6) {
        let g = build(n, &edges);
        let q = q % g.n() as u32;
        if let Some(comm) = max_connected_ktruss(&g, q, k) {
            prop_assert!(comm.binary_search(&q).is_ok());
            prop_assert!(comm.len() >= 2);
            prop_assert!(csag_graph::traversal::is_connected_subset(&g, &comm));
            // The k-truss community induced on its own nodes must again
            // contain a k-truss with q: re-peeling within is a fixed point.
            let index = EpochIndex::new();
            let mut m = Maintainer::new(&g, &index, CommunityModel::KTruss, k);
            let again = m.maximal_within(q, &comm).unwrap();
            prop_assert_eq!(again, comm);
        }
    }

    /// Trussness from the global decomposition agrees with peel
    /// reachability: an edge with trussness t survives the t-truss peel of
    /// its component.
    #[test]
    fn trussness_agrees_with_peel((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let (eidx, trussness) = truss_decomposition(&g);
        for (u, v) in g.edges() {
            let id = eidx.id(&g, u, v).unwrap() as usize;
            let t = trussness[id];
            prop_assert!(t >= 2);
            // The edge survives at k = t: u's t-truss community contains v
            // with the edge intact. (Survival at t+1 must fail for at least
            // one endpoint pair globally, but per-edge we check membership.)
            if let Some(comm) = max_connected_ktruss(&g, u, t) {
                prop_assert!(
                    comm.binary_search(&v).is_ok(),
                    "edge ({},{}) trussness {} but v missing from u's {}-truss",
                    u, v, t, t
                );
            } else {
                prop_assert!(false, "u has no {}-truss but edge ({},{}) has trussness {}", t, u, v, t);
            }
        }
    }

    /// The decomposition equals the brute-force oracle on every edge, and
    /// a maintainer adopting a decomposition is the one that runs its own.
    #[test]
    fn trussness_matches_brute_force_peel((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let (eidx, trussness) = truss_decomposition(&g);
        let oracle = brute_force_trussness(&g);
        let adopted = TrussMaintainer::from_decomposition(&g, &eidx, &trussness);
        let fresh = TrussMaintainer::new(&g);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                let want = oracle[u as usize][v as usize];
                let got = eidx.id(&g, u, v).map(|id| trussness[id as usize]);
                prop_assert_eq!(got, want, "edge ({}, {})", u, v);
                prop_assert_eq!(adopted.trussness_of(&g, u, v), want, "adopted ({}, {})", u, v);
                prop_assert_eq!(fresh.trussness_of(&g, u, v), want, "fresh ({}, {})", u, v);
            }
        }
        let node = node_max_trussness(&g);
        prop_assert_eq!(adopted.node_trussness(), node.as_slice());
        prop_assert_eq!(fresh.node_trussness(), node.as_slice());
    }

    /// Core and truss models agree on the containment k-truss ⊆ (k-1)-core.
    #[test]
    fn truss_is_inside_core((n, edges) in arb_graph(), q in 0u32..30, k in 2u32..6) {
        let g = build(n, &edges);
        let q = q % g.n() as u32;
        if let Some(truss) = max_connected_ktruss(&g, q, k) {
            let core = max_connected_kcore(&g, q, k - 1)
                .expect("a k-truss member is in the (k-1)-core");
            for v in &truss {
                prop_assert!(core.binary_search(v).is_ok());
            }
        }
    }
}
