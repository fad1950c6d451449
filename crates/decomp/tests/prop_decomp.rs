//! Property tests: k-core and k-truss invariants on random graphs.

use csag_decomp::{core_decomposition, max_connected_kcore, max_connected_ktruss};
use csag_decomp::{node_max_trussness, truss_decomposition, TrussMaintainer};
use csag_decomp::{CommunityModel, EdgeTrussness, EpochIndex, Maintainer};
use csag_graph::{AttributedGraph, GraphBuilder, NodeId, QueryWorkspace};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;
use std::sync::Arc;

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

/// Common neighbours of `u` and `v`, by a merge of their full rows.
fn common_neighbors(g: &AttributedGraph, u: NodeId, v: NodeId) -> Vec<NodeId> {
    let (nu, nv) = (g.neighbors(u), g.neighbors(v));
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(nu[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The entry of a CSR-order per-edge `table` at the edge `{u, v}`, if any.
fn at(table: &[u32], g: &AttributedGraph, u: NodeId, v: NodeId) -> Option<u32> {
    let i = g.neighbors(u).binary_search(&v).ok()?;
    Some(table[g.row_range(u).start + i])
}

/// Reference: the restricted k-truss peel over *full* CSR rows, with a
/// numbering of its own — the subset's internal edges as sorted `(lower,
/// upper)` pairs, looked up by search. Supports, the peel and the
/// traversal merge or walk every internal edge's whole rows and filter by
/// subset membership.
fn reference_truss_peel(
    g: &AttributedGraph,
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
    let mut edges = Vec::new();
    for &u in nodes {
        for &v in g.neighbors(u) {
            if u < v && inside[v as usize] {
                edges.push((u, v));
            }
        }
    }
    edges.sort_unstable();
    let id = |u: NodeId, v: NodeId| edges.binary_search(&(u.min(v), u.max(v))).ok();
    let mut removed = vec![false; edges.len()];
    let mut support: Vec<u32> = edges
        .iter()
        .map(|&(u, v)| {
            let common = common_neighbors(g, u, v);
            common.iter().filter(|&&w| inside[w as usize]).count() as u32
        })
        .collect();
    let mut queue: VecDeque<usize> = (0..edges.len()).filter(|&x| support[x] < need).collect();
    while let Some(x) = queue.pop_front() {
        if removed[x] {
            continue;
        }
        removed[x] = true;
        let (u, v) = edges[x];
        let mut hits = Vec::new();
        for w in common_neighbors(g, u, v) {
            if !inside[w as usize] {
                continue;
            }
            let (uw, vw) = (id(u, w).unwrap(), id(v, w).unwrap());
            if !removed[uw] && !removed[vw] {
                hits.extend([uw, vw]);
            }
        }
        for y in hits {
            support[y] -= 1;
            if support[y] + 1 == need {
                queue.push_back(y);
            }
        }
    }
    let mut seen = vec![false; g.n()];
    let (mut stack, mut out, mut q_has_edge) = (vec![q], Vec::new(), false);
    seen[q as usize] = true;
    while let Some(u) = stack.pop() {
        out.push(u);
        for &v in g.neighbors(u) {
            if id(u, v).is_some_and(|x| !removed[x]) {
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

/// Reference: the restricted k-core peel by repeated sweeps — drop every
/// member with fewer than `k` surviving neighbours until none is left —
/// then `q`'s component among the survivors.
fn reference_core_peel(
    g: &AttributedGraph,
    q: NodeId,
    k: u32,
    nodes: &[NodeId],
) -> Option<Vec<NodeId>> {
    let mut alive = vec![false; g.n()];
    for &v in nodes {
        alive[v as usize] = true;
    }
    let degree = |alive: &[bool], v: NodeId| {
        let live = g.neighbors(v).iter().filter(|&&w| alive[w as usize]);
        live.count() as u32
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &v in nodes {
            if alive[v as usize] && degree(&alive, v) < k {
                alive[v as usize] = false;
                changed = true;
            }
        }
    }
    if !alive[q as usize] {
        return None;
    }
    let mut seen = vec![false; g.n()];
    let (mut stack, mut out) = (vec![q], Vec::new());
    seen[q as usize] = true;
    while let Some(u) = stack.pop() {
        out.push(u);
        for &v in g.neighbors(u) {
            if alive[v as usize] && !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    out.sort_unstable();
    Some(out)
}

/// `(n, edges, subsets as (q, k, per-node (pick, sort key)), where in the
/// value range the epoch starts)`.
type SharedScratchCase = (
    usize,
    Vec<(u32, u32)>,
    Vec<(u32, u32, Vec<(bool, u32)>)>,
    f64,
);

/// Random graphs of up to 40 nodes and 320 edge draws (dense enough that
/// most subsets hold a community), with up to eight subsets (each with
/// its own `q` and `k`) and where the epoch starts, as a fraction whose
/// square scales the value range (starts near 0 are the likelier).
fn arb_shared_scratch() -> impl Strategy<Value = SharedScratchCase> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..8 * n);
        let picks = prop::collection::vec((any::<bool>(), any::<u32>()), n);
        let subsets = prop::collection::vec((0..n as u32, 2u32..6, picks), 1..9);
        (Just(n), edges, subsets, 0.0f64..1.0)
    })
}

/// One pooled peel scratch under both models, through stale stamps: the
/// epoch is first advanced to a random point inside the range of values a
/// peel keeps in its value arrays (row numbers, degrees and supports are
/// below `n`, a subset's edge count below `m`: all below `max(n, m)`);
/// then k-core and k-truss `maximal_within_into` and `maximal` calls
/// alternate on one workspace, over every subset sorted and shuffled,
/// pass after pass until the epoch is past that range. Every value a peel
/// leaves behind is thus, at some point, the epoch a later peel of the
/// other model stamps with, and a value written where the other model
/// keeps stamps shows as a wrong answer. Every answer must equal a fresh
/// [`Maintainer::new`]'s and the reference peel's. Returns how many
/// answers were checked.
fn check_shared_scratch_case(
    (n, edges, subsets, start): SharedScratchCase,
) -> Result<usize, TestCaseError> {
    let g = build(n, &edges);
    let index = EpochIndex::new();
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    let limit = n.max(g.m()) as u32;
    let mut ws = QueryWorkspace::new();
    let mut scratch = ws.take_peel();
    scratch.advance_epoch_to((start * start * f64::from(limit)) as u32);
    ws.put_peel(scratch);
    let mut orders = Vec::new();
    for (q, k, picks) in &subsets {
        let mut keyed: Vec<(u32, NodeId)> = (0..n as NodeId)
            .filter(|&v| picks[v as usize].0 || v == *q)
            .map(|v| (picks[v as usize].1, v))
            .collect();
        keyed.sort_unstable();
        let shuffled: Vec<NodeId> = keyed.iter().map(|&(_, v)| v).collect();
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        orders.push((*q, *k, sorted));
        orders.push((*q, *k, shuffled));
    }
    let models = [CommunityModel::KTruss, CommunityModel::KCore];
    let (mut checked, mut out) = (0, Vec::new());
    loop {
        for (q, k, nodes) in &orders {
            let (q, k) = (*q, *k);
            for (whole, model) in [false, true]
                .into_iter()
                .flat_map(|w| models.map(|m| (w, m)))
            {
                let subset = if whole { &all } else { nodes };
                let want = match model {
                    CommunityModel::KCore => reference_core_peel(&g, q, k, subset),
                    CommunityModel::KTruss => reference_truss_peel(&g, q, k, subset),
                };
                let mut fresh = Maintainer::new(&g, &index, model, k);
                let mut pooled = Maintainer::in_workspace(&g, &index, model, k, &mut ws);
                let (got, fresh_got) = if whole {
                    (pooled.maximal(q), fresh.maximal(q))
                } else {
                    let got = pooled.maximal_within_into(q, subset, &mut out);
                    (got.then(|| out.clone()), fresh.maximal_within(q, subset))
                };
                pooled.release(&mut ws);
                prop_assert_eq!(
                    &fresh_got,
                    &want,
                    "fresh {} k={} q={} {:?}",
                    model,
                    k,
                    q,
                    subset
                );
                prop_assert_eq!(&got, &want, "pooled {} k={} q={} {:?}", model, k, q, subset);
                checked += 1;
            }
        }
        let scratch = ws.take_peel();
        let epoch = scratch.epoch();
        ws.put_peel(scratch);
        if epoch > limit {
            return Ok(checked);
        }
    }
}

/// Membership thresholds, in tenths, of the walk property's subsets:
/// densities 0.1, 0.2, 0.5 and 1.0, so some subsets leave `q` without a
/// triangle and one covers the whole graph.
const DENSITIES: [u32; 4] = [1, 2, 5, 10];

/// `(graph, per node (membership draw, sort key), query nodes)`.
type WalkCase = (AttributedGraph, Vec<(u32, u32)>, Vec<NodeId>);

/// Multi-block graphs with a membership draw and a sort key per node and
/// up to four query nodes.
fn arb_walk_case() -> impl Strategy<Value = WalkCase> {
    arb_blocks().prop_flat_map(|g| {
        let n = g.n();
        let draws = prop::collection::vec((any::<u32>(), any::<u32>()), n);
        let queries = prop::collection::vec(0..n as u32, 1..5);
        (Just(g), draws, queries)
    })
}

/// `nodes` in breadth-first order from `q` over the subgraph they
/// induce, then the ones that walk does not reach, in `nodes` order.
fn bfs_order(g: &AttributedGraph, q: NodeId, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut inside = vec![false; g.n()];
    for &v in nodes {
        inside[v as usize] = true;
    }
    let mut order = vec![q];
    inside[q as usize] = false;
    let mut next = 0;
    while let Some(&v) = order.get(next) {
        next += 1;
        for &w in g.neighbors(v) {
            if std::mem::take(&mut inside[w as usize]) {
                order.push(w);
            }
        }
    }
    order.extend(nodes.iter().filter(|&&v| inside[v as usize]));
    order
}

/// The walk-from-q truss peel on every subset shape a caller passes: for
/// each query node and density, the subset (always holding `q`) sorted,
/// shuffled and in breadth-first order from `q`, at every k from 2 to 6,
/// with k-truss and k-core peels alternating on one pooled scratch. Every
/// answer must equal the reference peel's. Returns how many were checked.
fn check_walk_case((g, draws, queries): WalkCase) -> Result<usize, TestCaseError> {
    let index = EpochIndex::new();
    let mut ws = QueryWorkspace::new();
    let (mut checked, mut out) = (0, Vec::new());
    for &q in &queries {
        for tenths in DENSITIES {
            let sorted: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|&v| v == q || draws[v as usize].0 % 10 < tenths)
                .collect();
            let mut shuffled = sorted.clone();
            shuffled.sort_unstable_by_key(|&v| (draws[v as usize].1, v));
            let bfs = bfs_order(&g, q, &sorted);
            for k in 2u32..=6 {
                for model in [CommunityModel::KTruss, CommunityModel::KCore] {
                    let want = match model {
                        CommunityModel::KCore => reference_core_peel(&g, q, k, &sorted),
                        CommunityModel::KTruss => reference_truss_peel(&g, q, k, &sorted),
                    };
                    for order in [&sorted, &shuffled, &bfs] {
                        let mut m = Maintainer::in_workspace(&g, &index, model, k, &mut ws);
                        let got = m.maximal_within_into(q, order, &mut out);
                        m.release(&mut ws);
                        prop_assert_eq!(
                            got.then_some(&out),
                            want.as_ref(),
                            "{} k={} q={} {:?}",
                            model,
                            k,
                            q,
                            order
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    Ok(checked)
}

/// The longer offline runs of the pooled-scratch properties, the shared
/// scratch through stale stamps and the walk from q:
/// `cargo test -p csag-decomp --release --test prop_decomp -- --ignored`.
#[test]
#[ignore = "10 000 + 2 000 cases, over a million pooled answers; run on demand"]
fn one_scratch_serves_both_models_long_run() {
    use rand::{rngs::StdRng, SeedableRng};
    let strategy = arb_shared_scratch();
    let mut checked = 0;
    for case in 0..10_000u64 {
        let mut rng = StdRng::seed_from_u64(0x5c7a_7c40 ^ case);
        match check_shared_scratch_case(strategy.generate(&mut rng)) {
            Ok(answers) => checked += answers,
            Err(e) => panic!("case {case}: {e}"),
        }
    }
    println!("{checked} pooled answers through stale stamps, zero mismatches");
    let strategy = arb_walk_case();
    let mut checked = 0;
    for case in 0..2_000u64 {
        let mut rng = StdRng::seed_from_u64(0x3a1c_5e70 ^ case);
        match check_walk_case(strategy.generate(&mut rng)) {
            Ok(answers) => checked += answers,
            Err(e) => panic!("walk case {case}: {e}"),
        }
    }
    println!("{checked} walk answers, zero mismatches");
}

/// A k-truss peel lays out rows only where its walk from `q` goes: for
/// the walked nodes and the subset neighbours it tested. `q` sits in a
/// 4-clique whose last node starts a 400-node path (no triangle on it);
/// with the whole graph as the subset, the slots a fresh scratch grows
/// stay within the rows of the clique and the path's first node, where a
/// peel that lays out the whole subset needs two per edge of the path.
#[test]
fn truss_peel_lays_out_only_the_walked_region() {
    const PATH: u32 = 400;
    let mut b = GraphBuilder::new(0);
    for _ in 0..4 + PATH {
        b.add_node(&[], &[]);
    }
    for u in 0..4u32 {
        for v in u + 1..4 {
            b.add_edge(u, v).unwrap();
        }
    }
    for v in 3..3 + PATH {
        b.add_edge(v, v + 1).unwrap();
    }
    let g = b.build().unwrap();
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    let index = EpochIndex::new();
    let region: usize = (0..5).map(|v| g.degree(v)).sum();
    for k in [3, 4] {
        let mut ws = QueryWorkspace::new();
        let mut m = Maintainer::in_workspace(&g, &index, CommunityModel::KTruss, k, &mut ws);
        assert_eq!(m.maximal_within(0, &all), Some(vec![0, 1, 2, 3]), "k={k}");
        m.release(&mut ws);
        let slots = ws.take_peel().slots.len();
        assert!(
            slots <= region,
            "k={k}: {slots} slots laid out; the walked region has {region}"
        );
    }
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
    /// `Maintainer::maximal` — a walk over the nodes of coreness ≥ k, or
    /// over the edges of trussness ≥ k — equals the full-graph peel
    /// for both models, every node and every k from 2 to the largest
    /// table value + 1. Under a fresh index and under one seeded with
    /// from-scratch tables, which then runs no decomposition.
    #[test]
    fn root_walk_equals_the_full_peel(g in arb_blocks()) {
        let (coreness, trussness) = (core_decomposition(&g), node_max_trussness(&g));
        let table = EdgeTrussness::new(&g, &truss_decomposition(&g));
        let seeded = EpochIndex::seeded(coreness.clone(), Some(trussness.clone()), Some(table));
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

    /// One pooled scratch under both models, through stale stamps (see
    /// [`check_shared_scratch_case`]).
    #[test]
    fn one_scratch_serves_both_models_through_stale_stamps(case in arb_shared_scratch()) {
        check_shared_scratch_case(case)?;
    }

    /// The walk-from-q truss peel equals the reference on subsets of
    /// every density and order (see [`check_walk_case`]).
    #[test]
    fn truss_walk_matches_the_reference_on_every_subset_shape(case in arb_walk_case()) {
        check_walk_case(case)?;
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
                let want = reference_truss_peel(&g, q, k, &sorted);
                prop_assert_eq!(&m.maximal_within(q, &shuffled), &want, "k={} q={} {:?}", k, q, shuffled);
                prop_assert_eq!(&m.maximal_within(q, &sorted), &want, "k={} q={} sorted", k, q);
                let all: Vec<NodeId> = (0..n as NodeId).collect();
                prop_assert_eq!(m.maximal(q), reference_truss_peel(&g, q, k, &all));
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
        let trussness = truss_decomposition(&g);
        for (u, v) in g.edges() {
            let t = at(&trussness, &g, u, v).unwrap();
            prop_assert_eq!(at(&trussness, &g, v, u), Some(t), "both directions");
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
    /// a maintainer that adopted it publishes it untouched: every chunk
    /// is shared, and every row reads back.
    #[test]
    fn trussness_matches_brute_force_peel((n, edges) in arb_graph()) {
        let g = Arc::new(build(n, &edges));
        let trussness = truss_decomposition(&g);
        prop_assert_eq!(trussness.len(), 2 * g.m());
        let oracle = brute_force_trussness(&g);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                let want = oracle[u as usize][v as usize];
                prop_assert_eq!(at(&trussness, &g, u, v), want, "edge ({}, {})", u, v);
            }
        }
        let chunked = EdgeTrussness::new(&g, &trussness);
        let mut adopted = TrussMaintainer::adopt(Arc::clone(&g), chunked.clone());
        let (table, _) = adopted.publish(&g, &node_max_trussness(&g));
        let pairs = table.chunks().iter().zip(chunked.chunks());
        prop_assert!(pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count() == chunked.chunks().len());
        for v in 0..g.n() as NodeId {
            prop_assert_eq!(table.row(&g, v), &trussness[g.row_range(v)]);
        }
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
