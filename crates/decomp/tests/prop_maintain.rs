//! Churn property tests: incrementally maintained core numbers and the
//! targeted trussness patch must equal from-scratch recomputation after
//! every update batch, for arbitrary random graphs and update streams.
//! The per-edge [`TrussMaintainer`] — the store's repair path — is held to
//! the stricter standard: every edge's trussness equals the decomposition's
//! after every *single* update, on graphs dense enough to reach trussness
//! 6 and beyond.

use csag_decomp::{
    core_decomposition, node_max_trussness, patch_node_trussness, truss_decomposition,
    CommunityModel, CoreMaintainer, EdgeTrussness, EpochIndex, Maintainer, TrussMaintainer,
};
use csag_graph::{Applied, GraphBuilder, GraphUpdate, MutableGraph, NodeId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

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

/// A repair that adopts the decomposition of `g`.
fn adopt_decomposition(g: &csag_graph::AttributedGraph) -> TrussMaintainer {
    TrussMaintainer::adopt(
        Arc::new(g.clone()),
        EdgeTrussness::new(g, &truss_decomposition(g)),
    )
}

/// `(initial node count, initial edges, churn ops)`.
type ChurnCase = (usize, Vec<(u32, u32)>, Vec<(u8, u32, u32)>);

/// Raw op encoding: `(kind, a, b)` mapped onto the current node count at
/// apply time, so every generated op is valid regardless of how many
/// vertices earlier ops added. kind: 0/1 = add edge, 2 = remove edge,
/// 3 = add vertex.
fn arb_churn() -> impl Strategy<Value = ChurnCase> {
    (2usize..24).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..60);
        let ops = prop::collection::vec((0u8..4, 0u32..64, 0u32..64), 1..40);
        (Just(n), edges, ops)
    })
}

fn op_to_update(op: (u8, u32, u32), n: usize) -> GraphUpdate {
    let (kind, a, b) = op;
    let u = a % n as u32;
    let v = b % n as u32;
    match kind {
        0 | 1 => GraphUpdate::AddEdge { u, v },
        2 => GraphUpdate::RemoveEdge { u, v },
        _ => GraphUpdate::AddVertex {
            tokens: vec![],
            numeric: vec![],
        },
    }
}

proptest! {
    /// After every batch of random churn, the maintained coreness and the
    /// patched node trussness equal their from-scratch twins.
    #[test]
    fn patched_decompositions_match_recompute(
        (n, edges, ops) in arb_churn(),
        batch_size in 1usize..6,
    ) {
        let initial = build(n, &edges);
        let mut mutable = MutableGraph::from_graph(&initial);
        let mut maint = CoreMaintainer::new(&initial);
        let mut truss = node_max_trussness(&initial);
        let mut edge_truss = adopt_decomposition(&initial);
        let mut edge_nodes = node_max_trussness(&initial);

        for batch in ops.chunks(batch_size) {
            let mut seeds: Vec<NodeId> = Vec::new();
            for &op in batch {
                let update = op_to_update(op, mutable.n());
                match mutable.apply(&update).unwrap() {
                    Applied::EdgeAdded(u, v) => {
                        maint.insert_edge(&mutable, u, v);
                        edge_truss.insert_edge(&mutable, u, v);
                        seeds.extend([u, v]);
                    }
                    Applied::EdgeRemoved(u, v) => {
                        maint.remove_edge(&mutable, u, v);
                        edge_truss.remove_edge(&mutable, u, v);
                        seeds.extend([u, v]);
                    }
                    Applied::VertexAdded(_) => maint.add_vertex(),
                    Applied::AttributesSet(_) | Applied::NoOp => {}
                }
            }
            let snap = mutable.publish();
            let fresh = core_decomposition(&snap);
            prop_assert_eq!(
                maint.coreness(),
                fresh.as_slice(),
                "maintained coreness diverged after batch {:?}",
                batch
            );
            truss = patch_node_trussness(&snap, &truss, &seeds);
            prop_assert_eq!(
                &truss,
                &node_max_trussness(&snap),
                "patched trussness diverged after batch {:?}",
                batch
            );
            let table;
            (table, edge_nodes) = edge_truss.publish(&snap, &edge_nodes);
            prop_assert_eq!(
                table.chunks().concat(),
                truss_decomposition(&snap),
                "maintained trussness diverged after batch {:?}",
                batch
            );
            prop_assert_eq!(&edge_nodes, &truss, "published node trussness after batch {:?}", batch);
        }
    }

    /// The per-edge repair is order-insensitive: replaying the surviving
    /// structural ops in one go from a fresh maintainer lands on the same
    /// cores (sanity against hidden scratch-state leakage).
    #[test]
    fn maintainer_state_is_replayable((n, edges, ops) in arb_churn()) {
        let initial = build(n, &edges);
        let mut mutable = MutableGraph::from_graph(&initial);
        let mut maint = CoreMaintainer::new(&initial);
        for &op in &ops {
            let update = op_to_update(op, mutable.n());
            match mutable.apply(&update).unwrap() {
                Applied::EdgeAdded(u, v) => maint.insert_edge(&mutable, u, v),
                Applied::EdgeRemoved(u, v) => maint.remove_edge(&mutable, u, v),
                Applied::VertexAdded(_) => maint.add_vertex(),
                _ => {}
            }
        }
        let replayed = CoreMaintainer::new(&mutable.snapshot());
        prop_assert_eq!(maint.coreness(), replayed.coreness());
    }

    /// Per edge, after every single update, at the default case count.
    #[test]
    fn maintained_edge_trussness_matches_decomposition(case in arb_dense_churn()) {
        check_dense_case(case)?;
    }
}

/// `(initial node count, edge density, one draw per node pair, churn ops)`.
type DenseCase = (usize, f64, Vec<f64>, Vec<(u8, u32, u32)>);

/// Graphs of up to 34 nodes whose every node pair is an edge with a
/// probability drawn in 0.1–0.9 (dense ones reach trussness 6 and more),
/// and up to 120 ops. kind: 0–2 = add edge, 3–6 = remove edge (an op only
/// bites when the pair is an edge, so removals are drawn more often),
/// 7 = add vertex.
fn arb_dense_churn() -> impl Strategy<Value = DenseCase> {
    (4usize..=34, 0.1f64..0.9).prop_flat_map(|(n, density)| {
        let draws = prop::collection::vec(0.0f64..1.0, n * (n - 1) / 2);
        let ops = prop::collection::vec((0u8..8, 0u32..64, 0u32..64), 1..121);
        (Just(n), Just(density), draws, ops)
    })
}

/// Drives a [`TrussMaintainer`] through the case, publishing after each
/// op as a store does after a one-update batch, and checks the published
/// table against [`truss_decomposition`] of the published graph (every
/// edge's value, in both endpoints' rows) and the node table against the
/// per-node fold. Returns how many ops changed the graph (each one
/// checked) and the highest trussness seen.
fn check_dense_case((n, density, draws, ops): DenseCase) -> Result<(usize, u32), TestCaseError> {
    let pairs = (0..n as u32).flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)));
    let edges: Vec<(u32, u32)> = pairs
        .zip(&draws)
        .filter_map(|(pair, &draw)| (draw < density).then_some(pair))
        .collect();
    let initial = build(n, &edges);
    let mut mutable = MutableGraph::from_graph(&initial);
    let mut maint = adopt_decomposition(&initial);
    let mut nodes = node_max_trussness(&initial);
    let (mut checked, mut highest) = (0, 0);
    for &(kind, a, b) in &ops {
        let n = mutable.n() as u32;
        let (u, v) = (a % n, b % n);
        let update = match kind {
            0..=2 => GraphUpdate::AddEdge { u, v },
            3..=6 => GraphUpdate::RemoveEdge { u, v },
            _ => GraphUpdate::AddVertex {
                tokens: vec![],
                numeric: vec![],
            },
        };
        match mutable.apply(&update).unwrap() {
            Applied::EdgeAdded(u, v) => maint.insert_edge(&mutable, u, v),
            Applied::EdgeRemoved(u, v) => maint.remove_edge(&mutable, u, v),
            Applied::VertexAdded(_) => {}
            Applied::AttributesSet(_) | Applied::NoOp => continue,
        }
        let snap = mutable.publish();
        let table;
        (table, nodes) = maint.publish(&snap, &nodes);
        prop_assert_eq!(
            table.chunks().concat(),
            truss_decomposition(&snap),
            "after {:?}",
            update
        );
        prop_assert_eq!(&nodes, &node_max_trussness(&snap), "after {:?}", update);
        checked += 1;
        highest = highest.max(nodes.iter().copied().max().unwrap_or(0));
    }
    Ok((checked, highest))
}

/// `(block of each node, edges drawn over node pairs, batches of raw ops)`.
type EpochCase = (Vec<u8>, Vec<(u32, u32)>, Vec<Vec<(u8, u32, u32)>>);

/// Graphs of up to 31 nodes dealt to four blocks with no edge between
/// blocks (components interleave in id order, some nodes are isolated),
/// and up to 8 batches of up to 12 ops (an empty batch moves no edge).
/// kind: 0–2 = add an edge inside `a`'s block, 3–4 = remove one of `a`'s
/// edges, 5 = add a vertex (to block `id % 4`).
fn arb_epochs() -> impl Strategy<Value = EpochCase> {
    (2usize..32).prop_flat_map(|n| {
        let block = prop::collection::vec(0u8..4, n);
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..140);
        let op = (0u8..6, 0u32..64, 0u32..64);
        let batches = prop::collection::vec(prop::collection::vec(op, 0..12), 1..9);
        (block, edges, batches)
    })
}

/// A store's epoch protocol at this crate's level (the store-level
/// property in the root crate's `tests/store_churn.rs` is the tier-1
/// run): the first epoch's index decomposes and the repair adopts its
/// table; each batch publishes a table and node trussness that seed the
/// next epoch's index. Every published epoch must hold the
/// decomposition and, for every q and every k from 2 to 6 in both
/// models, walk the root the whole graph's peel gives. Returns the
/// batches checked.
fn check_epochs((mut block, edges, batches): EpochCase) -> Result<usize, TestCaseError> {
    let same_block = |&(u, v): &(u32, u32)| block[u as usize] == block[v as usize];
    let edges: Vec<(u32, u32)> = edges.into_iter().filter(same_block).collect();
    let mut graph = Arc::new(build(block.len(), &edges));
    let mut index = EpochIndex::new();
    let adopted = index.edge_trussness(&graph).clone();
    let mut maint = TrussMaintainer::adopt(Arc::clone(&graph), adopted);
    let mut mutable = MutableGraph::from_arc(Arc::clone(&graph));
    for batch in &batches {
        for &(kind, a, b) in batch {
            let u = a % mutable.n() as u32;
            let nbrs = mutable.neighbors(u);
            let update = match kind {
                0..=2 => {
                    let mates =
                        (0..mutable.n() as u32).filter(|&w| block[w as usize] == block[u as usize]);
                    let mates: Vec<NodeId> = mates.collect();
                    GraphUpdate::AddEdge {
                        u,
                        v: mates[b as usize % mates.len()],
                    }
                }
                3 | 4 if nbrs.is_empty() => continue,
                3 | 4 => GraphUpdate::RemoveEdge {
                    u,
                    v: nbrs[b as usize % nbrs.len()],
                },
                _ => GraphUpdate::AddVertex {
                    tokens: vec![],
                    numeric: vec![],
                },
            };
            match mutable.apply(&update).unwrap() {
                Applied::EdgeAdded(u, v) => maint.insert_edge(&mutable, u, v),
                Applied::EdgeRemoved(u, v) => maint.remove_edge(&mutable, u, v),
                Applied::VertexAdded(v) => block.push(v as u8 % 4),
                Applied::AttributesSet(_) | Applied::NoOp => {}
            }
        }
        let next = mutable.publish();
        let (table, nodes) = maint.publish(&next, index.node_trussness(&graph));
        index = EpochIndex::seeded(core_decomposition(&next), Some(nodes), Some(table));
        graph = next;
        let g = graph.as_ref();
        prop_assert_eq!(
            index.edge_trussness(g).chunks().concat(),
            truss_decomposition(g)
        );
        prop_assert_eq!(index.node_trussness(g).to_vec(), node_max_trussness(g));
        let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
        for model in [CommunityModel::KCore, CommunityModel::KTruss] {
            for k in 2..=6 {
                let mut m = Maintainer::new(g, &index, model, k);
                for &q in &all {
                    let root = m.maximal(q);
                    prop_assert_eq!(root, m.maximal_within(q, &all), "{} k={} q={}", model, k, q);
                }
            }
        }
        prop_assert_eq!(index.truss_decomp_computations(), 0);
    }
    Ok(batches.len())
}

/// The longer offline run of the same property (CHANGES.md quotes it),
/// then of a store's epoch protocol ([`check_epochs`]):
/// `cargo test -p csag-decomp --release --test prop_maintain -- --ignored`.
#[test]
#[ignore = "4 000 cases, well over 100 000 single updates, then 2 000 cases of published epochs; run on demand"]
fn maintained_edge_trussness_matches_decomposition_long_run() {
    use rand::{rngs::StdRng, SeedableRng};
    let strategy = arb_dense_churn();
    let (mut updates, mut highest) = (0, 0);
    for case in 0..4_000u64 {
        let mut rng = StdRng::seed_from_u64(0x7255_5353 ^ case);
        match check_dense_case(strategy.generate(&mut rng)) {
            Ok((checked, top)) => {
                updates += checked;
                highest = highest.max(top);
            }
            Err(e) => panic!("case {case}: {e}"),
        }
    }
    assert!(updates >= 100_000, "only {updates} updates changed a graph");
    println!("{updates} single updates, zero mismatches, trussness up to {highest}");
    let strategy = arb_epochs();
    let mut epochs = 0;
    for case in 0..2_000u64 {
        let mut rng = StdRng::seed_from_u64(0xE90C ^ case);
        match check_epochs(strategy.generate(&mut rng)) {
            Ok(checked) => epochs += checked,
            Err(e) => panic!("epoch case {case}: {e}"),
        }
    }
    println!("{epochs} published epochs, zero mismatches");
}
