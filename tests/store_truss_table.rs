//! A store keeps one per-edge trussness table per epoch, not a second
//! copy beside it: the truss repair adopts the table the first k-truss
//! read's decomposition left on the epoch, edits copies of only the rows
//! a batch touches, and publishes the next epoch's table, which shares
//! every chunk the batch left untouched; a batch that moves no edge
//! shares them all.
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! delta.

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::decomp::{truss_decomposition, EdgeTrussness};
use csag::engine::{CommunityQuery, GraphStore, GraphUpdate, Method};
use csag::graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag::graph::{AttributedGraph, NodeId};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations of the first structural batch are bounded by this, far
/// below one per non-isolated node (a per-node copy of the table is
/// thousands).
const FIRST_APPLY_BUDGET: u64 = 200;

/// Two toggles inside the planted community of node 0: an edge added
/// between two members that are not adjacent, and one of 0's edges
/// removed.
fn toggles(g: &AttributedGraph, community: &[NodeId]) -> Vec<GraphUpdate> {
    let (u, v) = community
        .iter()
        .flat_map(|&u| community.iter().map(move |&v| (u, v)))
        .find(|&(u, v)| u < v && !g.has_edge(u, v))
        .expect("a community is not a clique");
    let w = g.neighbors(0)[0];
    vec![
        GraphUpdate::AddEdge { u, v },
        GraphUpdate::RemoveEdge { u: 0, v: w },
    ]
}

#[test]
fn the_store_publishes_one_table_per_epoch_and_copies_only_touched_rows() {
    assert!(
        counting_enabled(),
        "this binary must be counting allocations"
    );
    let config = SyntheticConfig {
        nodes: 2_000,
        communities: 20,
        ..SyntheticConfig::default()
    };
    let (g, planted) = generate(&config, 5);
    let community = planted
        .iter()
        .find(|c| c.contains(&0))
        .expect("0 is planted");
    let batch = toggles(&g, community);
    let non_isolated = (0..g.n() as NodeId)
        .filter(|&v| !g.neighbors(v).is_empty())
        .count() as u64;
    assert!(non_isolated >= 10 * FIRST_APPLY_BUDGET, "{non_isolated}");

    // The quietest of three fresh stores (the harness keeps a thread of
    // its own): the first structural batch after a k-truss read.
    let mut quietest = u64::MAX;
    let mut store = None;
    for _ in 0..3 {
        let fresh = GraphStore::new(g.clone());
        let read = CommunityQuery::new(Method::Acq, 0)
            .with_k(3)
            .with_model(csag::decomp::CommunityModel::KTruss);
        fresh.run(&read).expect("0 sits in a 3-truss");
        let epoch0 = fresh.snapshot();
        let before = allocation_count();
        fresh.apply(&batch).expect("endpoints exist");
        quietest = quietest.min(allocation_count() - before);
        store = Some((fresh, epoch0));
    }
    println!("first structural apply: {quietest} allocations, {non_isolated} non-isolated nodes");
    assert!(
        quietest <= FIRST_APPLY_BUDGET,
        "the first structural apply allocated {quietest} times (budget {FIRST_APPLY_BUDGET})"
    );

    let (store, epoch0) = store.expect("three stores");
    let snap = store.snapshot();
    let table = snap
        .engine()
        .index()
        .edge_trussness_if_computed()
        .expect("the repair published the epoch's table")
        .clone();
    assert_eq!(table.chunks().concat(), truss_decomposition(snap.graph()));
    assert_eq!(snap.engine().truss_decomp_computations(), 0);
    let adopted = epoch0.engine().index().edge_trussness_if_computed();
    let kept = adopted.map_or(0, |t| shared(t, &table));
    let chunks = table.chunks().len();
    println!("the batch's epoch shares {kept} of {chunks} chunks with the one before");
    assert!(4 * kept >= 3 * chunks, "{kept} of {chunks} chunks shared");

    // An attribute-only batch publishes the very same table.
    store
        .apply(&[GraphUpdate::SetAttributes {
            v: 3,
            tokens: Some(vec!["elsewhere".into()]),
            numeric: None,
        }])
        .expect("node 3 exists");
    let next = store.snapshot();
    assert_eq!(next.epoch(), snap.epoch() + 1);
    let same = next.engine().index().edge_trussness_if_computed();
    assert_eq!(same.map(|t| shared(t, &table)), Some(chunks));
}

/// How many chunks `a` and `b` share, position by position.
fn shared(a: &EdgeTrussness, b: &EdgeTrussness) -> usize {
    let pairs = a.chunks().iter().zip(b.chunks());
    pairs.filter(|(x, y)| Arc::ptr_eq(x, y)).count()
}
