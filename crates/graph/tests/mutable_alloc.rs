//! The allocation budget of the [`MutableGraph`] overlay.
//!
//! An overlay shares the graph it edits and holds only the rows a batch
//! touched, so opening one allocates nothing per node, and a small batch
//! plus its snapshot allocates per edited row, per adjacency chunk holding
//! one, and per output buffer: the snapshot shares every other chunk with
//! the graph. A working copy of per-node `Vec`s allocates twice per node
//! to open (20 016 times on this graph) and once per node to snapshot,
//! and a snapshot that rebuilt every chunk would allocate once per chunk
//! (625 times).
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! delta.

use csag_graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag_graph::graph::CHUNK;
use csag_graph::{Applied, AttributedGraph, GraphBuilder, GraphUpdate, MutableGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const NODES: usize = 10_000;

/// A community-structured graph: 50 blocks of 200 nodes, each node with
/// about ten edges (mostly inside its block), three tokens from its
/// block's pool and two numerics.
fn generated() -> AttributedGraph {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::with_capacity(2, NODES, 5 * NODES);
    for v in 0..NODES {
        let block = v / 200;
        let tokens: Vec<String> = (0..3)
            .map(|_| format!("topic-{block}-{}", rng.gen_range(0..8)))
            .collect();
        let names: Vec<&str> = tokens.iter().map(String::as_str).collect();
        b.add_node(&names, &[rng.gen_range(0.0..10.0), rng.gen_range(0.0..1e6)]);
    }
    for v in 0..NODES as NodeId {
        for _ in 0..5 {
            let w = if rng.gen_bool(0.9) {
                v / 200 * 200 + rng.gen_range(0..200u32)
            } else {
                rng.gen_range(0..NODES as NodeId)
            };
            b.add_edge(v, w).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn overlays_allocate_per_edited_row_not_per_node() {
    assert!(
        counting_enabled(),
        "this binary must be counting allocations"
    );
    let g = Arc::new(generated());
    let mut rng = StdRng::seed_from_u64(11);
    let batch: Vec<GraphUpdate> = (0..16)
        .map(|_| GraphUpdate::AddEdge {
            u: rng.gen_range(0..NODES as NodeId),
            v: rng.gen_range(0..NODES as NodeId),
        })
        .collect();

    let before = allocation_count();
    let shared = MutableGraph::from_arc(Arc::clone(&g));
    let from_arc = allocation_count() - before;

    let before = allocation_count();
    let mut copied = MutableGraph::from_graph(&g);
    let from_graph = allocation_count() - before;

    let before = allocation_count();
    let mut applied = Vec::with_capacity(batch.len());
    for update in &batch {
        applied.push(copied.apply(update).unwrap());
    }
    let snapshot = copied.snapshot();
    let batch_and_snapshot = allocation_count() - before;

    // A row allocates on its first edit, and again only when a second
    // edit outgrows it; each chunk holding an edited row is built with one
    // allocation. The rest (12 on this batch) is the slot index, the
    // offsets, the chunk table and the doubling of the buffer the chunks
    // are laid out in.
    let ends: Vec<NodeId> = applied
        .iter()
        .flat_map(|a| match *a {
            Applied::EdgeAdded(u, v) => vec![u, v],
            _ => Vec::new(),
        })
        .collect();
    let chunks: BTreeSet<usize> = ends.iter().map(|&v| v as usize / CHUNK).collect();
    let budget = (ends.len() + chunks.len() + 20) as u64;
    assert!(
        budget < (NODES / CHUNK) as u64,
        "the bound must fail a full rebuild"
    );

    assert_eq!((shared.n(), shared.m()), (g.n(), g.m()));
    assert_eq!(snapshot.n(), NODES);
    assert!(snapshot.m() > g.m(), "the batch added edges");
    assert!(
        std::ptr::eq(snapshot.attrs(), g.attrs()),
        "no attribute changed"
    );
    assert!(from_arc <= 2, "from_arc allocated {from_arc} times");
    assert!(from_graph <= 4, "from_graph allocated {from_graph} times");
    assert!(
        batch_and_snapshot <= budget,
        "a 16-edge batch and its snapshot allocated {batch_and_snapshot} times \
         (budget {budget}: {} row edits in {} chunks)",
        ends.len(),
        chunks.len()
    );
    let shared = (snapshot.row_chunks().iter().zip(g.row_chunks()))
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    assert_eq!(
        shared,
        NODES / CHUNK - chunks.len(),
        "untouched chunks are shared"
    );
}
