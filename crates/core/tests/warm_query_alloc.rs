//! The allocation budget of the *real* warm SEA query.
//!
//! `zero_alloc.rs` pins the inner loop on a hand-written re-enactment;
//! this binary runs [`Sea::run_in_workspace`] itself — reused
//! [`QueryWorkspace`], resident [`QueryDistances`] — under the counting
//! allocator and asserts two things about its allocations per query:
//!
//! * they do not depend on the size of the graph's token vocabulary (SEA
//!   is index-free: its cost is bounded by the sampled neighborhood, and
//!   a per-query copy of the population used to clone the whole interner,
//!   two `String`s per token — which is also why a generator graph with
//!   pre-interned, unused pool tokens answered slower than the same graph
//!   re-read from text);
//! * they stay under a small fixed bound (what is left is the round log
//!   and the returned community; the peel scratch and the BLB buffers are
//!   the workspace's).
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! delta.

use csag_core::distance::{DistanceParams, QueryDistances};
use csag_core::sea::{Sea, SeaParams};
use csag_decomp::{CommunityModel, EpochIndex};
use csag_graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag_graph::{AttributedGraph, GraphBuilder, NodeId, QueryWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Six planted 40-node communities in a ring, ten distinct tokens in use;
/// deterministic (edge pattern from index arithmetic). `unused_tokens`
/// more are interned *after* every node, so token ids, structure and
/// numerics — hence every `f(·,q)` — are identical whatever its value.
fn planted(unused_tokens: usize) -> AttributedGraph {
    const BLOCK: u32 = 40;
    const BLOCKS: u32 = 6;
    let topics = ["t0", "t1", "t2", "t3", "t4", "t5"];
    let tags = ["x", "y", "z", "w"];
    let mut b = GraphBuilder::new(1);
    for i in 0..BLOCK * BLOCKS {
        let block = (i / BLOCK) as usize;
        let value = block as f64 / BLOCKS as f64 + (i % 7) as f64 * 0.01;
        b.add_node(&[topics[block], tags[(i % 4) as usize]], &[value]);
    }
    for block in 0..BLOCKS {
        let base = block * BLOCK;
        for u in base..base + BLOCK {
            for v in (u + 1)..base + BLOCK {
                if (u + v) % 3 != 0 {
                    b.add_edge(u, v).unwrap();
                }
            }
        }
        let next = (block + 1) % BLOCKS * BLOCK;
        for i in 0..3 {
            b.add_edge(base + i, next + i).unwrap();
        }
    }
    for t in 0..unused_tokens {
        b.intern(&format!("unused-{t}"));
    }
    b.build().unwrap()
}

/// Allocations per warm query on `g` (quietest of a few windows — the
/// libtest harness keeps a thread of its own), with the answers' δ⋆ bits
/// so the two graphs can be shown to do identical work.
fn warm_allocations(g: &AttributedGraph, params: &SeaParams) -> (f64, Vec<u64>) {
    const QUERIES: u64 = 16;
    let q: NodeId = 5;
    let index = EpochIndex::new();
    let sea = Sea::new(g, &index, DistanceParams::default());
    let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
    let mut ws = QueryWorkspace::new();
    let window = |ws: &mut QueryWorkspace| -> (u64, Vec<u64>) {
        let mut deltas = Vec::with_capacity(QUERIES as usize);
        let before = allocation_count();
        for seed in 0..QUERIES {
            let res = sea
                .run_in_workspace(q, params, &mut StdRng::seed_from_u64(seed), &dist, ws)
                .expect("the planted community exists");
            deltas.push(res.delta_star.to_bits());
        }
        (allocation_count() - before, deltas)
    };
    // Warm-up: the distance table fills and the pools reach their
    // high-water mark.
    let (_, reference) = window(&mut ws);
    let mut quietest = u64::MAX;
    for _ in 0..5 {
        let (allocations, deltas) = window(&mut ws);
        assert_eq!(deltas, reference, "same seeds, same answers");
        quietest = quietest.min(allocations);
    }
    (quietest as f64 / QUERIES as f64, reference)
}

#[test]
fn warm_query_allocations_are_small_and_independent_of_the_vocabulary() {
    assert!(
        counting_enabled(),
        "this binary must be counting allocations"
    );
    let small = planted(0);
    let large = planted(10_000);
    assert_eq!(small.interner().len(), 10);
    assert_eq!(large.interner().len(), 10_010);
    assert_eq!((small.n(), small.m()), (large.n(), large.m()));

    // Measured: 2.0 (k-core) and 2.125 (k-truss) — the round log and the
    // returned community; the peel scratch and BLB's buffers come from
    // the workspace. One more per-query allocation of any kind (an `O(n)`
    // peel array, a BLB subsample per candidate) fails the budget.
    for (model, budget) in [(CommunityModel::KCore, 2.1), (CommunityModel::KTruss, 2.2)] {
        // A query that certifies within a couple of rounds: the round log
        // grows with the rounds.
        let params = SeaParams::default()
            .with_k(4)
            .with_model(model)
            .with_error_bound(0.2);
        let (few, answers_small) = warm_allocations(&small, &params);
        let (many, answers_large) = warm_allocations(&large, &params);
        assert_eq!(answers_small, answers_large, "{model}: identical work");
        assert_eq!(
            few, many,
            "{model}: allocations per warm query must not depend on the vocabulary \
             ({few} with 10 tokens, {many} with 10 010)"
        );
        assert!(
            few.max(many) <= budget,
            "{model}: {few} / {many} allocations per warm query (budget {budget})"
        );
    }
}
