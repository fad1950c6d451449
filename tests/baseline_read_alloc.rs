//! The allocation budget of a warm baseline read through the engine.
//!
//! ACQ, LocATC, VAC and E-VAC peel on the worker's pooled peel scratch
//! (`Maintainer::in_workspace` / `release`, as SEA and Exact do), and VAC
//! reads `f(·,q)` from the engine's distance table. So a warm read on a
//! reused [`QueryWorkspace`] with a resident table allocates only what
//! the method's own search builds. LocATC and VAC peel each probe's
//! subset into buffers they reuse across probes, so they allocate a
//! handful of buffers per read, not one per probe; E-VAC keeps every
//! state it visits, which is its algorithm. A per-read `O(n)` peel array
//! or distance table fails the budget. A refused E-VAC read
//! ([`CsagError::BudgetExhausted`]) must hand the scratch back too.
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! delta.

use csag::decomp::CommunityModel;
use csag::engine::{CommunityQuery, CsagError, Engine, Method};
use csag::graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag::graph::{AttributedGraph, GraphBuilder, NodeId, QueryWorkspace};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const Q: NodeId = 5;

/// Six planted 12-node communities in a ring, joined by three edges each;
/// deterministic (edge pattern from index arithmetic).
fn planted() -> AttributedGraph {
    const BLOCK: u32 = 12;
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
    b.build().unwrap()
}

/// Allocations per warm read of `query` on one reused workspace (quietest
/// of a few windows — the libtest harness keeps a thread of its own).
fn warm_allocations(engine: &Engine, query: &CommunityQuery, ws: &mut QueryWorkspace) -> f64 {
    const READS: u64 = 8;
    let reference = engine.run_with_workspace(query, ws).expect("a community");
    let mut quietest = u64::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        for _ in 0..READS {
            let answer = engine.run_with_workspace(query, ws).expect("a community");
            assert_eq!(answer.community, reference.community, "{}", query.method);
        }
        quietest = quietest.min(allocation_count() - before);
    }
    quietest as f64 / READS as f64
}

#[test]
fn warm_baseline_reads_borrow_the_workspace_and_the_distance_table() {
    assert!(
        counting_enabled(),
        "this binary must be counting allocations"
    );
    let engine = Engine::new(planted());
    let n = engine.graph().n();
    let mut ws = QueryWorkspace::new();

    // Measured per warm read, ACQ / LocATC / VAC / E-VAC (16 states):
    // 23 / 36 / 19 / 385 under k-core and 17 / 18 / 10 / 109 under
    // k-truss (a k-truss root is a walk of the edge table, no peel): the
    // seed ball, the reused probe buffers as they grow, the E-VAC states
    // and the answer. A peel scratch of the read's own (five
    // `n`-sized node arrays, and the lists and slots it grows), a fresh
    // `f(·,q)` table or a buffer per probe is over.
    for (model, budgets) in [
        (CommunityModel::KCore, [23.0, 36.0, 19.0, 385.0]),
        (CommunityModel::KTruss, [17.0, 18.0, 10.0, 109.0]),
    ] {
        let query = |method| CommunityQuery::new(method, Q).with_k(4).with_model(model);
        let reads = [
            query(Method::Acq),
            query(Method::Atc),
            query(Method::Vac),
            query(Method::EVac).with_step_budget(16),
        ];
        for (read, budget) in reads.iter().zip(budgets) {
            // Two misses admit q's table; every read after is warm.
            engine
                .run_with_workspace(read, &mut ws)
                .expect("a community");
            let allocations = warm_allocations(&engine, read, &mut ws);
            assert!(
                engine.cached_distances(Q, read.gamma).is_some(),
                "q's table is resident"
            );
            assert!(
                allocations <= budget,
                "{} {model}: {allocations} allocations per warm read (budget {budget})",
                read.method
            );
        }
    }

    // A refused E-VAC read hands the pooled scratch back: the next
    // checkout is the one the reads fitted to `n`.
    let refused = CommunityQuery::new(Method::EVac, Q)
        .with_k(4)
        .with_evac_max_root(Some(2));
    assert_eq!(
        engine.run_with_workspace(&refused, &mut ws).unwrap_err(),
        CsagError::BudgetExhausted
    );
    let scratch = ws.take_peel();
    assert!(
        scratch.node.iter().all(|a| a.len() >= n),
        "the refused read released the scratch it checked out"
    );
}
