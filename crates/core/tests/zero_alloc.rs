//! The zero-allocation guarantee of the workspace-reused query hot loop.
//!
//! This binary registers the counting global allocator and drives the
//! steady-state SEA inner loop — neighborhood growth, both as the
//! component walk and best-first, plus the [`prefix_ladder`] of candidate
//! peels under both community models — through a reused
//! [`QueryWorkspace`], with a [`Maintainer`] per read that checks its peel
//! scratch out of the workspace and hands it back, as the engine's SEA and
//! Exact do. After a short warm-up
//! (pools grow to their high-water mark), repeating the loop must perform
//! **exactly zero** heap allocations.
//!
//! Keep this file at ONE `#[test]`: the allocation counter is
//! process-wide, so a concurrently running sibling test would pollute the
//! delta.

use csag_core::distance::{DistanceParams, QueryDistances};
use csag_core::sea::{grow_neighborhood_into, prefix_ladder};
use csag_decomp::{CommunityModel, EpochIndex, Maintainer};
use csag_graph::alloc_counter::{allocation_count, counting_enabled, CountingAllocator};
use csag_graph::{AttributedGraph, GraphBuilder, NodeId, QueryWorkspace};
use std::ops::ControlFlow;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Two planted 16-node communities bridged by a few edges; deterministic
/// (no RNG — edge pattern from index arithmetic) so every loop iteration
/// does identical work.
fn planted() -> AttributedGraph {
    let mut b = GraphBuilder::new(1);
    for i in 0..32u32 {
        let base = if i < 16 { 0.1 } else { 0.9 };
        let topic = if i < 16 { "alpha" } else { "beta" };
        b.add_node(&[topic], &[base + (i % 7) as f64 * 0.01]);
    }
    for block in [0u32, 16] {
        for u in block..block + 16 {
            for v in (u + 1)..block + 16 {
                if (u + v) % 3 != 0 {
                    b.add_edge(u, v).unwrap();
                }
            }
        }
    }
    for i in 0..4u32 {
        b.add_edge(i, 16 + i).unwrap();
    }
    b.build().unwrap()
}

/// One steady-state iteration: grow the neighborhood both ways, then walk
/// the f-ordered prefix ladder under each model, accumulating every
/// candidate's rung δ numerator over its size.
fn hot_loop(
    g: &AttributedGraph,
    q: NodeId,
    dist: &QueryDistances,
    ws: &mut QueryWorkspace,
    index: &EpochIndex,
    component: &mut Vec<NodeId>,
    grown: &mut Vec<NodeId>,
) -> f64 {
    // Both growth branches: the component walk (size ≥ n) and best-first.
    grow_neighborhood_into(g, q, g.n(), dist, ws, component);
    assert_eq!(component.len(), g.n(), "the bridges connect both blocks");
    grow_neighborhood_into(g, q, 24, dist, ws, grown);

    let mut checksum = 0.0;
    for (model, k) in [(CommunityModel::KCore, 3), (CommunityModel::KTruss, 4)] {
        let mut m = Maintainer::in_workspace(g, index, model, k, ws);
        let min_members = m.min_size();
        prefix_ladder(&mut m, dist, grown, min_members, None, ws, |rung, cand| {
            if let Some(cand) = cand {
                checksum += rung.iter().map(|&(f, _)| f).sum::<f64>() / cand.len() as f64;
            }
            ControlFlow::Continue(())
        });
        m.release(ws);
    }
    checksum
}

#[test]
fn steady_state_query_loop_allocates_nothing() {
    assert!(
        counting_enabled(),
        "this binary must be counting allocations"
    );
    let g = planted();
    let q: NodeId = 0;
    let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
    let mut ws = QueryWorkspace::new();
    let index = EpochIndex::new();
    let (mut component, mut grown) = (Vec::new(), Vec::new());
    let mut run =
        |ws: &mut QueryWorkspace| hot_loop(&g, q, &dist, ws, &index, &mut component, &mut grown);

    // Warm-up: pools and the distance table reach their high-water mark.
    let reference = run(&mut ws);
    assert!(reference.is_finite() && reference > 0.0);
    for _ in 0..2 {
        run(&mut ws);
    }

    // Steady state: bit-identical work, zero allocator traffic. The
    // counter is process-wide and the libtest harness keeps a thread of
    // its own, so a stray background allocation can land inside the
    // measured window; the guarantee under test is that the *loop* is
    // allocation-free, so take the minimum over a few windows — noise is
    // transient, a leak in the loop shows up in every window.
    let mut min_allocations = u64::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        let mut checksum = 0.0;
        for _ in 0..64 {
            checksum += run(&mut ws);
        }
        let allocations = allocation_count() - before;
        assert!((checksum - 64.0 * reference).abs() < 1e-9, "same answers");
        min_allocations = min_allocations.min(allocations);
        if min_allocations == 0 {
            break;
        }
    }
    assert_eq!(
        min_allocations, 0,
        "workspace-reused hot loop must not allocate (saw {min_allocations} in its quietest window)"
    );
}
