//! The scatter-gather spill path: when a candidate region is not
//! provably confined to one shard's coverage, the planner collects the
//! region's edge fragments from every owning shard, re-builds the
//! union, and re-peels the query on it.
//!
//! Soundness rests on ownership totality: every vertex is covered by
//! its owner, so scanning `v`'s adjacency *at its owner's shard* reads
//! `v`'s complete global edge list. A cross-shard BFS from `q` that
//! always expands through the owner therefore reconstructs `q`'s
//! entire connected component exactly — and every community method is
//! connectivity-confined (peels, seeds, and samples never leave `q`'s
//! component), so the union answers byte-identically to the global
//! store. The union engine is seeded with the journal's *global* core
//! decomposition, keeping precheck messages (which quote global core
//! numbers) identical too.

use super::merge;
use super::ClusterView;
use crate::engine::query::CommunityQuery;
use crate::engine::store::Snapshot;
use crate::engine::{CommunityResult, CsagError, Engine, GraphUpdate};
use csag_graph::{MutableGraph, NodeId, QueryWorkspace};
use std::sync::Arc;

/// Re-builds the full global graph from the shards alone (no journal
/// edges): shard 0's carve plus every vertex's owner-shard adjacency.
/// This is the view's lazy whole-graph assembly — the compatibility
/// path behind [`crate::cluster::RoutedSnapshot::snapshot`] — and a
/// standing proof that the shards collectively hold every edge.
pub(crate) fn assemble_full(view: &ClusterView) -> Snapshot {
    let journal = view.journal().engine();
    let n = journal.graph().n();
    let mut mg = MutableGraph::from_graph(view.shard(0).engine().graph());
    for v in 0..n as NodeId {
        let owner = view.owner(v);
        for &w in view.shard(owner).engine().graph().neighbors(v) {
            if v < w && !mg.has_edge(v, w) {
                mg.apply(&GraphUpdate::AddEdge { u: v, v: w })
                    .expect("both endpoints exist on every shard");
            }
        }
    }
    Snapshot::from_engine(Arc::new(union_engine(view, mg.snapshot())))
}

/// Gathers `q`'s connected component across the shards and re-runs the
/// query on the union: starting from the home shard's carve, a BFS
/// that reads each popped vertex's adjacency at its *owner* shard adds
/// every missing component edge. Returns the union result with its
/// fragment certificates conservatively merged
/// ([`merge::merge_certificates`] — an identity for the single
/// re-peeled union, so the spill path never perturbs certificate
/// bytes).
pub(crate) fn run(
    view: &ClusterView,
    query: &CommunityQuery,
    ws: &mut QueryWorkspace,
) -> Result<CommunityResult, CsagError> {
    let q = query.q;
    let home = view.owner(q);
    let mut mg = MutableGraph::from_graph(view.shard(home).engine().graph());
    let n = mg.n();
    let mut in_component = vec![false; n];
    let mut stack = vec![q];
    in_component[q as usize] = true;
    while let Some(v) = stack.pop() {
        let owner = view.owner(v);
        // The owner covers v, so this is v's complete global adjacency.
        for &w in view.shard(owner).engine().graph().neighbors(v) {
            if !mg.has_edge(v, w) {
                mg.apply(&GraphUpdate::AddEdge { u: v, v: w })
                    .expect("both endpoints exist on every shard");
            }
            if !in_component[w as usize] {
                in_component[w as usize] = true;
                stack.push(w);
            }
        }
    }
    let engine = union_engine(view, mg.snapshot());
    let mut result = engine.run_with_workspace(query, ws)?;
    result.certificate = merge::merge_certificates(&[result.certificate]);
    Ok(result)
}

/// Wraps a gathered union graph in an engine at the view's epoch,
/// seeded with the journal's global core decomposition (and trussness,
/// when some routing decision already paid for it): precheck messages
/// quote global numbers, exactly as a single store would.
fn union_engine(view: &ClusterView, graph: csag_graph::AttributedGraph) -> Engine {
    let journal = view.journal().engine();
    Engine::from_store_parts(
        Arc::new(graph),
        view.epoch(),
        journal.coreness().to_vec(),
        journal.index().node_trussness_if_computed().cloned(),
        Vec::new(),
        Vec::new(),
    )
}
