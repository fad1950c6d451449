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
//! numbers) identical too, and with the global trussness of the union's
//! edges: every union edge is a global edge, and q's component holds
//! its global rows whole, so a k-truss root walked from q on the union is
//! the global one, and the gather decomposes nothing.

use super::merge;
use super::ClusterView;
use crate::engine::query::CommunityQuery;
use crate::engine::store::Snapshot;
use crate::engine::{CommunityResult, CsagError, Engine, GraphUpdate, Method};
use csag_decomp::{CommunityModel, EdgeTrussness, EpochIndex};
use csag_graph::{AttributedGraph, MutableGraph, NodeId, QueryWorkspace};
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
    Snapshot::from_engine(Arc::new(union_engine(view, mg.snapshot(), true)))
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
    // Only a root reads per-edge trussness (the planner's peel-certified
    // methods); SEA and ATC reads never pay for the table.
    let roots = query.model == CommunityModel::KTruss
        && matches!(
            query.method,
            Method::Exact | Method::Acq | Method::Vac | Method::EVac
        );
    let engine = union_engine(view, component_union(view, query.q), roots);
    let mut result = engine.run_with_workspace(query, ws)?;
    result.certificate = merge::merge_certificates(&[result.certificate]);
    Ok(result)
}

/// The carve of `q`'s home shard plus every edge of `q`'s connected
/// component, each read at its owner.
fn component_union(view: &ClusterView, q: NodeId) -> AttributedGraph {
    let mut mg = MutableGraph::from_graph(view.shard(view.owner(q)).engine().graph());
    let mut in_component = vec![false; mg.n()];
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
    mg.snapshot()
}

/// Wraps a gathered union graph in an engine at the view's epoch,
/// seeded with the journal's global core decomposition and node
/// trussness (which every k-truss routing decision pays for): precheck
/// messages quote global numbers, exactly as a single store would. With
/// `roots`, the union's per-edge table is the journal's value of each
/// union edge, gathered in one pass over the union's rows (a row the
/// union holds whole is copied as it stands).
fn union_engine(view: &ClusterView, graph: AttributedGraph, roots: bool) -> Engine {
    let journal = view.journal().engine();
    let global = journal.graph();
    let edges = journal
        .index()
        .edge_trussness_if_computed()
        .filter(|_| roots);
    let edges = edges.map(|table| {
        let mut flat = Vec::with_capacity(2 * graph.m());
        for v in 0..graph.n() as NodeId {
            let (all, row) = (global.neighbors(v), table.row(global, v));
            let mine = graph.neighbors(v);
            if mine.len() == all.len() {
                flat.extend_from_slice(row);
            } else {
                let at = |w| all.binary_search(w).expect("a union edge is a global edge");
                flat.extend(mine.iter().map(|w| row[at(w)]));
            }
        }
        EdgeTrussness::new(&graph, &flat)
    });
    let index = EpochIndex::seeded(
        journal.coreness().to_vec(),
        journal.index().node_trussness_if_computed().cloned(),
        edges,
    );
    Engine::from_store_parts(Arc::new(graph), view.epoch(), index, Vec::new(), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ShardedRouter;
    use csag_datasets::generator::{generate, SyntheticConfig};

    /// A spilled k-truss root is walked on the union over the journal's
    /// per-edge values: the same answer as the whole graph's, and no
    /// truss decomposition of the union.
    #[test]
    fn a_gathered_truss_root_decomposes_nothing() {
        let config = SyntheticConfig {
            nodes: 120,
            communities: 4,
            ..SyntheticConfig::default()
        };
        let router = ShardedRouter::over_graph(generate(&config, 5).0, 3, 1, 0);
        let view = router.view();
        let journal = view.journal().engine();
        journal.node_trussness(); // what every k-truss routing decision reads
        for q in (0..120).step_by(3) {
            let union = union_engine(&view, component_union(&view, q), true);
            for k in 2..=5 {
                let query = CommunityQuery::new(Method::Acq, q)
                    .with_model(CommunityModel::KTruss)
                    .with_k(k);
                let (a, b) = (journal.run(&query), union.run(&query));
                assert_eq!(
                    a.map(|r| r.community).map_err(|e| e.to_string()),
                    b.map(|r| r.community).map_err(|e| e.to_string()),
                    "q={q} k={k}"
                );
            }
            assert_eq!(union.truss_decomp_computations(), 0, "q={q}");
        }
    }
}
