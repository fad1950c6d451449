//! The query planner: decides, per [`CommunityQuery`], whether the
//! owning shard can answer alone or the candidate region crosses a
//! shard boundary and the read spills to the view's journal snapshot.
//!
//! The contract is absolute: a sharded cluster answers **byte-identical
//! to a single store** for every query — results, certificates, and
//! error messages alike. Routing is therefore proof-driven, never
//! heuristic: a query runs shard-local only when the planner has
//! *certified* that the method's entire read footprint lies inside the
//! home shard's coverage (where shard adjacency equals global
//! adjacency). Anything short of a proof spills: the journal snapshot
//! holds the whole graph at the view's epoch, with its global tables, so
//! a spilled read is the single store's read.
//!
//! Three certificates are in play, matched to how the methods read the
//! graph:
//!
//! * **Pessimistic peel** (exact and the deterministic baselines):
//!   peel the home shard to the `k`-core, but treat uncovered vertices
//!   as unpeelable — their shard degree is a lower bound, so removing
//!   them could be wrong, while *keeping* them only enlarges the
//!   result. The surviving superset contains the true global `k`-core;
//!   if `q`'s component in it is fully covered, that component *is*
//!   the global maximal community region, entirely resident.
//! * **Growth replay** (SEA): re-run the best-first neighborhood
//!   growth on the shard. The growth reads only collected nodes'
//!   adjacency, so if every collected node is covered the sampled
//!   population `G_q` is exact. When Theorem 10's bound reaches `n`,
//!   `G_q` is q's component (SEA's own population rule), so the
//!   certificate is q's global component lying inside the coverage.
//! * **Seed replay** (LocATC): re-run the bounded BFS seed; the search
//!   never leaves the seed-induced subgraph.
//!
//! Screens come first: the engine's precheck rejections quote *global*
//! core/trussness numbers, so a query the global screen rejects may
//! run locally only when the shard's screen fires with the very same
//! numbers — otherwise it spills just to reproduce the right error
//! bytes. Never overclaim extends to error messages.

use super::{ClusterView, ShardStats};
use crate::engine::query::CommunityQuery;
use crate::engine::{CommunityResult, CsagError, Engine, Method};
use csag_core::distance::QueryDistances;
use csag_core::sea::grow_neighborhood;
use csag_decomp::CommunityModel;
use csag_graph::{AttributedGraph, NodeId, QueryWorkspace};
use std::time::Instant;

/// Where one query runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Fully covered by the home shard: runs there, touching one store.
    Local { shard: usize },
    /// Crosses coverage: runs on the journal snapshot (`home` is the
    /// shard whose counters record it).
    Gather { home: usize },
}

/// Plans and runs one query against a published cluster view.
pub(crate) fn execute(
    view: &ClusterView,
    stats: &ShardStats,
    query: &CommunityQuery,
    ws: &mut QueryWorkspace,
) -> Result<CommunityResult, CsagError> {
    match decide(view, query) {
        Decision::Local { shard } => {
            stats.record_local(shard);
            view.shard(shard).engine().run_with_workspace(query, ws)
        }
        Decision::Gather { home } => {
            let t = Instant::now();
            let result = view.journal().engine().run_with_workspace(query, ws);
            stats.record_gather(home, t.elapsed());
            result
        }
    }
}

/// The routing decision (see the module docs for the certificates).
pub(crate) fn decide(view: &ClusterView, query: &CommunityQuery) -> Decision {
    let journal = view.journal().engine();
    let n = journal.graph().n();
    let q = query.q;
    // Out-of-range query nodes and malformed parameters are rejected
    // before any adjacency is read — every engine produces the same
    // bytes, so the cheapest shard answers.
    if (q as usize) >= n {
        return Decision::Local { shard: 0 };
    }
    let home = view.owner(q);
    if query.validate().is_err() {
        return Decision::Local { shard: home };
    }
    let local = Decision::Local { shard: home };
    let spill = Decision::Gather { home };
    let sh = view.shard(home).engine();
    let g_core = journal.coreness()[q as usize];
    let s_core = sh.coreness()[q as usize];
    match query.model {
        CommunityModel::KCore => {
            if g_core < query.k {
                // Globally impossible: the rejection quotes the global
                // core number, so local only if the shard agrees on it.
                return if s_core == g_core { local } else { spill };
            }
            if s_core < query.k {
                // Globally answerable but the shard's screen would
                // fire: the carve split the community.
                return spill;
            }
        }
        CommunityModel::KTruss => {
            let needed_core = query.k.saturating_sub(1);
            if g_core < needed_core {
                return if s_core == g_core { local } else { spill };
            }
            let g_truss = journal.node_trussness()[q as usize];
            if g_truss < query.k {
                // The global trussness screen fires; the shard must
                // clear the core screen and quote the same trussness.
                return if s_core >= needed_core && sh.node_trussness()[q as usize] == g_truss {
                    local
                } else {
                    spill
                };
            }
            if s_core < needed_core || sh.node_trussness()[q as usize] < query.k {
                return spill;
            }
        }
    }
    let covered = view.coverage(home);
    let confined = match query.method {
        // Rejected at dispatch, after the screens, before any graph
        // read — identical bytes from any screen-passing engine.
        Method::SeaHetero => true,
        Method::Exact | Method::Acq | Method::Vac | Method::EVac => {
            let peel_k = match query.model {
                CommunityModel::KCore => query.k,
                CommunityModel::KTruss => query.k.saturating_sub(1),
            };
            peel_confined(sh.graph(), covered, q, peel_k)
        }
        Method::Atc => csag_baselines::local_seed(sh.graph(), q)
            .iter()
            .all(|&v| covered[v as usize]),
        Method::Sea | Method::SeaSizeBounded => grow_confined(journal, sh.graph(), covered, query),
    };
    if confined {
        local
    } else {
        spill
    }
}

/// The pessimistic-peel certificate: `true` iff `q`'s component in the
/// only-covered-vertices-peelable `k`-core of the home shard is fully
/// covered (and therefore equals the global region, see module docs).
fn peel_confined(g: &AttributedGraph, covered: &[bool], q: NodeId, k: u32) -> bool {
    let n = g.n();
    let mut deg: Vec<u32> = (0..n as NodeId)
        .map(|v| g.neighbors(v).len() as u32)
        .collect();
    let mut removed = vec![false; n];
    let mut stack: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| covered[v as usize] && deg[v as usize] < k)
        .collect();
    for &v in &stack {
        removed[v as usize] = true;
    }
    while let Some(v) = stack.pop() {
        for &w in g.neighbors(v) {
            if removed[w as usize] {
                continue;
            }
            deg[w as usize] -= 1;
            // `+ 1 == k` fires exactly once, at the crossing.
            if covered[w as usize] && deg[w as usize] + 1 == k {
                removed[w as usize] = true;
                stack.push(w);
            }
        }
    }
    if removed[q as usize] {
        return false;
    }
    // Walk q's surviving component; any uncovered member means the
    // region (or our knowledge of it) crosses the shard boundary.
    let mut seen = vec![false; n];
    seen[q as usize] = true;
    let mut frontier = vec![q];
    while let Some(v) = frontier.pop() {
        if !covered[v as usize] {
            return false;
        }
        for &w in g.neighbors(v) {
            if !removed[w as usize] && !seen[w as usize] {
                seen[w as usize] = true;
                frontier.push(w);
            }
        }
    }
    true
}

/// The SEA growth-replay certificate: `true` iff the population `G_q`
/// SEA samples lies inside the home shard's coverage — q's global
/// component when Theorem 10's bound reaches `n`, else the best-first
/// growth replayed on the home shard — making `G_q` exact.
fn grow_confined(
    journal: &Engine,
    g: &AttributedGraph,
    covered: &[bool],
    query: &CommunityQuery,
) -> bool {
    let n = journal.graph().n();
    let params = query.sea_params();
    let min_gq = csag_stats::min_population_size(
        params.min_members(),
        n,
        params.hoeffding_epsilon,
        1.0 - params.hoeffding_confidence,
    );
    let in_coverage = |v: &NodeId| covered[*v as usize];
    if min_gq >= n {
        return journal
            .index()
            .components(journal.graph())
            .of(query.q)
            .iter()
            .all(in_coverage);
    }
    let dist = QueryDistances::new(query.q, n, query.distance_params());
    grow_neighborhood(g, query.q, min_gq, &dist)
        .iter()
        .all(in_coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ShardedRouter;
    use crate::engine::{outcome_identity, GraphStore};
    use csag_datasets::generator::{generate, SyntheticConfig};
    use csag_datasets::{random_updates, ChurnMix};
    use csag_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A graph of `block.len()` nodes dealt to blocks, with the edges of
    /// `pairs` that stay inside a block: several components a graph.
    fn blocks(block: &[u8], pairs: &[(usize, usize)]) -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for v in 0..block.len() {
            b.add_node(&["t"], &[v as f64]);
        }
        for &(u, v) in pairs {
            let (u, v) = (u % block.len(), v % block.len());
            if u != v && block[u] == block[v] {
                b.add_edge(u as NodeId, v as NodeId).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The growth replay on the home shard, which the component read
    /// replaces once Theorem 10's bound reaches `n`.
    fn replayed(view: &ClusterView, query: &CommunityQuery) -> bool {
        let home = view.owner(query.q);
        let g = view.shard(home).engine().graph();
        let dist = QueryDistances::new(query.q, g.n(), query.distance_params());
        grow_neighborhood(g, query.q, g.n(), &dist)
            .iter()
            .all(|&v| view.covers(home, v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reading q's global component decides as replaying the growth
        /// on the home shard, for every q, both models and both SEA
        /// methods, over 1–4 shards and halos 0–2.
        #[test]
        fn a_component_read_decides_as_the_growth_replay(
            block in proptest::collection::vec(0u8..4, 12..48),
            pairs in proptest::collection::vec((0usize..48, 0usize..48), 0..160),
            shards in 1usize..=4,
            halo in 0u32..=2,
        ) {
            let router = ShardedRouter::over_graph(blocks(&block, &pairs), shards, halo, 0);
            let view = router.view();
            let n = block.len();
            for q in 0..n as NodeId {
                let home = view.owner(q);
                for model in [CommunityModel::KCore, CommunityModel::KTruss] {
                    for method in [Method::Sea, Method::SeaSizeBounded] {
                        let query = CommunityQuery::new(method, q).with_k(2).with_model(model);
                        let params = query.sea_params();
                        let bound = csag_stats::min_population_size(
                            params.min_members(),
                            n,
                            params.hoeffding_epsilon,
                            1.0 - params.hoeffding_confidence,
                        );
                        prop_assert!(bound >= n, "the bound reaches n on {n} nodes");
                        let sh = view.shard(home).engine().graph();
                        prop_assert_eq!(
                            grow_confined(view.journal(), sh, view.coverage(home), &query),
                            replayed(&view, &query),
                            "q={} model={:?} method={:?}", q, model, method
                        );
                    }
                }
            }
        }
    }

    /// Spilled k-truss root reads (ACQ, Exact, VAC) run on the journal
    /// snapshot: each answers as a single store at the view's epoch, and
    /// none runs a truss decomposition.
    #[test]
    fn spilled_truss_roots_decompose_nothing() {
        let config = SyntheticConfig {
            nodes: 120,
            communities: 4,
            ..SyntheticConfig::default()
        };
        let g = generate(&config, 5).0;
        let solo = GraphStore::new(g.clone());
        let router = ShardedRouter::over_graph(g, 3, 0, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let batch = random_updates(solo.snapshot().graph(), &mut rng, 8, ChurnMix::MIXED);
        solo.apply(&batch).expect("churn batch applies");
        router.apply(&batch).expect("churn batch applies");
        let (view, solo) = (router.view(), solo.snapshot());
        assert_eq!(view.epoch(), 1);
        let journal = view.journal().engine();
        journal.node_trussness(); // what every k-truss routing decision reads
        let decomps = journal.truss_decomp_computations();
        let stats = ShardStats::new(view.shard_count());
        let mut ws = QueryWorkspace::new();
        let mut spilled = 0;
        for q in (0..120).step_by(3) {
            let spill = Decision::Gather {
                home: view.owner(q),
            };
            for k in 3..=4 {
                for method in [Method::Acq, Method::Exact, Method::Vac] {
                    let query = CommunityQuery::new(method, q)
                        .with_model(CommunityModel::KTruss)
                        .with_k(k)
                        .with_state_budget(200);
                    if decide(&view, &query) != spill {
                        continue;
                    }
                    spilled += 1;
                    let got = execute(&view, &stats, &query, &mut ws);
                    let want = solo.engine().run(&query);
                    assert_eq!(
                        outcome_identity(&want, false),
                        outcome_identity(&got, false),
                        "q={q} k={k} {method:?}"
                    );
                    if let Ok(r) = got {
                        assert_eq!(r.epoch, view.epoch());
                    }
                }
            }
        }
        assert!(spilled > 0, "a halo-0 partition spills some reads");
        assert_eq!(journal.truss_decomp_computations(), decomps);
    }
}
