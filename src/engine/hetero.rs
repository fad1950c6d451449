//! Heterogeneous community search through the engine facade.
//!
//! A `(k, P)-core` of a heterogeneous graph is exactly a k-core of the
//! meta-path projection (paper §VI-A), so the engine can serve hetero
//! queries by projecting once and reusing everything the homogeneous
//! [`Engine`] already has — cached decompositions, the sharded distance
//! cache, per-worker workspaces. [`HeteroEngine`] packages that seam: it
//! owns the graph, the projection *and* the id mappings, so callers speak
//! original heterogeneous node ids end to end and never hand-roll
//! `projection.local(..)` / `projection.original(..)` translations.
//!
//! Both of the paper's §VI-A strategies live behind the same facade:
//!
//! * **project-then-query** ([`Method::Exact`], [`Method::Sea`], the
//!   baselines): the full projection is materialized *lazily on first
//!   use* (or up front, by calling [`HeteroEngine::engine`] once) and
//!   cached, then every homogeneous machine applies;
//! * **sample-then-project** ([`Method::SeaHetero`]): the native
//!   index-free SEA pipeline grows the P-neighborhood on the
//!   heterogeneous graph and only projects the sampled subset — the
//!   right tool when the full projection is too expensive to
//!   materialize. Queries answered this way never trigger the cached
//!   projection at all ([`HeteroEngine::projection_computed`] observes
//!   that).
//!
//! Every method refuses a query node the same way [`SeaHetero::run`]
//! does: out of range first, then not of the meta-path's source type.

use super::batch::{available_threads, parallel_map_init};
use super::error::CsagError;
use super::query::{CommunityQuery, Method};
use super::result::{assemble, CommunityResult, Found};
use super::Engine;
use csag_core::hetero_cs::{check_target_node, SeaHetero};
use csag_graph::{HeteroGraph, MetaPath, NodeId, QueryWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The lazily materialized projection: a homogeneous [`Engine`] plus the
/// id maps between original and projection-local node ids.
struct Projected {
    engine: Engine,
    to_original: Vec<NodeId>,
    from_original: HashMap<NodeId, NodeId>,
}

impl Projected {
    fn build(g: &HeteroGraph, path: &MetaPath) -> Self {
        let projection = g.project(path);
        Projected {
            engine: Engine::new(projection.graph),
            to_original: projection.to_original,
            from_original: projection.from_original,
        }
    }
}

/// An [`Engine`] over a meta-path projection, addressed by *original*
/// heterogeneous node ids.
///
/// ```
/// use csag::engine::{CommunityQuery, HeteroEngine, Method};
/// use csag::graph::{HeteroGraphBuilder, MetaPath};
///
/// // Three authors co-writing pairwise through three papers.
/// let mut b = HeteroGraphBuilder::new(0);
/// let (author, paper) = (b.node_type("author"), b.node_type("paper"));
/// let writes = b.edge_type("writes");
/// let a: Vec<u32> = (0..3).map(|_| b.add_node(author, &["ml"], &[])).collect();
/// let p: Vec<u32> = (0..3).map(|_| b.add_node(paper, &[], &[])).collect();
/// for (i, j) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)] {
///     b.add_edge(a[i], p[j], writes).unwrap();
/// }
/// let engine = HeteroEngine::new(b.build(), MetaPath::new(
///     vec![author, paper, author],
///     vec![writes, writes],
/// ));
/// let res = engine
///     .run(&CommunityQuery::new(Method::Exact, a[0]).with_k(2))
///     .expect("the co-author triangle is a (2,P)-core");
/// assert_eq!(res.community, a);
/// ```
pub struct HeteroEngine {
    /// The heterogeneous graph: [`Method::SeaHetero`] samples it at query
    /// time and the projection is built from it on first use.
    hetero: HeteroGraph,
    path: MetaPath,
    projected: OnceLock<Projected>,
}

impl HeteroEngine {
    /// Builds the facade over `g` under the symmetric meta-path `path`
    /// **without projecting anything yet**: the full projection is
    /// materialized lazily, on the first query that needs it (call
    /// [`HeteroEngine::engine`] once to build it up front).
    /// [`Method::SeaHetero`] queries sample before projecting and never
    /// need it.
    ///
    /// # Panics
    /// If the meta-path is not symmetric-typed (source type ≠ end type).
    pub fn new(g: HeteroGraph, path: MetaPath) -> Self {
        assert!(
            path.is_symmetric_typed(),
            "community search requires a symmetric meta-path"
        );
        HeteroEngine {
            hetero: g,
            path,
            projected: OnceLock::new(),
        }
    }

    fn projected(&self) -> &Projected {
        self.projected
            .get_or_init(|| Projected::build(&self.hetero, &self.path))
    }

    /// Whether the full meta-path projection has been materialized —
    /// `false` as long as only [`Method::SeaHetero`] queries (which
    /// sample before projecting) have run.
    pub fn projection_computed(&self) -> bool {
        self.projected.get().is_some()
    }

    /// The underlying engine over the projected graph (projection-local
    /// ids; for cache probes and advanced use). Forces the projection.
    pub fn engine(&self) -> &Engine {
        &self.projected().engine
    }

    /// Maps an original node id to its projection-local id, if it is a
    /// target-type node. Forces the projection.
    pub fn local(&self, original: NodeId) -> Option<NodeId> {
        self.projected().from_original.get(&original).copied()
    }

    /// Maps a projection-local id back to the original graph. Forces the
    /// projection.
    pub fn original(&self, local: NodeId) -> NodeId {
        self.projected().to_original[local as usize]
    }

    /// Runs one query whose `q` (and resulting community) are original
    /// heterogeneous node ids. [`Method::SeaHetero`] dispatches to the
    /// native sample-then-project pipeline; every other method runs on
    /// the (lazily cached) full projection.
    ///
    /// # Errors
    /// * [`CsagError::InvalidParams`] — the query fails
    ///   [`CommunityQuery::validate`], or `query.q` is not of the
    ///   meta-path's source type.
    /// * [`CsagError::QueryNodeNotFound`] — `query.q` is outside the
    ///   heterogeneous graph.
    /// * otherwise the same errors as [`Engine::run`] or
    ///   [`SeaHetero::run`].
    pub fn run(&self, query: &CommunityQuery) -> Result<CommunityResult, CsagError> {
        self.run_in(query, &mut QueryWorkspace::new())
    }

    /// [`HeteroEngine::run`] over a batch, in parallel, preserving order;
    /// original ids in, original ids out. Each worker owns one
    /// [`QueryWorkspace`] for its share of the batch.
    pub fn run_batch(&self, queries: &[CommunityQuery]) -> Vec<Result<CommunityResult, CsagError>> {
        parallel_map_init(
            queries,
            available_threads(),
            QueryWorkspace::new,
            |ws, q| self.run_in(q, ws),
        )
    }

    fn run_in(
        &self,
        query: &CommunityQuery,
        ws: &mut QueryWorkspace,
    ) -> Result<CommunityResult, CsagError> {
        let t_total = Instant::now();
        query.validate()?;
        check_target_node(&self.hetero, &self.path, query.q)?;
        if query.method == Method::SeaHetero {
            return self.run_native(query, t_total);
        }
        let local = self
            .local(query.q)
            .expect("the projection holds every source-type node");
        self.projected()
            .engine
            .run_with_workspace(&query.clone().with_query(local), ws)
            .map(|res| self.globalize(res))
    }

    /// The native §VI-A pipeline: grow the P-neighborhood on the
    /// heterogeneous graph, project only the sampled subset, then run
    /// the homogeneous SEA estimation on it.
    fn run_native(
        &self,
        query: &CommunityQuery,
        t_total: Instant,
    ) -> Result<CommunityResult, CsagError> {
        let solver = SeaHetero::new(&self.hetero, self.path.clone(), query.distance_params());
        let mut rng = StdRng::seed_from_u64(query.seed);
        let r = solver.run(query.q, &query.sea_params(), &mut rng)?;
        // The solver already speaks original ids; no globalization step.
        let mut res = assemble(query, Found::Sea(r));
        res.timings.search = t_total.elapsed();
        res.timings.total = t_total.elapsed();
        Ok(res)
    }

    /// Rewrites a projection-local result back into original ids.
    fn globalize(&self, mut res: CommunityResult) -> CommunityResult {
        res.q = self.original(res.q);
        for v in &mut res.community {
            *v = self.original(*v);
        }
        res.community.sort_unstable();
        res
    }
}

// The facade is shared across service workers like the homogeneous
// engine; keep that a compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HeteroEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;
    use csag_graph::HeteroGraphBuilder;

    /// Authors a0..a3 (+ one paper-only node) where a0,a1,a2 co-author
    /// pairwise and a3 is tied in through one shared paper with a2.
    fn toy() -> (HeteroGraph, MetaPath, Vec<NodeId>) {
        let mut b = HeteroGraphBuilder::new(1);
        let author = b.node_type("author");
        let paper = b.node_type("paper");
        let writes = b.edge_type("writes");
        let authors: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(author, &["ml"], &[i as f64]))
            .collect();
        let papers: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(paper, &[], &[i as f64]))
            .collect();
        // p0: a0+a1, p1: a1+a2, p2: a0+a2, p3: a2+a3.
        for (a, p) in [
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 1),
            (0, 2),
            (2, 2),
            (2, 3),
            (3, 3),
        ] {
            b.add_edge(authors[a], papers[p], writes).unwrap();
        }
        let g = b.build();
        let apa = MetaPath::new(vec![author, paper, author], vec![writes, writes]);
        (g, apa, authors)
    }

    #[test]
    fn hetero_engine_speaks_original_ids() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g, apa);
        let locals: Vec<NodeId> = authors.iter().map(|&a| engine.local(a).unwrap()).collect();
        assert_eq!(locals, [0, 1, 2, 3]);
        let res = engine
            .run(&CommunityQuery::new(Method::Exact, authors[0]).with_k(2))
            .unwrap();
        assert_eq!(res.q, authors[0]);
        assert_eq!(res.community, vec![authors[0], authors[1], authors[2]]);
        // Round-trip maps agree.
        let local = engine.local(authors[2]).unwrap();
        assert_eq!(engine.original(local), authors[2]);
    }

    #[test]
    fn hetero_engine_matches_hand_rolled_projection() {
        let (g, apa, authors) = toy();
        let hetero = HeteroEngine::new(g.clone(), apa.clone());
        let projection = g.project(&apa);
        let hand = Engine::new(projection.graph.clone());
        for &a in &authors {
            let through = hetero.run(&CommunityQuery::new(Method::Exact, a).with_k(2));
            let local = projection.local(a).unwrap();
            let manual = hand
                .run(&CommunityQuery::new(Method::Exact, local).with_k(2))
                .map(|r| {
                    let mut originals: Vec<NodeId> = r
                        .community
                        .iter()
                        .map(|&l| projection.original(l))
                        .collect();
                    originals.sort_unstable();
                    originals
                });
            assert_eq!(through.map(|r| r.community), manual, "author {a}");
        }
    }

    #[test]
    fn batch_interleaves_errors_in_order() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g, apa);
        let paper_node = 4; // first paper id — not a target-type node
        let queries = vec![
            CommunityQuery::new(Method::Exact, authors[1]).with_k(2),
            CommunityQuery::new(Method::Exact, paper_node).with_k(2),
            CommunityQuery::new(Method::Exact, authors[3]).with_k(2),
            CommunityQuery::new(Method::SeaHetero, paper_node)
                .with_k(2)
                .with_error_bound(0.2),
        ];
        let out = engine.run_batch(&queries);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].as_ref().unwrap().q, authors[1]);
        assert!(matches!(out[1], Err(CsagError::InvalidParams { .. })));
        // a3's only co-author is a2: no 2-core, a definitive no.
        assert!(out[2].as_ref().unwrap_err().is_no_community());
        assert_eq!(out[3].as_ref().unwrap_err(), out[1].as_ref().unwrap_err());
        // Every entry is its serial twin, errors included.
        for (q, batched) in queries.iter().zip(&out) {
            let serial = engine.run(q);
            assert_eq!(
                serial.as_ref().map(|r| &r.community),
                batched.as_ref().map(|r| &r.community),
                "{q:?}"
            );
        }
    }

    /// A non-target query node gets the error [`SeaHetero::run`] gives
    /// it, whatever the method and whether run alone or in a batch.
    #[test]
    fn every_method_refuses_a_query_node_as_sea_hetero_does() {
        let (g, apa, _) = toy();
        let solver = SeaHetero::new(&g, apa.clone(), Default::default());
        let engine = HeteroEngine::new(g.clone(), apa);
        for q in [4, 7, 8, 100] {
            let native = solver
                .run(q, &Default::default(), &mut StdRng::seed_from_u64(0))
                .unwrap_err();
            let queries: Vec<CommunityQuery> = [Method::Exact, Method::Sea, Method::SeaHetero]
                .into_iter()
                .map(|m| CommunityQuery::new(m, q).with_k(2).with_error_bound(0.2))
                .collect();
            for (query, batched) in queries.iter().zip(engine.run_batch(&queries)) {
                assert_eq!(engine.run(query).unwrap_err(), native, "{query:?}");
                assert_eq!(batched.unwrap_err(), native, "{query:?}");
            }
        }
        assert_eq!(
            engine
                .run(&CommunityQuery::new(Method::Exact, 100).with_k(2))
                .unwrap_err(),
            CsagError::QueryNodeNotFound { q: 100, nodes: 8 }
        );
    }

    /// The facade's sample-then-project path never materializes the full
    /// projection and matches the native pipeline bit-for-bit.
    #[test]
    fn sea_hetero_runs_without_projecting() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g.clone(), apa.clone());
        assert!(!engine.projection_computed());
        let query = CommunityQuery::new(Method::SeaHetero, authors[0])
            .with_k(2)
            .with_error_bound(0.2)
            .with_seed(3);
        let res = engine.run(&query).unwrap();
        assert!(
            !engine.projection_computed(),
            "sampling before projection must not build the full projection"
        );
        assert!(res.community.contains(&authors[0]));
        assert!(res.certificate.is_some(), "SEA reports its accuracy");

        // Same parameters through the native solver: identical answer.
        let solver = SeaHetero::new(&g, apa, query.distance_params());
        let mut rng = StdRng::seed_from_u64(query.seed);
        let native = solver
            .run(authors[0], &query.sea_params(), &mut rng)
            .unwrap();
        assert_eq!(res.community, native.community);
        assert_eq!(res.delta, native.delta_star);
    }

    /// The native path's whole answer, pinned as `answer_identity` text:
    /// community, δ, certificate and provenance, byte for byte.
    #[test]
    fn sea_hetero_answer_is_pinned() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g, apa);
        let query = CommunityQuery::new(Method::SeaHetero, authors[0])
            .with_k(2)
            .with_error_bound(0.2)
            .with_seed(3);
        assert_eq!(
            crate::engine::outcome_identity(&engine.run(&query), false),
            concat!(
                r#"{"q":0,"epoch":0,"community":[0,1,2],"size":3,"delta":0.25,"#,
                r#""certificate":{"certified":false,"error_bound":0.8933952176324256,"#,
                r#""confidence":0.95,"moe":0.11796206218762417},"#,
                r#""provenance":{"method":"sea-hetero","k":2,"model":"k-core","rounds":2,"#,
                r#""states_explored":0,"candidates_examined":2,"population_size":4,"#,
                r#""sample_size":4,"seed":3,"objective":null}}"#
            )
        );
    }

    /// One batch can mix both §VI-A strategies; results stay in order.
    #[test]
    fn batch_mixes_native_and_projected_queries() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g, apa);
        let queries = vec![
            CommunityQuery::new(Method::SeaHetero, authors[0])
                .with_k(2)
                .with_error_bound(0.2)
                .with_seed(5),
            CommunityQuery::new(Method::Exact, authors[1]).with_k(2),
            CommunityQuery::new(Method::SeaHetero, authors[2])
                .with_k(2)
                .with_error_bound(0.2)
                .with_seed(6),
        ];
        let out = engine.run_batch(&queries);
        assert_eq!(out.len(), 3);
        for (i, res) in out.iter().enumerate() {
            let res = res.as_ref().unwrap_or_else(|e| panic!("query {i}: {e}"));
            assert!(res.community.contains(&queries[i].q));
        }
        // Each answer matches its serial twin.
        for (q, batched) in queries.iter().zip(&out) {
            let serial = engine.run(q).unwrap();
            assert_eq!(serial.community, batched.as_ref().unwrap().community);
        }
        assert!(engine.projection_computed(), "the exact query forced it");
    }

    /// A homogeneous engine rejects the hetero-native method with a
    /// pointer to the right entry point, while the facade serves it
    /// beside a projection built up front through `engine()`.
    #[test]
    fn homogeneous_engine_rejects_sea_hetero() {
        let (g, apa, authors) = toy();
        let engine = HeteroEngine::new(g, apa);
        let err = engine
            .engine()
            .run(&CommunityQuery::new(Method::SeaHetero, 0).with_k(2))
            .unwrap_err();
        assert!(matches!(err, CsagError::InvalidParams { .. }));
        assert!(err.to_string().contains("HeteroEngine"), "{err}");
        assert!(engine.projection_computed());
        let native = CommunityQuery::new(Method::SeaHetero, authors[0])
            .with_k(2)
            .with_error_bound(0.2);
        assert!(engine.run(&native).is_ok());
    }
}
