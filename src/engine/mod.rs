//! # The unified query engine — one entry point for every method
//!
//! [`Engine`] owns a shared graph (`Arc<AttributedGraph>`) plus the
//! reusable per-graph state every query needs:
//!
//! * one [`EpochIndex`] of lazily built tables that every method borrows;
//!   its **core-number** and **node-trussness** tables answer "no
//!   community" queries in O(1) before any peeling happens;
//! * a **sharded cache of per-query-node distance tables**
//!   ([`csag_core::distance::QueryDistances`]). Tables are handed out as
//!   `Arc` clones — a warm hit costs a reference-count bump, never an
//!   `O(|V|)` copy — and the tables themselves memoize lock-free through
//!   `&self`, so concurrent queries on the same node *cooperatively* warm
//!   one shared table with no merge-back step at all. A table is admitted
//!   on the *second* miss of its `(q, γ)` key only, into a hard cap of 64
//!   tables: a scan over more nodes than the cache remembers leaves
//!   nothing resident instead of churning one-use `O(|V|)` tables.
//!
//! The engine is `Send + Sync`: interior mutability is N independent
//! mutex shards around the distance-cache map (the critical section is a
//! hash-map probe; actual distance computation happens outside any lock)
//! and the index's once-set tables. One `Engine` therefore
//! serves concurrent callers contention-free, and [`Engine::run_batch`]
//! fans a workload out across workers that each reuse a private
//! [`QueryWorkspace`] so the steady-state hot path allocates nothing.
//!
//! ```
//! use csag::engine::{CommunityQuery, Engine, Method};
//! use csag::datasets::paper_examples::figure1_imdb;
//!
//! let (graph, q) = figure1_imdb();
//! let engine = Engine::new(graph);
//! let exact = engine
//!     .run(&CommunityQuery::new(Method::Exact, q).with_k(3))
//!     .expect("The Godfather sits in a 3-core");
//! let sea = engine
//!     .run(&CommunityQuery::new(Method::Sea, q).with_k(3).with_error_bound(0.05))
//!     .expect("same 3-core, sampled");
//! assert!(exact.community.contains(&q));
//! assert!(sea.community.contains(&q));
//! assert!(sea.delta >= exact.delta - 1e-9); // exact is δ-optimal
//! ```

pub mod batch;
pub mod error;
pub mod hetero;
pub mod query;
pub mod result;
pub mod store;

pub use batch::parallel_map;
pub use error::CsagError;
pub use hetero::HeteroEngine;
pub use query::{CommunityQuery, Method};
pub use result::{
    answer_identity, error_to_json, outcome_identity, AccuracyCertificate, CommunityResult,
    PhaseTimings, Provenance,
};
pub use store::{ApplyError, EpochWatch, GraphStore, GraphUpdate, Replay, Snapshot, UpdateReport};

use csag_baselines as baselines;
use csag_core::distance::QueryDistances;
use csag_core::error::check_query_node;
use csag_core::exact::Exact;
use csag_core::sea::Sea;
use csag_decomp::{CommunityModel, EpochIndex, Maintainer};
use csag_graph::{AttributedGraph, NodeId, QueryWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use result::{assemble, Found};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of independent distance-cache shards. Keys spread by a cheap
/// multiplicative hash, so concurrent queries on different nodes almost
/// never touch the same lock; 16 shards keep the worst case negligible
/// even at high worker counts while staying cheap to scan for stats.
const DISTANCE_SHARDS: usize = 16;

/// Upper bound on cached per-query-node distance tables across all
/// shards, and on the keys the cache remembers as missed once. Each table
/// is `O(|V|)` floats, so the cache is capped rather than unbounded, and
/// the cap is hard: the resident count never exceeds it.
///
/// Admission is the 2Q / TinyLFU "doorkeeper" rule. A key's first miss
/// computes on an uncached table that is dropped with the read and only
/// records the key in a FIFO of the last `MAX_CACHED_QUERY_NODES` such
/// keys; a miss on a recorded key admits its table. At capacity an
/// admission evicts an arbitrary resident entry of its own shard (random
/// replacement — keeps a shifting hot set converging onto residency
/// without LRU bookkeeping); when that shard holds none, the table is
/// served uncached and its key stays recorded. A hot set of up to this
/// many keys becomes fully resident on its second pass, however it
/// hashes across shards; a cyclic scan over more keys than the record
/// holds never repeats a recorded key, so it leaves no table behind.
const MAX_CACHED_QUERY_NODES: usize = 64;

/// A distance-cache key: `(query node, γ bits)`.
pub(crate) type DistanceKey = (NodeId, u64);

/// One distance-cache shard: an independently locked map of shared
/// distance tables.
type DistanceShard = Mutex<HashMap<DistanceKey, Arc<QueryDistances>>>;

/// The reusable per-graph query engine. See the [module docs](self).
pub struct Engine {
    graph: Arc<AttributedGraph>,
    /// Which [`store::GraphStore`] epoch this engine serves (0 for
    /// standalone engines). Every query against this engine sees exactly
    /// this immutable snapshot, no matter how the store evolves.
    epoch: u64,
    /// The per-epoch tables every method borrows (see [`EpochIndex`]).
    index: EpochIndex,
    /// Sharded `(q, γ bits) → Arc` map of memoized `f(·, q)` tables. The
    /// `Arc` is the whole trick: checkout clones the handle (O(1)), the
    /// table memoizes internally through `&self`, and there is no
    /// check-in/merge-back step — every borrower warms the one shared
    /// table in place.
    distances: Vec<DistanceShard>,
    /// Keys whose last miss was served uncached, oldest first, at most
    /// [`MAX_CACHED_QUERY_NODES`]: the admission record. A key leaves it
    /// when its table is admitted or when newer misses push it out.
    missed: Mutex<VecDeque<DistanceKey>>,
    /// Total resident tables across shards (the global capacity gate —
    /// per-shard caps would evict a hot set that hashes unevenly).
    distance_len: AtomicUsize,
    /// Warm checkout count (a cache-effectiveness probe for tests and the
    /// perf report).
    distance_hits: AtomicUsize,
}

impl Engine {
    /// Builds an engine owning `graph`.
    pub fn new(graph: AttributedGraph) -> Self {
        Engine::from_arc(Arc::new(graph))
    }

    /// Builds an engine sharing an already-`Arc`ed graph (no copy).
    pub fn from_arc(graph: Arc<AttributedGraph>) -> Self {
        Engine {
            graph,
            epoch: 0,
            index: EpochIndex::new(),
            distances: (0..DISTANCE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            missed: Mutex::new(VecDeque::new()),
            distance_len: AtomicUsize::new(0),
            distance_hits: AtomicUsize::new(0),
        }
    }

    /// Builds an epoch's engine from state the [`store::GraphStore`]
    /// maintained incrementally: an index seeded with repaired tables
    /// (seeding counts as no recomputation — [`Engine::decomp_computations`]
    /// keeps reporting how often the *full* peel actually ran), the
    /// distance tables that survived invalidation, and the admission
    /// record (oldest first; only the newest [`MAX_CACHED_QUERY_NODES`]
    /// keys are kept).
    pub(crate) fn from_store_parts(
        graph: Arc<AttributedGraph>,
        epoch: u64,
        index: EpochIndex,
        carried: Vec<(DistanceKey, Arc<QueryDistances>)>,
        missed: Vec<DistanceKey>,
    ) -> Self {
        debug_assert!(carried.len() <= MAX_CACHED_QUERY_NODES);
        let forget = missed.len().saturating_sub(MAX_CACHED_QUERY_NODES);
        let engine = Engine {
            epoch,
            index,
            missed: Mutex::new(missed.into_iter().skip(forget).collect()),
            ..Engine::from_arc(graph)
        };
        engine.distance_len.store(carried.len(), Ordering::Relaxed);
        for (key, table) in carried {
            engine
                .shard(key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(key, table);
        }
        engine
    }

    /// The store epoch this engine snapshots (0 for standalone engines).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every resident distance-cache entry, as shared handles (the
    /// store's raw material for selective carry-over into the next
    /// epoch's engine).
    pub(crate) fn export_distances(&self) -> Vec<(DistanceKey, Arc<QueryDistances>)> {
        self.distances
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .map(|(k, v)| (*k, Arc::clone(v)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The admission record, oldest first (carried into the next epoch's
    /// engine with the tables).
    pub(crate) fn export_missed(&self) -> Vec<DistanceKey> {
        let missed = self.missed.lock().unwrap_or_else(PoisonError::into_inner);
        missed.iter().copied().collect()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &AttributedGraph {
        &self.graph
    }

    /// A shared handle to the underlying graph.
    pub fn graph_arc(&self) -> Arc<AttributedGraph> {
        Arc::clone(&self.graph)
    }

    /// The epoch's tables, as every method on this engine borrows them.
    pub fn index(&self) -> &EpochIndex {
        &self.index
    }

    /// The index's coreness table ([`EpochIndex::coreness`]).
    pub fn coreness(&self) -> &[u32] {
        self.index.coreness(&self.graph)
    }

    /// The index's node trussness ([`EpochIndex::node_trussness`]):
    /// `trussness[q] ≥ k` iff a connected k-truss contains `q`.
    pub fn node_trussness(&self) -> &[u32] {
        self.index.node_trussness(&self.graph)
    }

    /// How many times the core decomposition has run on this epoch.
    pub fn decomp_computations(&self) -> usize {
        self.index.decomp_computations()
    }

    /// How many times the truss decomposition has run on this epoch.
    pub fn truss_decomp_computations(&self) -> usize {
        self.index.truss_decomp_computations()
    }

    /// Number of query nodes with a resident distance table.
    pub fn cached_query_nodes(&self) -> usize {
        self.distances
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// How many distance-table checkouts were warm cache hits.
    pub fn distance_cache_hits(&self) -> usize {
        self.distance_hits.load(Ordering::Relaxed)
    }

    /// The cached distance table of `(q, γ)`, if resident — a shared
    /// handle to the *live* table (tests use this to prove warm hits
    /// never deep-copy).
    pub fn cached_distances(&self, q: NodeId, gamma: f64) -> Option<Arc<QueryDistances>> {
        let key = (q, gamma.to_bits());
        let map = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.get(&key).map(Arc::clone)
    }

    /// Runs one query. This is the single entry point every CLI command,
    /// example, bench experiment, and concurrent caller goes through.
    ///
    /// # Errors
    /// * [`CsagError::InvalidParams`] — the query fails
    ///   [`CommunityQuery::validate`], or asks for [`Method::SeaHetero`],
    ///   which only a [`HeteroEngine`] runs.
    /// * [`CsagError::QueryNodeNotFound`] — `query.q` is outside the
    ///   graph.
    /// * [`CsagError::NoCommunity`] — no community satisfies the model; a
    ///   definitive negative (answered from the cached decomposition when
    ///   the query node's core number is already too small).
    /// * [`CsagError::BudgetExhausted`] — E-VAC refused a root above its
    ///   size limit. A budget stop is no error: the best community so
    ///   far answers, Exact's with a bracketing [`AccuracyCertificate`].
    pub fn run(&self, query: &CommunityQuery) -> Result<CommunityResult, CsagError> {
        let mut ws = QueryWorkspace::new();
        self.run_with_workspace(query, &mut ws)
    }

    /// [`Engine::run`] with a caller-owned [`QueryWorkspace`], so repeated
    /// queries on one thread recycle every hot-path scratch buffer.
    /// [`Engine::run_batch`] gives each worker thread its own workspace
    /// through this entry point.
    ///
    /// # Errors
    /// Same as [`Engine::run`].
    pub fn run_with_workspace(
        &self,
        query: &CommunityQuery,
        ws: &mut QueryWorkspace,
    ) -> Result<CommunityResult, CsagError> {
        let t_total = Instant::now();
        query.validate()?;
        if query.method == Method::SeaHetero {
            return Err(CsagError::invalid(
                "method sea-hetero samples before projecting and needs the original \
                 heterogeneous graph; run it through HeteroEngine",
            ));
        }
        check_query_node(query.q, self.graph.n())?;

        // Prepare phase: reusable per-graph state. The cached
        // decompositions settle impossible queries without touching the
        // graph again: the maximal connected k-core containing q exists
        // iff q's core number is ≥ k, and a connected k-truss containing
        // q exists iff some edge at q has trussness ≥ k.
        let t_prepare = Instant::now();
        match query.model {
            CommunityModel::KCore => {
                let coreness = self.coreness()[query.q as usize];
                if coreness < query.k {
                    return Err(CsagError::no_community(format!(
                        "node {} has core number {coreness} < {}; no connected {} at k = {} can contain it",
                        query.q, query.k, query.model, query.k
                    )));
                }
            }
            CommunityModel::KTruss => {
                // Cheap necessary-condition screen first: a k-truss member
                // needs ≥ k−1 in-community neighbors, so coreness < k−1 is
                // a definitive "no" from the (often already resident) core
                // decomposition — without paying the full-graph triangle
                // count that the exact trussness table costs once.
                let needed_core = query.k.saturating_sub(1);
                let coreness = self.coreness()[query.q as usize];
                if coreness < needed_core {
                    return Err(CsagError::no_community(format!(
                        "node {} has core number {coreness} < {needed_core}; no connected {} at k = {} can contain it",
                        query.q, query.model, query.k
                    )));
                }
                let trussness = self.node_trussness()[query.q as usize];
                if trussness < query.k {
                    return Err(CsagError::no_community(format!(
                        "node {} has maximum edge trussness {trussness} < {}; no connected {} at k = {} can contain it",
                        query.q, query.k, query.model, query.k
                    )));
                }
            }
        }
        let dist = self.checkout_distances(query);
        let prepare = t_prepare.elapsed();

        // Search phase: dispatch to the method. The table needs no
        // check-in afterwards — the Arc in the cache IS the table the
        // search warmed.
        let t_search = Instant::now();
        let outcome = self.dispatch(query, &dist, ws);
        let search = t_search.elapsed();

        let mut res = assemble(query, outcome?);
        res.epoch = self.epoch;
        res.timings.prepare = prepare;
        res.timings.search = search;
        res.timings.total = t_total.elapsed();
        Ok(res)
    }

    /// Runs `query`'s method on the checked-out table `dist` and the
    /// worker's workspace. The baselines peel on the workspace's pooled
    /// scratch, handed back on every path.
    fn dispatch(
        &self,
        query: &CommunityQuery,
        dist: &QueryDistances,
        ws: &mut QueryWorkspace,
    ) -> Result<Found, CsagError> {
        let (g, index) = (self.graph.as_ref(), &self.index);
        let (q, dp) = (query.q, query.distance_params());
        Ok(match query.method {
            Method::SeaHetero => unreachable!("rejected before prepare"),
            Method::Exact => {
                let exact = Exact::new(g, index, dp);
                Found::Exact(exact.run_in_workspace(q, &query.exact_params(), dist, ws)?)
            }
            Method::Sea | Method::SeaSizeBounded => {
                let mut rng = StdRng::seed_from_u64(query.seed);
                let sea = Sea::new(g, index, dp);
                Found::Sea(sea.run_in_workspace(q, &query.sea_params(), &mut rng, dist, ws)?)
            }
            Method::Acq | Method::Atc | Method::Vac | Method::EVac => {
                let mut m = Maintainer::in_workspace(g, index, query.model, query.k, ws);
                let found = match query.method {
                    Method::Acq => baselines::acq(&mut m, q),
                    Method::Atc => baselines::loc_atc(&mut m, q, query.time_budget),
                    Method::Vac => {
                        baselines::vac(&mut m, dist, query.vac_iteration_cap, query.time_budget)
                    }
                    Method::EVac => {
                        let limits = baselines::EVacLimits {
                            state_budget: query.state_budget,
                            max_root: query.evac_max_root,
                            time_budget: query.time_budget,
                        };
                        baselines::e_vac(&mut m, q, dp, &limits)
                    }
                    _ => unreachable!("the outer arm holds the four baselines"),
                };
                m.release(ws);
                let r = found?;
                // Score every baseline under the same δ metric so results
                // are comparable across methods (the Table II protocol).
                let delta = dist.delta(g, &r.community);
                Found::Baseline(r, delta)
            }
        })
    }

    /// The shard owning `key` (multiplicative hash on the query node,
    /// folded with the γ bits).
    fn shard(&self, key: DistanceKey) -> &DistanceShard {
        let mix = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1.rotate_left(17));
        &self.distances[(mix >> 57) as usize % DISTANCE_SHARDS]
    }

    /// Hands out the shared distance table for `(q, γ)`. A warm hit is an
    /// `Arc` clone of the resident table. A miss admits a fresh table
    /// *before* the search runs, so concurrent same-node queries share the
    /// in-flight table and warm it cooperatively — but only when the key
    /// is in the admission record (see [`MAX_CACHED_QUERY_NODES`]);
    /// otherwise the key is recorded and the read gets a table of its
    /// own, dropped with it. There is no check-in — the table memoizes in
    /// place through `&self`.
    ///
    /// At global capacity an arbitrary resident entry *of the same shard*
    /// is evicted for the newcomer, so a shifting hot set converges onto
    /// residency instead of being locked out by whichever keys arrived
    /// first; when that shard holds none, the newcomer is served uncached
    /// rather than pushing the count past the cap.
    fn checkout_distances(&self, query: &CommunityQuery) -> Arc<QueryDistances> {
        let dp = query.distance_params();
        let key = (query.q, dp.gamma.to_bits());
        let fresh = || Arc::new(QueryDistances::new(query.q, self.graph.n(), dp));
        let mut map = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(d) = map.get(&key) {
            self.distance_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(d);
        }
        // Lock order: shard, then record (nothing takes them the other
        // way round).
        let mut missed = self.missed.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(seen) = missed.iter().position(|k| *k == key) else {
            if missed.len() == MAX_CACHED_QUERY_NODES {
                missed.pop_front();
            }
            missed.push_back(key);
            drop((missed, map));
            return fresh();
        };
        let reserved = self
            .distance_len
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |len| {
                (len < MAX_CACHED_QUERY_NODES).then_some(len + 1)
            })
            .is_ok();
        if !reserved {
            let Some(victim) = map.keys().next().copied() else {
                drop((missed, map));
                return fresh();
            };
            map.remove(&victim);
        }
        missed.remove(seen);
        drop(missed);
        let table = fresh();
        map.insert(key, Arc::clone(&table));
        table
    }
}

// One engine serves concurrent callers: all interior mutability is
// thread-safe, so the compiler derives `Send + Sync`. This assertion
// turns an accidental regression (e.g. an `Rc` or `RefCell` slipping in)
// into a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use csag_graph::GraphBuilder;

    /// A 4-clique where node 3 is attribute-far from node 0.
    fn clique() -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for value in [0.0, 0.1, 0.2, 1.0] {
            b.add_node(&["t"], &[value]);
        }
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn exact_query_through_engine() {
        let engine = Engine::new(clique());
        let res = engine
            .run(&CommunityQuery::new(Method::Exact, 0).with_k(2))
            .unwrap();
        assert_eq!(res.community, vec![0, 1, 2]);
        let cert = res.certificate.unwrap();
        assert!(cert.certified);
        assert_eq!(cert.error_bound, 0.0);
        assert_eq!(cert.confidence, 1.0);
        assert!(res.provenance.states_explored >= 1);
        assert!(res.timings.total >= res.timings.search);
    }

    #[test]
    fn decomposition_answers_impossible_queries() {
        let engine = Engine::new(clique());
        assert_eq!(engine.decomp_computations(), 0);
        let err = engine
            .run(&CommunityQuery::new(Method::Exact, 0).with_k(7))
            .unwrap_err();
        assert!(err.is_no_community());
        assert_eq!(engine.decomp_computations(), 1);
        // A second impossible query reuses the cached decomposition.
        let _ = engine.run(&CommunityQuery::new(Method::Sea, 1).with_k(9));
        assert_eq!(engine.decomp_computations(), 1);
    }

    /// Truss-model infeasibility is answered in O(1) layers: the cheap
    /// coreness screen rejects without ever computing trussness, and the
    /// exact trussness decomposition (computed once, lazily) settles what
    /// the screen cannot.
    #[test]
    fn truss_precheck_answers_from_cached_trussness() {
        let engine = Engine::new(clique());
        assert_eq!(engine.truss_decomp_computations(), 0);
        let truss = |k: u32| {
            CommunityQuery::new(Method::Exact, 0)
                .with_k(k)
                .with_model(CommunityModel::KTruss)
        };
        // Coreness 3 < k−1 = 4: the screen answers; trussness never runs.
        let err = engine.run(&truss(5)).unwrap_err();
        assert!(err.is_no_community());
        assert_eq!(
            engine.truss_decomp_computations(),
            0,
            "screened by coreness"
        );
        assert_eq!(engine.decomp_computations(), 1);
        let _ = engine.run(&truss(6)).unwrap_err();
        assert_eq!(engine.truss_decomp_computations(), 0);
        // A feasible truss query passes the screen, pays the trussness
        // decomposition exactly once, and searches.
        let ok = engine.run(&truss(4)).unwrap();
        assert_eq!(ok.community, vec![0, 1, 2, 3], "4-truss of the 4-clique");
        assert_eq!(engine.truss_decomp_computations(), 1);
        let _ = engine.run(&truss(4)).unwrap();
        assert_eq!(engine.truss_decomp_computations(), 1, "cached thereafter");
    }

    /// The coreness screen is only a necessary condition — a triangle-free
    /// cycle passes it at k = 3 yet holds no 3-truss; the exact trussness
    /// table settles that in O(1) too.
    #[test]
    fn truss_precheck_rejects_past_the_coreness_screen() {
        let mut b = GraphBuilder::new(1);
        for value in [0.0, 0.3, 0.6, 1.0] {
            b.add_node(&["t"], &[value]);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(u, v).unwrap();
        }
        let engine = Engine::new(b.build().unwrap());
        // Coreness 2 ≥ k−1 = 2 passes the screen; trussness 2 < 3 rejects.
        let err = engine
            .run(
                &CommunityQuery::new(Method::Exact, 0)
                    .with_k(3)
                    .with_model(CommunityModel::KTruss),
            )
            .unwrap_err();
        assert!(err.is_no_community());
        assert!(
            err.to_string().contains("edge trussness"),
            "rejection must come from the trussness table: {err}"
        );
        assert_eq!(engine.truss_decomp_computations(), 1);
    }

    #[test]
    fn distance_cache_persists_across_methods() {
        let engine = Engine::new(clique());
        assert_eq!(engine.cached_query_nodes(), 0);
        let exact = engine
            .run(&CommunityQuery::new(Method::Exact, 0).with_k(2))
            .unwrap();
        assert_eq!(engine.cached_query_nodes(), 0, "a first miss is uncached");
        // The key's second miss admits its table, whatever the method.
        let vac = engine
            .run(&CommunityQuery::new(Method::Vac, 0).with_k(2))
            .unwrap();
        assert_eq!(engine.cached_query_nodes(), 1);
        let _ = engine
            .run(&CommunityQuery::new(Method::Acq, 0).with_k(2))
            .unwrap();
        assert_eq!(engine.cached_query_nodes(), 1);
        assert_eq!(engine.distance_cache_hits(), 1);
        assert!(vac.certificate.is_none());
        assert!(vac.provenance.objective.is_some());
        assert!(vac.delta >= exact.delta - 1e-12, "exact is δ-optimal");
        // A different γ is a different table, admitted on its own second
        // miss.
        let gamma0 = CommunityQuery::new(Method::Exact, 0)
            .with_k(2)
            .with_gamma(0.0);
        for cached in [1, 2] {
            let _ = engine.run(&gamma0).unwrap();
            assert_eq!(engine.cached_query_nodes(), cached);
        }
    }

    /// An edgeless graph of `n` nodes: all a distance checkout needs.
    fn isolated(n: usize) -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for v in 0..n {
            b.add_node(&["t"], &[v as f64]);
        }
        b.build().unwrap()
    }

    fn checkout(engine: &Engine, q: NodeId, gamma: f64) -> Arc<QueryDistances> {
        engine.checkout_distances(&CommunityQuery::new(Method::Sea, q).with_gamma(gamma))
    }

    #[test]
    fn a_key_is_admitted_on_its_second_miss() {
        let engine = Engine::new(clique());
        let query = CommunityQuery::new(Method::Exact, 0).with_k(2);
        let gamma = query.gamma;
        engine.run(&query).unwrap();
        assert_eq!(
            engine.cached_query_nodes(),
            0,
            "the first run caches nothing"
        );
        engine.run(&query).unwrap();
        assert_eq!(engine.cached_query_nodes(), 1, "the second run caches one");
        assert_eq!(engine.distance_cache_hits(), 0);
        let resident = engine.cached_distances(0, gamma).unwrap();
        engine.run(&query).unwrap();
        assert_eq!(engine.distance_cache_hits(), 1, "the third run is a hit");
        assert!(Arc::ptr_eq(
            &resident,
            &engine.cached_distances(0, gamma).unwrap()
        ));
    }

    #[test]
    fn a_cyclic_scan_past_the_record_leaves_no_table() {
        let nodes = 4 * MAX_CACHED_QUERY_NODES;
        let engine = Engine::new(isolated(nodes));
        for _ in 0..2 {
            for q in 0..nodes as NodeId {
                checkout(&engine, q, 0.5);
            }
        }
        assert_eq!(engine.cached_query_nodes(), 0);
        assert_eq!(engine.distance_cache_hits(), 0);
    }

    #[test]
    fn a_hot_set_is_resident_from_its_second_pass() {
        let hot = MAX_CACHED_QUERY_NODES / 2;
        let engine = Engine::new(isolated(4 * MAX_CACHED_QUERY_NODES));
        for _ in 0..3 {
            for q in 0..hot as NodeId {
                checkout(&engine, q, 0.5);
            }
        }
        assert_eq!(engine.cached_query_nodes(), hot, "fully resident");
        assert_eq!(engine.distance_cache_hits(), hot, "the third pass hits");
        for q in 0..hot as NodeId {
            checkout(&engine, q, 0.5);
        }
        assert_eq!(engine.distance_cache_hits(), 2 * hot);
        assert_eq!(engine.cached_query_nodes(), hot);
    }

    /// At capacity, an admission whose shard holds no victim is served
    /// uncached instead of pushing the count past the cap, and its key
    /// stays recorded.
    #[test]
    fn an_admission_into_an_empty_shard_at_capacity_is_served_uncached() {
        let engine = Engine::new(isolated(3 * MAX_CACHED_QUERY_NODES));
        let key = |q: NodeId| (q, 0.5f64.to_bits());
        let target = engine.shard(key(0));
        let elsewhere: Vec<NodeId> = (1..3 * MAX_CACHED_QUERY_NODES as NodeId)
            .filter(|&q| !std::ptr::eq(engine.shard(key(q)), target))
            .take(MAX_CACHED_QUERY_NODES)
            .collect();
        assert_eq!(elsewhere.len(), MAX_CACHED_QUERY_NODES);
        for &q in elsewhere.iter().chain(&elsewhere) {
            checkout(&engine, q, 0.5);
        }
        assert_eq!(engine.cached_query_nodes(), MAX_CACHED_QUERY_NODES);
        for _ in 0..3 {
            checkout(&engine, 0, 0.5);
            assert_eq!(engine.cached_query_nodes(), MAX_CACHED_QUERY_NODES);
            assert!(engine.cached_distances(0, 0.5).is_none());
        }
        assert!(engine.export_missed().contains(&key(0)));
    }

    /// The cap is hard: whatever the order of checkouts, serial or from
    /// several threads at once, no more than `MAX_CACHED_QUERY_NODES`
    /// tables are resident — also when an admission at capacity finds
    /// its shard empty.
    #[test]
    fn the_cap_holds_after_any_sequence_of_checkouts() {
        let engine = Engine::new(isolated(3 * MAX_CACHED_QUERY_NODES));
        // 384 keys (192 nodes × two γ) under a 64-key record: about one
        // miss in six recurs in time to be admitted.
        let draw = |state: &mut u64| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = *state >> 33;
            let q = (r % (3 * MAX_CACHED_QUERY_NODES as u64)) as NodeId;
            (q, if r & (1 << 20) == 0 { 0.5 } else { 0.0 })
        };
        let mut state = 7;
        let mut peak = 0;
        for step in 0..4_000 {
            let (q, gamma) = draw(&mut state);
            checkout(&engine, q, gamma);
            let resident = engine.cached_query_nodes();
            assert!(
                resident <= MAX_CACHED_QUERY_NODES,
                "step {step}: {resident}"
            );
            peak = peak.max(resident);
        }
        assert_eq!(peak, MAX_CACHED_QUERY_NODES, "the sequence reached the cap");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let engine = &engine;
                s.spawn(move || {
                    let mut state = 100 + t;
                    for _ in 0..2_000 {
                        let (q, gamma) = draw(&mut state);
                        checkout(engine, q, gamma);
                    }
                });
            }
        });
        assert!(engine.cached_query_nodes() <= MAX_CACHED_QUERY_NODES);
        assert_eq!(
            engine.cached_query_nodes(),
            engine.distance_len.load(Ordering::Relaxed),
            "the gate counts exactly the resident tables"
        );
    }

    #[test]
    fn invalid_queries_never_reach_the_graph() {
        let engine = Engine::new(clique());
        assert!(matches!(
            engine.run(&CommunityQuery::new(Method::Sea, 0).with_k(1)),
            Err(CsagError::InvalidParams { .. })
        ));
        assert!(matches!(
            engine.run(&CommunityQuery::new(Method::Exact, 11)),
            Err(CsagError::QueryNodeNotFound { q: 11, .. })
        ));
        // sea-hetero needs a HeteroEngine, at any k: above q's core
        // number too, where the screen would have answered no_community.
        assert!(matches!(
            engine.run(&CommunityQuery::new(Method::SeaHetero, 0).with_k(9)),
            Err(CsagError::InvalidParams { .. })
        ));
        assert_eq!(engine.decomp_computations(), 0, "rejected before prepare");
    }

    #[test]
    fn evac_root_guard_surfaces_budget_error() {
        let engine = Engine::new(clique());
        let err = engine
            .run(
                &CommunityQuery::new(Method::EVac, 0)
                    .with_k(2)
                    .with_evac_max_root(Some(2)),
            )
            .unwrap_err();
        assert_eq!(err, CsagError::BudgetExhausted);
    }
}
