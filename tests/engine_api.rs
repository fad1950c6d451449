//! Engine-level integration tests: the unified `csag::engine` entry
//! point across methods, under concurrency, and over batches.

use csag::core::distance::{DistanceParams, QueryDistances};
use csag::core::sea::{Sea, SeaParams};
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::paper_examples::figure1_imdb;
use csag::datasets::random_queries;
use csag::decomp::{CommunityModel, EpochIndex};
use csag::engine::{outcome_identity, CommunityQuery, CsagError, Engine, Method};
use csag::graph::{GraphBuilder, NodeId};
use csag::stats::satisfies_error_bound;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The Figure 2(c)/Figure 3 example from the paper: a connected 2-core on
/// six nodes with known composite distances (γ = 0).
fn figure3_engine() -> (Engine, u32) {
    let mut b = GraphBuilder::new(1);
    let values = [1.0, 0.7, 0.6, 0.6, 0.5, 0.0, 0.3];
    for &x in &values {
        b.add_node(&[], &[x]);
    }
    for (u, v) in [
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 6),
        (4, 5),
        (5, 6),
        (4, 6),
        (1, 5),
    ] {
        b.add_edge(u, v).unwrap();
    }
    (Engine::new(b.build().unwrap()), 5)
}

/// Satellite (a): exact and SEA agree on the paper's small examples when
/// asked through the *same* `CommunityQuery`, only the method differing.
#[test]
fn exact_and_sea_agree_on_paper_examples() {
    // Figure 1 (IMDB): both methods around The Godfather at k = 3.
    let (g, q) = figure1_imdb();
    let engine = Engine::new(g);
    let template = CommunityQuery::new(Method::Exact, q)
        .with_k(3)
        .with_error_bound(0.05)
        .with_seed(7);
    let exact = engine.run(&template.clone()).expect("3-core exists");
    let sea = engine
        .run(&template.clone().with_method(Method::Sea))
        .expect("3-core exists");
    assert!(exact.community.contains(&q));
    assert!(sea.community.contains(&q));
    assert!(
        sea.delta >= exact.delta - 1e-9,
        "SEA cannot beat the δ-optimum: {} vs {}",
        sea.delta,
        exact.delta
    );
    // The IMDB snapshot is tiny: SEA samples the whole neighborhood and
    // lands on the same community.
    assert_eq!(sea.community, exact.community, "paper example must agree");

    // Figure 3: γ = 0, k = 2; same protocol.
    let (engine, q) = figure3_engine();
    let template = CommunityQuery::new(Method::Exact, q)
        .with_k(2)
        .with_gamma(0.0)
        .with_error_bound(0.05)
        .with_seed(11);
    let exact = engine.run(&template.clone()).expect("2-core exists");
    let sea = engine
        .run(&template.with_method(Method::Sea))
        .expect("2-core exists");
    assert_eq!(sea.community, exact.community);
    assert!((sea.delta - exact.delta).abs() < 1e-9);
}

/// Satellite (b): one shared engine serves ≥ 8 genuinely concurrent
/// queries, and every concurrent answer equals its serial twin.
#[test]
fn concurrent_queries_share_one_engine() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 400,
            communities: 6,
            ..Default::default()
        },
        3,
    );
    let queries = random_queries(&g, 8, 3, 55);
    assert!(queries.len() >= 8, "need at least 8 concurrent queries");
    let engine = Engine::new(g);

    // Serial reference answers first.
    let make = |&q: &u32| {
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_hoeffding(0.3, 0.95)
            .with_seed(100 + q as u64)
    };
    let serial: Vec<_> = queries.iter().map(|q| engine.run(&make(q))).collect();

    // Now the same workload, one thread per query, same shared engine.
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| scope.spawn(|| engine.run(&make(q))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    for (s, c) in serial.iter().zip(&concurrent) {
        let s = s.as_ref().expect("serial run found a community");
        let c = c.as_ref().expect("concurrent run found a community");
        assert_eq!(s.community, c.community, "concurrency changed an answer");
        assert_eq!(s.delta, c.delta);
    }
}

/// Satellite (c): a batch computes the core decomposition exactly once,
/// and `run_batch` preserves query order.
#[test]
fn batch_computes_decomposition_once() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 300,
            communities: 5,
            ..Default::default()
        },
        4,
    );
    let nodes = random_queries(&g, 6, 3, 77);
    let engine = Engine::new(g);
    assert_eq!(engine.decomp_computations(), 0, "decomposition is lazy");

    // Two queries per node (SEA + VAC — methods with polynomial debug-mode
    // cost) to also exercise the shared distance cache.
    let batch: Vec<CommunityQuery> = nodes
        .iter()
        .flat_map(|&q| {
            [
                CommunityQuery::new(Method::Sea, q)
                    .with_k(3)
                    .with_hoeffding(0.3, 0.95)
                    .with_seed(q as u64),
                CommunityQuery::new(Method::Vac, q).with_k(3),
            ]
        })
        .collect();
    let results = engine.run_batch_with_threads(&batch, 8);
    assert_eq!(results.len(), batch.len());
    assert_eq!(
        engine.decomp_computations(),
        1,
        "the whole batch must share one decomposition"
    );
    assert!(
        engine.cached_query_nodes() <= nodes.len(),
        "one distance table per query node, not per query"
    );
    for (res, query) in results.iter().zip(&batch) {
        let res = res.as_ref().expect("planted queries have 3-cores");
        assert_eq!(res.q, query.q, "run_batch must preserve order");
        assert!(res.community.binary_search(&query.q).is_ok());
        assert_eq!(res.provenance.method, query.method);
    }
}

/// Warm cache hits hand out the *same* live distance table (an `Arc`
/// clone), never a deep copy: the handle returned before and after a
/// repeat query is pointer-identical, and the table keeps its warmed
/// entries across borrowers.
#[test]
fn warm_cache_hits_share_one_table_without_copying() {
    let (engine, q) = figure3_engine();
    let query = CommunityQuery::new(Method::Exact, q)
        .with_k(2)
        .with_gamma(0.0);
    assert!(engine.cached_distances(q, 0.0).is_none());
    engine.run(&query).unwrap();
    assert!(
        engine.cached_distances(q, 0.0).is_none(),
        "a first miss leaves no table behind"
    );
    engine.run(&query).unwrap();
    assert_eq!(
        engine.distance_cache_hits(),
        0,
        "both runs were cold misses"
    );
    let first = engine
        .cached_distances(q, 0.0)
        .expect("the second miss admitted the table");
    let warmed = first.computed();
    assert!(warmed >= 6, "the search warmed the root's distances");

    engine.run(&query).unwrap();
    engine.run(&query.clone().with_method(Method::Vac)).unwrap();
    assert_eq!(engine.distance_cache_hits(), 2, "repeats are warm hits");
    let second = engine.cached_distances(q, 0.0).expect("still resident");
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "warm hits must reuse the identical table, not a copy"
    );
    assert!(second.computed() >= warmed, "warmth only accumulates");
    // Exactly the cache's reference plus our two probes are alive — no
    // stray deep copies holding tables.
    assert_eq!(std::sync::Arc::strong_count(&first), 3);
}

/// 8-thread `run_batch` over the sharded distance cache answers exactly
/// like the single-threaded run of the same workload on a twin engine.
#[test]
fn eight_thread_batch_matches_serial_on_sharded_cache() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 400,
            communities: 6,
            ..Default::default()
        },
        9,
    );
    let nodes = random_queries(&g, 8, 3, 91);
    // Mixed methods and a repeated query node per method, so the batch
    // exercises warm hits, cooperative warming, and multiple shards.
    let batch: Vec<CommunityQuery> = nodes
        .iter()
        .flat_map(|&q| {
            [
                CommunityQuery::new(Method::Sea, q)
                    .with_k(3)
                    .with_hoeffding(0.3, 0.95)
                    .with_seed(1000 + q as u64),
                CommunityQuery::new(Method::Sea, q)
                    .with_k(3)
                    .with_hoeffding(0.3, 0.95)
                    .with_seed(1000 + q as u64),
                CommunityQuery::new(Method::Vac, q).with_k(3),
            ]
        })
        .collect();

    let serial_engine = Engine::from_arc(std::sync::Arc::new(g));
    let parallel_engine = Engine::from_arc(serial_engine.graph_arc());
    let serial = serial_engine.run_batch_with_threads(&batch, 1);
    let parallel = parallel_engine.run_batch_with_threads(&batch, 8);
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), query) in serial.iter().zip(&parallel).zip(&batch) {
        let s = s.as_ref().expect("planted queries have 3-cores");
        let p = p.as_ref().expect("planted queries have 3-cores");
        assert_eq!(s.community, p.community, "query {} diverged", query.q);
        assert_eq!(s.delta, p.delta);
    }
    // Per node, the three checkouts serialize on its shard's lock in
    // some order: a first miss, a miss that admits, a hit.
    assert_eq!(serial_engine.distance_cache_hits(), nodes.len());
    assert_eq!(
        parallel_engine.distance_cache_hits(),
        nodes.len(),
        "repeated query nodes must hit the sharded cache"
    );
}

/// Typed failures through the engine: each of the four error variants is
/// reachable and distinguishable.
#[test]
fn engine_reports_typed_errors() {
    let (engine, q) = figure3_engine();
    // InvalidParams — rejected at build/validate time.
    assert!(matches!(
        CommunityQuery::new(Method::Sea, q).with_k(1).build(),
        Err(CsagError::InvalidParams { .. })
    ));
    // QueryNodeNotFound.
    assert!(matches!(
        engine.run(&CommunityQuery::new(Method::Exact, 700)),
        Err(CsagError::QueryNodeNotFound { q: 700, .. })
    ));
    // NoCommunity — settled from the cached decomposition.
    assert!(matches!(
        engine.run(&CommunityQuery::new(Method::Exact, q).with_k(40)),
        Err(CsagError::NoCommunity { .. })
    ));
    // BudgetExhausted — E-VAC's root-size refusal.
    assert_eq!(
        engine
            .run(
                &CommunityQuery::new(Method::EVac, q)
                    .with_k(2)
                    .with_evac_max_root(Some(2))
            )
            .unwrap_err(),
        CsagError::BudgetExhausted
    );
    // A budget-stopped Exact is no error: its best so far, uncertified,
    // with a proven error bound against the optimum.
    let query = CommunityQuery::new(Method::Exact, q)
        .with_k(2)
        .with_gamma(0.0)
        .with_pruning(csag::core::exact::PruningConfig::NONE);
    let optimum = engine.run(&query).unwrap().delta;
    let stopped = engine.run(&query.with_state_budget(2)).unwrap();
    let cert = stopped.certificate.unwrap();
    assert!(!cert.certified);
    assert!(stopped.delta <= (1.0 + cert.error_bound) * optimum + 1e-12);
    assert_eq!((cert.confidence, cert.moe), (1.0, 0.0));
    assert_eq!(stopped.provenance.states_explored, 2);
    assert!(stopped.community.contains(&q));
}

/// The JSON serialization of a real engine run is structurally sound and
/// carries the certificate.
#[test]
fn community_result_serializes_to_json() {
    let (g, q) = figure1_imdb();
    let engine = Engine::new(g);
    let res = engine
        .run(
            &CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_seed(5)
                .with_error_bound(0.1),
        )
        .unwrap();
    let json = res.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for key in [
        "\"community\":[",
        "\"delta\":",
        "\"certificate\":{",
        "\"method\":\"sea\"",
        "\"timings_ms\":{",
        "\"provenance\":{",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

/// Replaying one template across every homogeneous method — the unified
/// API contract: same query shape, any method, comparable δ.
#[test]
fn one_template_replays_across_methods() {
    let (g, q) = figure1_imdb();
    let engine = Engine::new(g);
    let template = CommunityQuery::new(Method::Exact, q).with_k(3).with_seed(9);
    let exact_delta = engine.run(&template.clone()).unwrap().delta;
    for method in [
        Method::Sea,
        Method::Acq,
        Method::Atc,
        Method::Vac,
        Method::EVac,
    ] {
        let res = engine
            .run(&template.clone().with_method(method))
            .unwrap_or_else(|e| panic!("{method} failed: {e}"));
        assert!(res.community.contains(&q), "{method} lost q");
        assert!(
            res.delta >= exact_delta - 1e-9,
            "{method} beat the δ-optimum: {} < {exact_delta}",
            res.delta
        );
        if matches!(
            method,
            Method::Acq | Method::Atc | Method::Vac | Method::EVac
        ) {
            assert!(res.certificate.is_none(), "{method} promises no accuracy");
            assert!(res.provenance.objective.is_some());
        }
    }
}

/// A round whose sample holds no root doubles the sample and must not use
/// up a small `max_rounds` (nor let a time budget stop the search): "no
/// community" means the whole population was peeled. Every node the engine's screen
/// admits has a community, so SEA answers it at one or two rounds too.
#[test]
fn few_rounds_never_turn_an_admitted_node_into_no_community() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 300,
            communities: 5,
            ..Default::default()
        },
        5,
    );
    let engine = Engine::new(g);
    let k = 3;
    for model in [CommunityModel::KCore, CommunityModel::KTruss] {
        let screen = match model {
            CommunityModel::KCore => engine.coreness().to_vec(),
            CommunityModel::KTruss => engine.node_trussness().to_vec(),
        };
        let admitted: Vec<NodeId> = (0..engine.graph().n() as NodeId)
            .filter(|&v| screen[v as usize] >= k)
            .collect();
        assert!(admitted.len() > 100, "{model}: {} admitted", admitted.len());
        for rounds in [1, 2] {
            for &q in &admitted {
                let query = CommunityQuery::new(Method::Sea, q)
                    .with_k(k)
                    .with_model(model)
                    .with_seed(u64::from(q))
                    .with_max_rounds(rounds);
                if let Err(err) = engine.run(&query) {
                    panic!("{model} q = {q} at max_rounds {rounds}: {err}");
                }
            }
        }
    }
}

/// SEA's `certified` says that Theorem 11's stopping rule fired on some
/// candidate of the run; `delta`, `moe` and `error_bound` describe the
/// community SEA returns, which is the lowest-δ candidate it estimated.
/// On the paper's Figure-1 graph (q = 0, k = 2, e = 0.1, seed 5; found by
/// a seed search) the rule fires on a larger, worse candidate, so a
/// certified answer reports `error_bound` ≈ 0.24 > e.
#[test]
fn a_certified_sea_answer_reports_the_interval_of_the_community_it_returns() {
    let (g, _) = figure1_imdb();
    let (q, k, e, seed) = (0, 2, 0.1, 5);
    let engine = Engine::new(g.clone());
    let query = CommunityQuery::new(Method::Sea, q)
        .with_k(k)
        .with_error_bound(e)
        .with_seed(seed);
    let r = engine.run(&query).unwrap();
    let cert = r.certificate.unwrap();
    assert!(cert.certified, "the stopping rule fired");
    assert!(cert.error_bound > e, "error_bound = {}", cert.error_bound);

    // δ is the returned community's, and error_bound inverts Theorem 11 at
    // (δ, moe), so the interval is the returned community's too ...
    let delta = QueryDistances::new(q, g.n(), DistanceParams::default()).delta(&g, &r.community);
    assert!((delta - r.delta).abs() < 1e-12);
    let achieved = cert.moe / (r.delta - cert.moe);
    assert!((achieved - cert.error_bound).abs() < 1e-12);

    // ... and not that of the candidate the rule fired on: the run's last
    // estimate, which passes the gate.
    let params = SeaParams::default().with_k(k).with_error_bound(e);
    let index = EpochIndex::new();
    let sea = Sea::new(&g, &index, DistanceParams::default())
        .run(q, &params, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    assert_eq!(
        sea.community, r.community,
        "the engine runs the same search"
    );
    let fired = sea.rounds.last().unwrap();
    assert!(satisfies_error_bound(fired.moe, fired.delta_star, e));
    assert!(fired.delta_star > r.delta && fired.moe != cert.moe);
}

/// Finite numerics whose range overflows `f64` (`max − min = +∞`) used to
/// normalize to NaN, and every SEA and Exact read then panicked sorting
/// distances. Both kinds of graph — one a store published from such
/// updates, one read from a file holding them — must answer with a
/// finite δ.
#[test]
fn overflowing_numeric_ranges_still_answer_with_finite_deltas() {
    use csag::engine::{GraphStore, GraphUpdate};
    use csag::graph::io::{read_graph, write_graph};

    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 60,
            communities: 3,
            ..Default::default()
        },
        7,
    );
    let store = GraphStore::new(g);
    let batch =
        GraphUpdate::parse_script("set-attrs 0 - 1.7e308 0.5\nset-attrs 1 - -1.7e308 0.5\n")
            .unwrap();
    store.apply(&batch).unwrap();
    let mut text = Vec::new();
    write_graph(store.snapshot().graph(), &mut text).unwrap();
    let from_file = Engine::new(read_graph(&text[..]).unwrap());

    let queries = [
        CommunityQuery::new(Method::Sea, 0).with_k(3).with_seed(1),
        CommunityQuery::new(Method::Exact, 0)
            .with_k(3)
            .with_state_budget(2_000),
    ];
    for query in &queries {
        for (source, result) in [("store", store.run(query)), ("file", from_file.run(query))] {
            let delta = result.unwrap().delta;
            assert!(
                delta.is_finite(),
                "{:?} on the {source} graph: δ = {delta}",
                query.method
            );
        }
    }
}

/// A zero time budget stops every loop at its first poll. SEA polls at a
/// round's head once it holds a candidate, so a stopped SEA answer is the
/// same query capped at one round; VAC polls before each peeling round, so
/// it answers like an iteration cap of 0. Pinned over every admitted node
/// of a generated graph, in both models.
#[test]
fn a_zero_time_budget_answers_like_the_smallest_effort_cap() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 300,
            communities: 5,
            ..Default::default()
        },
        9,
    );
    let engine = Engine::new(g);
    let k = 3;
    let answer = |query: &CommunityQuery| outcome_identity(&engine.run(query), false);
    for model in [CommunityModel::KCore, CommunityModel::KTruss] {
        let screen = match model {
            CommunityModel::KCore => engine.coreness().to_vec(),
            CommunityModel::KTruss => engine.node_trussness().to_vec(),
        };
        let admitted: Vec<NodeId> = (0..engine.graph().n() as NodeId)
            .filter(|&v| screen[v as usize] >= k)
            .step_by(7)
            .collect();
        assert!(admitted.len() > 10, "{model}: {} admitted", admitted.len());
        for &q in &admitted {
            let base = |method| {
                CommunityQuery::new(method, q)
                    .with_k(k)
                    .with_model(model)
                    .with_seed(u64::from(q))
            };
            for sea in [
                base(Method::Sea),
                base(Method::SeaSizeBounded).with_size_bound(3, 12),
            ] {
                assert_eq!(
                    answer(&sea.clone().with_time_budget(Duration::ZERO)),
                    answer(&sea.clone().with_max_rounds(1)),
                    "{} {model} q = {q}",
                    sea.method
                );
            }
            let vac = base(Method::Vac);
            assert_eq!(
                answer(&vac.clone().with_time_budget(Duration::ZERO)),
                answer(&vac.clone().with_vac_iteration_cap(Some(0))),
                "vac {model} q = {q}"
            );
        }
    }
}

/// A budget the clock cannot represent (`Instant + Duration::MAX`
/// overflows) never expires: every method answers exactly as without one.
#[test]
fn a_time_budget_too_far_to_represent_never_expires() {
    let (g, q) = figure1_imdb();
    let engine = Engine::new(g);
    for model in [CommunityModel::KCore, CommunityModel::KTruss] {
        for method in Method::ALL {
            if method == Method::SeaHetero {
                continue;
            }
            let mut query = CommunityQuery::new(method, q).with_k(3).with_model(model);
            if method == Method::SeaSizeBounded {
                query = query.with_size_bound(3, 6);
            }
            let unbounded = outcome_identity(&engine.run(&query), false);
            let query = query.with_time_budget(Duration::MAX);
            assert_eq!(
                outcome_identity(&engine.run(&query), false),
                unbounded,
                "{method} {model}"
            );
        }
    }
}
