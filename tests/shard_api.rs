//! `csag::cluster::shard` integration tests: the sharded cluster's one
//! promise is that it is *invisible* — for every query, every method,
//! every parameterization (including erroneous ones), and every point
//! in a churn history, the answer is byte-identical to a single
//! [`GraphStore`] holding the whole graph. The property test drives
//! random graphs through random partitions (1–4 shards, halos 0–2) and
//! random churn, comparing full result JSON (timings stripped — wall
//! clock is the only thing allowed to differ). Deterministic tests pin
//! the split between local hits and spilled reads, the pinned-read gate
//! on the cluster epoch, the shards' owner adjacency against the
//! journal's, and the warm-start signal of a spilled read.

use csag::cluster::{ReadSource, ShardedRouter};
use csag::core::CommunityModel;
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{random_queries, random_updates, ChurnMix};
use csag::engine::{
    outcome_identity, ApplyError, CommunityQuery, CsagError, GraphStore, GraphUpdate, Method,
    UpdateReport,
};
use csag::graph::QueryWorkspace;
use csag::service::{Request, Service, ServiceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Graph-state facets of an [`UpdateReport`]: epoch and mutation
/// counts must agree between the sharded journal and the solo store.
/// The `distance_tables_*` counters are deliberately excluded — they
/// report per-store *cache* effects, and the solo store's cache is
/// warmed by the very queries this test runs against it.
fn report_fingerprint(r: &Result<UpdateReport, ApplyError>) -> String {
    match r {
        Ok(rep) => format!(
            "ok:epoch={}:+e{}:-e{}:+v{}:attrs{}:noops{}:core{}",
            rep.epoch,
            rep.edges_added,
            rep.edges_removed,
            rep.vertices_added,
            rep.attributes_set,
            rep.noops,
            rep.coreness_changed,
        ),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Every method the engine dispatches, plus screen-failing and
/// malformed variants: the contract covers error bytes too.
fn battery(q: u32) -> Vec<CommunityQuery> {
    vec![
        CommunityQuery::new(Method::Exact, q)
            .with_k(3)
            .with_step_budget(500),
        CommunityQuery::new(Method::Exact, q)
            .with_k(3)
            .with_model(CommunityModel::KTruss)
            .with_step_budget(500),
        CommunityQuery::new(Method::Acq, q).with_k(3),
        CommunityQuery::new(Method::Acq, q)
            .with_k(3)
            .with_model(CommunityModel::KTruss),
        CommunityQuery::new(Method::Vac, q).with_k(3),
        // Root-capped so debug builds stay fast: large roots answer
        // with the same BudgetExhausted bytes on both sides.
        CommunityQuery::new(Method::EVac, q)
            .with_k(3)
            .with_evac_max_root(Some(60)),
        CommunityQuery::new(Method::Atc, q).with_k(3),
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_hoeffding(0.3, 0.95)
            .with_seed(u64::from(q)),
        CommunityQuery::new(Method::SeaSizeBounded, q)
            .with_k(3)
            .with_size_bound(3, 12)
            .with_hoeffding(0.3, 0.95)
            .with_seed(u64::from(q)),
        CommunityQuery::new(Method::Sea, q)
            .with_k(2)
            .with_model(CommunityModel::KTruss)
            .with_hoeffding(0.3, 0.95)
            .with_seed(u64::from(q)),
        // Dispatch-time rejection: error bytes only.
        CommunityQuery::new(Method::SeaHetero, q).with_k(3),
        // Screen-failing k: the precheck message quotes global numbers.
        CommunityQuery::new(Method::Exact, q).with_k(50),
        CommunityQuery::new(Method::Acq, q)
            .with_k(50)
            .with_model(CommunityModel::KTruss),
        // Malformed parameters: rejected before any graph read.
        CommunityQuery::new(Method::Sea, q).with_k(0),
    ]
}

/// Runs the battery at `q` against both backends and compares bytes.
fn assert_identical_at(solo: &GraphStore, sharded: &ShardedRouter, q: u32, ctx: &str) {
    let solo_snap = solo.snapshot();
    let solo_engine = solo_snap.engine();
    let routed = sharded
        .route_read(None, Duration::ZERO)
        .expect("unpinned sharded read always routes");
    let mut ws_solo = QueryWorkspace::new();
    let mut ws_shard = QueryWorkspace::new();
    for query in battery(q) {
        let a = solo_engine.run_with_workspace(&query, &mut ws_solo);
        let b = routed.run_with_workspace(&query, &mut ws_shard);
        assert_eq!(
            outcome_identity(&a, false),
            outcome_identity(&b, false),
            "sharded answer diverged ({ctx}, q={q}, method={:?}, k={}, model={:?})",
            query.method,
            query.k,
            query.model
        );
    }
}

fn synthetic(nodes: usize, communities: usize, seed: u64) -> csag::graph::AttributedGraph {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes,
            communities,
            ..Default::default()
        },
        seed,
    );
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE tentpole property: random graph, random partition (1–4
    /// shards, halo 0–2), random churn — every answer byte-identical
    /// to the single store, and every `UpdateReport` too.
    #[test]
    fn sharded_answers_byte_identical_under_churn(
        shards in 1usize..=4,
        halo in 0u32..=2,
        seed in 0u64..512,
    ) {
        let g = synthetic(48, 3, seed);
        let solo = GraphStore::new(g.clone());
        let sharded = ShardedRouter::over_graph(g, shards, halo, 0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD);
        let mut probes = random_queries(solo.snapshot().engine().graph(), 2, 3, seed);
        probes.push(0);
        for round in 0..2u32 {
            for &q in &probes {
                assert_identical_at(&solo, &sharded, q, &format!(
                    "shards={shards}, halo={halo}, seed={seed}, round={round}"
                ));
            }
            // Out-of-range probe: rejected before any adjacency read.
            let n = solo.snapshot().engine().graph().n() as u32;
            assert_identical_at(&solo, &sharded, n + 7, "out-of-range probe");
            let batch =
                random_updates(solo.snapshot().engine().graph(), &mut rng, 6, ChurnMix::MIXED);
            let a = solo.apply(&batch);
            let b = sharded.apply(&batch);
            prop_assert_eq!(
                report_fingerprint(&a),
                report_fingerprint(&b),
                "update reports diverged (shards={}, halo={}, seed={}, round={})",
                shards, halo, seed, round
            );
            prop_assert_eq!(solo.snapshot().epoch(), sharded.epoch());
        }
        for &q in &probes {
            assert_identical_at(&solo, &sharded, q, "post-churn");
        }
    }
}

/// An erroneous batch halts at the same prefix on both sides and the
/// applied prefix is visible everywhere (the routing pre-simulates the
/// journal's validity checks).
#[test]
fn erroneous_batches_halt_at_the_same_prefix() {
    let g = synthetic(60, 3, 11);
    let solo = GraphStore::new(g.clone());
    let sharded = ShardedRouter::over_graph(g, 3, 1, 0);
    let bad = vec![
        GraphUpdate::AddEdge { u: 0, v: 5 },
        GraphUpdate::AddVertex {
            tokens: vec!["late".to_string()],
            numeric: vec![0.5, 0.5],
        },
        GraphUpdate::AddEdge { u: 1, v: 9_999 },
        GraphUpdate::AddEdge { u: 2, v: 3 },
    ];
    let a = solo.apply(&bad);
    let b = sharded.apply(&bad);
    assert!(a.is_err(), "out-of-range endpoint must reject");
    assert_eq!(report_fingerprint(&a), report_fingerprint(&b));
    assert_eq!(solo.snapshot().epoch(), sharded.epoch());
    for q in [0, 1, 5] {
        assert_identical_at(&solo, &sharded, q, "after halted batch");
    }
}

/// With several shards and a thin halo, community-spanning queries
/// must spill to the journal while purely local ones stay home — and the
/// metrics section records both.
#[test]
fn queries_split_between_local_hits_and_gathers() {
    let g = synthetic(100, 5, 42);
    let n = g.n();
    let solo = GraphStore::new(g.clone());
    let sharded = ShardedRouter::over_graph(g, 3, 0, 0);
    let mut ws_solo = QueryWorkspace::new();
    let mut ws_shard = QueryWorkspace::new();
    let routed = sharded
        .route_read(None, Duration::ZERO)
        .expect("unpinned sharded read always routes");
    for q in 0..n as u32 {
        for query in [
            CommunityQuery::new(Method::Exact, q)
                .with_k(3)
                .with_step_budget(500),
            CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_hoeffding(0.3, 0.95)
                .with_seed(u64::from(q)),
        ] {
            let a = solo
                .snapshot()
                .engine()
                .run_with_workspace(&query, &mut ws_solo);
            let b = routed.run_with_workspace(&query, &mut ws_shard);
            assert_eq!(
                outcome_identity(&a, false),
                outcome_identity(&b, false),
                "sweep q={q}"
            );
        }
    }
    // A fresh vertex with no edges is covered only at its owner, and
    // its screens fire with the same numbers there: a guaranteed
    // shard-local answer even at halo 0.
    sharded
        .apply(&[GraphUpdate::AddVertex {
            tokens: vec!["fresh".to_string()],
            numeric: vec![0.5, 0.5],
        }])
        .expect("vertex append applies");
    let routed = sharded
        .route_read(None, Duration::ZERO)
        .expect("unpinned sharded read always routes");
    routed
        .run_with_workspace(
            &CommunityQuery::new(Method::Exact, n as u32).with_k(3),
            &mut ws_shard,
        )
        .expect_err("an isolated vertex has no 3-core");
    let metrics = sharded.metrics();
    assert_eq!(metrics.shards.len(), 3);
    let local: u64 = metrics.shards.iter().map(|s| s.local_hits).sum();
    let gathers: u64 = metrics.shards.iter().map(|s| s.gathers).sum();
    assert_eq!(
        (local + gathers) as usize,
        2 * n + 1,
        "every sharded read is either a local hit or a gather"
    );
    assert!(local > 0, "some queries must resolve shard-locally");
    assert!(
        gathers > 0,
        "a halo-0 partition must force cross-shard gathers"
    );
    let owned: u64 = metrics.shards.iter().map(|s| s.owned).sum();
    assert_eq!(owned as usize, n + 1, "ownership partitions the vertex set");
}

/// Pinned reads gate on the *cluster* epoch: a pin above the published
/// watermark waits, then rejects with the typed `EpochUnavailable`
/// quoting the cluster's watermark — and a pin at the watermark routes.
#[test]
fn pinned_reads_gate_on_the_cluster_epoch() {
    let g = synthetic(60, 3, 7);
    let sharded = ShardedRouter::over_graph(g, 2, 1, 0);
    let report = sharded
        .apply(&[GraphUpdate::AddEdge { u: 0, v: 1 }])
        .expect("clean batch applies");
    assert_eq!(report.epoch, 1);
    assert_eq!(sharded.epoch(), 1, "cluster epoch published after fan-out");
    let routed = sharded
        .route_read(Some(1), Duration::from_secs(1))
        .expect("published epoch is routable");
    assert!(routed.epoch() >= 1);
    match sharded.route_read(Some(5), Duration::from_millis(20)) {
        Err(CsagError::EpochUnavailable {
            requested,
            published,
        }) => {
            assert_eq!(requested, 5);
            assert_eq!(published, 1);
        }
        other => panic!("future pin must reject typed, got {other:?}"),
    }
}

/// After every batch of a churn run, each vertex's adjacency on its
/// owner shard equals the journal's: the shards, read at each vertex's
/// owner, assemble exactly the global graph — and the routed snapshot
/// is the journal's, at the cluster epoch.
#[test]
fn assembled_snapshot_equals_the_journal_graph() {
    let g = synthetic(120, 4, 99);
    let sharded = Arc::new(ShardedRouter::over_graph(g, 4, 1, 0));
    let mut rng = StdRng::seed_from_u64(0xA55E);
    for batch_no in 0..6 {
        let batch = random_updates(
            sharded.journal().snapshot().engine().graph(),
            &mut rng,
            8,
            ChurnMix::MIXED,
        );
        sharded.apply(&batch).expect("churn batch applies");
        let view = sharded.view();
        let journal = sharded.journal().snapshot();
        let jg = journal.engine().graph();
        assert_eq!(view.epoch(), journal.epoch());
        for v in 0..jg.n() as u32 {
            let owner = view.shard(view.owner(v)).engine().graph();
            assert_eq!(
                owner.neighbors(v),
                jg.neighbors(v),
                "adjacency of {v} after batch {batch_no}"
            );
        }
        let routed = sharded
            .route_read(None, Duration::ZERO)
            .expect("unpinned read routes");
        assert_eq!(routed.snapshot().engine().graph().m(), jg.m());
        assert_eq!(routed.snapshot().epoch(), journal.epoch());
    }
}

/// A spilled SEA read runs on the journal, whose distance cache admits
/// q's table on the key's second miss: the third of three identical
/// reads through a service is a warm hit.
#[test]
fn a_repeated_spilled_read_is_a_warm_hit() {
    let g = synthetic(100, 5, 42);
    let sea = |q: u32| {
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_hoeffding(0.3, 0.95)
            .with_seed(u64::from(q))
    };
    // Find a spilled read on a throwaway router, so the service's
    // journal cache starts cold.
    let probe = ShardedRouter::over_graph(g.clone(), 3, 0, 0);
    let gathers = || {
        probe
            .metrics()
            .shards
            .iter()
            .map(|s| s.gathers)
            .sum::<u64>()
    };
    let mut ws = QueryWorkspace::new();
    let q = (0..g.n() as u32)
        .find(|&q| {
            let before = gathers();
            let routed = probe
                .route_read(None, Duration::ZERO)
                .expect("unpinned read routes");
            routed
                .run_with_workspace(&sea(q), &mut ws)
                .expect("SEA answers");
            gathers() > before
        })
        .expect("a halo-0 partition spills some SEA read");
    let sharded = Arc::new(ShardedRouter::over_graph(g, 3, 0, 0));
    let service = Service::over_shards(sharded, ServiceConfig::default().with_workers(1));
    for _ in 0..3 {
        service.run(Request::new(sea(q))).expect("admitted");
    }
    assert!(service.metrics().warm_hits >= 1, "q={q}");
}

/// `--replicas` composes: each shard is a full replicated router, and
/// answers stay byte-identical with per-shard replicas attached.
#[test]
fn per_shard_replicas_keep_answers_identical() {
    let g = synthetic(60, 3, 17);
    let solo = GraphStore::new(g.clone());
    let sharded = ShardedRouter::over_graph(g, 2, 1, 1);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let batch = random_updates(
        solo.snapshot().engine().graph(),
        &mut rng,
        10,
        ChurnMix::MIXED,
    );
    let a = solo.apply(&batch);
    let b = sharded.apply(&batch);
    assert_eq!(report_fingerprint(&a), report_fingerprint(&b));
    for q in [0, 20, 40] {
        assert_identical_at(&solo, &sharded, q, "with per-shard replicas");
    }
}
