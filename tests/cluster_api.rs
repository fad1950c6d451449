//! `csag::cluster` integration tests: replication byte-identity under
//! churn, pinned-read routing (a pinned read is never served by a store
//! that has not published the pin), failure → reseed recovery with zero
//! failed client responses, and the typed `EpochUnavailable` rejection.

use csag::cluster::{
    ClusterMetrics, Follower, FollowerConfig, MemberKind, MemberMetrics, ReadOrigin, ReadSource,
    ReplListener, ReplicaHealth, Router, ShardedRouter,
};
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{random_queries, random_updates, ChurnMix};
use csag::engine::{
    outcome_identity, CommunityQuery, CsagError, Engine, GraphStore, GraphUpdate, Method,
};
use csag::service::{Request, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn small_graph(seed: u64) -> (csag::graph::AttributedGraph, Vec<u32>) {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 200,
            communities: 5,
            ..Default::default()
        },
        seed,
    );
    let queries = random_queries(&g, 4, 3, 0xC1);
    assert!(!queries.is_empty(), "generated graph must offer 3-cores");
    (g, queries)
}

/// In-process replica `i`'s watermark, through the by-name accessor.
fn watermark(router: &Router, i: usize) -> u64 {
    router
        .member_watermark(&format!("local-{i}"))
        .expect("in-process members are named local-<i>")
}

/// The replication contract: after arbitrary churn through the router,
/// every replica that caught up answers every query byte-for-byte like
/// the primary at the same epoch — and like a fresh engine built from
/// the primary's post-churn graph.
#[test]
fn replicas_answer_byte_identically_to_the_primary_after_churn() {
    let (g, query_nodes) = small_graph(31);
    let router = Router::over_graph(g, 2);
    let mut rng = StdRng::seed_from_u64(0xB17E);

    let queries_for = |q: u32| {
        vec![
            CommunityQuery::new(Method::Exact, q)
                .with_k(3)
                .with_step_budget(2_000),
            CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_hoeffding(0.3, 0.95)
                .with_seed(q as u64),
        ]
    };

    for round in 0..6 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 5, ChurnMix::MIXED);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
        assert!(
            router.wait_caught_up(Duration::from_secs(30)),
            "replicas catch up after round {round}"
        );
        let primary = router.primary().snapshot();
        let fresh = Engine::new(primary.engine().graph().clone());
        for i in 0..router.replica_count() {
            assert_eq!(
                watermark(&router, i),
                primary.epoch(),
                "caught-up replica {i} sits at the primary epoch"
            );
            // A read pinned to the current epoch routed until it lands
            // on replica i (rotation guarantees it gets picked
            // eventually; assert against whatever store answered).
            let routed = router
                .route_read(Some(primary.epoch()), Duration::from_secs(1))
                .expect("current epoch is published");
            assert!(routed.epoch() >= primary.epoch());
            for &q in &query_nodes {
                for query in queries_for(q) {
                    let via_router = routed.snapshot().engine().run(&query);
                    let via_primary = primary.engine().run(&query);
                    let via_fresh = fresh.run(&query);
                    assert_eq!(
                        outcome_identity(&via_router, false),
                        outcome_identity(&via_primary, false),
                        "round {round}: routed read disagrees with primary on {query:?}"
                    );
                    // A fresh engine answers at epoch 0.
                    assert_eq!(
                        outcome_identity(&via_primary, true),
                        outcome_identity(&via_fresh, true),
                        "round {round}: primary disagrees with a fresh engine on {query:?}"
                    );
                }
            }
        }
    }
}

/// The pinned-routing guarantee, deterministically: with one replica
/// paused (lagging), a read pinned past its watermark must never be
/// served by it — and the response's epoch is always `>=` the pin.
#[test]
fn pinned_reads_skip_lagging_replicas() {
    let (g, query_nodes) = small_graph(32);
    let router = Router::over_graph(g, 2);
    let mut rng = StdRng::seed_from_u64(0xA11);

    // Replica 0 stops consuming its log; replica 1 keeps up.
    router.pause_replica(0);
    for _ in 0..3 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::STRUCTURAL);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
    }
    let pin = router.epoch();
    assert_eq!(pin, 3);
    // `wait_caught_up` would block on the paused replica 0; wait for
    // replica 1 alone.
    assert!(
        router.wait_member_caught_up("local-1", Duration::from_secs(30)),
        "replica 1 catches up"
    );
    assert_eq!(watermark(&router, 1), pin);
    assert!(
        watermark(&router, 0) < pin,
        "paused replica must lag for this test to bite"
    );

    for _ in 0..64 {
        let routed = router
            .route_read(Some(pin), Duration::from_millis(100))
            .expect("published pin always routes");
        assert!(
            routed.epoch() >= pin,
            "pinned read answered from epoch >= pin"
        );
        assert_ne!(
            routed.origin(),
            ReadOrigin::Replica(0),
            "a pinned read must never land on the lagging replica"
        );
    }

    // Unpinned reads also avoid the laggard: they require catch-up to
    // the primary's current epoch.
    for _ in 0..16 {
        let routed = router
            .route_read(None, Duration::ZERO)
            .expect("unpinned reads always route");
        assert_ne!(routed.origin(), ReadOrigin::Replica(0));
    }

    // Once resumed and drained, the replica serves pinned reads again.
    router.resume_replica(0);
    assert!(router.wait_caught_up(Duration::from_secs(30)));
    let mut saw_replica0 = false;
    for _ in 0..64 {
        let routed = router
            .route_read(Some(pin), Duration::from_millis(100))
            .expect("published pin always routes");
        saw_replica0 |= routed.origin() == ReadOrigin::Replica(0);
    }
    assert!(
        saw_replica0,
        "a drained replica rejoins the pinned-read rotation"
    );
    let _ = query_nodes;
}

/// The same guarantee through the full service stack under concurrent
/// churn: every epoch-pinned response reports an epoch `>=` its pin
/// while a writer thread keeps the cluster churning.
#[test]
fn pinned_service_reads_stay_consistent_under_concurrent_churn() {
    let (g, query_nodes) = small_graph(33);
    let router = Arc::new(Router::over_graph(g, 2));
    let service = Service::over_cluster(
        Arc::clone(&router),
        ServiceConfig::default()
            .with_workers(2)
            .with_epoch_wait(Duration::from_secs(1)),
    );

    let writer = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE);
            for _ in 0..12 {
                let snap = router.primary().snapshot();
                let batch =
                    random_updates(snap.engine().graph(), &mut rng, 3, ChurnMix::STRUCTURAL);
                drop(snap);
                router.apply(&batch).expect("churn batch applies");
                // Pacing under test: the batches interleave with the reads.
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut answered = 0;
    for i in 0..60u64 {
        // Pin at (or, while churn is still running, slightly ahead of)
        // the epoch observed at submit time; the router may have to
        // wait for a publish, never answer from before the pin.
        let ahead = if writer.is_finished() { 0 } else { i % 2 };
        let pin = router.epoch() + ahead;
        let q = query_nodes[(i as usize) % query_nodes.len()];
        let req = Request::new(
            CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_hoeffding(0.3, 0.95)
                .with_seed(i),
        )
        .with_epoch(pin);
        match service.submit(req) {
            Ok(ticket) => {
                let resp = ticket.wait();
                assert!(
                    resp.epoch >= pin,
                    "response epoch {} < pin {pin}",
                    resp.epoch
                );
                answered += 1;
            }
            Err(CsagError::EpochUnavailable { requested, .. }) => {
                // Legal only for the future pins once churn has ended.
                assert_eq!(requested, pin);
            }
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    }
    writer.join().expect("writer thread");
    assert!(answered > 0, "pinned reads were answered under churn");
}

/// Induced replica failure end to end: the replica degrades, leaves the
/// rotation, reads keep answering with zero failures, `heal` reseeds
/// it, and its post-reseed answers match the primary.
#[test]
fn induced_failure_degrades_then_heals_with_zero_failed_reads() {
    let (g, query_nodes) = small_graph(34);
    let router = Router::over_graph(g, 2);
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let churn = |router: &Router, rng: &mut StdRng| {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), rng, 4, ChurnMix::STRUCTURAL);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
    };

    churn(&router, &mut rng);
    // Replica 0 must have drained the first record, or the induced
    // failure hits *it* and the second apply reseeds the replica.
    assert!(router.wait_caught_up(Duration::from_secs(10)));
    router.induce_failure(0);
    churn(&router, &mut rng); // replica 0 fails this apply and degrades
    let degraded = ReplicaHealth::Degraded;
    assert!(router.wait_member_health("local-0", degraded, Duration::from_secs(10)));

    // Reads keep answering while the replica is out — and never from it.
    let pin = router.epoch();
    for i in 0..32u64 {
        let routed = router
            .route_read(Some(pin), Duration::from_secs(1))
            .expect("reads never fail during a replica outage");
        assert!(routed.epoch() >= pin);
        assert_ne!(routed.origin(), ReadOrigin::Replica(0));
        let q = query_nodes[(i as usize) % query_nodes.len()];
        let outcome = routed.snapshot().engine().run(
            &CommunityQuery::new(Method::Exact, q)
                .with_k(3)
                .with_step_budget(2_000),
        );
        assert!(
            matches!(outcome, Ok(_) | Err(CsagError::NoCommunity { .. })),
            "query through a degraded cluster failed: {outcome:?}"
        );
    }

    // Heal: reseed from the primary snapshot, rejoin, agree.
    assert_eq!(router.heal(), 1, "exactly the failed replica reseeds");
    assert!(router.wait_member_caught_up("local-0", Duration::from_secs(30)));
    assert_eq!(
        router.member_health("local-0"),
        Some(ReplicaHealth::Healthy)
    );
    assert_eq!(watermark(&router, 0), router.epoch());

    churn(&router, &mut rng); // a reseeded replica consumes new records
    assert!(router.wait_caught_up(Duration::from_secs(30)));
    let primary = router.primary().snapshot();
    let query = CommunityQuery::new(Method::Exact, query_nodes[0])
        .with_k(3)
        .with_step_budget(2_000);
    let mut saw_replica0 = false;
    for _ in 0..64 {
        let routed = router
            .route_read(Some(router.epoch()), Duration::from_secs(1))
            .expect("current epoch routes");
        if routed.origin() == ReadOrigin::Replica(0) {
            saw_replica0 = true;
            assert_eq!(
                outcome_identity(&routed.snapshot().engine().run(&query), false),
                outcome_identity(&primary.engine().run(&query), false),
                "reseeded replica must agree with the primary"
            );
        }
    }
    assert!(saw_replica0, "healed replica rejoins the rotation");

    let metrics = router.metrics();
    assert_eq!(metrics.members[0].degraded, 1);
    assert_eq!(metrics.members[0].reseeds, 1);
    assert!(metrics.members[0].apply_errors >= 1);
}

/// A pin beyond every published epoch fails with the typed error (and
/// its `requested`/`published` payload), both through the router and
/// through the service wire envelope.
#[test]
fn unpublishable_pins_reject_with_the_typed_error() {
    let (g, query_nodes) = small_graph(35);
    let router = Arc::new(Router::over_graph(g, 1));
    let future = router.epoch() + 100;
    match router.route_read(Some(future), Duration::from_millis(20)) {
        Err(CsagError::EpochUnavailable {
            requested,
            published,
        }) => {
            assert_eq!(requested, future);
            assert!(published < future);
        }
        other => panic!("expected EpochUnavailable, got {other:?}"),
    }

    // Through the service: the rejection costs no admission slot and
    // surfaces as `epoch_unavailable` on the wire.
    let service = Service::over_cluster(
        Arc::clone(&router),
        ServiceConfig::default()
            .with_workers(1)
            .with_epoch_wait(Duration::from_millis(20)),
    );
    let req = Request::new(CommunityQuery::new(Method::Exact, query_nodes[0]).with_k(3))
        .with_epoch(future);
    match service.submit(req) {
        Err(e @ CsagError::EpochUnavailable { .. }) => {
            let json = csag::engine::error_to_json(&e);
            assert!(json.contains("\"error\":\"epoch_unavailable\""), "{json}");
            assert!(json.contains(&format!("\"requested\":{future}")), "{json}");
            assert!(json.contains("\"published\":"), "{json}");
        }
        other => panic!("expected EpochUnavailable, got {other:?}"),
    }
    let snap = service.metrics();
    assert_eq!(snap.admitted, 0, "a rejected pin never occupies a slot");
    assert_eq!(snap.rejected, 1);

    // The metrics counted the rejection.
    assert!(router.metrics().pinned_rejects >= 1);
}

/// Silent-replica detection: a silenced replica fails `health_check`'s
/// heartbeat budget, degrades, and `heal` brings it back.
#[test]
fn health_check_degrades_silent_replicas() {
    let (g, _) = small_graph(36);
    let router = Router::over_graph(g, 2);
    // Both replicas beat when they attach, at construction.
    router.silence_replica(1);
    // The silence under test: longer than the 50 ms budget below.
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(router.health_check(Duration::from_millis(50)), 1);
    assert_eq!(
        router.member_health("local-1"),
        Some(ReplicaHealth::Degraded)
    );
    assert_eq!(
        router.health_check(Duration::from_millis(50)),
        0,
        "idempotent"
    );

    router.resume_replica(1); // clears the silence along with the pause
    assert_eq!(router.heal(), 1);
    assert!(router.wait_member_caught_up("local-1", Duration::from_secs(30)));
    assert_eq!(
        router.member_health("local-1"),
        Some(ReplicaHealth::Healthy)
    );
}

/// The member lifecycle, stated once and run over both member kinds —
/// an in-process replica and a follower across a `csag-repl v1` socket
/// — through the one accessor set and the one [`MemberMetrics`] row:
/// healthy → degraded (out of the stream, watermark frozen, one
/// incident counted) → reseeded → healthy and consuming again. Only the
/// triggers are kind-specific: the failure seam exists in process only,
/// and a follower is reseeded by its own reconnect.
#[test]
fn every_member_kind_upholds_the_lifecycle() {
    let (g, _) = small_graph(38);
    let router = Arc::new(Router::over_graph(g, 1));
    let listener =
        ReplListener::bind_tcp(Arc::clone(&router), "127.0.0.1:0").expect("bind repl listener");
    let addr = listener.local_addr().to_string();
    // The follower registers with its first hello.
    let follow = || {
        let config = FollowerConfig {
            name: "f".into(),
            ..FollowerConfig::default()
        };
        let follower = Follower::start(&addr, config).expect("follower starts");
        assert!(follower.wait_connected(Duration::from_secs(30)), "f joins");
        follower
    };
    let follower = std::sync::Mutex::new(Some(follow()));

    let mut rng = StdRng::seed_from_u64(0x11FE);
    let mut churn = || {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.graph(), &mut rng, 3, ChurnMix::STRUCTURAL);
        router.apply(&batch).expect("churn batch applies");
    };
    let row = |name: &str| -> MemberMetrics {
        let rows = router.metrics().members;
        let found = rows.into_iter().find(|m| m.name == name);
        found.unwrap_or_else(|| panic!("no member {name}"))
    };
    // Caught up is healthy at the primary's epoch, one published state.
    let caught_up = |name: &str| {
        assert!(router.wait_member_caught_up(name, Duration::from_secs(30)));
        assert_eq!(router.member_health(name), Some(ReplicaHealth::Healthy));
        assert_eq!(router.member_watermark(name), Some(router.epoch()));
    };

    type Trigger<'a> = &'a dyn Fn();
    let kinds: [(&str, MemberKind, Trigger, Trigger); 2] = [
        (
            "local-0",
            MemberKind::Local,
            &|| router.induce_failure(0),
            &|| assert_eq!(router.heal(), 1),
        ),
        (
            "f",
            MemberKind::Remote,
            &|| drop(follower.lock().unwrap().take()),
            &|| *follower.lock().unwrap() = Some(follow()),
        ),
    ];
    for (name, kind, fail, reseed) in kinds {
        churn();
        caught_up(name);
        let healthy = row(name);
        assert_eq!(healthy.kind, kind);
        assert!(healthy.connected, "{name}");
        assert_eq!((healthy.lag, healthy.degraded), (0, 0), "{name}");

        // Degraded: the batch behind the failure never lands, so the
        // watermark freezes one epoch short and stays there.
        fail();
        churn();
        let degraded = ReplicaHealth::Degraded;
        assert!(router.wait_member_health(name, degraded, Duration::from_secs(30)));
        let out = row(name);
        assert_eq!(out.watermark, healthy.watermark, "{name}: frozen");
        assert_eq!(
            (out.lag, out.degraded, out.reseeds),
            (1, 1, healthy.reseeds),
            "{name}"
        );
        assert!(!router.wait_member_caught_up(name, Duration::from_millis(20)));
        let pin = router.epoch();
        let routed = router.route_read(Some(pin), Duration::ZERO);
        let routed = routed.expect("reads keep flowing around a degraded member");
        assert!(routed.epoch() >= pin);

        // Reseeded, healthy again, and consuming what comes next.
        reseed();
        caught_up(name);
        let back = row(name);
        assert_eq!(
            (back.lag, back.degraded, back.reseeds),
            (0, 1, healthy.reseeds + 1),
            "{name}"
        );
        churn();
        caught_up(name);
        assert!(router.wait_caught_up(Duration::from_secs(30)));
    }
    drop(follower);
    listener.shutdown();
}

/// The pinned-read contract every [`ReadSource`] upholds, stated once
/// and run over all three topologies through `&dyn ReadSource`: a pin
/// at or below the published epoch is served at an epoch `>=` the pin;
/// a pin above it with no wait budget is the typed rejection quoting
/// exactly the requested and published epochs; a pin a writer publishes
/// during the wait is served; and (for the two routers, which count)
/// every pinned read is either served or rejected, with `pinned_waits`
/// counting only the reads whose pin was still unpublished on arrival.
#[test]
fn every_read_source_upholds_the_pinned_read_contract() {
    type Apply = Box<dyn Fn(&[GraphUpdate]) -> u64 + Send + Sync>;
    type Metrics = Box<dyn Fn() -> ClusterMetrics + Send + Sync>;
    struct Topology {
        name: &'static str,
        source: Arc<dyn ReadSource>,
        apply: Apply,
        metrics: Option<Metrics>,
    }

    let (g, _) = small_graph(37);
    let store = Arc::new(GraphStore::new(g.clone()));
    let router = Arc::new(Router::over_graph(g.clone(), 2));
    let sharded = Arc::new(ShardedRouter::over_graph(g, 2, 1, 0));
    let topologies = [
        Topology {
            name: "store",
            source: Arc::clone(&store) as Arc<dyn ReadSource>,
            apply: Box::new(move |b| store.apply(b).expect("batch applies").epoch),
            metrics: None,
        },
        Topology {
            name: "router",
            source: Arc::clone(&router) as Arc<dyn ReadSource>,
            apply: Box::new({
                let router = Arc::clone(&router);
                move |b| router.apply(b).expect("batch applies").epoch
            }),
            metrics: Some(Box::new(move || router.metrics())),
        },
        Topology {
            name: "sharded",
            source: Arc::clone(&sharded) as Arc<dyn ReadSource>,
            apply: Box::new({
                let sharded = Arc::clone(&sharded);
                move |b| sharded.apply(b).expect("batch applies").epoch
            }),
            metrics: Some(Box::new(move || sharded.metrics())),
        },
    ];

    for t in &topologies {
        let source: &dyn ReadSource = t.source.as_ref();
        let batch = [GraphUpdate::AddEdge { u: 0, v: 1 }];
        let published = (t.apply)(&batch);
        assert_eq!(published, 1, "{}", t.name);

        // Pin <= published: served, never below the pin, no waiting.
        let mut served = 0u64;
        for pin in [0, published] {
            let routed = source
                .route_read(Some(pin), Duration::ZERO)
                .unwrap_or_else(|e| panic!("{}: published pin {pin} must route: {e}", t.name));
            assert!(routed.epoch() >= pin, "{}", t.name);
            served += 1;
        }

        // Pin > published, zero wait: the typed rejection, exact numbers.
        match source.route_read(Some(published + 1), Duration::ZERO) {
            Err(CsagError::EpochUnavailable {
                requested,
                published: quoted,
            }) => assert_eq!(
                (requested, quoted),
                (published + 1, published),
                "{}",
                t.name
            ),
            other => panic!("{}: expected EpochUnavailable, got {other:?}", t.name),
        }

        // A pin the writer publishes during the wait is served. The
        // writer holds back until the read is provably blocked (the
        // routers count it; the bare store gets a grace period).
        let routed = std::thread::scope(|scope| {
            scope.spawn(|| {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                match &t.metrics {
                    Some(metrics) => {
                        while metrics().pinned_waits < 2 && std::time::Instant::now() < deadline {
                            // A poll: nothing publishes the wait counter.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    // Nothing publishes a bare store's blocked read: a grace period.
                    None => std::thread::sleep(Duration::from_millis(50)),
                }
                (t.apply)(&batch);
            });
            source.route_read(Some(published + 1), Duration::from_secs(30))
        })
        .unwrap_or_else(|e| panic!("{}: pin published during the wait must route: {e}", t.name));
        assert!(routed.epoch() > published, "{}", t.name);
        served += 1;

        if let Some(metrics) = &t.metrics {
            let m = metrics();
            assert_eq!(m.pinned_reads, served + m.pinned_rejects, "{}", t.name);
            assert_eq!(m.pinned_rejects, 1, "{}", t.name);
            assert_eq!(
                m.pinned_waits, 2,
                "{}: only the two reads pinned above the published epoch blocked",
                t.name
            );
        }
    }
}
