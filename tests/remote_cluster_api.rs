//! `csag::cluster::remote` integration tests: a follower process-model
//! replica (in-process here, over a real unix-domain socket) stays
//! byte-identical to the primary under churn, reseeds from a snapshot
//! when it starts behind the pruned WAL horizon, survives a scripted
//! mid-stream connection drop with zero failed pinned reads, and never
//! serves an epoch pin below its watermark across the socket.
#![cfg(unix)]

use csag::cluster::{Follower, FollowerConfig, ReplListener, ReplicaHealth, Router};
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{random_queries, random_updates, ChurnMix};
use csag::durability::{FaultPlan, WalConfig};
use csag::engine::{outcome_identity, CommunityQuery, CsagError, GraphStore, Method};
use csag::service::{Request, Service, ServiceConfig, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The answer a csag-wire response line carries, under the one identity
/// rule ([`csag::engine::answer_identity`]): the `result` (or `error`)
/// payload minus `timings_ms`, rendered for a byte comparison.
fn answer_of(line: &str) -> String {
    let doc = csag::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    csag::engine::answer_identity(&doc, false)
        .unwrap_or_else(|| panic!("response has neither result nor error: {line}"))
        .render()
}

fn queries_for(q: u32) -> Vec<CommunityQuery> {
    vec![
        CommunityQuery::new(Method::Exact, q)
            .with_k(3)
            .with_step_budget(2_000),
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_hoeffding(0.3, 0.95)
            .with_seed(q as u64),
    ]
}

/// A per-test socket path in the temp dir (unix socket paths are
/// length-limited, so keep it short).
fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csag-rt-{}-{tag}.sock", std::process::id()))
}

/// The headline contract: after arbitrary churn through the router, a
/// follower fed over a real socket answers every query byte-for-byte
/// like the primary at the same epoch.
#[test]
fn follower_answers_byte_identically_after_churn() {
    let (g, query_nodes) = small_graph(31);
    let router = Arc::new(Router::over_graph(g.clone(), 0));
    let path = uds_path("ident");
    let listener = ReplListener::bind_uds(Arc::clone(&router), &path).expect("bind repl uds");

    let follower = Follower::start(
        path.to_str().unwrap(),
        FollowerConfig {
            name: "f1".into(),
            seed: Some(Arc::new(g)),
            ..FollowerConfig::default()
        },
    )
    .expect("follower starts");
    // Let the handshake land before churning: churn racing ahead of
    // the hello would legitimately turn the stream into a snapshot
    // ship, and this test pins the pure-stream path.
    assert!(
        follower.wait_connected(Duration::from_secs(30)),
        "follower never connected"
    );

    let mut rng = StdRng::seed_from_u64(0xB17E);
    for round in 0..5 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::MIXED);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
        let epoch = router.primary().published_epoch();
        assert!(
            router.wait_member_caught_up("f1", Duration::from_secs(30)),
            "follower acks epoch {epoch} after round {round}"
        );
        assert!(
            follower.wait_for_epoch(epoch, Duration::from_secs(30)),
            "follower publishes epoch {epoch}"
        );
        assert_eq!(
            follower.epoch(),
            epoch,
            "epoch lockstep after round {round}"
        );

        let primary = router.primary().snapshot();
        let theirs = follower.store().snapshot();
        for &q in &query_nodes {
            for query in queries_for(q) {
                assert_eq!(
                    outcome_identity(&theirs.engine().run(&query), false),
                    outcome_identity(&primary.engine().run(&query), false),
                    "follower answer at epoch {epoch} diverged (q = {q})"
                );
            }
        }
    }

    assert_eq!(
        listener.connections_accepted(),
        1,
        "a healthy session never reconnects"
    );
    assert_eq!(follower.reconnects(), 0);
    assert_eq!(
        follower.snapshots_received(),
        0,
        "a seeded follower streams"
    );
    assert_eq!(
        router.member_health("f1"),
        Some(ReplicaHealth::Healthy),
        "acks keep the member healthy"
    );
    let metrics = router.metrics();
    let remote = &metrics.members[0];
    assert_eq!(remote.name, "f1");
    assert!(remote.records >= 5, "{}", remote.records);
    assert!(remote.bytes_shipped > 0);
    assert!(
        metrics
            .to_json()
            .contains("\"members\":[{\"name\":\"f1\",\"kind\":\"remote\","),
        "metrics JSON"
    );

    drop(follower);
    listener.shutdown();
    assert!(!path.exists(), "shutdown removes the socket file");
}

/// A follower with no state hellos `epoch none` and is seeded over the
/// wire with a full snapshot, then follows the live stream.
#[test]
fn unseeded_follower_is_seeded_by_a_snapshot_ship() {
    let (g, query_nodes) = small_graph(47);
    let router = Arc::new(Router::over_graph(g, 0));
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..3 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::MIXED);
        drop(snap);
        router.apply(&batch).expect("pre-connect churn applies");
    }

    let path = uds_path("fresh");
    let listener = ReplListener::bind_uds(Arc::clone(&router), &path).expect("bind repl uds");
    let follower = Follower::start(
        path.to_str().unwrap(),
        FollowerConfig {
            name: "fresh".into(),
            ..FollowerConfig::default()
        },
    )
    .expect("follower starts");

    assert!(
        follower.wait_for_epoch(3, Duration::from_secs(30)),
        "snapshot brings the follower to the primary's epoch"
    );
    assert_eq!(follower.snapshots_received(), 1);
    assert!(follower.synced());

    // And the live stream keeps it in lockstep afterwards.
    let snap = router.primary().snapshot();
    let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::MIXED);
    drop(snap);
    router.apply(&batch).expect("post-snapshot churn applies");
    let epoch = router.primary().published_epoch();
    assert!(follower.wait_for_epoch(epoch, Duration::from_secs(30)));

    let primary = router.primary().snapshot();
    let theirs = follower.store().snapshot();
    for &q in &query_nodes {
        for query in queries_for(q) {
            assert_eq!(
                outcome_identity(&theirs.engine().run(&query), false),
                outcome_identity(&primary.engine().run(&query), false),
                "snapshot-seeded follower diverged (q = {q})"
            );
        }
    }

    let metrics = router.metrics();
    assert_eq!(metrics.members[0].reseeds, 1, "one snapshot shipped");

    drop(follower);
    drop(listener);
}

/// Hostile input: a peer that claims an absurd snapshot length and then
/// hangs up must cost the follower a failed session, not memory — the
/// payload is read incrementally, so the header's number is never
/// allocated up front. The follower reconnects and stays unsynced.
#[test]
fn a_lying_snapshot_header_costs_a_session_not_memory() {
    let fake_primary = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake primary");
    let addr = fake_primary.local_addr().unwrap();
    let serving = std::thread::spawn(move || {
        // Two sessions are enough to observe a reconnect; after that
        // the listener closes and further dials are refused.
        for _ in 0..2 {
            let (mut stream, _) = fake_primary.accept().expect("follower dials");
            let mut hello = String::new();
            BufReader::new(&stream).read_line(&mut hello).unwrap();
            assert!(hello.starts_with("repl hello csag-repl-v1 epoch none"));
            let _ = stream.write_all(b"snapshot 1 18446744073709551615\n");
        }
    });

    let follower =
        Follower::start(&addr.to_string(), FollowerConfig::default()).expect("follower starts");
    // The second session's hello follows the reconnect's count.
    serving.join().expect("fake primary saw both sessions");
    assert!(
        follower.reconnects() >= 1,
        "the session thread survived the header and dialed again"
    );
    assert!(!follower.synced(), "no snapshot ever landed");
    assert_eq!(follower.snapshots_received(), 0);
    assert_eq!(follower.epoch(), 0);
    follower.stop();
}

/// The two fuzz generators, `rounds` of each: arbitrary bytes, and
/// `pieces` of a grammar joined by single spaces.
fn fuzz_inputs(seed: u64, rounds: usize, pieces: &[&str]) -> Vec<Vec<u8>> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    for _ in 0..rounds {
        let noise = (0..rng.gen_range(1..96)).map(|_| rng.gen_range(0..256u32) as u8);
        inputs.push(noise.collect());
        let picks = (0..rng.gen_range(1..12)).map(|_| pieces[rng.gen_range(0..pieces.len())]);
        inputs.push(picks.collect::<Vec<_>>().join(" ").into_bytes());
    }
    inputs
}

/// ROADMAP 5(c), the repl half, from the follower's side: a primary that
/// answers the hello with anything but the grammar — hand-picked lies
/// about lengths and epochs, then the two fuzz generators (arbitrary
/// bytes; whitespace-joined grammar fragments) — costs the follower one
/// failed session each, never a panic, a stuck thread, or a buffer sized
/// by the peer's number. The session loop then reconnects clean: the
/// first honest snapshot syncs it.
#[test]
fn hostile_handshakes_and_frames_cost_sessions_never_the_follower() {
    let (g, _) = small_graph(97);
    let mut honest = Vec::new();
    csag::graph::io::write_graph(&g, &mut honest).expect("serialize graph");
    let framed = |body: &[u8]| csag::graph::wal::frame(body);
    // A whole, honestly sized payload that lies inside: a `dims` header
    // no row backs up, which the graph reader once padded every row to.
    let wide: &[u8] = b"csag-graph v1\ndims 4000000000\nnode 0 - 1\nnode 1 - 2\n";
    let mut scripts: Vec<Vec<u8>> = vec![
        [format!("snapshot 1 {}\n", wide.len()).as_bytes(), wide].concat(),
        b"snapshot 1 18446744073709551615\nshort".to_vec(),
        b"snapshot 1 64\nshort body".to_vec(),
        b"snapshot 1 5\nhello".to_vec(),
        b"snapshot 18446744073709551616 5\nhello".to_vec(),
        b"stream 0\n!rec 18446744073709551615 0000000000000000\n".to_vec(),
        b"stream 0\n!rec 4 0000000000000000\nabcd".to_vec(),
        [&b"stream 0\n"[..], &framed(b"not a record")].concat(),
        [&b"stream 0\n"[..], &framed(b"# epoch 9\nadd-edge 0 1\n")].concat(),
        b"stream 7\n".to_vec(),
        b"error go away\n".to_vec(),
        b"\xFF\xFE\n".to_vec(),
        vec![b'x'; 100 * 1024],
        Vec::new(),
    ];
    scripts.extend(fuzz_inputs(
        0xF022,
        24,
        &[
            "stream",
            "snapshot",
            "error",
            "!rec",
            "0",
            "1",
            "5",
            "18446744073709551615",
            "\n",
            "0000000000000000",
            "# epoch 1",
            "add-edge 0 1",
        ],
    ));
    let hostile = scripts.len() as u64;
    scripts.push([format!("snapshot 3 {}\n", honest.len()).as_bytes(), &honest].concat());

    let fake_primary = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake primary");
    let addr = fake_primary.local_addr().unwrap();
    let (synced_tx, synced_rx) = std::sync::mpsc::channel::<()>();
    let serving = std::thread::spawn(move || {
        let last = scripts.len() - 1;
        for (i, script) in scripts.iter().enumerate() {
            let (mut stream, _) = fake_primary.accept().expect("follower dials");
            let mut hello = String::new();
            BufReader::new(&stream).read_line(&mut hello).unwrap();
            assert!(
                hello.starts_with("repl hello csag-repl-v1 epoch none"),
                "session {i} hello: {hello}"
            );
            let _ = stream.write_all(script);
            if i == last {
                // Hold the honest session open until the test has looked.
                let _ = synced_rx.recv();
            }
        }
    });

    let config = FollowerConfig {
        reconnect_backoff: Duration::from_millis(1),
        ..FollowerConfig::default()
    };
    let follower = Follower::start(&addr.to_string(), config).expect("follower starts");
    assert!(
        follower.wait_for_epoch(3, Duration::from_secs(60)),
        "the honest snapshot syncs the follower after {hostile} hostile sessions \
         ({} reconnects so far)",
        follower.reconnects()
    );
    assert!(follower.synced());
    assert_eq!(
        follower.snapshots_received(),
        1,
        "only the honest one landed"
    );
    assert_eq!(follower.records_applied(), 0, "no hostile frame applied");
    assert_eq!(follower.reconnects(), hostile, "one session per script");
    assert_eq!(follower.store().snapshot().graph().n(), g.n());
    synced_tx.send(()).expect("fake primary is waiting");
    serving.join().expect("fake primary saw every session");
    follower.stop();
}

/// The same from the primary's side: junk hellos (and the one
/// well-formed hello the router must refuse — a follower claiming an
/// in-process member's reserved name) get the typed `error` line or a
/// closed socket, and the listener keeps accepting: a real follower
/// still handshakes afterwards.
#[test]
fn hostile_hellos_are_refused_and_the_listener_keeps_accepting() {
    use std::io::Read;

    let (g, _) = small_graph(101);
    let router = Arc::new(Router::over_graph(g.clone(), 1));
    let path = uds_path("hello");
    let listener = ReplListener::bind_uds(Arc::clone(&router), &path).expect("bind repl uds");
    let answer = |hello: &[u8]| -> String {
        let mut sock = UnixStream::connect(&path).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let _ = sock.write_all(hello);
        let _ = sock.shutdown(std::net::Shutdown::Write);
        let mut response = Vec::new();
        let _ = sock.read_to_end(&mut response);
        String::from_utf8_lossy(&response).into_owned()
    };

    assert_eq!(
        answer(b"repl hello csag-repl-v1 epoch 0 name local-0\n"),
        "error member name `local-0` is reserved for in-process replicas\n"
    );
    assert_eq!(
        answer(b"repl hello csag-repl-v1 epoch 5 name ahead\n"),
        "error follower epoch 5 is ahead of primary epoch 0\n"
    );
    assert_eq!(answer(&vec![b'x'; 100 * 1024]), "error malformed hello\n");
    assert_eq!(answer(b"\xFF\n"), "error malformed hello\n");
    assert_eq!(answer(b""), "", "a silent peer is just closed");
    let pieces = [
        "repl",
        "hello",
        "csag-repl-v1",
        "csag-repl-v2",
        "epoch",
        "none",
        "name",
        "f",
        "-1",
        "18446744073709551616",
    ];
    for mut hello in fuzz_inputs(0x4E11, 24, &pieces) {
        hello.push(b'\n');
        let response = answer(&hello);
        assert!(
            response.is_empty() || response == *"error malformed hello\n",
            "{:?} → {response:?}",
            String::from_utf8_lossy(&hello)
        );
    }
    let members = router.metrics().members;
    assert_eq!(members.len(), 1, "no junk hello registered a member");

    let config = FollowerConfig {
        name: "real".into(),
        seed: Some(Arc::new(g)),
        ..FollowerConfig::default()
    };
    let follower = Follower::start(path.to_str().unwrap(), config).expect("follower starts");
    router
        .apply(&[csag::engine::GraphUpdate::AddEdge { u: 0, v: 1 }])
        .expect("batch applies");
    // The hello may land before or after the batch: a stream or a
    // snapshot catch-up. Either way, caught up means healthy.
    assert!(follower.wait_connected(Duration::from_secs(30)));
    assert!(router.wait_member_caught_up("real", Duration::from_secs(30)));
    assert_eq!(router.member_health("real"), Some(ReplicaHealth::Healthy));
    drop(follower);
    listener.shutdown();
}

/// A follower whose epoch predates the WAL's pruned horizon cannot be
/// caught up by tail replay — the handshake must fall back to shipping
/// the newest checkpoint.
#[test]
fn follower_behind_the_pruned_horizon_reseeds_from_a_checkpoint() {
    let (g, query_nodes) = small_graph(59);
    let dir = std::env::temp_dir().join(format!("csag-rt-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One record per segment, so a checkpoint prunes everything below
    // the open segment and the log genuinely loses its early history.
    let store = GraphStore::with_wal_config(
        g.clone(),
        &dir,
        WalConfig {
            segment_bytes: 1,
            checkpoint_every: 0,
            ..WalConfig::default()
        },
    )
    .expect("wal store");
    let router = Arc::new(Router::new(Arc::new(store), 0));

    let mut rng = StdRng::seed_from_u64(0x0117);
    for _ in 0..6 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::MIXED);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
    }
    router.primary().checkpoint_now().expect("checkpoint");

    let path = uds_path("prune");
    let listener = ReplListener::bind_uds(Arc::clone(&router), &path).expect("bind repl uds");
    // Seeded with the epoch-0 graph: the hello claims epoch 0, six
    // epochs behind a log whose early segments are gone.
    let follower = Follower::start(
        path.to_str().unwrap(),
        FollowerConfig {
            name: "late".into(),
            seed: Some(Arc::new(g)),
            ..FollowerConfig::default()
        },
    )
    .expect("follower starts");

    let epoch = router.primary().published_epoch();
    assert!(
        follower.wait_for_epoch(epoch, Duration::from_secs(30)),
        "checkpoint ship reaches epoch {epoch}"
    );
    assert_eq!(
        follower.snapshots_received(),
        1,
        "the pruned horizon forces a snapshot"
    );

    let primary = router.primary().snapshot();
    let theirs = follower.store().snapshot();
    for &q in &query_nodes {
        for query in queries_for(q) {
            assert_eq!(
                outcome_identity(&theirs.engine().run(&query), false),
                outcome_identity(&primary.engine().run(&query), false),
                "checkpoint-reseeded follower diverged (q = {q})"
            );
        }
    }

    drop(follower);
    drop(listener);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The failure lifecycle over the wire: a scripted mid-stream
/// connection drop degrades the member (watermark frozen), the follower
/// reconnects and reseeds, acks return it to healthy — and a client
/// reading epoch-pinned through the follower's own service sees zero
/// failed reads before, during, and after the transition.
#[test]
fn scripted_drop_degrades_then_reseeds_with_zero_failed_reads() {
    let (g, query_nodes) = small_graph(73);
    let router = Arc::new(Router::over_graph(g.clone(), 0));
    let path = uds_path("drop");
    // The third record shipped on the replication link never arrives:
    // the listener severs the connection instead. The plan clone shares
    // its counters, so the test can assert the script actually fired.
    let faults = FaultPlan::none().drop_connection_at_request(2);
    let listener = ReplListener::bind_uds_with(Arc::clone(&router), &path, faults.clone())
        .expect("bind repl uds");

    let follower = Follower::start(
        path.to_str().unwrap(),
        FollowerConfig {
            name: "f1".into(),
            seed: Some(Arc::new(g)),
            ..FollowerConfig::default()
        },
    )
    .expect("follower starts");

    // Clients read from the follower's store through an ordinary
    // service; pins above the watermark wait for the publish instead of
    // failing.
    let service = Service::new(
        Arc::clone(follower.store()),
        ServiceConfig::default()
            .with_workers(2)
            .with_epoch_wait(Duration::from_secs(30)),
    );

    let mut rng = StdRng::seed_from_u64(0xD609);
    let mut failed_reads = 0usize;
    for _ in 0..6 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::MIXED);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
        let epoch = router.primary().published_epoch();
        for &q in query_nodes.iter().take(2) {
            let query = CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_hoeffding(0.3, 0.95)
                .with_seed(q as u64);
            let response = service
                .run(Request::new(query).with_epoch(epoch))
                .expect("pinned read admitted");
            assert!(
                response.epoch >= epoch,
                "pinned read served below the pin: {} < {epoch}",
                response.epoch
            );
            // A typed NoCommunity is a correct answer under churn;
            // anything else (epoch_unavailable included) is a failure.
            match &response.outcome {
                Ok(_) | Err(CsagError::NoCommunity { .. }) => {}
                Err(_) => failed_reads += 1,
            }
        }
    }

    assert_eq!(failed_reads, 0, "no client read failed across the drop");
    assert!(faults.injected() >= 1, "the script fired");
    assert!(follower.reconnects() >= 1, "the drop forced a reconnect");
    assert!(
        listener.connections_accepted() >= 2,
        "reconnect reached the listener"
    );
    assert!(
        follower.snapshots_received() >= 1,
        "the gap was repaired by a reseed"
    );
    assert!(
        router.wait_member_caught_up("f1", Duration::from_secs(30)),
        "the member returns to the caught-up set"
    );
    let metrics = router.metrics();
    let remote = &metrics.members[0];
    assert!(remote.degraded >= 1, "the drop marked the member degraded");
    assert!(remote.reseeds >= 1);
    assert_eq!(router.member_health("f1"), Some(ReplicaHealth::Healthy));

    drop(follower);
    drop(listener);
}

/// "Caught up" and "healthy" are one published member state: over
/// repeated drop → reconnect → snapshot reseed → catch-up cycles, the
/// moment `wait_member_caught_up` returns `true` the member reads
/// `Healthy`.
#[test]
fn caught_up_is_healthy_across_drop_and_reseed_cycles() {
    const CYCLES: u64 = 24;
    let (g, _) = small_graph(113);
    let router = Arc::new(Router::over_graph(g.clone(), 0));
    let path = uds_path("cycle");
    // Every live record the link ships is dropped, so each batch severs
    // it; the follower, one epoch behind a primary without a WAL, is
    // then reseeded by a snapshot.
    let faults = (0..CYCLES).fold(FaultPlan::none(), FaultPlan::drop_connection_at_request);
    let listener = ReplListener::bind_uds_with(Arc::clone(&router), &path, faults.clone())
        .expect("bind repl uds");
    let config = FollowerConfig {
        name: "f1".into(),
        seed: Some(Arc::new(g)),
        reconnect_backoff: Duration::from_millis(1),
    };
    let follower = Follower::start(path.to_str().unwrap(), config).expect("follower starts");
    assert!(follower.wait_connected(Duration::from_secs(30)));

    for cycle in 0..CYCLES {
        let edge = csag::engine::GraphUpdate::AddEdge {
            u: 0,
            v: 1 + cycle as u32,
        };
        router.apply(&[edge]).expect("batch applies");
        assert!(
            router.wait_member_caught_up("f1", Duration::from_secs(30)),
            "cycle {cycle}: the follower catches up"
        );
        assert_eq!(
            router.member_health("f1"),
            Some(ReplicaHealth::Healthy),
            "cycle {cycle}: caught up and not healthy"
        );
    }
    assert_eq!(faults.injected(), CYCLES, "every cycle dropped the link");
    assert_eq!(follower.snapshots_received(), CYCLES);
    let row = &router.metrics().members[0];
    assert_eq!(
        (row.degraded, row.reseeds, row.watermark),
        (CYCLES, CYCLES, CYCLES),
        "one incident and one reseed per cycle"
    );
    drop(follower);
    listener.shutdown();
}

/// Epoch pins hold across both sockets: a `csag-wire v2` client of the
/// follower's transport is never answered below its pin, the answer
/// byte-matches the primary's transport for the same pinned request,
/// and an unreachable pin is the typed `epoch_unavailable` rejection —
/// not a stale answer.
#[test]
fn epoch_pins_hold_across_the_socket() {
    let (g, query_nodes) = small_graph(89);
    let router = Arc::new(Router::over_graph(g.clone(), 0));
    let repl_path = uds_path("pin-repl");
    let listener = ReplListener::bind_uds(Arc::clone(&router), &repl_path).expect("bind repl uds");
    let follower = Follower::start(
        repl_path.to_str().unwrap(),
        FollowerConfig {
            name: "f1".into(),
            seed: Some(Arc::new(g)),
            ..FollowerConfig::default()
        },
    )
    .expect("follower starts");

    let mut rng = StdRng::seed_from_u64(0x919);
    for _ in 0..3 {
        let snap = router.primary().snapshot();
        let batch = random_updates(snap.engine().graph(), &mut rng, 4, ChurnMix::MIXED);
        drop(snap);
        router.apply(&batch).expect("churn batch applies");
    }
    let epoch = router.primary().published_epoch();
    assert!(follower.wait_for_epoch(epoch, Duration::from_secs(30)));

    // The same pinned request goes to a transport over the follower's
    // store and one over the primary; the rendered results must match
    // byte for byte (timings are the one nondeterministic section).
    let follower_service = Arc::new(Service::new(
        Arc::clone(follower.store()),
        ServiceConfig::default()
            .with_workers(1)
            .with_epoch_wait(Duration::from_millis(100)),
    ));
    let primary_service = Arc::new(Service::new(
        Arc::clone(router.primary()),
        ServiceConfig::default()
            .with_workers(1)
            .with_epoch_wait(Duration::from_millis(100)),
    ));
    let follower_sock = uds_path("pin-f");
    let primary_sock = uds_path("pin-p");
    let follower_transport =
        Transport::bind_uds(Arc::clone(&follower_service), &follower_sock).expect("bind follower");
    let primary_transport =
        Transport::bind_uds(Arc::clone(&primary_service), &primary_sock).expect("bind primary");

    let ask = |path: &PathBuf, line: &str| -> String {
        let mut sock = UnixStream::connect(path).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        sock.write_all(line.as_bytes()).unwrap();
        let mut reader = BufReader::new(sock);
        let mut response = String::new();
        reader.read_line(&mut response).expect("response line");
        response
    };
    // `answer_of` compares the answer payload only: envelope timings
    // (`queue_ms`) and any `timings_ms` section are the legitimately
    // nondeterministic parts of two identical computations.

    // Churn can legitimately dissolve a node's community (a typed
    // no_community answer), so compare every query node byte-for-byte
    // and require that at least one still answers with a result.
    let mut with_result = 0usize;
    for &q in &query_nodes {
        let line = format!(
            "{{\"id\":\"p\",\"method\":\"sea\",\"q\":{q},\"k\":3,\"seed\":9,\"error\":0.1,\"epoch\":{epoch}}}\n"
        );
        let via_follower = ask(&follower_sock, &line);
        let via_primary = ask(&primary_sock, &line);
        assert!(
            via_follower.contains(&format!("\"epoch\":{epoch}")),
            "pinned response reports the pin's epoch: {via_follower}"
        );
        assert_eq!(
            answer_of(&via_follower),
            answer_of(&via_primary),
            "pinned answers byte-match across processes (q = {q})"
        );
        if via_follower.contains("\"result\":{") {
            with_result += 1;
        }
    }
    assert!(
        with_result >= 1,
        "at least one query node still answers with a community"
    );
    let q = query_nodes[0];

    // A pin the follower has never seen (and the short epoch-wait will
    // not see) is the typed rejection, never a stale answer.
    let far = format!(
        "{{\"id\":\"far\",\"method\":\"sea\",\"q\":{q},\"k\":3,\"seed\":9,\"error\":0.1,\"epoch\":{}}}\n",
        epoch + 1_000
    );
    let rejected = ask(&follower_sock, &far);
    assert!(
        rejected.contains("\"error\":\"epoch_unavailable\""),
        "{rejected}"
    );

    follower_transport.shutdown();
    primary_transport.shutdown();
    drop(follower);
    drop(listener);
}

/// The whole stack as the operator runs it: the real `csag` binary as
/// two separate OS processes — `csag serve --repl-listen` (primary,
/// churned through its stdin write feed) and `csag replica --follow`
/// (the follower) — with a unix-domain replication link between them.
/// An epoch-pinned query over the follower's TCP socket must
/// byte-match the primary's answer for the same request.
#[test]
fn a_separate_os_process_follower_serves_byte_identical_answers() {
    use std::process::{Command, Stdio};

    let exe = env!("CARGO_BIN_EXE_csag");
    let dir = std::env::temp_dir().join(format!("csag-rt-proc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph_path = dir.join("graph.txt");
    let (g, queries) = small_graph(0xB07);
    {
        let mut f = std::fs::File::create(&graph_path).expect("graph file");
        csag::graph::io::write_graph(&g, &mut f).expect("write graph");
    }
    let repl_sock = dir.join("repl.sock");

    // Reads a child's stdout on a thread so waiting for announcement
    // lines can time out instead of hanging the test.
    let line_reader = |stdout: std::process::ChildStdout| {
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send(l).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        });
        rx
    };
    let wait_for = |rx: &std::sync::mpsc::Receiver<String>, prefix: &str| -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let budget = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(budget)
                .unwrap_or_else(|_| panic!("timed out waiting for `{prefix}`"));
            if let Some(rest) = line.strip_prefix(prefix) {
                return rest.trim().to_string();
            }
        }
    };

    let mut primary = Command::new(exe)
        .arg("serve")
        .arg(&graph_path)
        .args(["--workers", "2", "--listen", "127.0.0.1:0", "--repl-uds"])
        .arg(&repl_sock)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn csag serve");
    let mut primary_stdin = primary.stdin.take().expect("primary stdin");
    let primary_out = line_reader(primary.stdout.take().expect("primary stdout"));
    wait_for(&primary_out, "repl-listening ");
    let primary_addr = wait_for(&primary_out, "listening tcp://");

    let mut follower = Command::new(exe)
        .arg("replica")
        .args(["--follow"])
        .arg(&repl_sock)
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn csag replica");
    let follower_out = line_reader(follower.stdout.take().expect("follower stdout"));
    wait_for(&follower_out, "following ");
    let follower_addr = wait_for(&follower_out, "listening tcp://");

    // Churn the primary through its stdin write feed; each line is one
    // batch, confirmed by an `applied <epoch>` echo.
    let mut rng = StdRng::seed_from_u64(0x05C4);
    let mut epoch = 0u64;
    for _ in 0..5 {
        for u in random_updates(&g, &mut rng, 3, ChurnMix::STRUCTURAL) {
            primary_stdin
                .write_all(format!("{}\n", u.to_line()).as_bytes())
                .expect("feed update");
        }
        primary_stdin.flush().expect("flush feed");
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while epoch < 15 {
        let budget = deadline.saturating_duration_since(Instant::now());
        let line = primary_out
            .recv_timeout(budget)
            .expect("primary echoes applied epochs");
        if let Some(e) = line.strip_prefix("applied ") {
            epoch = e.trim().parse().expect("epoch echo");
        }
    }

    let ask = |addr: &str, line: &str| -> String {
        let sock = std::net::TcpStream::connect(addr).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut w = sock.try_clone().expect("clone socket");
        w.write_all(line.as_bytes()).expect("send request");
        let mut line = String::new();
        BufReader::new(sock).read_line(&mut line).expect("response");
        line
    };
    let mut with_result = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let req = format!(
            "{{\"id\":\"q{i}\",\"method\":\"sea\",\"q\":{q},\"k\":3,\"seed\":9,\"error\":0.1,\"epoch\":{epoch}}}\n"
        );
        let from_follower = ask(&follower_addr, &req);
        let from_primary = ask(&primary_addr, &req);
        assert!(
            from_follower.contains(&format!("\"epoch\":{epoch}")),
            "pinned read served below the pin: {from_follower}"
        );
        assert_eq!(
            answer_of(&from_follower),
            answer_of(&from_primary),
            "follower process answer drifted from the primary (q = {q})"
        );
        if from_follower.contains("\"result\"") {
            with_result += 1;
        }
    }
    assert!(
        with_result >= 1,
        "at least one query node still answers with a community"
    );

    let _ = follower.kill();
    let _ = follower.wait();
    let _ = primary.kill();
    let _ = primary.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
