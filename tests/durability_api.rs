//! Crash-recovery contract of `csag::durability`: deterministic
//! kill-and-recover scenarios driven by the fault-injection harness.
//!
//! Every test builds a WAL-backed [`GraphStore`], drives it through a
//! scripted failure ([`FaultPlan`]), and proves the two halves of the
//! durability contract:
//!
//! * **recovery** — `GraphStore::recover` reaches the exact pre-crash
//!   epoch with a byte-identical graph (torn tails truncated, never
//!   fatal), and
//! * **degradation** — while the log cannot accept writes, reads keep
//!   flowing and writes fail with the *typed*
//!   [`CsagError::DurabilityUnavailable`] (wire kind
//!   `durability_unavailable`), never a panic or a silent drop.

use csag::cluster::Router;
use csag::durability::{FaultPlan, FsyncPolicy, WalConfig};
use csag::engine::{
    error_to_json, ApplyError, CommunityQuery, CsagError, GraphStore, GraphUpdate, Method,
};
use csag::graph::{AttributedGraph, GraphBuilder};
use csag::service::{Request, Service, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A per-test scratch directory, removed on drop (and pre-cleaned, so a
/// crashed earlier run never poisons this one).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("csag-dur-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two triangles bridged by a path, one numeric dimension.
fn base_graph() -> AttributedGraph {
    let mut b = GraphBuilder::new(1);
    for i in 0..8 {
        b.add_node(&["t"], &[i as f64 / 8.0]);
    }
    for (u, v) in [
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 4),
        (6, 7),
    ] {
        b.add_edge(u, v).unwrap();
    }
    b.build().unwrap()
}

/// A deterministic churn: edges in and out, attribute moves, a vertex
/// birth — and one *erroneous* batch (node 99) whose valid prefix still
/// publishes, so recovery must reproduce partial-batch semantics too.
fn batches() -> Vec<Vec<GraphUpdate>> {
    vec![
        vec![
            GraphUpdate::AddEdge { u: 0, v: 3 },
            GraphUpdate::AddEdge { u: 1, v: 4 },
        ],
        vec![
            GraphUpdate::SetAttributes {
                v: 5,
                tokens: None,
                numeric: Some(vec![0.9]),
            },
            GraphUpdate::AddEdge { u: 5, v: 7 },
        ],
        vec![
            GraphUpdate::AddVertex {
                tokens: vec!["t".into()],
                numeric: vec![0.5],
            },
            GraphUpdate::AddEdge { u: 8, v: 0 },
        ],
        vec![
            GraphUpdate::RemoveEdge { u: 2, v: 3 },
            GraphUpdate::AddEdge { u: 99, v: 0 }, // halts the batch; prefix publishes
            GraphUpdate::AddEdge { u: 3, v: 7 },
        ],
        vec![
            GraphUpdate::AddEdge { u: 2, v: 5 },
            GraphUpdate::AddEdge { u: 0, v: 7 },
        ],
    ]
}

fn graph_bytes(g: &AttributedGraph) -> Vec<u8> {
    let mut out = Vec::new();
    csag::graph::io::write_graph(g, &mut out).unwrap();
    out
}

/// The ground truth: the same batches applied to a plain in-memory
/// store (byte-compared against every recovery below).
fn expected_after(prefix: usize) -> (Vec<u8>, u64) {
    let store = GraphStore::new(base_graph());
    for batch in batches().iter().take(prefix) {
        let _ = store.apply(batch);
    }
    let snap = store.snapshot();
    (graph_bytes(snap.graph()), snap.epoch())
}

#[test]
fn clean_shutdown_recovers_byte_identical_at_the_same_epoch() {
    let dir = TempDir::new("clean");
    let store = GraphStore::with_wal(base_graph(), dir.path()).unwrap();
    for batch in &batches() {
        let _ = store.apply(batch); // the erroneous batch still publishes its prefix
    }
    let snap = store.snapshot();
    assert_eq!(snap.epoch(), 5);
    let written = graph_bytes(snap.graph());
    drop(snap);
    drop(store);

    let (recovered, report) = GraphStore::recover(dir.path()).unwrap();
    assert_eq!(report.epoch, 5);
    assert_eq!(report.records_replayed, 5);
    assert!(!report.torn_tail_truncated);
    let snap = recovered.snapshot();
    assert_eq!(snap.epoch(), 5);
    assert_eq!(graph_bytes(snap.graph()), written, "byte-identical graph");
    let (expected, expected_epoch) = expected_after(5);
    assert_eq!(graph_bytes(snap.graph()), expected);
    assert_eq!(snap.epoch(), expected_epoch);

    // Identical answers, not just identical bytes: the same pinned
    // query gives the same community and the same δ bits.
    let query = CommunityQuery::new(Method::Exact, 0).with_k(2);
    let a = snap.engine().run(&query).unwrap();
    let b = csag::engine::Engine::new(base_graph_after_all())
        .run(&query)
        .unwrap();
    assert_eq!(a.community, b.community);
    assert_eq!(a.delta.to_bits(), b.delta.to_bits());
}

/// The post-churn graph rebuilt without any store machinery at all.
fn base_graph_after_all() -> AttributedGraph {
    let store = GraphStore::new(base_graph());
    for batch in &batches() {
        let _ = store.apply(batch);
    }
    let snap = store.snapshot();
    snap.graph().clone()
}

#[test]
fn torn_append_degrades_and_recovery_truncates_the_tail() {
    let dir = TempDir::new("torn");
    let config = WalConfig {
        faults: FaultPlan::none().tear_append_at(3, 9),
        ..WalConfig::default()
    };
    let store = GraphStore::with_wal_config(base_graph(), dir.path(), config.clone()).unwrap();
    let all = batches();
    for batch in &all[..3] {
        let _ = store.apply(batch);
    }
    // The 4th append tears mid-frame: a simulated crash. The write is
    // refused, the epoch does not move, and the log is now degraded.
    let err = store.apply(&all[3]).unwrap_err();
    assert!(
        matches!(err, ApplyError::DurabilityUnavailable { .. }),
        "torn append must reject the write: {err}"
    );
    assert_eq!(
        store.published_epoch(),
        3,
        "no epoch bump on a refused write"
    );
    let status = store.wal_status().unwrap();
    assert!(status.degraded.is_some(), "torn write is sticky-degraded");
    assert_eq!(config.faults.injected(), 1, "the script actually fired");

    // Writes stay refused (sticky), reads keep working.
    let err = store.apply(&all[4]).unwrap_err();
    assert!(matches!(err, ApplyError::DurabilityUnavailable { .. }));
    assert!(store
        .snapshot()
        .engine()
        .run(&CommunityQuery::new(Method::Exact, 0).with_k(2))
        .is_ok());
    drop(store);

    // Recovery detects the torn tail by checksum, truncates it, and
    // lands exactly on the pre-crash epoch.
    let (recovered, report) = GraphStore::recover(dir.path()).unwrap();
    assert!(report.torn_tail_truncated);
    assert!(report.truncated_bytes > 0);
    assert_eq!(report.epoch, 3);
    let (expected, _) = expected_after(3);
    assert_eq!(graph_bytes(recovered.snapshot().graph()), expected);

    // The recovered store accepts writes again — on a fresh segment.
    recovered.apply(&all[3]).unwrap_err(); // the erroneous batch: graph error, not durability
    assert_eq!(recovered.published_epoch(), 4);
    recovered.apply(&all[4]).unwrap();
    assert_eq!(recovered.published_epoch(), 5);
    drop(recovered);
    let (again, report) = GraphStore::recover(dir.path()).unwrap();
    assert_eq!(report.epoch, 5);
    let (expected, _) = expected_after(5);
    assert_eq!(graph_bytes(again.snapshot().graph()), expected);
}

#[test]
fn fsync_failure_means_read_only_mode_with_zero_failed_reads() {
    let dir = TempDir::new("fsync");
    let config = WalConfig {
        faults: FaultPlan::none().fail_fsync_at(2),
        ..WalConfig::default()
    };
    let store = Arc::new(GraphStore::with_wal_config(base_graph(), dir.path(), config).unwrap());
    let service = Service::new(Arc::clone(&store), ServiceConfig::default().with_workers(2));
    let all = batches();
    store.apply(&all[0]).unwrap();
    store.apply(&all[1]).unwrap();

    // The 3rd append's fsync fails: after a failed fsync the page cache
    // is unknowable, so the write is rejected AND the log goes sticky
    // read-only until recovery re-reads what actually landed.
    let err = store.apply(&all[2]).unwrap_err();
    let csag_err = err
        .as_csag_error()
        .expect("durability rejections map to CsagError");
    assert!(matches!(csag_err, CsagError::DurabilityUnavailable { .. }));
    let rendered = error_to_json(&csag_err);
    assert!(
        rendered.contains("\"durability_unavailable\""),
        "wire kind must be durability_unavailable: {rendered}"
    );
    assert!(store.wal_status().unwrap().degraded.is_some());

    // Zero failed reads while degraded: the serving layer keeps
    // answering from the last durable epoch.
    for _ in 0..8 {
        let response = service
            .run(Request::new(
                CommunityQuery::new(Method::Exact, 0).with_k(2),
            ))
            .expect("admission must not be affected by WAL degradation");
        assert!(
            response.outcome.is_ok(),
            "reads never fail in degraded mode"
        );
        assert_eq!(response.epoch, 2, "served from the last durable epoch");
    }
    drop(service);
    drop(store);

    let (recovered, report) = GraphStore::recover(dir.path()).unwrap();
    assert_eq!(report.epoch, 2, "the unacknowledged batch is not replayed");
    let (expected, _) = expected_after(2);
    assert_eq!(graph_bytes(recovered.snapshot().graph()), expected);
}

#[test]
fn plain_append_io_error_is_rejected_but_not_sticky() {
    let dir = TempDir::new("ioerr");
    let config = WalConfig {
        faults: FaultPlan::none().fail_append_at(1),
        ..WalConfig::default()
    };
    let store = GraphStore::with_wal_config(base_graph(), dir.path(), config).unwrap();
    let all = batches();
    store.apply(&all[0]).unwrap();
    // Injected EIO/ENOSPC: rejected before any byte is written…
    let err = store.apply(&all[1]).unwrap_err();
    assert!(matches!(err, ApplyError::DurabilityUnavailable { .. }));
    assert_eq!(store.published_epoch(), 1);
    // …but NOT sticky — disk-full clears, the next attempt succeeds.
    assert!(store.wal_status().unwrap().degraded.is_none());
    store.apply(&all[1]).unwrap();
    assert_eq!(store.published_epoch(), 2);
    drop(store);

    let (recovered, report) = GraphStore::recover(dir.path()).unwrap();
    assert_eq!(report.epoch, 2);
    let (expected, _) = expected_after(2);
    assert_eq!(graph_bytes(recovered.snapshot().graph()), expected);
}

#[test]
fn checkpoints_bound_replay_and_prune_segments() {
    let dir = TempDir::new("ckpt");
    let config = WalConfig {
        checkpoint_every: 2,
        segment_bytes: 1, // rotate on every append: one record per segment
        ..WalConfig::default()
    };
    let store = GraphStore::with_wal_config(base_graph(), dir.path(), config.clone()).unwrap();
    for batch in &batches() {
        let _ = store.apply(batch);
    }
    let status = store.wal_status().unwrap();
    assert!(
        status.rotations >= 3,
        "tiny segments must rotate: {status:?}"
    );
    assert!(
        status.last_checkpoint_epoch >= 4,
        "periodic checkpoints must advance: {status:?}"
    );
    drop(store);

    // Segments fully covered by the newest checkpoint were pruned.
    let segments: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    assert!(
        segments.len() <= 2,
        "pruning must drop checkpoint-covered segments, found {}",
        segments.len()
    );

    let (recovered, report) = GraphStore::recover_with(dir.path(), config).unwrap();
    assert!(report.checkpoint_epoch >= 4);
    assert!(
        report.records_replayed <= 1,
        "replay is bounded by the checkpoint delta: {report:?}"
    );
    assert_eq!(report.epoch, 5);
    let (expected, _) = expected_after(5);
    assert_eq!(graph_bytes(recovered.snapshot().graph()), expected);
}

#[test]
fn checkpoint_now_cuts_replay_to_zero() {
    let dir = TempDir::new("ckptnow");
    let store = GraphStore::with_wal(base_graph(), dir.path()).unwrap();
    for batch in &batches() {
        let _ = store.apply(batch);
    }
    store.checkpoint_now().unwrap();
    drop(store);
    let (_, report) = GraphStore::recover(dir.path()).unwrap();
    assert_eq!(report.checkpoint_epoch, 5);
    assert_eq!(report.records_replayed, 0);
    assert_eq!(report.epoch, 5);
}

#[test]
fn every_fsync_policy_recovers_the_full_epoch_after_clean_shutdown() {
    for (name, fsync) in [
        ("always", FsyncPolicy::Always),
        ("everyn", FsyncPolicy::EveryN(3)),
        ("never", FsyncPolicy::Never),
    ] {
        let dir = TempDir::new(&format!("policy-{name}"));
        let config = WalConfig {
            fsync,
            ..WalConfig::default()
        };
        let store = GraphStore::with_wal_config(base_graph(), dir.path(), config).unwrap();
        for batch in &batches() {
            let _ = store.apply(batch);
        }
        drop(store); // clean shutdown syncs the open segment
        let (recovered, report) = GraphStore::recover(dir.path()).unwrap();
        assert_eq!(report.epoch, 5, "policy {name} lost a clean shutdown");
        let (expected, _) = expected_after(5);
        assert_eq!(graph_bytes(recovered.snapshot().graph()), expected);
    }
}

#[test]
fn initialization_is_explicit_create_xor_recover() {
    let dir = TempDir::new("init");
    assert!(!csag::durability::wal_dir_initialized(dir.path()));
    assert!(
        GraphStore::recover(dir.path()).is_err(),
        "nothing to recover"
    );
    let store = GraphStore::with_wal(base_graph(), dir.path()).unwrap();
    drop(store);
    assert!(csag::durability::wal_dir_initialized(dir.path()));
    match GraphStore::with_wal(base_graph(), dir.path()) {
        Ok(_) => panic!("re-initializing an existing wal dir must be refused"),
        Err(err) => assert!(
            err.to_string().contains("already holds wal state"),
            "re-init must be refused with AlreadyInitialized: {err}"
        ),
    }
    GraphStore::recover(dir.path()).unwrap();
}

#[test]
fn router_skips_fanout_on_durability_rejection_and_keeps_reading() {
    use csag::cluster::ReadSource;

    let dir = TempDir::new("router");
    let config = WalConfig {
        faults: FaultPlan::none().fail_fsync_at(1),
        ..WalConfig::default()
    };
    let primary = Arc::new(GraphStore::with_wal_config(base_graph(), dir.path(), config).unwrap());
    let router = Router::new(primary, 2);
    let all = batches();
    router.apply(&all[0]).unwrap();
    assert!(router.wait_caught_up(Duration::from_secs(5)));

    let err = router.apply(&all[1]).unwrap_err();
    assert!(matches!(err, ApplyError::DurabilityUnavailable { .. }));
    // No record fanned out for the epoch that never happened…
    assert_eq!(router.metrics().records, 1);
    assert_eq!(router.epoch(), 1);
    for i in 0..router.replica_count() {
        assert_eq!(router.member_watermark(&format!("local-{i}")), Some(1));
    }
    // …and routed reads keep being served, epoch-consistently.
    let routed = router.route_read(Some(1), Duration::from_secs(1)).unwrap();
    assert!(routed.epoch() >= 1);
}

/// `SetAttributes { v: 0, tokens: Some(tokens) }` behind a valid edge
/// insertion: the edge tells whether the batch was refused *whole*.
fn batch_setting_tokens(tokens: &[&str]) -> Vec<GraphUpdate> {
    vec![
        GraphUpdate::AddEdge { u: 0, v: 4 },
        GraphUpdate::SetAttributes {
            v: 0,
            tokens: Some(tokens.iter().map(|t| t.to_string()).collect()),
            numeric: None,
        },
    ]
}

/// The log carries batches as `csag-updates v1` text, and that text
/// cannot say everything a `GraphUpdate` value can hold. Clearing a
/// node's tokens used to be acknowledged, logged as `set-attrs 0 -`
/// ("keep") and recovered with the tokens still there — silent
/// divergence at equal epochs; a token with a space used to be
/// acknowledged and then make the whole log unrecoverable. Both are
/// now refused before the append, and what *was* acknowledged recovers.
#[test]
fn an_update_the_log_cannot_say_is_refused_whole_and_never_acknowledged() {
    let dir = TempDir::new("unsayable");
    let store = GraphStore::with_wal(base_graph(), dir.path()).unwrap();
    store.apply(&batches()[0]).unwrap();
    let unsayable: [&[&str]; 6] = [&[], &["new york"], &["a,b"], &[""], &["-"], &["a\u{a0}b"]];
    for tokens in unsayable {
        let err = store.apply(&batch_setting_tokens(tokens)).unwrap_err();
        assert!(
            matches!(err, ApplyError::NotReplayable { index: 1, .. }),
            "{tokens:?}: {err}"
        );
        assert!(err.refused_batch() && err.as_csag_error().is_none());
        assert_eq!(store.epoch(), 1, "{tokens:?}: no epoch bump");
        let snap = store.snapshot();
        assert!(!snap.graph().has_edge(0, 4), "{tokens:?}: nothing applied");
        assert_eq!(snap.graph().tokens(0).len(), 1, "{tokens:?}: tokens kept");
    }
    let status = store.wal_status().unwrap();
    assert!(
        status.degraded.is_none(),
        "a caller's mistake is no log failure"
    );
    // The same values in a form the text can say are ordinary writes.
    store
        .apply(&batch_setting_tokens(&["new-york", "a", "b"]))
        .unwrap();
    let snap = store.snapshot();
    let written = (graph_bytes(snap.graph()), snap.epoch());
    drop(snap);
    drop(store);

    let (recovered, report) = GraphStore::recover(dir.path()).unwrap();
    assert_eq!(
        report.records_replayed, 2,
        "refused batches never reached the log"
    );
    let snap = recovered.snapshot();
    assert_eq!((graph_bytes(snap.graph()), snap.epoch()), written);
    assert_eq!(snap.epoch(), 2);
}

/// A plain primary's followers read the same text, so the refusal does
/// not depend on a WAL — and a refused batch fans nothing out.
#[test]
fn plain_stores_and_routers_refuse_unsayable_updates_too() {
    let store = GraphStore::new(base_graph());
    let err = store.apply(&batch_setting_tokens(&[])).unwrap_err();
    assert!(matches!(err, ApplyError::NotReplayable { index: 1, .. }));
    assert_eq!(store.epoch(), 0);
    // Non-finite numerics are refused by the text reader, hence here.
    let nan = GraphUpdate::AddVertex {
        tokens: vec![],
        numeric: vec![f64::NAN],
    };
    let err = store.apply(&[nan]).unwrap_err();
    assert!(matches!(err, ApplyError::NotReplayable { index: 0, .. }));
    assert_eq!(store.snapshot().graph().n(), 8);

    let router = Router::new(Arc::new(store), 1);
    router.apply(&batches()[0]).unwrap();
    let err = router
        .apply(&batch_setting_tokens(&["new york"]))
        .unwrap_err();
    assert!(matches!(err, ApplyError::NotReplayable { .. }));
    assert_eq!(router.metrics().records, 1, "no record for a refused batch");
    assert_eq!(router.epoch(), 1);
    assert!(router.wait_caught_up(Duration::from_secs(5)));
    assert_eq!(router.member_watermark("local-0"), Some(1));
}

mod accepted_writes_are_sayable {
    use super::*;
    use csag::cluster::LogRecord;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Tokens and numerics drawn to hit every corner of the text format:
    /// separators, the `-` placeholder, emptiness, comment and line
    /// characters, Unicode space, non-finite and signed-zero floats.
    fn arb_update() -> impl Strategy<Value = GraphUpdate> {
        const PIECES: [&str; 16] = [
            "a", "b", "c", "d", "x-y", "7", "1.5", "#", "-", "-", ",", " ", "", "\n", "\r",
            "\u{a0}",
        ];
        const FLOATS: [f64; 10] = [
            0.25,
            0.5,
            -0.0,
            -3.0,
            1e-300,
            0.1 + 0.2,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let token = prop::collection::vec(0..PIECES.len(), 0..3)
            .prop_map(|parts| parts.iter().map(|&i| PIECES[i]).collect::<String>());
        let tokens = prop::collection::vec(token, 0..3);
        let numeric = prop::collection::vec(0..FLOATS.len(), 0..3)
            .prop_map(|picks| picks.iter().map(|&i| FLOATS[i]).collect::<Vec<f64>>());
        (0u8..8, 0u32..10, 0u32..10, tokens, numeric).prop_map(|(kind, u, v, tokens, numeric)| {
            match kind {
                0 => GraphUpdate::AddEdge { u, v },
                1 => GraphUpdate::RemoveEdge { u, v },
                2 | 3 => GraphUpdate::AddVertex { tokens, numeric },
                // 4–7: each side set or kept.
                _ => GraphUpdate::SetAttributes {
                    v,
                    tokens: (kind & 1 == 0).then_some(tokens),
                    numeric: (kind & 2 == 0).then_some(numeric),
                },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever `apply` does not refuse whole — acknowledged batches
        /// and erroring ones alike, both of which bump the epoch and are
        /// logged — the record's text reads back as the same batch; a
        /// refused batch leaves the epoch alone.
        #[test]
        fn every_batch_apply_accepts_reads_back_from_the_log_text(
            batch in prop::collection::vec(arb_update(), 0..6),
        ) {
            let store = GraphStore::new(base_graph());
            match store.apply(&batch) {
                Err(e) if e.refused_batch() => prop_assert_eq!(store.epoch(), 0),
                _ => {
                    prop_assert_eq!(store.epoch(), 1);
                    let wire = LogRecord::new(1, batch.clone()).to_wire();
                    let back = LogRecord::parse_wire(&wire).map_err(|e| {
                        TestCaseError::fail(format!("{batch:?} logged as {wire:?}: {e}"))
                    })?;
                    prop_assert_eq!(&*back.updates, &batch);
                }
            }
        }
    }
}
