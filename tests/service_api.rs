//! Integration tests for `csag::service`: the admission, coalescing,
//! priority, deadline, and epoch-pinning invariants the
//! module docs promise — exercised deterministically through the
//! `start_paused` seam (submissions queue while dequeuing is held, so
//! overload and ordering are not racy).

use csag::cluster::Router;
use csag::datasets::paper_examples::figure1_imdb;
use csag::decomp::CommunityModel;
use csag::engine::{
    outcome_identity, CommunityQuery, CsagError, Engine, GraphStore, GraphUpdate, Method,
};
use csag::service::{Priority, Request, Response, Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn sea_query(q: u32) -> CommunityQuery {
    CommunityQuery::new(Method::Sea, q)
        .with_k(3)
        .with_error_bound(0.1)
        .with_seed(11)
}

/// The acceptance scenario: flood a 1-worker service past its admission
/// bound with *identical* queries. The service must admit up to
/// capacity, shed the rest with `Overloaded`, compute the community
/// exactly once, and answer every admitted waiter with the same `Arc`.
#[test]
fn overload_sheds_and_identical_queries_coalesce_onto_one_computation() {
    let (graph, q) = figure1_imdb();
    let capacity = 4;
    let service = Service::over_graph(
        graph,
        ServiceConfig::default()
            .with_workers(1)
            .with_capacity(capacity)
            .paused(),
    );

    // Flood: 3 × capacity identical requests against the held queue.
    let mut tickets = Vec::new();
    let mut sheds = 0usize;
    for _ in 0..capacity * 3 {
        match service.submit(Request::new(sea_query(q))) {
            Ok(t) => tickets.push(t),
            Err(err) => {
                assert!(
                    matches!(err, CsagError::Overloaded { retry_after } if retry_after > Duration::ZERO),
                    "sheds must be typed Overloaded with a back-off, got {err:?}"
                );
                sheds += 1;
            }
        }
    }
    assert_eq!(tickets.len(), capacity, "admission bound is exact");
    assert_eq!(sheds, capacity * 2, "everything past the bound sheds");
    let m = service.metrics();
    assert_eq!((m.admitted, m.shed), (capacity as u64, 2 * capacity as u64));
    assert_eq!(
        m.coalesced,
        capacity as u64 - 1,
        "every admitted duplicate coalesces onto the first job"
    );
    assert_eq!(service.pending(), capacity);

    service.resume();
    let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();

    // Engine probe counters: the engine computed one distance table and
    // the service executed one job — the flood cost one computation. One
    // checkout is the key's first miss, so the table was not kept.
    let snap = service.snapshot();
    assert_eq!(snap.engine().cached_query_nodes(), 0);
    assert_eq!(
        snap.engine().distance_cache_hits(),
        0,
        "no second computation ever checked the table out again"
    );
    let m = service.metrics();
    assert_eq!(m.executed, 1, "one engine run answered the whole flood");
    assert_eq!(m.completed, capacity as u64);
    assert_eq!(service.pending(), 0);

    // Every waiter got the same Arc (fan-out, not recomputation), and
    // exactly the first response is the non-coalesced one.
    let first = responses[0].outcome.as_ref().expect("community exists");
    assert!(first.community.contains(&q));
    for resp in &responses[1..] {
        let shared = resp.outcome.as_ref().expect("same outcome");
        assert!(
            Arc::ptr_eq(first, shared),
            "coalesced waiters must share one result allocation"
        );
    }
    assert_eq!(
        responses.iter().filter(|r| !r.coalesced).count(),
        1,
        "exactly one waiter owned the computation"
    );
    let sequence = responses[0].sequence;
    assert!(responses.iter().all(|r| r.sequence == sequence));
}

/// Distinct queries past the bound: admitted ones all complete (in
/// priority order), the overflow sheds, and nothing coalesces.
#[test]
fn distinct_queries_complete_in_priority_order_under_overload() {
    let (graph, q) = figure1_imdb();
    let service = Service::over_graph(
        graph,
        ServiceConfig::default()
            .with_workers(1)
            .with_capacity(4)
            .paused(),
    );

    // Four distinct queries (different seeds ⇒ different fingerprints),
    // submitted lowest-priority first.
    let priorities = [
        Priority::Batch,
        Priority::Standard,
        Priority::Interactive,
        Priority::Interactive,
    ];
    let tickets: Vec<_> = priorities
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            service
                .submit(Request::new(sea_query(q).with_seed(100 + i as u64)).with_priority(p))
                .expect("under the bound")
        })
        .collect();
    // The bound is shared: a fifth distinct query sheds.
    assert!(matches!(
        service.submit(Request::new(sea_query(q).with_seed(999))),
        Err(CsagError::Overloaded { .. })
    ));

    service.resume();
    let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
    for r in &responses {
        assert!(r.outcome.is_ok(), "admitted requests all complete");
        assert!(!r.coalesced, "distinct queries never coalesce");
    }
    // Completion sequence follows priority, FIFO within a priority:
    // the two interactive jobs first (in submission order), then
    // standard, then batch.
    let by_sequence: Vec<Priority> = {
        let mut s: Vec<&Response> = responses.iter().collect();
        s.sort_by_key(|r| r.sequence);
        s.iter().map(|r| r.priority).collect()
    };
    assert_eq!(
        by_sequence,
        vec![
            Priority::Interactive,
            Priority::Interactive,
            Priority::Standard,
            Priority::Batch
        ]
    );
    assert!(
        responses[2].sequence < responses[3].sequence,
        "FIFO within the interactive tier"
    );
    let m = service.metrics();
    assert_eq!((m.coalesced, m.executed), (0, 4));
    // Every completion lands in exactly one priority's histogram
    // (indexed batch, standard, interactive).
    let counts: Vec<u64> = m.per_priority.iter().map(|h| h.count).collect();
    assert_eq!(counts, vec![1, 1, 2]);
    assert_eq!(counts.iter().sum::<u64>(), m.completed);
}

/// A request whose deadline cannot fit full effort is degraded to a
/// cheaper configuration — and still answered, never timed out.
#[test]
fn tight_deadlines_degrade_instead_of_timing_out() {
    let (graph, q) = figure1_imdb();
    let service = Service::over_graph(graph, ServiceConfig::default().with_workers(1).paused());
    // The tight request is exact: its lapsed deadline caps the time
    // budget at zero, so the search stops at its first poll and answers
    // with the warm start's incumbent.
    let tight = service
        .submit(
            Request::new(CommunityQuery::new(Method::Exact, q).with_k(3))
                .with_priority(Priority::Interactive)
                .with_deadline(Duration::from_millis(1)),
        )
        .expect("admitted");
    let roomy = service
        .submit(Request::new(sea_query(q).with_seed(77)).with_deadline(Duration::from_secs(60)))
        .expect("admitted");
    // The time under test: the tight deadline lapses while the queue is held.
    std::thread::sleep(Duration::from_millis(5));
    service.resume();

    let tight = tight.wait();
    assert!(tight.degraded, "expired deadline ⇒ a clock-stopped search");
    let result = tight.outcome.expect("stopped searches still answer");
    assert!(result.community.contains(&q));
    assert!(
        tight.deadline_slack_ms.expect("deadline was set") < 0.0,
        "the miss is reported as negative slack"
    );

    let roomy = roomy.wait();
    assert!(!roomy.degraded, "a roomy deadline never stops the search");
    assert!(roomy.deadline_slack_ms.expect("deadline was set") > 0.0);
    assert!(roomy.outcome.is_ok());
    assert_eq!(service.metrics().degraded, 1);
}

/// One clock rule for every method: an expired deadline caps the time
/// budget at zero, a roomy one leaves the search alone. Every method, in
/// both models, answers or returns a typed error either way; `degraded`
/// is set exactly for the expired ones; and each answer is the engine's
/// for the same query stopped at its first poll (SEA: after one round,
/// certified against the requested e) or not stopped at all.
#[test]
fn every_method_stops_on_the_clock_and_never_on_a_rewrite() {
    let (graph, q) = figure1_imdb();
    let engine = Engine::new(graph.clone());
    let service = Service::over_graph(graph, ServiceConfig::default().with_workers(1));
    let mut stopped = 0;
    for model in [CommunityModel::KCore, CommunityModel::KTruss] {
        for method in Method::ALL {
            let mut query = CommunityQuery::new(method, q)
                .with_k(3)
                .with_model(model)
                .with_error_bound(0.1)
                .with_seed(5);
            if method == Method::SeaSizeBounded {
                query = query.with_size_bound(3, 6);
            }
            for expired in [true, false] {
                let deadline = if expired {
                    Duration::ZERO
                } else {
                    Duration::from_secs(60)
                };
                let response =
                    match service.run(Request::new(query.clone()).with_deadline(deadline)) {
                        Ok(response) => response,
                        Err(e) => {
                            // Only a HeteroEngine answers sea-hetero.
                            assert_eq!(method, Method::SeaHetero, "{e}");
                            assert!(matches!(e, CsagError::InvalidParams { .. }), "{e}");
                            continue;
                        }
                    };
                let shown = format!("{method} {model} expired={expired}");
                assert_eq!(response.degraded, expired, "{shown}");
                stopped += usize::from(expired);
                let reference = match (expired, method) {
                    (false, _) => query.clone(),
                    (true, Method::Sea | Method::SeaSizeBounded) => {
                        query.clone().with_step_budget(1)
                    }
                    (true, _) => query.clone().with_time_budget(Duration::ZERO),
                };
                assert_eq!(
                    outcome_identity(&response.outcome, false),
                    outcome_identity(&engine.run(&reference), false),
                    "{shown}"
                );
            }
        }
    }
    assert_eq!(stopped, 14, "seven methods the service runs, two models");
    assert_eq!(service.metrics().degraded, 14);
}

/// A deadline too far away to represent never expires, and never panics
/// the submitting thread with the scheduler's lock held: three such
/// requests through a capacity-2 service are all answered, each at full
/// effort, and every admission slot comes back — a fourth is admitted.
#[test]
fn a_deadline_too_far_to_represent_never_expires_nor_leaks_a_slot() {
    let (graph, q) = figure1_imdb();
    let service = Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(1).with_capacity(2),
    );
    for seed in 0..3 {
        let response = service
            .run(Request::new(sea_query(q).with_seed(seed)).with_deadline(Duration::MAX))
            .expect("admitted");
        assert!(!response.degraded);
        assert!(response.outcome.expect("answers").community.contains(&q));
    }
    assert_eq!(service.pending(), 0, "no slot leaked");
    let fourth = service
        .submit(Request::new(sea_query(q).with_seed(3)))
        .expect("a fourth request is admitted");
    assert!(fourth.wait().outcome.is_ok());
}

/// An epoch-pinned read waits for its epoch for as long as its deadline
/// allows; a deadline too far away to represent waits until the publish.
#[test]
fn a_pinned_read_with_an_unrepresentable_deadline_waits_for_its_epoch() {
    let (graph, q) = figure1_imdb();
    let router = Arc::new(Router::over_graph(graph, 1));
    let service = Arc::new(Service::over_cluster(
        Arc::clone(&router),
        ServiceConfig::default().with_workers(1),
    ));
    let reader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.run(
                Request::new(sea_query(q))
                    .with_epoch(1)
                    .with_deadline(Duration::MAX),
            )
        })
    };
    // Publish only once the read is waiting on the epoch.
    while router.metrics().pinned_waits == 0 {
        // A poll: nothing publishes the wait counter.
        std::thread::sleep(Duration::from_millis(1));
    }
    router
        .apply(&[GraphUpdate::AddEdge { u: q, v: 0 }])
        .expect("endpoints exist");
    let response = reader.join().expect("no panic").expect("admitted");
    assert_eq!(response.epoch, 1);
    assert!(response.outcome.is_ok());
}

/// A pinned read's deadline runs from submission: the wait for its
/// epoch spends it, and the search gets only what is left (the deadline
/// used to start again once the epoch arrived, so the slack read the
/// whole deadline).
#[test]
fn a_pinned_reads_deadline_counts_its_wait_for_the_epoch() {
    let (graph, q) = figure1_imdb();
    let store = Arc::new(GraphStore::new(graph));
    let service = Arc::new(Service::new(
        Arc::clone(&store),
        ServiceConfig::default().with_workers(1),
    ));
    let reader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.run(
                Request::new(sea_query(q))
                    .with_epoch(1)
                    .with_deadline(Duration::from_millis(400)),
            )
        })
    };
    // Publish 300 ms after the read arrived.
    while service.metrics().submitted == 0 {
        // A poll: nothing publishes the submission counter.
        std::thread::sleep(Duration::from_millis(1));
    }
    // The wait under test, spent from the read's deadline.
    std::thread::sleep(Duration::from_millis(300));
    store
        .apply(&[GraphUpdate::AddEdge { u: q, v: 0 }])
        .expect("endpoints exist");
    let response = reader.join().expect("no panic").expect("admitted");
    assert_eq!(response.epoch, 1);
    assert!(response.outcome.is_ok());
    let slack = response.deadline_slack_ms.expect("deadline was set");
    assert!(slack < 200.0, "{slack} ms of slack after a 300 ms wait");
}

/// A class is a label, not an admission bound: every class counts
/// against the one `capacity`, so four requests under four distinct
/// labels still admit exactly two, and each answer echoes its own label.
#[test]
fn a_class_label_never_bounds_admission() {
    let (graph, q) = figure1_imdb();
    let service = Service::over_graph(
        graph,
        ServiceConfig::default()
            .with_workers(1)
            .with_capacity(2)
            .paused(),
    );
    let mut admitted = Vec::new();
    for (i, class) in ["a", "b", "c", "d"].into_iter().enumerate() {
        let request = Request::new(sea_query(q).with_seed(200 + i as u64)).with_class(class);
        match service.submit(request) {
            Ok(t) => admitted.push((class, t)),
            Err(e) => assert!(matches!(e, CsagError::Overloaded { .. }), "{e:?}"),
        }
    }
    let classes: Vec<&str> = admitted.iter().map(|(class, _)| *class).collect();
    assert_eq!(classes, ["a", "b"], "the first two fill the one bound");
    assert_eq!(service.pending(), 2);
    service.resume();
    for (class, t) in admitted {
        let response = t.wait();
        assert_eq!(response.class.label(), class);
        assert!(response.outcome.is_ok());
    }
}

/// Service answers equal direct engine answers, and the epoch rides
/// along: after a store update, new submissions answer from the new
/// epoch while queries never coalesce across epochs.
#[test]
fn service_matches_engine_and_pins_fresh_epochs() {
    let (graph, q) = figure1_imdb();
    let store = Arc::new(GraphStore::new(graph));
    let service = Service::new(Arc::clone(&store), ServiceConfig::default().with_workers(2));

    let query = sea_query(q);
    let direct = store.snapshot().engine().run(&query).expect("answers");
    let served = service.run(Request::new(query.clone())).expect("admitted");
    assert_eq!(served.epoch, 0);
    let served_result = served.outcome.expect("answers");
    assert_eq!(served_result.community, direct.community);
    assert_eq!(served_result.delta, direct.delta);
    assert_eq!(served_result.epoch, 0, "the result itself names its epoch");

    // Bump the epoch; the same query now answers from epoch 1.
    store
        .apply(&[GraphUpdate::AddEdge { u: q, v: 0 }])
        .expect("endpoints exist");
    let served = service.run(Request::new(query.clone())).expect("admitted");
    assert_eq!(served.epoch, 1, "new submissions pin the new epoch");
    assert_eq!(served.outcome.expect("answers").epoch, 1);

    // And it matches a fresh engine over the post-update graph.
    let fresh = csag::engine::Engine::new(store.snapshot().graph().clone());
    let rebuilt = fresh.run(&query).expect("answers");
    let served = service.run(Request::new(query)).expect("admitted");
    assert_eq!(
        served.outcome.expect("answers").community,
        rebuilt.community
    );
}

/// Invalid queries are rejected before admission — typed, and without
/// costing a queue slot.
#[test]
fn invalid_queries_never_occupy_admission_slots() {
    let (graph, _) = figure1_imdb();
    let service = Service::over_graph(
        graph,
        ServiceConfig::default()
            .with_workers(1)
            .with_capacity(1)
            .paused(),
    );
    assert!(matches!(
        service.submit(Request::new(CommunityQuery::new(Method::Sea, 0).with_k(1))),
        Err(CsagError::InvalidParams { .. })
    ));
    // sea-hetero can never run on a homogeneous store: rejected up
    // front instead of burning a slot on a guaranteed dispatch failure.
    let err = service
        .submit(Request::new(
            CommunityQuery::new(Method::SeaHetero, 0).with_k(3),
        ))
        .unwrap_err();
    assert!(matches!(err, CsagError::InvalidParams { .. }));
    assert!(err.to_string().contains("HeteroEngine"), "{err}");
    let m = service.metrics();
    assert_eq!((m.admitted, m.shed), (0, 0), "rejected pre-admission");
    assert_eq!(m.rejected, 2, "both rejections are accounted");
    assert_eq!(
        m.submitted,
        m.admitted + m.shed + m.rejected,
        "conservation"
    );
    assert_eq!(service.pending(), 0);
    // The slot is still free for a valid request.
    let t = service
        .submit(Request::new(sea_query(0)))
        .expect("slot free");
    service.resume();
    assert!(matches!(
        t.wait().outcome,
        Ok(_) | Err(CsagError::NoCommunity { .. })
    ));
}

/// A `csag-wire v1` session cannot be killed by one line: a 70 KiB line
/// (never buffered past the cap, newline or not) and a line with a
/// non-UTF-8 byte each answer `invalid_params` under their line-number
/// id, and the valid request behind them is still answered — in order.
#[test]
fn v1_session_survives_overlong_and_non_utf8_lines() {
    use csag::service::transport::serve_session;

    let (graph, q) = figure1_imdb();
    let service = Service::over_graph(graph, ServiceConfig::default().with_workers(1));
    let valid = format!("{{\"id\":\"ok\",\"method\":\"sea\",\"q\":{q},\"k\":3,\"seed\":11}}\n");
    let mut input = vec![b'x'; 70 * 1024];
    input.extend_from_slice(b"\n\n{\"q\":\xFF}\n");
    input.extend_from_slice(valid.as_bytes());
    // The last line has no newline at all and is over the cap too.
    input.extend_from_slice(&vec![b'y'; 70 * 1024]);

    let mut output = Vec::new();
    let answered = serve_session(&service, &input[..], &mut output).expect("in-memory io");
    assert_eq!(answered, 4, "the blank line is skipped, not answered");
    let output = String::from_utf8(output).expect("responses are UTF-8");
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 4, "{output}");
    let refused = |id: usize| format!("{{\"id\":{id},\"error\":{{\"error\":\"invalid_params\"");
    assert!(lines[0].starts_with(&refused(0)), "{}", lines[0]);
    assert!(lines[0].contains("exceeds 65536 bytes"), "{}", lines[0]);
    assert!(lines[1].starts_with(&refused(2)), "{}", lines[1]);
    assert!(lines[1].contains("not UTF-8"), "{}", lines[1]);
    assert!(lines[2].starts_with("{\"id\":\"ok\""), "{}", lines[2]);
    assert!(lines[2].contains("\"result\":{"), "{}", lines[2]);
    assert!(lines[3].starts_with(&refused(4)), "{}", lines[3]);
    assert_eq!(service.metrics().completed, 1);
}
