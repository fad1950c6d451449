//! Integration tests for `csag::service::transport`: real sockets,
//! pipelined csag-wire v2 sessions, out-of-order completion matched by
//! `id`, admission shedding over the wire, batched-submission wake
//! amortization, and graceful shutdown with in-flight requests drained.
//!
//! Determinism comes from the service's `start_paused` seam: requests
//! are pipelined into a held queue, observed via `Service::pending`,
//! and only then released — so ordering and overload outcomes are
//! exact, not racy.

use csag::datasets::paper_examples::figure1_imdb;
use csag::engine::{CommunityQuery, Method};
use csag::service::{Priority, Request, Service, ServiceConfig, Transport};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn paused_service(workers: usize, capacity: usize) -> Arc<Service> {
    let (graph, _) = figure1_imdb();
    Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default()
            .with_workers(workers)
            .with_capacity(capacity)
            .paused(),
    ))
}

fn sea_line(id: &str, q: u32, seed: u64, priority: Option<&str>) -> String {
    let prio = priority
        .map(|p| format!(",\"priority\":\"{p}\""))
        .unwrap_or_default();
    format!("{{\"id\":\"{id}\",\"method\":\"sea\",\"q\":{q},\"k\":3,\"error\":0.1,\"seed\":{seed}{prio}}}\n")
}

/// Extracts the `"id"` token of a response line without a JSON parser.
fn response_id(line: &str) -> String {
    let rest = line
        .strip_prefix("{\"id\":")
        .expect("responses lead with the echoed id");
    let end = if let Some(quoted) = rest.strip_prefix('"') {
        quoted.find('"').map(|i| i + 2).expect("closing quote")
    } else {
        rest.find(',').expect("next key")
    };
    rest[..end].to_string()
}

fn connect(transport: &Transport) -> TcpStream {
    let addr = transport.local_addr().tcp().expect("tcp transport");
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

fn wait_pending(service: &Service, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.pending() < n {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} admitted requests (have {})",
            service.pending()
        );
        // A poll: nothing publishes the queue's length.
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Two connections each pipeline K requests back-to-back without
/// reading; every request is answered exactly once, matched by `id`,
/// and each connection only ever sees its own ids.
#[test]
fn pipelined_requests_across_connections_answer_every_id() {
    let (graph, q) = figure1_imdb();
    let service = Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(2),
    ));
    let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    const K: usize = 12;
    let handles: Vec<_> = (0..2)
        .map(|conn| {
            let mut sock = connect(&transport);
            std::thread::spawn(move || {
                let mut burst = String::new();
                for i in 0..K {
                    // Distinct seeds ⇒ distinct fingerprints ⇒ no
                    // coalescing hides a lost response.
                    burst.push_str(&sea_line(
                        &format!("c{conn}-{i}"),
                        q,
                        (conn * K + i) as u64,
                        None,
                    ));
                }
                sock.write_all(burst.as_bytes()).unwrap();
                sock.flush().unwrap();
                let mut reader = BufReader::new(sock);
                let mut got = Vec::new();
                for _ in 0..K {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("response line");
                    assert!(
                        line.contains("\"result\":{"),
                        "every request has a community here: {line}"
                    );
                    got.push(response_id(&line));
                }
                got
            })
        })
        .collect();

    for (conn, h) in handles.into_iter().enumerate() {
        let mut ids = h.join().expect("client thread");
        ids.sort();
        let mut want: Vec<String> = (0..K).map(|i| format!("\"c{conn}-{i}\"")).collect();
        want.sort();
        assert_eq!(ids, want, "connection {conn} got exactly its own ids");
    }
    let m = service.metrics();
    assert_eq!(m.admitted, 2 * K as u64);
    assert_eq!(m.completed, 2 * K as u64);
    assert!(
        m.wakes <= m.admitted,
        "batched submission never wakes more than once per request"
    );
    assert_eq!(transport.connections_accepted(), 2);
    transport.shutdown();
}

/// Out-of-order completion is real and observable: with one worker and
/// a paused scheduler, a standard-priority request pipelined *before*
/// an interactive one completes *after* it — the response order on the
/// wire is completion order, and only `id` links them back.
#[test]
fn responses_arrive_out_of_order_matched_by_id() {
    let (_, q) = figure1_imdb();
    let service = paused_service(1, 16);
    let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let mut sock = connect(&transport);
    let mut burst = String::new();
    burst.push_str(&sea_line("first-in", q, 1, None)); // standard priority
    burst.push_str(&sea_line("second-in", q, 2, Some("interactive")));
    sock.write_all(burst.as_bytes()).unwrap();
    wait_pending(&service, 2);
    service.resume();

    let mut reader = BufReader::new(sock);
    let mut order = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        order.push(response_id(&line));
    }
    assert_eq!(
        order,
        vec!["\"second-in\"".to_string(), "\"first-in\"".to_string()],
        "the interactive request overtakes the earlier standard one"
    );
    transport.shutdown();
}

/// Admission shedding speaks the wire too: past the capacity bound,
/// pipelined requests answer immediately with an `overloaded` error
/// envelope carrying `retry_after_ms`, while the admitted ones are
/// still answered after the queue resumes.
#[test]
fn overload_sheds_over_the_socket_with_retry_after() {
    let (_, q) = figure1_imdb();
    let capacity = 2;
    let service = paused_service(1, capacity);
    let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let mut sock = connect(&transport);
    let total = 5;
    let mut burst = String::new();
    for i in 0..total {
        burst.push_str(&sea_line(&format!("s{i}"), q, 100 + i as u64, None));
    }
    sock.write_all(burst.as_bytes()).unwrap();

    // The sheds answer while the scheduler is still paused.
    let mut reader = BufReader::new(sock);
    let mut shed_ids = Vec::new();
    for _ in 0..total - capacity {
        let mut line = String::new();
        reader.read_line(&mut line).expect("shed response line");
        assert!(
            line.contains("\"error\":{\"error\":\"overloaded\""),
            "sheds carry the typed overload envelope: {line}"
        );
        assert!(
            line.contains("\"retry_after_ms\":"),
            "sheds carry a back-off hint: {line}"
        );
        shed_ids.push(response_id(&line));
    }
    assert_eq!(service.pending(), capacity, "admission bound is exact");

    service.resume();
    let mut answered_ids = Vec::new();
    for _ in 0..capacity {
        let mut line = String::new();
        reader.read_line(&mut line).expect("admitted response line");
        assert!(line.contains("\"result\":{"), "admitted answer: {line}");
        answered_ids.push(response_id(&line));
    }
    let mut all: Vec<String> = shed_ids.into_iter().chain(answered_ids).collect();
    all.sort();
    let mut want: Vec<String> = (0..total).map(|i| format!("\"s{i}\"")).collect();
    want.sort();
    assert_eq!(all, want, "every pipelined request is answered once");
    transport.shutdown();
}

/// Graceful shutdown drains: requests admitted before `shutdown()` are
/// all answered and written out before the call returns, and the client
/// then sees a clean EOF.
#[test]
fn shutdown_drains_in_flight_requests() {
    let (_, q) = figure1_imdb();
    let service = paused_service(1, 16);
    let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let mut sock = connect(&transport);
    let in_flight = 3;
    let mut burst = String::new();
    for i in 0..in_flight {
        burst.push_str(&sea_line(&format!("d{i}"), q, 200 + i as u64, None));
    }
    sock.write_all(burst.as_bytes()).unwrap();
    wait_pending(&service, in_flight);

    // Shut the transport down while the queue is still held; the call
    // must block until every in-flight request is answered.
    let shutdown = std::thread::spawn(move || transport.shutdown());
    // Under test: the shutdown has begun, and blocks, before the resume.
    std::thread::sleep(Duration::from_millis(50));
    service.resume();
    shutdown.join().expect("shutdown returns");
    assert_eq!(service.metrics().completed, in_flight as u64);

    let mut reader = BufReader::new(sock);
    let mut ids = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("line or clean EOF");
        if n == 0 {
            break;
        }
        assert!(line.contains("\"result\":{"), "drained answer: {line}");
        ids.push(response_id(&line));
    }
    ids.sort();
    let mut want: Vec<String> = (0..in_flight).map(|i| format!("\"d{i}\"")).collect();
    want.sort();
    assert_eq!(ids, want, "every in-flight request was drained to the wire");
}

/// The unix-domain flavor round-trips and cleans up its socket file.
#[cfg(unix)]
#[test]
fn unix_domain_socket_round_trips() {
    use std::os::unix::net::UnixStream;

    let (graph, q) = figure1_imdb();
    let service = Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(1),
    ));
    let path = std::env::temp_dir().join(format!("csag-uds-test-{}.sock", std::process::id()));
    let transport = Transport::bind_uds(Arc::clone(&service), &path).expect("bind uds");

    let mut sock = UnixStream::connect(&path).expect("connect uds");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(sea_line("u0", q, 7, None).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    reader.read_line(&mut line).expect("uds response");
    assert!(line.starts_with("{\"id\":\"u0\""), "{line}");
    assert!(line.contains("\"result\":{"), "{line}");

    transport.shutdown();
    assert!(!path.exists(), "shutdown removes the socket file");
}

/// The wake-amortization contract, measured at the API: a paused
/// service admitting a batch of N distinct requests records exactly ONE
/// worker wake-up, where N individual submissions record N.
#[test]
fn submit_batch_wakes_workers_once() {
    let (_, q) = figure1_imdb();
    let service = paused_service(1, 64);
    let template = |seed: u64| {
        Request::new(
            CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_error_bound(0.1)
                .with_seed(seed),
        )
    };

    let batch: Vec<Request> = (0..8).map(template).collect();
    let tickets = service.submit_batch(batch);
    assert_eq!(tickets.len(), 8);
    assert!(tickets.iter().all(Result::is_ok), "all admitted");
    assert_eq!(
        service.metrics().wakes,
        1,
        "one batch of 8 new jobs costs one wake"
    );

    for i in 0..8u64 {
        service
            .submit(template(100 + i).with_priority(Priority::Batch))
            .expect("admitted");
    }
    assert_eq!(
        service.metrics().wakes,
        9,
        "8 individual submissions cost 8 wakes"
    );

    service.resume();
    for t in tickets {
        let resp = t.unwrap().wait();
        assert!(resp.outcome.is_ok());
    }
}

/// A socket file left behind by a crashed server (`kill -9` never runs
/// the unlink in `Transport::shutdown`) must not wedge the restart:
/// bind probes the path, finds nobody home, reclaims it, and serves.
#[cfg(unix)]
#[test]
fn stale_uds_socket_from_a_crash_is_reclaimed_on_bind() {
    use std::os::unix::net::{UnixListener, UnixStream};

    let (graph, q) = figure1_imdb();
    let path = std::env::temp_dir().join(format!("csag-uds-stale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Simulate the crash: a listener binds the path and dies without
    // unlinking. The file stays; nothing accepts on it.
    drop(UnixListener::bind(&path).expect("stale bind"));
    assert!(path.exists(), "a dead listener leaves its socket file");

    let service = Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(1),
    ));
    let transport =
        Transport::bind_uds(Arc::clone(&service), &path).expect("reclaims the dead socket");

    let mut sock = UnixStream::connect(&path).expect("connect after reclaim");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(sea_line("s0", q, 7, None).as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).expect("response");
    assert!(line.starts_with("{\"id\":\"s0\""), "{line}");

    transport.shutdown();
}

/// The reclaim is NOT a steal: when a live process is still accepting
/// on the path, a second bind fails with `AddrInUse` and the incumbent
/// keeps serving untouched.
#[cfg(unix)]
#[test]
fn live_uds_socket_refuses_a_second_bind() {
    use std::os::unix::net::UnixStream;

    let (graph, q) = figure1_imdb();
    let service = Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(1),
    ));
    let path = std::env::temp_dir().join(format!("csag-uds-live-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let incumbent = Transport::bind_uds(Arc::clone(&service), &path).expect("first bind");

    match Transport::bind_uds(Arc::clone(&service), &path) {
        Ok(_) => panic!("a live socket must not be stolen"),
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}"),
    }
    assert!(path.exists(), "the incumbent's socket file survives");

    // The incumbent is unharmed by the probe connection.
    let mut sock = UnixStream::connect(&path).expect("incumbent still accepts");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(sea_line("l0", q, 7, None).as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(sock).read_line(&mut line).expect("response");
    assert!(line.starts_with("{\"id\":\"l0\""), "{line}");

    incumbent.shutdown();
}

/// The transport's fault seam: a scripted
/// [`FaultPlan::drop_connection_at_request`] severs the connection at
/// an exact request index — the request before it is answered, the
/// scripted one (and everything after) sees a dead socket. This is the
/// deterministic stand-in for mid-pipeline connection loss that the
/// bench driver's retry path is tested against.
#[test]
fn scripted_connection_drop_severs_the_pipeline_at_the_exact_request() {
    use csag::durability::FaultPlan;

    let (graph, q) = figure1_imdb();
    let service = Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(1),
    ));
    let plan = FaultPlan::none().drop_connection_at_request(1);
    let transport =
        Transport::bind_tcp_with(Arc::clone(&service), "127.0.0.1:0", plan.clone()).expect("bind");

    let mut sock = connect(&transport);
    sock.write_all(sea_line("d0", q, 7, None).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("request 0 is answered");
    assert!(line.starts_with("{\"id\":\"d0\""), "{line}");

    // Request index 1 trips the script: the server aborts the socket.
    sock.write_all(sea_line("d1", q, 8, None).as_bytes())
        .unwrap();
    line.clear();
    let severed = match reader.read_line(&mut line) {
        Ok(0) => true,  // clean EOF from the abort
        Ok(_) => false, // a response would be a bug
        Err(_) => true, // ECONNRESET is equally fine
    };
    assert!(
        severed,
        "the scripted request must never be answered: {line}"
    );
    assert_eq!(plan.injected(), 1, "exactly one fault fired");

    // The transport itself survives: a NEW connection is served (the
    // script is exhausted, so index 2+ passes).
    let mut sock2 = connect(&transport);
    sock2
        .write_all(sea_line("d2", q, 9, None).as_bytes())
        .unwrap();
    line.clear();
    BufReader::new(sock2)
        .read_line(&mut line)
        .expect("fresh connection answered");
    assert!(line.starts_with("{\"id\":\"d2\""), "{line}");

    transport.shutdown();
}

/// Hostile framing: a peer that streams megabytes without a newline
/// must not size the server's buffer. The over-long line is discarded
/// up to its newline, answered `invalid_params` under its line-number
/// id, and the same connection keeps serving.
#[test]
fn an_over_long_line_is_rejected_and_the_connection_keeps_serving() {
    let (graph, q) = figure1_imdb();
    let service = Arc::new(Service::over_graph(
        graph,
        ServiceConfig::default().with_workers(1),
    ));
    let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let sock = connect(&transport);
    let mut reader = BufReader::new(sock.try_clone().unwrap());

    // Written from a second thread: the server discards as it reads, so
    // neither side can stall the other on a full socket buffer.
    let writer = std::thread::spawn({
        let mut sock = sock.try_clone().unwrap();
        let follow_up = sea_line("after", q, 7, None);
        move || {
            // Multi-byte characters, so the cap lands inside one.
            let chunk = "é".repeat(32 * 1024);
            for _ in 0..20 {
                sock.write_all(chunk.as_bytes()).unwrap();
            }
            sock.write_all(b"\n").unwrap();
            sock.write_all(follow_up.as_bytes()).unwrap();
        }
    });
    let mut line = String::new();
    reader.read_line(&mut line).expect("rejection line");
    assert!(
        line.starts_with("{\"id\":0,\"error\":{\"error\":\"invalid_params\""),
        "{line}"
    );
    assert!(line.contains("exceeds 65536 bytes"), "{line}");
    line.clear();
    reader
        .read_line(&mut line)
        .expect("the follow-up is answered");
    assert!(line.starts_with("{\"id\":\"after\""), "{line}");
    assert!(line.contains("\"result\":{"), "{line}");
    writer.join().unwrap();
    transport.shutdown();
}
