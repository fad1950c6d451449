//! `load`: the closed-loop csag-wire v2 smoke client and answer check.
//!
//! [`drive_socket`] drives an already-running `csag serve --listen`
//! server over TCP — sequential (window 1) vs pipelined (window W) vs
//! pipelined with an epoch pin — and returns a markdown summary. CI's
//! transport, cluster and shard smokes point it at their servers; it
//! measures nothing that is kept (the repo's measurements live in
//! `benchmark/`, see `benchmark/README.md`).
//!
//! [`Check`] is the answer gate of every CI smoke: it sends a request
//! file through the same closed loop (or reads a recorded v1 session)
//! and compares each expected id's answer with a `csag query --json`
//! file under the one identity rule,
//! [`csag::engine::answer_identity`].

use crate::config::Scale;
use csag::engine::answer_identity;
use csag::json::{self, first_difference, Value, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Outstanding-request window for the pipelined closed-loop runs. Kept
/// well below `csag serve`'s default admission capacity so the
/// comparison measures pipelining, not shedding.
const PIPELINE_WINDOW: usize = 8;

/// What one closed-loop run over a socket measured.
struct LoopStats {
    elapsed: Duration,
    /// Responses whose envelope carried a `"result"` object.
    results: usize,
    /// Responses carrying an `"error"` object instead (typed answers
    /// like `no_community`; never `overloaded`, which is retried).
    errors: usize,
    /// Resubmissions: `overloaded` backoff retries plus in-flight
    /// requests resubmitted after a mid-pipeline connection drop.
    retries: u64,
    /// Fresh connections dialed after the first (drops survived).
    reconnects: u64,
    /// The final response to each request, in request order.
    answers: Vec<Option<Value>>,
}

impl LoopStats {
    fn qps(&self, requests: usize) -> f64 {
        requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The `"id"` of a parsed request or response, as the text `--expect`
/// names it by: a string id's content, a numeric id's digits.
fn id_of(doc: &Value) -> Option<String> {
    match doc.get("id")? {
        Value::String(s) => Some(s.clone()),
        other => Some(other.render()),
    }
}

/// Give up on a request after this many `overloaded` rejections (keeps
/// a wedged server from hanging the driver forever).
const MAX_OVERLOAD_RETRIES: u32 = 32;

/// Abandon the run after this many failed reconnect attempts.
const MAX_RECONNECTS: u64 = 8;

/// Drives `lines` (rendered csag-wire v2 request lines, `\n`-terminated)
/// through a TCP connection, keeping at most `window` requests
/// outstanding. `window == 1` is the sequential (v1-style) discipline;
/// larger windows pipeline. A reader thread forwards response lines so
/// the sender's window bookkeeping never blocks the socket.
///
/// The loop is **resilient**, mirroring what a production client of the
/// wire protocol must do:
///
/// * an `overloaded` rejection is not an answer — the request is
///   resubmitted after a jittered exponential backoff whose floor is
///   the server's `retry_after_ms` hint;
/// * a mid-pipeline connection drop (reset, EOF, stall) dials a fresh
///   connection and resubmits every unanswered request — sound because
///   every request the driver sends is an idempotent read;
/// * duplicate answers (a request resubmitted just before its original
///   answer arrived) are counted once.
///
/// Every resubmission increments `retries`; `reconnects` counts the
/// re-dials.
fn closed_loop(addr: &str, lines: &[String], window: usize) -> std::io::Result<LoopStats> {
    let start = Instant::now();
    let mut stats = LoopStats {
        elapsed: Duration::ZERO,
        results: 0,
        errors: 0,
        retries: 0,
        reconnects: 0,
        answers: vec![None; lines.len()],
    };
    let index_of: HashMap<String, usize> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| Some((id_of(&json::parse(l).ok()?)?, i)))
        .collect();
    let mut attempts = vec![0u32; lines.len()];
    let mut pending: VecDeque<usize> = (0..lines.len()).collect();
    let mut rng = StdRng::seed_from_u64(0xB0FF ^ lines.len() as u64);
    // Jittered exponential backoff: attempt k sleeps ~2·2^k ms (+ up to
    // 50% jitter so synchronized clients spread out), capped at 200 ms,
    // floored by any server-provided hint.
    let backoff = |attempt: u32, floor_ms: f64, rng: &mut StdRng| {
        let exp_ms = (2u64 << attempt.min(6)) as f64;
        let ms = exp_ms.min(200.0).max(floor_ms) * (1.0 + rng.gen_range(0.0f64..0.5));
        std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
    };

    while stats.results + stats.errors < lines.len() {
        let mut sock = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                if stats.reconnects >= MAX_RECONNECTS {
                    return Err(e);
                }
                stats.reconnects += 1;
                backoff(stats.reconnects as u32, 0.0, &mut rng);
                continue;
            }
        };
        sock.set_nodelay(true)?;
        let read_half = sock.try_clone()?;
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(read_half);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if tx.send(line).is_err() {
                            return;
                        }
                    }
                }
            }
        });

        let mut in_flight: Vec<usize> = Vec::new();
        let died = loop {
            while in_flight.len() < window {
                match pending.pop_front() {
                    Some(i) => {
                        if sock.write_all(lines[i].as_bytes()).is_err() {
                            in_flight.push(i); // unanswered: resubmit it too
                            break;
                        }
                        in_flight.push(i);
                    }
                    None => break,
                }
            }
            if in_flight.is_empty() {
                break false; // everything sent and answered
            }
            match rx.recv_timeout(Duration::from_secs(20)) {
                Ok(line) => {
                    let doc = json::parse(&line).ok();
                    let id = doc.as_ref().and_then(id_of);
                    let (Some(doc), Some(&i)) = (doc, id.and_then(|id| index_of.get(&id))) else {
                        continue; // unparseable line: ignore, the id map is the truth
                    };
                    if stats.answers[i].is_some() {
                        continue; // late duplicate from a pre-drop submission
                    }
                    in_flight.retain(|&j| j != i);
                    let error = doc.get("error");
                    let overloaded = error.and_then(|e| e.get("error")).and_then(Value::as_str)
                        == Some("overloaded");
                    if overloaded && attempts[i] < MAX_OVERLOAD_RETRIES {
                        // The server's own estimate of when the queue
                        // will have room floors the backoff.
                        let hint = error.and_then(|e| e.get("retry_after_ms"));
                        attempts[i] += 1;
                        stats.retries += 1;
                        backoff(
                            attempts[i],
                            hint.and_then(Value::as_f64).unwrap_or(5.0),
                            &mut rng,
                        );
                        pending.push_back(i);
                    } else {
                        if doc.get("result").is_some() {
                            stats.results += 1;
                        } else {
                            stats.errors += 1;
                        }
                        stats.answers[i] = Some(doc);
                    }
                }
                // EOF, reset, or a 20 s stall: the connection is dead.
                Err(_) => break true,
            }
        };
        let _ = sock.shutdown(std::net::Shutdown::Both);
        drop(rx);
        let _ = reader.join();
        if died {
            if stats.reconnects >= MAX_RECONNECTS {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    format!("gave up after {MAX_RECONNECTS} reconnects"),
                ));
            }
            // Reconnect and resubmit the unanswered in-flight reads, in
            // their original order, ahead of the still-pending tail.
            stats.reconnects += 1;
            stats.retries += in_flight.len() as u64;
            for i in in_flight.into_iter().rev() {
                pending.push_front(i);
            }
            backoff(stats.reconnects as u32, 0.0, &mut rng);
        }
    }
    stats.elapsed = start.elapsed();
    Ok(stats)
}

/// Renders a csag-wire v2 SEA request line; `pin` adds the `"epoch"`
/// key (the read must answer from a store epoch `>=` the pin).
fn wire_line(id: &str, q: u32, k: u32, seed: u64, pin: Option<u64>) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("id").string(id);
    w.key("method").string("sea");
    w.key("q").uint(q.into());
    w.key("k").uint(k.into());
    w.key("error").float(0.1);
    w.key("seed").uint(seed);
    if let Some(epoch) = pin {
        w.key("epoch").uint(epoch);
    }
    w.end_object();
    w.finish() + "\n"
}

/// Drives an external `csag serve --listen` server at `addr` with the
/// sequential-vs-pipelined closed-loop comparison and returns the
/// markdown summary. Queries hit node 5 (present in any generated
/// graph); responses may legitimately be typed `NoCommunity` errors for
/// some seeds, so both kinds count as answered traffic.
/// Consecutive pairs share a seed (the coalescing-fodder convention),
/// so the pipelined run shows the server coalescing in-flight
/// duplicates that the sequential discipline must execute one by one.
///
/// A third pipelined run pins every request to epoch 0 via the
/// `"epoch"` wire key — always published, so a correct server (replicas
/// or not) answers all of them; it exercises the pinned routing path
/// end to end over the wire.
pub fn drive_socket(addr: &str, scale: &Scale) -> String {
    let requests = if scale.quick { 24 } else { 96 };
    let (q, k) = (5u32, 3u32);
    let render = |tag: &str, base: u64, pin: Option<u64>| -> Vec<String> {
        (0..requests)
            .map(|i| wire_line(&format!("{tag}{i}"), q, k, base + (i / 2) as u64, pin))
            .collect()
    };
    // Warm the server's distance cache so both measured runs see the
    // same residency.
    closed_loop(addr, &render("w", 10, None), 1).expect("warmup run");
    let seq = closed_loop(addr, &render("s", 1_000, None), 1).expect("sequential run");
    let pipe =
        closed_loop(addr, &render("p", 2_000, None), PIPELINE_WINDOW).expect("pipelined run");
    let pinned =
        closed_loop(addr, &render("e", 3_000, Some(0)), PIPELINE_WINDOW).expect("pinned run");
    assert_eq!(
        pinned.errors, 0,
        "epoch-0 pins are always satisfiable; a rejection is a routing bug"
    );

    let mut md = String::new();
    let _ = writeln!(
        md,
        "Closed-loop csag-wire v2 drive of `{addr}`: {requests} SEA requests \
         (q = {q}, k = {k}, distinct seeds) per run, sequential (window 1) \
         vs pipelined (window {PIPELINE_WINDOW}).\n"
    );
    md.push_str("| discipline | answered (results / errors) | throughput |\n|---|---|---|\n");
    let _ = writeln!(
        md,
        "| sequential | {} / {} | {:.1} q/s |",
        seq.results,
        seq.errors,
        seq.qps(requests)
    );
    let _ = writeln!(
        md,
        "| pipelined | {} / {} | {:.1} q/s |",
        pipe.results,
        pipe.errors,
        pipe.qps(requests)
    );
    let _ = writeln!(
        md,
        "| pipelined + epoch pin 0 | {} / {} | {:.1} q/s |",
        pinned.results,
        pinned.errors,
        pinned.qps(requests)
    );
    let _ = writeln!(
        md,
        "\nPipelining speedup: {:.2}x.",
        pipe.qps(requests) / seq.qps(requests).max(1e-9)
    );
    md
}

/// Envelope members every response that carries a `"result"` has
/// (`docs/wire-protocol.md` §Response envelope).
const ENVELOPE: [&str; 7] = [
    "epoch",
    "priority",
    "class",
    "coalesced",
    "degraded",
    "queue_ms",
    "deadline_slack_ms",
];

/// The answer check behind `experiments load --expect …`: which
/// responses must carry which `csag query --json` answer.
pub struct Check {
    /// `(id, path)` per `--expect <id>=<path>`: the response echoing
    /// `id` must carry the same answer as the JSON file at `path`.
    pub expects: Vec<(String, String)>,
    /// `--ignore epoch`: the expectation was computed on an offline
    /// copy of the graph, whose store sits at epoch 0.
    pub ignore_epoch: bool,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// `text` (the content of `path`) as one JSON document per non-blank
/// line.
fn parse_lines(path: &str, text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1)))
        .collect()
}

impl Check {
    /// Sends the csag-wire request lines in the file `requests` to the
    /// server at `addr`, pipelined through the closed loop, and checks
    /// the responses.
    ///
    /// # Errors
    /// The first failed check (see [`Check::over_file`]), an unreadable
    /// file, a request without an `"id"`, or a dead server.
    pub fn over_socket(&self, addr: &str, requests: &str) -> Result<String, String> {
        let text = read(requests)?;
        let sent = parse_lines(requests, &text)?;
        if sent.iter().any(|r| id_of(r).is_none()) {
            return Err(format!("{requests}: every request needs an \"id\""));
        }
        let lines = text.lines().filter(|line| !line.trim().is_empty());
        let lines: Vec<String> = lines.map(|line| format!("{line}\n")).collect();
        let stats = closed_loop(addr, &lines, PIPELINE_WINDOW)
            .map_err(|e| format!("driving {addr}: {e}"))?;
        let responses: Vec<Value> = stats.answers.into_iter().flatten().collect();
        self.verify(&sent, &responses)
    }

    /// Checks a recorded session: `responses` holds one response line
    /// per line (what `csag serve` printed for a csag-wire v1 session).
    ///
    /// # Errors
    /// The first failed check, naming the response id and — for an
    /// answer mismatch — the first differing path.
    pub fn over_file(&self, responses: &str) -> Result<String, String> {
        self.verify(&[], &parse_lines(responses, &read(responses)?)?)
    }

    fn verify(&self, requests: &[Value], responses: &[Value]) -> Result<String, String> {
        let by_id = |id: &str| responses.iter().find(|r| id_of(r).as_deref() == Some(id));
        for r in responses {
            let id = id_of(r).ok_or_else(|| format!("response without an id: {}", r.render()))?;
            let missing = ENVELOPE.iter().find(|key| r.get(key).is_none());
            if let (Some(_), Some(key)) = (r.get("result"), missing) {
                return Err(format!("response {id} lacks the envelope key \"{key}\""));
            }
        }
        let mut pins = 0;
        for request in requests {
            let Some(pin) = request.get("epoch").and_then(Value::as_u64) else {
                continue;
            };
            let id = id_of(request).unwrap_or_default();
            let answered_at = by_id(&id).and_then(|r| r.get("epoch")?.as_u64());
            if answered_at.is_none_or(|epoch| epoch < pin) {
                return Err(format!(
                    "request {id} pinned epoch {pin} but was answered at {answered_at:?}"
                ));
            }
            pins += 1;
        }
        for (id, path) in &self.expects {
            let want = json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            let want = answer_identity(&want, self.ignore_epoch)
                .ok_or_else(|| format!("{path} holds no answer object"))?;
            let response = by_id(id).ok_or_else(|| format!("no response carries id {id}"))?;
            let got = answer_identity(response, self.ignore_epoch)
                .ok_or_else(|| format!("response {id} holds no answer object"))?;
            if let Some(at) = first_difference(&want, &got) {
                return Err(format!(
                    "response {id} differs from {path} at {at}\n  expected {}\n  got      {}",
                    want.render(),
                    got.render()
                ));
            }
        }
        Ok(format!(
            "check: {} response(s) well-formed, {pins} epoch pin(s) honoured, {} answer(s) \
             byte-match csag query --json (timings_ms{} aside)",
            responses.len(),
            self.expects.len(),
            if self.ignore_epoch { " and epoch" } else { "" }
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag::durability::FaultPlan;
    use csag::service::{Service, ServiceConfig, Transport};
    use csag_datasets::generator::{generate, SyntheticConfig};
    use std::sync::Arc;

    fn tiny_service(capacity: usize) -> Arc<Service> {
        let (graph, _) = generate(
            &SyntheticConfig {
                nodes: 400,
                communities: 3,
                ..Default::default()
            },
            0xBE9C,
        );
        Arc::new(Service::over_graph(
            graph,
            ServiceConfig::default()
                .with_workers(1)
                .with_capacity(capacity),
        ))
    }

    /// A scripted mid-pipeline connection drop: the driver reconnects,
    /// resubmits the unanswered reads, and every request is still
    /// answered exactly once — with the retry accounting to prove it.
    #[test]
    fn closed_loop_survives_a_scripted_connection_drop() {
        let service = tiny_service(64);
        let plan = FaultPlan::none().drop_connection_at_request(3);
        let transport = Transport::bind_tcp_with(Arc::clone(&service), "127.0.0.1:0", plan.clone())
            .expect("bind");
        let addr = transport.local_addr().tcp().expect("tcp").to_string();
        let lines: Vec<String> = (0..8)
            .map(|i| wire_line(&format!("r{i}"), 5, 3, 100 + i, None))
            .collect();

        let stats = closed_loop(&addr, &lines, 4).expect("drop survived");
        transport.shutdown();
        assert_eq!(plan.injected(), 1, "the scripted drop fired");
        assert_eq!(
            stats.results + stats.errors,
            lines.len(),
            "every request answered exactly once"
        );
        assert!(stats.reconnects >= 1, "the driver redialed");
        assert!(
            stats.retries >= 1,
            "the dropped in-flight reads were resubmitted"
        );
    }

    /// The check over a live socket: numeric and string ids both match
    /// their `--expect`, an honoured pin is counted, and a pin the
    /// response does not honour — or a result stripped of its envelope
    /// — fails the run by name.
    #[test]
    fn check_matches_ids_honours_pins_and_demands_the_envelope() {
        let service = tiny_service(64);
        let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = transport.local_addr().tcp().expect("tcp").to_string();
        let dir = std::env::temp_dir().join(format!("csag-load-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();

        let query = csag::engine::CommunityQuery::new(csag::engine::Method::Sea, 5)
            .with_k(3)
            .with_error_bound(0.1)
            .with_seed(7);
        let snapshot = service.store().snapshot();
        let want = match snapshot.engine().run(&query) {
            Ok(result) => result.to_json(),
            Err(error) => csag::engine::error_to_json(&error),
        };
        std::fs::write(path("want.json"), want).expect("write expectation");
        let requests = format!(
            "{}\n{}",
            r#"{"id":17,"method":"sea","q":5,"k":3,"error":0.1,"seed":7,"epoch":0}"#,
            wire_line("s", 5, 3, 7, None)
        );
        std::fs::write(path("requests.jsonl"), requests).expect("write requests");
        let check = Check {
            expects: vec![
                ("17".into(), path("want.json")),
                ("s".into(), path("want.json")),
            ],
            ignore_epoch: false,
        };
        let summary = check
            .over_socket(&addr, &path("requests.jsonl"))
            .expect("both answers match");
        assert!(summary.contains("2 response(s)"), "{summary}");
        assert!(summary.contains("1 epoch pin(s)"), "{summary}");
        assert!(summary.contains("2 answer(s)"), "{summary}");
        transport.shutdown();

        let request = json::parse(r#"{"id":"p","q":5,"epoch":4}"#).unwrap();
        let stale = json::parse(r#"{"id":"p","epoch":3,"error":{"error":"no_community"}}"#);
        let err = check.verify(&[request], &[stale.unwrap()]).unwrap_err();
        assert!(err.contains("request p pinned epoch 4"), "{err}");
        let bare = json::parse(r#"{"id":"b","epoch":0,"result":{"q":5}}"#).unwrap();
        let err = check.verify(&[], &[bare]).unwrap_err();
        assert!(err.contains("response b lacks the envelope key"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `overloaded` rejections are retried, not tallied: a paused
    /// service sheds most of a burst, the driver backs off per the
    /// server's `retry_after_ms` hint, and once the scheduler resumes
    /// every request lands.
    #[test]
    fn closed_loop_retries_overloaded_until_admitted() {
        let service = tiny_service(2);
        service.pause();
        let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = transport.local_addr().tcp().expect("tcp").to_string();
        // Distinct seeds: no two requests share a fingerprint, so the
        // paused queue really fills at its admission bound of 2.
        let lines: Vec<String> = (0..6)
            .map(|i| wire_line(&format!("o{i}"), 5, 3, 500 + i, None))
            .collect();

        let resumer = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                service.resume();
            })
        };
        let stats = closed_loop(&addr, &lines, lines.len()).expect("burst survived");
        resumer.join().unwrap();
        transport.shutdown();
        assert_eq!(
            stats.results + stats.errors,
            lines.len(),
            "every request eventually answered"
        );
        assert!(
            stats.retries >= 1,
            "the paused queue must have shed and the driver retried"
        );
        assert_eq!(stats.reconnects, 0, "overload never drops the connection");
    }
}
