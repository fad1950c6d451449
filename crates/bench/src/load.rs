//! `load --socket`: the closed-loop csag-wire v2 smoke client.
//!
//! [`drive_socket`] drives an already-running `csag serve --listen`
//! server over TCP — sequential (window 1) vs pipelined (window W) vs
//! pipelined with an epoch pin — and returns a markdown summary. CI's
//! transport, cluster and shard smokes point it at their servers; it
//! measures nothing that is kept (the repo's measurements live in
//! `benchmark/`, see `benchmark/README.md`).
//!
//! The driver is **resilient**: `overloaded` rejections are retried
//! after a jittered exponential backoff floored at the server's
//! `retry_after_ms` hint, and a dropped connection is redialed with
//! every unanswered (idempotent) read resubmitted.

use crate::config::Scale;
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
}

impl LoopStats {
    fn qps(&self, requests: usize) -> f64 {
        requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The `"id"` value of a rendered request or response line. The driver
/// only renders string ids, and csag-wire echoes the id first.
fn wire_id(line: &str) -> Option<&str> {
    line.split("\"id\":\"").nth(1)?.split('"').next()
}

/// The `retry_after_ms` hint of an `overloaded` rejection (the server's
/// own estimate of when the queue will have room).
fn retry_after_hint_ms(line: &str) -> f64 {
    line.split("\"retry_after_ms\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(5.0)
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
    };
    let index_of: HashMap<String, usize> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| wire_id(l).map(|id| (id.to_string(), i)))
        .collect();
    let mut answered = vec![false; lines.len()];
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
                    let Some(i) = wire_id(&line).and_then(|id| index_of.get(id)).copied() else {
                        continue; // unparseable line: ignore, the id map is the truth
                    };
                    if answered[i] {
                        continue; // late duplicate from a pre-drop submission
                    }
                    in_flight.retain(|&j| j != i);
                    if line.contains("\"error\":\"overloaded\"")
                        && attempts[i] < MAX_OVERLOAD_RETRIES
                    {
                        attempts[i] += 1;
                        stats.retries += 1;
                        backoff(attempts[i], retry_after_hint_ms(&line), &mut rng);
                        pending.push_back(i);
                    } else {
                        answered[i] = true;
                        if line.contains("\"result\":{") {
                            stats.results += 1;
                        } else {
                            stats.errors += 1;
                        }
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
    let epoch = pin.map(|e| format!(",\"epoch\":{e}")).unwrap_or_default();
    format!(
        "{{\"id\":\"{id}\",\"method\":\"sea\",\"q\":{q},\"k\":{k},\"error\":0.1,\"seed\":{seed}{epoch}}}\n"
    )
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
