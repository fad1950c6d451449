//! `csag-wire` parsing and rendering: the service's JSON-lines
//! protocol, shared by the sequential stdin/stdout flavor (v1) and the
//! pipelined socket transport (v2, [`super::transport`]).
//!
//! **The normative grammar lives in `docs/wire-protocol.md`** —
//! request vocabulary, response envelope, id semantics, and the
//! per-flavor ordering guarantees. The short version: a request is one
//! flat JSON object per line (unknown keys rejected), and a response is
//! the serving envelope around the engine's one result serializer
//! ([`CommunityResult::to_json`](crate::engine::CommunityResult::to_json)),
//! so the `"result"` object is byte-identical to `csag query --json`
//! for the same query (modulo wall-clock `timings_ms`). Shed and
//! invalid requests answer with the same envelope carrying an
//! `"error"` object ([`error_to_json`](crate::engine::error_to_json)),
//! so a client parses exactly one shape.

use crate::engine::result::write_error_json;
use crate::engine::{CommunityQuery, CsagError, Method};
use crate::json::{self, Value, Writer};
use crate::service::request::{Priority, Request, Response};
use csag_decomp::CommunityModel;
use std::time::Duration;

/// A parsed wire request: the service [`Request`] plus the client's id
/// token, echoed verbatim into the response (so string ids stay
/// strings and numeric ids stay numbers).
#[derive(Clone, Debug)]
pub struct WireRequest {
    /// The id to echo, as a raw JSON token (already quoted if it was a
    /// string).
    pub id: String,
    /// The service request the line described.
    pub request: Request,
}

/// Parses one `csag-wire v1` request line.
///
/// `line_no` provides the default id for lines that carry none.
///
/// # Errors
/// A human-readable description of the first syntax or vocabulary
/// problem (unknown key, wrong type, missing `q`, malformed JSON).
pub fn parse_wire_request(line: &str, line_no: usize) -> Result<WireRequest, String> {
    let Value::Object(fields) = json::parse(line)? else {
        return Err("a csag-wire request is one JSON object".to_string());
    };
    let mut id = line_no.to_string();
    let mut q: Option<u32> = None;
    // Every builder is a plain setter, so fields fold in as they come;
    // the node is set last, once `q` is known to be present.
    let mut query = CommunityQuery::new(Method::Exact, 0);
    let mut size_l: Option<usize> = None;
    let mut size_h: Option<usize> = None;
    let mut priority = Priority::Standard;
    let mut deadline: Option<Duration> = None;
    let mut class: Option<String> = None;
    let mut pin_epoch: Option<u64> = None;

    for (key, value) in fields {
        if matches!(value, Value::Array(_) | Value::Object(_)) {
            return Err(format!("csag-wire values are scalars; \"{key}\" is nested"));
        }
        match key.as_str() {
            "id" => {
                id = match value {
                    // Negative integral ids echo as integers too, like
                    // they arrived.
                    Value::Float(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                        format!("{}", n as i64)
                    }
                    Value::String(_) | Value::UInt(_) | Value::Float(_) => value.render(),
                    other => {
                        return Err(format!("\"id\" must be a string or number, got {other:?}"))
                    }
                }
            }
            "q" => q = Some(u32_field(&key, &value)?),
            "method" => {
                let method = str_field(&key, value)?.parse();
                query = query.with_method(method.map_err(|e: CsagError| e.to_string())?);
            }
            "k" => query = query.with_k(u32_field(&key, &value)?),
            "model" => {
                query = query.with_model(match str_field(&key, value)?.as_str() {
                    "k-core" => CommunityModel::KCore,
                    "k-truss" => CommunityModel::KTruss,
                    other => return Err(format!("unknown model `{other}` (k-core | k-truss)")),
                })
            }
            "gamma" => query = query.with_gamma(num_field(&key, &value)?),
            "error" => query = query.with_error_bound(num_field(&key, &value)?),
            "confidence" => query = query.with_confidence(num_field(&key, &value)?),
            "lambda" => query = query.with_lambda(num_field(&key, &value)?),
            "seed" => query = query.with_seed(uint_field(&key, &value)?),
            "size_l" => size_l = Some(uint_field(&key, &value)? as usize),
            "size_h" => size_h = Some(uint_field(&key, &value)? as usize),
            "budget_ms" => query = query.with_time_budget(millis_field(&key, &value)?),
            "budget_steps" => query = query.with_step_budget(uint_field(&key, &value)?),
            "priority" => {
                priority = str_field(&key, value)?
                    .parse()
                    .map_err(|e: CsagError| e.to_string())?
            }
            "deadline_ms" => deadline = Some(millis_field(&key, &value)?),
            "class" => class = Some(str_field(&key, value)?),
            "epoch" => pin_epoch = Some(uint_field(&key, &value)?),
            other => return Err(format!("unknown csag-wire key \"{other}\"")),
        }
    }
    let mut query = query.with_query(q.ok_or("missing required key \"q\"")?);
    match (size_l, size_h) {
        (Some(l), Some(h)) => {
            query = query.with_size_bound(l, h);
            if query.method == Method::Sea {
                query = query.with_method(Method::SeaSizeBounded);
            }
        }
        (None, None) => {}
        _ => return Err("\"size_l\" and \"size_h\" must be given together".to_string()),
    }
    let mut request = Request::new(query).with_priority(priority);
    if let Some(d) = deadline {
        request = request.with_deadline(d);
    }
    if let Some(c) = class {
        request = request.with_class(c);
    }
    if let Some(e) = pin_epoch {
        request = request.with_epoch(e);
    }
    Ok(WireRequest { id, request })
}

/// Serializes one answered request as a `csag-wire v1` response line.
/// The `"result"` object is produced by [`CommunityResult::to_json`] —
/// the exact serializer behind `csag query --json` — and errors by
/// [`error_to_json`].
///
/// [`CommunityResult::to_json`]: crate::engine::CommunityResult::to_json
/// [`error_to_json`]: crate::engine::error_to_json
pub fn response_to_json(id: &str, resp: &Response) -> String {
    let mut w = Writer::with_capacity(512);
    w.begin_object();
    w.key("id").raw(id);
    w.key("epoch").uint(resp.epoch);
    w.key("priority").string(resp.priority.name());
    w.key("class").string(resp.class.label());
    w.key("coalesced").boolean(resp.coalesced);
    w.key("degraded").boolean(resp.degraded);
    w.key("queue_ms").float(resp.queue_wait.as_secs_f64() * 1e3);
    w.key("deadline_slack_ms");
    match resp.deadline_slack_ms {
        Some(ms) => w.float(ms),
        None => w.null(),
    };
    match &resp.outcome {
        Ok(result) => result.write_json(w.key("result")),
        Err(err) => write_error_json(err, w.key("error")),
    }
    w.end_object();
    w.finish()
}

/// Serializes a request that never produced a [`Response`] (shed at
/// admission, or malformed) in the same envelope shape, so clients
/// parse exactly one schema.
pub fn rejection_to_json(id: &str, err: &CsagError) -> String {
    let mut w = Writer::with_capacity(128);
    w.begin_object();
    w.key("id").raw(id);
    write_error_json(err, w.key("error"));
    w.end_object();
    w.finish()
}

fn str_field(key: &str, v: Value) -> Result<String, String> {
    match v {
        Value::String(s) => Ok(s),
        other => Err(format!("\"{key}\" must be a string, got {other:?}")),
    }
}

fn num_field(key: &str, v: &Value) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("\"{key}\" must be a number, got {v:?}"))
}

/// A span of fractional milliseconds; negative, non-finite and values
/// beyond `Duration`'s range are rejected. A span too long for the clock
/// to represent as a deadline is accepted: such a deadline or budget never
/// expires.
fn millis_field(key: &str, v: &Value) -> Result<Duration, String> {
    Duration::try_from_secs_f64(num_field(key, v)? / 1e3)
        .map_err(|_| format!("\"{key}\" must be a non-negative number of milliseconds"))
}

/// An integer field, read from the integer literal itself so all 64
/// bits survive (`seed`, `epoch`, `budget_steps`). A literal spelled
/// with a fraction or exponent (`3.0`, `1e3`) still counts while `f64`
/// holds it exactly.
fn uint_field(key: &str, v: &Value) -> Result<u64, String> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match *v {
        Value::UInt(n) => Ok(n),
        Value::Float(x) if x >= 0.0 && x.fract() == 0.0 && x < EXACT => Ok(x as u64),
        Value::Float(x) => Err(format!("\"{key}\" must be a non-negative integer, got {x}")),
        ref other => Err(format!("\"{key}\" must be a number, got {other:?}")),
    }
}

/// [`uint_field`] bounded to node-id/k range — out-of-range values are
/// rejected loudly, never silently wrapped to a different node.
fn u32_field(key: &str, v: &Value) -> Result<u32, String> {
    let n = uint_field(key, v)?;
    u32::try_from(n).map_err(|_| format!("\"{key}\" must fit in 32 bits, got {n}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A deadline or budget the clock cannot represent (1e22 ms is a valid
    /// `Duration`, but no `Instant` lies that far ahead) never expires,
    /// and costs neither the submitting thread nor a worker a panic.
    #[test]
    fn a_deadline_too_far_to_represent_never_expires() {
        use crate::service::{Service, ServiceConfig};
        let (graph, q) = crate::datasets::paper_examples::figure1_imdb();
        let service = Service::over_graph(graph, ServiceConfig::default().with_workers(1));
        for fields in [
            r#""method":"sea","deadline_ms":1e22"#,
            r#""method":"exact","budget_ms":1e22"#,
        ] {
            let line = format!(r#"{{"q":{q},"k":3,{fields}}}"#);
            let wire = parse_wire_request(&line, 0).unwrap();
            let response = service.run(wire.request).expect("admitted");
            assert!(!response.degraded, "{line}");
            let result = response.outcome.unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(result.community.contains(&q));
        }
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let line = r#"{"id": "req-1", "method": "sea", "q": 5, "k": 3, "model": "k-truss",
            "gamma": 0.25, "error": 0.1, "confidence": 0.9, "lambda": 0.5, "seed": 7,
            "priority": "interactive", "deadline_ms": 50, "class": "tenant-a", "epoch": 2}"#;
        let wire = parse_wire_request(line, 0).unwrap();
        assert_eq!(wire.id, "\"req-1\"");
        let q = &wire.request.query;
        assert_eq!(q.method, Method::Sea);
        assert_eq!((q.q, q.k), (5, 3));
        assert_eq!(q.model, CommunityModel::KTruss);
        assert_eq!((q.gamma, q.error_bound), (0.25, 0.1));
        assert_eq!((q.confidence, q.lambda, q.seed), (0.9, 0.5, 7));
        assert_eq!(wire.request.priority, Priority::Interactive);
        assert_eq!(wire.request.deadline, Some(Duration::from_millis(50)));
        assert_eq!(wire.request.class.label(), "tenant-a");
        assert_eq!(wire.request.pin_epoch, Some(2));
    }

    #[test]
    fn defaults_and_numeric_ids() {
        let wire = parse_wire_request(r#"{"q": 9}"#, 4).unwrap();
        assert_eq!(wire.id, "4", "line number is the default id");
        assert_eq!(wire.request.query.method, Method::Exact);
        assert_eq!(wire.request.priority, Priority::Standard);
        let wire = parse_wire_request(r#"{"q": 9, "id": 12}"#, 0).unwrap();
        assert_eq!(wire.id, "12", "numeric ids echo as numbers");
    }

    /// The determinism handle and the correlation handle both need all
    /// 64 bits: 2^53 + 1 is the first integer an `f64` reader corrupts.
    #[test]
    fn wire_integers_are_exact_over_the_whole_u64_range() {
        use crate::engine::{answer_identity, Engine};
        const SEED: u64 = 9007199254740993;
        let wire = parse_wire_request(
            &format!(r#"{{"id":{SEED},"method":"sea","q":0,"k":3,"seed":{SEED}}}"#),
            0,
        )
        .unwrap();
        assert_eq!(wire.id, SEED.to_string(), "id echoes its token");
        assert_eq!(wire.request.query.seed, SEED);

        let (graph, q) = csag_datasets::paper_examples::figure1_imdb();
        let engine = Engine::new(graph);
        let line = format!(r#"{{"method":"sea","q":{q},"k":3,"seed":{SEED}}}"#);
        let over_the_wire = parse_wire_request(&line, 0).unwrap().request.query;
        let direct = CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_seed(SEED);
        let identity = |query: &CommunityQuery| {
            let doc = json::parse(&engine.run(query).unwrap().to_json()).unwrap();
            answer_identity(&doc, false).unwrap().render()
        };
        assert_eq!(identity(&over_the_wire), identity(&direct));
        assert!(identity(&direct).contains(&format!("\"seed\":{SEED}")));

        let line = format!(
            r#"{{"id":{0},"q":1,"seed":{0},"epoch":{0},"budget_steps":{0},"size_l":3,"size_h":{0}}}"#,
            u64::MAX
        );
        let wire = parse_wire_request(&line, 0).unwrap();
        assert_eq!(wire.id, u64::MAX.to_string());
        assert_eq!(wire.request.query.seed, u64::MAX);
        assert_eq!(wire.request.pin_epoch, Some(u64::MAX));
        assert_eq!(wire.request.query.step_budget, Some(u64::MAX));
        assert_eq!(wire.request.query.size_bound, Some((3, u64::MAX as usize)));
        // Other id spellings echo as before.
        for (token, echo) in [
            ("-5", "-5"),
            ("12.0", "12"),
            ("1.5", "1.5"),
            (r#""a\"b""#, r#""a\"b""#),
        ] {
            let wire = parse_wire_request(&format!(r#"{{"q":1,"id":{token}}}"#), 0).unwrap();
            assert_eq!(wire.id, echo);
        }
        // Integral literals spelled as floats still count while exact.
        let wire = parse_wire_request(r#"{"q": 2.0, "seed": 1e3}"#, 0).unwrap();
        assert_eq!((wire.request.query.q, wire.request.query.seed), (2, 1000));
    }

    #[test]
    fn escaped_surrogate_pairs_are_valid_strings() {
        let wire = parse_wire_request(
            r#"{"q": 1, "class": "\uD83D\uDE00", "id": "\ud83d\ude00"}"#,
            0,
        )
        .unwrap();
        assert_eq!(wire.request.class.label(), "😀");
        assert_eq!(wire.id, "\"😀\"");
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_lines_never_panic_the_wire_parser(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            picks in proptest::collection::vec(0usize..16, 0..24),
        ) {
            const PIECES: [&str; 16] = [
                "{", "}", "\"q\"", "\"id\"", "\"seed\"", "\"epoch\"", ":", ",", "1", "-", ".5",
                "18446744073709551616", "\"sea\"", "\"method\"", "[", "\\ud83d",
            ];
            let _ = parse_wire_request(&String::from_utf8_lossy(&bytes), 0);
            let line: String = picks.iter().map(|&i| PIECES[i]).collect();
            let _ = parse_wire_request(&line, 0);
        }
    }

    #[test]
    fn size_window_switches_sea_to_size_bounded() {
        let wire = parse_wire_request(r#"{"q": 1, "method": "sea", "size_l": 3, "size_h": 9}"#, 0)
            .unwrap();
        assert_eq!(wire.request.query.method, Method::SeaSizeBounded);
        assert_eq!(wire.request.query.size_bound, Some((3, 9)));
        assert!(parse_wire_request(r#"{"q": 1, "size_l": 3}"#, 0).is_err());
    }

    #[test]
    fn vocabulary_is_strict() {
        for (line, needle) in [
            (r#"{"k": 3}"#, "missing required key"),
            (r#"{"q": 1, "mehtod": "sea"}"#, "unknown csag-wire key"),
            (r#"{"q": 1, "budget_states": 5}"#, "unknown csag-wire key"),
            (r#"{"q": 1, "method": "bogus"}"#, "unknown method"),
            (r#"{"q": 1.5}"#, "non-negative integer"),
            (r#"{"q": -1}"#, "non-negative integer"),
            (r#"{"q": 4294967301}"#, "32 bits"),
            (r#"{"q": 1, "k": 4294967298}"#, "32 bits"),
            (r#"{"q": 1"#, "unterminated"),
            (r#"{"q": [1]}"#, "scalars"),
            (r#"{"q": 1} trailing"#, "trailing"),
            (r#"{"q": 1, "deadline_ms": -5}"#, "non-negative"),
            (r#"{"q": 1, "budget_ms": 1e300}"#, "non-negative"),
            (r#"{"q": 1, "epoch": -2}"#, "non-negative integer"),
            (r#"{"q": 1, "epoch": 1.5}"#, "non-negative integer"),
            (r#"{"q": 1, "priority": "urgent"}"#, "unknown priority"),
            (r#"{"q": 5, "q": 6}"#, "duplicate key \"q\""),
            (r#"{"q": 1.}"#, "bad number"),
            (r#"{"q": 03}"#, "bad number"),
            (
                r#"{"q": 1, "seed": 18446744073709551616}"#,
                "non-negative integer",
            ),
            (
                r#"{"q": 1, "seed": 9007199254740992.0}"#,
                "non-negative integer",
            ),
            (r#"{"q": {"node": 1}}"#, "scalars"),
            (r#"[{"q": 1}]"#, "one JSON object"),
        ] {
            let err = parse_wire_request(line, 0).unwrap_err();
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn response_envelope_embeds_the_one_result_serializer() {
        use crate::engine::result::{CommunityResult, PhaseTimings, Provenance};
        let result = Arc::new(CommunityResult {
            q: 2,
            epoch: 3,
            community: vec![1, 2],
            delta: 0.5,
            certificate: None,
            timings: PhaseTimings::default(),
            provenance: Provenance::new(Method::Exact, 3, CommunityModel::KCore, 0),
        });
        let resp = Response {
            request_id: 9,
            epoch: 3,
            priority: Priority::Interactive,
            class: crate::service::QueryClass::new("t"),
            coalesced: true,
            degraded: false,
            queue_wait: Duration::from_millis(2),
            deadline_slack_ms: Some(-1.5),
            sequence: 1,
            outcome: Ok(Arc::clone(&result)),
        };
        let j = response_to_json("\"req\"", &resp);
        assert!(j.starts_with("{\"id\":\"req\",\"epoch\":3,"));
        assert!(j.contains("\"coalesced\":true"));
        assert!(j.contains("\"deadline_slack_ms\":-1.5"));
        assert!(
            j.contains(&format!("\"result\":{}", result.to_json())),
            "envelope must embed to_json verbatim: {j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let resp = Response {
            outcome: Err(CsagError::Overloaded {
                retry_after: Duration::from_millis(3),
            }),
            ..resp
        };
        let j = response_to_json("1", &resp);
        assert!(j.contains("\"error\":{\"error\":\"overloaded\""));
        let j = rejection_to_json("1", &CsagError::invalid("nope"));
        assert!(j.starts_with("{\"id\":1,\"error\":"));
    }
}
