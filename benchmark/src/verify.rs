//! The verifier behind `correct`: what a response line must look like,
//! hashed per pass; what an answered community must satisfy on the
//! graph it was answered from; byte-comparison of a sample against a
//! direct engine run on a twin; and, for the durable backend, recovery
//! of the log to the last acknowledged epoch.
//!
//! The structural checks are written here from the definitions (min
//! degree, edge support, connectivity) and do not call the system's own
//! peeling code, so a bug there cannot vouch for itself.

use crate::inputs::{Inputs, ReadOp, Step};
use crate::json::Json;
use crate::stack::ReadLog;
use csag::decomp::CommunityModel;
use csag::engine::{error_to_json, CommunityQuery, GraphStore, Method};
use csag::graph::{AttributedGraph, NodeId};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// FNV-1a, 64 bit: the per-pass payload hash.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds `line` to `hash` without what legitimately differs between
/// two passes of identical work: the wall-clock members `timings_ms`,
/// `queue_ms` and `deadline_slack_ms` are dropped, and every `epoch` is
/// rewritten relative to `base_epoch` (each pass starts at a later
/// epoch but does the same thing to it; a twin counts from 0).
pub fn feed_canonical(line: &[u8], base_epoch: u64, hash: &mut Fnv) {
    let skip_value = |from: usize| {
        // A number or `null`: ends at the next `,` (swallowed) or `}`.
        let len = line[from..]
            .iter()
            .take_while(|&&b| b != b',' && b != b'}')
            .count();
        let end = from + len;
        if line.get(end) == Some(&b',') {
            end + 1
        } else {
            end
        }
    };
    let mut i = 0;
    while i < line.len() {
        if line[i] == b'"' {
            let rest = &line[i..];
            if rest.starts_with(b"\"epoch\":") {
                let from = i + 8;
                let len = line[from..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                hash.feed(b"\"epoch\":");
                let epoch = std::str::from_utf8(&line[from..from + len])
                    .ok()
                    .and_then(|d| d.parse::<u64>().ok());
                if let Some(epoch) = epoch {
                    hash.feed(epoch.wrapping_sub(base_epoch).to_string().as_bytes());
                }
                i = from + len;
                continue;
            }
            if rest.starts_with(b"\"queue_ms\":") {
                i = skip_value(i + 11);
                continue;
            }
            if rest.starts_with(b"\"deadline_slack_ms\":") {
                i = skip_value(i + 20);
                continue;
            }
            if rest.starts_with(b"\"timings_ms\":{") {
                let close = line[i..]
                    .iter()
                    .position(|&b| b == b'}')
                    .map_or(line.len(), |p| i + p + 1);
                i = if line.get(close) == Some(&b',') {
                    close + 1
                } else {
                    close
                };
                continue;
            }
        }
        hash.feed(&line[i..=i]);
        i += 1;
    }
}

/// What kind of answer a response line carries.
#[derive(Debug, PartialEq, Eq)]
pub enum Answer<'a> {
    Result,
    /// The typed error's wire kind (`no_community`, `overloaded`, …).
    Error(&'a str),
    Malformed,
}

pub fn classify(line: &[u8]) -> Answer<'_> {
    const ERR: &[u8] = b"\"error\":{\"error\":\"";
    if let Some(at) = find(line, ERR) {
        let kind = &line[at + ERR.len()..];
        let len = kind.iter().take_while(|&&b| b != b'"').count();
        return std::str::from_utf8(&kind[..len]).map_or(Answer::Malformed, Answer::Error);
    }
    if find(line, b"\"result\":{").is_some() && line.ends_with(b"}}\n") {
        Answer::Result
    } else {
        Answer::Malformed
    }
}

/// Offset of the first `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The number after `key` in `line` (`key` includes the colon).
pub fn number_after(line: &[u8], key: &[u8]) -> Option<f64> {
    let at = find(line, key)? + key.len();
    let len = line[at..]
        .iter()
        .take_while(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        .count();
    std::str::from_utf8(&line[at..at + len]).ok()?.parse().ok()
}

/// `(δ, certified)` of an answered community: the `delta` member of the
/// result and whether its Theorem-11 certificate fired. `None` for a
/// line that carries no result.
pub fn quality_of(line: &[u8]) -> Option<(f64, bool)> {
    if classify(line) != Answer::Result {
        return None;
    }
    let delta = number_after(line, b"\"delta\":")?;
    Some((delta, find(line, b"\"certified\":true").is_some()))
}

/// Hash and failure count of one pass's responses. A read fails when
/// its line is missing or malformed, when it carries any typed error
/// but an expected `no_community`, or when it answers a community
/// where the reference has none.
pub fn check_pass(inputs: &Inputs, log: &ReadLog, base_epoch: u64) -> (u64, usize) {
    let mut hash = Fnv::new();
    let mut failed = log.malformed;
    for (i, read) in inputs.reads.iter().enumerate() {
        let line = log.response(i);
        feed_canonical(line, base_epoch, &mut hash);
        let ok = match classify(line) {
            Answer::Result => read.expect_result,
            Answer::Error("no_community") => !read.expect_result,
            Answer::Error(_) | Answer::Malformed => false,
        };
        failed += usize::from(!ok);
    }
    (hash.finish(), failed)
}

/// Checks that `community` is what `read` may be answered with on `g`:
/// sorted, duplicate-free, inside the graph, containing `q`, connected,
/// and meeting the model's cohesion at `k` — minimum degree `k` inside
/// the community for a k-core; for a k-truss, that peeling the induced
/// subgraph down to edges of support ≥ `k − 2` still connects every
/// member to `q`.
pub fn check_community(
    g: &AttributedGraph,
    read: &ReadOp,
    community: &[NodeId],
) -> Result<(), String> {
    if community.windows(2).any(|w| w[0] >= w[1]) {
        return Err("community is not strictly ascending".into());
    }
    if community.last().is_some_and(|&v| v as usize >= g.n()) {
        return Err("community leaves the graph".into());
    }
    if community.binary_search(&read.q).is_err() {
        return Err(format!("community does not contain q = {}", read.q));
    }
    let inside = |v: NodeId| community.binary_search(&v).is_ok();
    // Induced adjacency, as index lists into `community`.
    let index: HashMap<NodeId, usize> =
        community.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut adj: Vec<HashSet<usize>> = community
        .iter()
        .map(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|&&w| inside(w))
                .map(|w| index[w])
                .collect()
        })
        .collect();
    if read.truss {
        // Peel edges whose endpoints share fewer than k − 2 neighbours.
        let need = read.k.saturating_sub(2) as usize;
        loop {
            let weak: Vec<(usize, usize)> = (0..adj.len())
                .flat_map(|u| adj[u].iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
                .filter(|&(u, v)| adj[u].intersection(&adj[v]).count() < need)
                .collect();
            if weak.is_empty() {
                break;
            }
            for (u, v) in weak {
                adj[u].remove(&v);
                adj[v].remove(&u);
            }
        }
    } else if let Some(i) = (0..adj.len()).find(|&i| adj[i].len() < read.k as usize) {
        return Err(format!(
            "node {} has {} neighbours inside the community, fewer than k = {}",
            community[i],
            adj[i].len(),
            read.k
        ));
    }
    let mut seen = vec![false; community.len()];
    let mut stack = vec![index[&read.q]];
    seen[stack[0]] = true;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !std::mem::replace(&mut seen[v], true) {
                stack.push(v);
            }
        }
    }
    match seen.iter().position(|s| !s) {
        None => Ok(()),
        Some(i) => Err(format!(
            "node {} is not connected to q inside the community{}",
            community[i],
            if read.truss {
                " through edges of enough support"
            } else {
                ""
            }
        )),
    }
}

/// The query a read's request line describes.
pub fn query_of(read: &ReadOp) -> CommunityQuery {
    let mut query = CommunityQuery::new(Method::Sea, read.q).with_k(read.k);
    if read.k == crate::inputs::READ_K {
        query = query
            .with_error_bound(crate::inputs::READ_ERROR)
            .with_seed(u64::from(read.seed));
    }
    if read.truss {
        query = query.with_model(CommunityModel::KTruss);
    }
    query
}

/// The `"result":{…}` or `"error":{…}` member of a response line.
fn payload(line: &[u8]) -> Option<&[u8]> {
    let at = find(line, b"\"result\":{").or_else(|| find(line, b"\"error\":{"))?;
    let colon = at + line[at..].iter().position(|&b| b == b':')?;
    line.strip_suffix(b"}\n").map(|l| &l[colon + 1..])
}

/// How many reads the twin byte-comparison samples.
pub const TWIN_SAMPLE: usize = 32;

/// Walks the last pass's responses against a twin store that replays
/// the same batches: every answered community is checked on the twin's
/// graph at that point of the pass, every response's epoch against its
/// pin, and [`TWIN_SAMPLE`] evenly spaced reads are compared byte for
/// byte (minus timings and epoch) with a direct `Engine::run` on the
/// twin. Returns the problems found, at most a handful spelled out.
pub fn check_against_twin(
    graph: &AttributedGraph,
    inputs: &Inputs,
    log: &ReadLog,
    base_epoch: u64,
) -> Vec<String> {
    let twin = GraphStore::new(graph.clone());
    let stride = (inputs.reads.len() / TWIN_SAMPLE).max(1);
    let mut problems = Vec::new();
    for step in &inputs.steps {
        let (start, end) = match *step {
            Step::Apply { index } => {
                if let Err(e) = twin.apply(&inputs.batches[index]) {
                    problems.push(format!("twin rejected batch {index}: {e}"));
                }
                continue;
            }
            Step::Reads { start, end } => (start, end),
        };
        let snapshot = twin.snapshot();
        for i in start..end {
            let read = &inputs.reads[i];
            let line = log.response(i);
            let mut problem = None;
            if classify(line) == Answer::Result {
                problem = check_result_line(snapshot.graph(), read, line, base_epoch).err();
            }
            // One read per block of `stride`, at a rotating offset so
            // the sample meets every fourth-read model.
            if problem.is_none() && i % stride == (i / stride) % stride {
                let reference = match snapshot.engine().run(&query_of(read)) {
                    Ok(result) => result.to_json(),
                    Err(error) => error_to_json(&error),
                };
                let (mut served, mut direct) = (Fnv::new(), Fnv::new());
                feed_canonical(payload(line).unwrap_or(line), base_epoch, &mut served);
                feed_canonical(reference.as_bytes(), 0, &mut direct);
                if served.finish() != direct.finish() {
                    problem =
                        Some("served payload differs from a direct engine run on the twin".into());
                }
            }
            if let Some(problem) = problem {
                problems.push(format!("read {i} (q = {}): {problem}", read.q));
            }
        }
    }
    problems
}

fn check_result_line(
    g: &AttributedGraph,
    read: &ReadOp,
    line: &[u8],
    base_epoch: u64,
) -> Result<(), String> {
    let text = std::str::from_utf8(line).map_err(|_| "response is not utf-8".to_string())?;
    let response = Json::parse(text.trim_end())?;
    let result = response.get("result").ok_or("no result member")?;
    let epoch = response
        .get("epoch")
        .and_then(Json::as_f64)
        .ok_or("no epoch")? as u64;
    if result.get("epoch").and_then(Json::as_f64) != Some(epoch as f64) {
        return Err("envelope and result disagree on the epoch".into());
    }
    if epoch < base_epoch + read.applies_before {
        return Err(format!("answered from epoch {epoch}, below its pin"));
    }
    let community: Vec<NodeId> = result
        .get("community")
        .and_then(Json::as_arr)
        .ok_or("no community")?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|x| x as NodeId)
                .ok_or("community member is not a number")
        })
        .collect::<Result<_, _>>()?;
    check_community(g, read, &community)
}

/// The durable backend's closing check: a copy of the log recovers to
/// the last acknowledged epoch with a byte-identical graph.
pub fn check_recovery(wal_dir: &Path, scratch: &Path, live: &GraphStore) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(wal_dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), scratch.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    let (recovered, report) =
        GraphStore::recover(scratch).map_err(|e| format!("recovery failed: {e}"))?;
    let acknowledged = live.published_epoch();
    if report.epoch != acknowledged {
        return Err(format!(
            "recovered to epoch {}, acknowledged {acknowledged}",
            report.epoch
        ));
    }
    if graph_bytes(recovered.snapshot().graph()) != graph_bytes(live.snapshot().graph()) {
        return Err("recovered graph differs from the live one".into());
    }
    Ok(())
}

/// `csag-graph v1` text of `g`.
pub fn graph_bytes(g: &AttributedGraph) -> Vec<u8> {
    let mut out = Vec::new();
    csag::graph::io::write_graph(g, &mut out).expect("writing to memory cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag::graph::GraphBuilder;

    fn hash_of(line: &str, base: u64) -> u64 {
        let mut h = Fnv::new();
        feed_canonical(line.as_bytes(), base, &mut h);
        h.finish()
    }

    #[test]
    fn canonical_hash_ignores_wall_clock_members_and_rebases_epochs() {
        let a = r#"{"id":1,"epoch":7,"coalesced":false,"queue_ms":0.25,"deadline_slack_ms":null,"result":{"q":3,"epoch":7,"delta":0.5,"timings_ms":{"prepare":0.1,"total":9.0},"provenance":{"k":3}}}"#;
        let b = r#"{"id":1,"epoch":9,"coalesced":false,"queue_ms":3.5,"deadline_slack_ms":-1.5,"result":{"q":3,"epoch":9,"delta":0.5,"timings_ms":{"prepare":7.0,"total":1.0},"provenance":{"k":3}}}"#;
        assert_eq!(hash_of(a, 5), hash_of(b, 7));
        assert_ne!(
            hash_of(a, 5),
            hash_of(b, 5),
            "a later epoch is a different answer"
        );
        let other = b.replace("\"delta\":0.5", "\"delta\":0.25");
        assert_ne!(hash_of(a, 5), hash_of(&other, 7));
        let coalesced = b.replace("\"coalesced\":false", "\"coalesced\":true");
        assert_ne!(hash_of(a, 5), hash_of(&coalesced, 7));
    }

    #[test]
    fn quality_is_read_off_the_result_member() {
        let line = b"{\"id\":1,\"epoch\":0,\"result\":{\"q\":1,\"delta\":0.1875,\"certificate\":{\"certified\":true,\"moe\":0.01}}}\n";
        assert_eq!(quality_of(line), Some((0.1875, true)));
        let line =
            b"{\"id\":1,\"epoch\":0,\"result\":{\"q\":1,\"delta\":0.5,\"certificate\":null}}\n";
        assert_eq!(quality_of(line), Some((0.5, false)));
        let line = b"{\"id\":1,\"epoch\":0,\"error\":{\"error\":\"no_community\"}}\n";
        assert_eq!(quality_of(line), None);
    }

    #[test]
    fn classify_tells_results_errors_and_damage_apart() {
        assert_eq!(
            classify(b"{\"id\":1,\"epoch\":0,\"result\":{\"q\":1}}\n"),
            Answer::Result
        );
        assert_eq!(
            classify(b"{\"id\":1,\"epoch\":0,\"error\":{\"error\":\"no_community\",\"message\":\"x\"}}\n"),
            Answer::Error("no_community")
        );
        assert_eq!(
            classify(b"{\"id\":1,\"error\":{\"error\":\"overloaded\",\"retry_after_ms\":1.0}}\n"),
            Answer::Error("overloaded")
        );
        assert_eq!(
            classify(b"{\"id\":1,\"epoch\":0,\"result\":{\"q\":1}\n"),
            Answer::Malformed
        );
        assert_eq!(classify(b""), Answer::Malformed);
    }

    /// A 4-clique {0,1,2,3} with a pendant path 3–4–5.
    fn clique_and_tail() -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for i in 0..6 {
            b.add_node(&["t"], &[f64::from(i)]);
        }
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
        ] {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    fn read(q: NodeId, k: u32, truss: bool) -> ReadOp {
        ReadOp {
            q,
            k,
            truss,
            seed: 0,
            applies_before: 0,
            expect_result: true,
        }
    }

    #[test]
    fn community_checks_follow_the_definitions() {
        let g = clique_and_tail();
        assert!(check_community(&g, &read(0, 3, false), &[0, 1, 2, 3]).is_ok());
        assert!(check_community(&g, &read(0, 4, true), &[0, 1, 2, 3]).is_ok());
        for (community, needle) in [
            (vec![0, 1, 2, 3, 4], "fewer than k"),
            (vec![1, 2, 3], "does not contain q"),
            (vec![0, 2, 1, 3], "ascending"),
            (vec![0, 1, 1, 2, 3], "ascending"),
            (vec![0, 1, 2, 3, 9], "leaves the graph"),
        ] {
            let err = check_community(&g, &read(0, 3, false), &community).unwrap_err();
            assert!(err.contains(needle), "{community:?}: {err}");
        }
        // 0–1–2 and 4–5 both have min degree 1 but are not connected.
        let err = check_community(&g, &read(0, 1, false), &[0, 1, 2, 4, 5]).unwrap_err();
        assert!(err.contains("not connected"), "{err}");
        // The tail edge 3–4 closes no triangle: no 3-truss reaches node 4.
        let err = check_community(&g, &read(0, 3, true), &[0, 1, 2, 3, 4]).unwrap_err();
        assert!(err.contains("enough support"), "{err}");
    }

    #[test]
    fn payload_is_the_result_or_error_member() {
        let line = b"{\"id\":1,\"epoch\":0,\"result\":{\"q\":1,\"epoch\":0}}\n";
        assert_eq!(payload(line).unwrap(), b"{\"q\":1,\"epoch\":0}");
        let line = b"{\"id\":1,\"epoch\":0,\"error\":{\"error\":\"no_community\"}}\n";
        assert_eq!(payload(line).unwrap(), b"{\"error\":\"no_community\"}");
    }
}
