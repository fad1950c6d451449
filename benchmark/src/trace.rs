//! Spans of the traced run: recorded from the benchmark's own code
//! around each public call, kept in memory, written out at exit.
//!
//! A span is `(name, start, end, parent, request)`. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover. Layers a socket hides from the client are
//! reached by peeling (the same request is sent through the transport,
//! then `Service::run`, then the routed call, then the engine, and
//! timed each time), so a request's tree is assembled from separate
//! measurements: a child can come out longer than the parent it is
//! laid inside. The arithmetic clips children to their parent, and
//! [`Trace::coverage`] reports how far the pieces are from adding up.

use crate::json::Json;
use std::collections::BTreeMap;

/// Index of a span within its [`Trace`].
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request (or one batch) share this number.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals over a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<SpanId>,
        request: u32,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Lays `(name, duration)` children one after another inside
    /// `parent`, starting at the parent's start. Returns their ids.
    pub fn push_sequence(
        &mut self,
        parent: SpanId,
        children: &[(&'static str, u64)],
    ) -> Vec<SpanId> {
        let request = self.spans[parent as usize].request;
        let mut at = self.spans[parent as usize].start_ns;
        children
            .iter()
            .map(|&(name, duration)| {
                let id = self.push(name, (at, at + duration), Some(parent), request);
                at += duration;
                id
            })
            .collect()
    }

    /// Self time of every span, by span id: duration minus the union of
    /// the children's intervals, each clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if start < end {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Span count, summed duration and summed self time per layer name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = totals.entry(span.name).or_default();
            t.spans += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        totals
    }

    /// `Σ self time of every span in a tree rooted at a `root` span ÷
    /// Σ duration of the `root` spans`: 1 when every tree's pieces fit
    /// inside its measured root, above 1 by however much separately
    /// measured children overflow it. 0 without root spans.
    pub fn coverage(&self, root: &str) -> f64 {
        // Root of each span, by walking parents (parents precede their
        // children, so one forward pass suffices).
        let mut root_of: Vec<SpanId> = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            root_of.push(span.parent.map_or(i as SpanId, |p| root_of[p as usize]));
        }
        let self_times = self.self_times();
        let (mut pieces, mut whole) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            let r = &self.spans[root_of[i] as usize];
            if r.name == root {
                pieces += self_times[i];
                if span.parent.is_none() {
                    whole += span.duration_ns();
                }
            }
        }
        if whole == 0 {
            0.0
        } else {
            pieces as f64 / whole as f64
        }
    }

    /// The `csag-benchmark-trace-v1` document: `header` members, the
    /// per-layer totals with their sample counts, and the spans of the
    /// first `max_requests` distinct request numbers (the rest are in
    /// the totals; a light pass alone would be tens of megabytes).
    pub fn to_json(&self, header: Vec<(String, Json)>, max_requests: usize) -> Json {
        let mut kept: Vec<u32> = Vec::new();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, span)| {
                if kept.contains(&span.request) {
                    true
                } else if kept.len() < max_requests {
                    kept.push(span.request);
                    true
                } else {
                    false
                }
            })
            .map(|(id, span)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(span.name.into())),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request", Json::Num(f64::from(span.request))),
                ])
            })
            .collect();
        let layers = self
            .layer_totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("spans", Json::Num(t.spans as f64)),
                        ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                        ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let mut doc: Vec<(String, Json)> =
            vec![("schema".into(), Json::Str("csag-benchmark-trace-v1".into()))];
        doc.extend(header);
        doc.push(("span_count".into(), Json::Num(self.spans.len() as f64)));
        doc.push(("layers".into(), Json::obj(layers)));
        doc.push(("spans".into(), Json::Arr(spans)));
        Json::obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let mut t = Trace::default();
        let root = t.push("client.rtt", (100, 200), None, 0);
        let transport = t.push("transport", (100, 200), Some(root), 0);
        // Two overlapping children and one that overflows the parent.
        t.push("wire.parse", (100, 120), Some(transport), 0);
        t.push("service", (110, 170), Some(transport), 0);
        t.push("wire.serialize", (190, 230), Some(transport), 0);
        let selfs = t.self_times();
        assert_eq!(
            selfs[root as usize], 0,
            "transport covers the whole round trip"
        );
        // 100 − (union [100,170] = 70) − (clipped [190,200] = 10) = 20.
        assert_eq!(selfs[transport as usize], 20);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 60);
        assert_eq!(selfs[4], 40, "a span's own self time is not clipped");
        let totals = t.layer_totals();
        assert_eq!(
            totals["transport"],
            LayerTotal {
                spans: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        // Pieces: 0 + 20 + 20 + 60 + 40 = 140 over a 100 ns root.
        assert!((t.coverage("client.rtt") - 1.4).abs() < 1e-12);
        assert_eq!(t.coverage("store.apply"), 0.0);
    }

    #[test]
    fn a_tree_whose_pieces_fit_covers_exactly_once() {
        let mut t = Trace::default();
        let root = t.push("store.apply", (0, 1_000), None, 7);
        let ids = t.push_sequence(
            root,
            &[
                ("durability.append", 100),
                ("graph.mutable_apply", 50),
                ("graph.snapshot", 400),
            ],
        );
        assert_eq!(ids.len(), 3);
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (100, 150));
        assert_eq!(t.spans[3].request, 7);
        assert_eq!(t.self_times()[root as usize], 450);
        assert!((t.coverage("store.apply") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trace_file_keeps_totals_for_all_and_spans_for_the_first_requests() {
        let mut t = Trace::default();
        for request in 0..5 {
            let root = t.push(
                "client.rtt",
                (request * 10, request * 10 + 8),
                None,
                request as u32,
            );
            t.push(
                "transport",
                (request * 10, request * 10 + 8),
                Some(root),
                request as u32,
            );
        }
        let doc = t.to_json(vec![("workload".into(), Json::Str("x".into()))], 2);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("csag-benchmark-trace-v1")
        );
        assert_eq!(parsed.get("span_count").and_then(Json::as_f64), Some(10.0));
        assert_eq!(parsed.get("spans").and_then(Json::as_arr).unwrap().len(), 4);
        let layers = parsed.get("layers").unwrap();
        assert_eq!(
            layers
                .get("client.rtt")
                .and_then(|l| l.get("spans"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
    }
}
