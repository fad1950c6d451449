//! The unified result type: community, accuracy certificate, per-phase
//! timings, and provenance — one shape for every [`Method`].

use super::query::Method;
use csag_decomp::CommunityModel;
use csag_graph::NodeId;
use std::time::Duration;

/// What the run can promise about the community's attribute distance δ.
///
/// * Exact runs certify δ-optimality: `certified = true`, `error_bound =
///   0`, `confidence = 1`.
/// * SEA runs carry the Theorem-11 certificate when it fired, and the
///   error bound *actually achieved* either way (derived from the final
///   confidence interval, so a run that missed the requested bound still
///   reports how close it got).
/// * Heuristic baselines promise nothing; their results carry no
///   certificate at all ([`CommunityResult::certificate`] is `None`).
#[derive(Clone, Copy, Debug)]
pub struct AccuracyCertificate {
    /// Whether the requested accuracy was certified (Theorem 11 for SEA;
    /// always for a completed exact run).
    pub certified: bool,
    /// The relative error bound on δ actually achieved
    /// (`f64::INFINITY` when the interval was too wide to bound at all).
    pub error_bound: f64,
    /// The confidence level at which `error_bound` holds.
    pub confidence: f64,
    /// Half-width ε of the final confidence interval (0 for exact runs).
    pub moe: f64,
}

/// Wall-clock breakdown of one engine run.
///
/// `prepare` + `search` ≈ `total`; the three SEA sub-phases further break
/// down `search` (they stay zero for non-SEA methods).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Reusable-state phase: cached core decomposition + distance-cache
    /// checkout.
    pub prepare: Duration,
    /// The method's own search, end to end.
    pub search: Duration,
    /// SEA S1: neighborhood construction + sampling + peeling.
    pub sampling: Duration,
    /// SEA S2: BLB estimation + candidate search.
    pub estimation: Duration,
    /// SEA S3: error-based incremental sampling.
    pub incremental: Duration,
    /// Whole engine call, validation included.
    pub total: Duration,
}

/// How the community was produced: method, effort counters, and the
/// sampling state — the paper's per-run bookkeeping (Tables IV/VI),
/// normalized across methods. Counters that do not apply to a method stay
/// at their zero/`None` defaults.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// The method that produced the community.
    pub method: Method,
    /// Structural parameter k of the run.
    pub k: u32,
    /// Community model of the run.
    pub model: CommunityModel,
    /// SEA sampling/estimation rounds executed.
    pub rounds: usize,
    /// Search-tree states visited (exact enumeration).
    pub states_explored: u64,
    /// Candidate communities estimated (SEA).
    pub candidates_examined: usize,
    /// Size of the sampling population |V_Gq| (SEA).
    pub population_size: usize,
    /// Final sample size |S| (SEA).
    pub sample_size: usize,
    /// RNG seed the run used (sampling methods).
    pub seed: u64,
    /// The method's *own* objective value, for baselines whose objective
    /// is not δ (ACQ: #shared attributes; ATC: coverage; VAC: min-max).
    pub objective: Option<f64>,
}

impl Provenance {
    /// A zeroed provenance for `method` (counters filled in by the run).
    pub(crate) fn new(method: Method, k: u32, model: CommunityModel, seed: u64) -> Self {
        Provenance {
            method,
            k,
            model,
            rounds: 0,
            states_explored: 0,
            candidates_examined: 0,
            population_size: 0,
            sample_size: 0,
            seed,
            objective: None,
        }
    }
}

/// The unified answer to a [`super::CommunityQuery`].
#[derive(Clone, Debug)]
pub struct CommunityResult {
    /// The query node the community was built around.
    pub q: NodeId,
    /// The [`super::store::GraphStore`] epoch the answering engine
    /// snapshots (0 for standalone engines) — which graph version this
    /// answer is about.
    pub epoch: u64,
    /// The community (sorted node ids, contains `q`).
    pub community: Vec<NodeId>,
    /// Its q-centric attribute distance δ — evaluated with the same
    /// metric for every method, so results are directly comparable.
    pub delta: f64,
    /// Accuracy certificate; `None` for heuristic baselines.
    pub certificate: Option<AccuracyCertificate>,
    /// Per-phase wall-clock breakdown.
    pub timings: PhaseTimings,
    /// Method, effort counters, seed, and native objective.
    pub provenance: Provenance,
}

impl CommunityResult {
    /// Serializes the result as a single JSON object (hand-rolled — the
    /// workspace has no serde). Non-finite numbers become `null`;
    /// durations are reported in fractional milliseconds.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 12 * self.community.len());
        s.push('{');
        push_kv(&mut s, "q", &self.q.to_string());
        s.push(',');
        push_kv(&mut s, "epoch", &self.epoch.to_string());
        s.push(',');
        push_key(&mut s, "community");
        s.push('[');
        for (i, v) in self.community.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push(']');
        s.push(',');
        push_kv(&mut s, "size", &self.community.len().to_string());
        s.push(',');
        push_kv(&mut s, "delta", &json_f64(self.delta));
        s.push(',');
        push_key(&mut s, "certificate");
        match &self.certificate {
            None => s.push_str("null"),
            Some(c) => {
                s.push('{');
                push_kv(
                    &mut s,
                    "certified",
                    if c.certified { "true" } else { "false" },
                );
                s.push(',');
                push_kv(&mut s, "error_bound", &json_f64(c.error_bound));
                s.push(',');
                push_kv(&mut s, "confidence", &json_f64(c.confidence));
                s.push(',');
                push_kv(&mut s, "moe", &json_f64(c.moe));
                s.push('}');
            }
        }
        s.push(',');
        push_key(&mut s, "timings_ms");
        s.push('{');
        for (i, (name, d)) in [
            ("prepare", self.timings.prepare),
            ("search", self.timings.search),
            ("sampling", self.timings.sampling),
            ("estimation", self.timings.estimation),
            ("incremental", self.timings.incremental),
            ("total", self.timings.total),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            push_kv(&mut s, name, &json_f64(d.as_secs_f64() * 1000.0));
        }
        s.push('}');
        s.push(',');
        push_key(&mut s, "provenance");
        s.push('{');
        push_kv(
            &mut s,
            "method",
            &json_string(self.provenance.method.name()),
        );
        s.push(',');
        push_kv(&mut s, "k", &self.provenance.k.to_string());
        s.push(',');
        push_kv(
            &mut s,
            "model",
            &json_string(&self.provenance.model.to_string()),
        );
        s.push(',');
        push_kv(&mut s, "rounds", &self.provenance.rounds.to_string());
        s.push(',');
        push_kv(
            &mut s,
            "states_explored",
            &self.provenance.states_explored.to_string(),
        );
        s.push(',');
        push_kv(
            &mut s,
            "candidates_examined",
            &self.provenance.candidates_examined.to_string(),
        );
        s.push(',');
        push_kv(
            &mut s,
            "population_size",
            &self.provenance.population_size.to_string(),
        );
        s.push(',');
        push_kv(
            &mut s,
            "sample_size",
            &self.provenance.sample_size.to_string(),
        );
        s.push(',');
        push_kv(&mut s, "seed", &self.provenance.seed.to_string());
        s.push(',');
        push_kv(
            &mut s,
            "objective",
            &self
                .provenance
                .objective
                .map(json_f64)
                .unwrap_or_else(|| "null".into()),
        );
        s.push('}');
        s.push('}');
        s
    }
}

/// Serializes an engine error as a JSON object (for `csag --json` runs
/// that fail); a [`super::error::PartialSearch`] best-so-far is included
/// when the budget ran out.
pub fn error_to_json(err: &super::error::CsagError) -> String {
    use super::error::CsagError;
    let mut s = String::from("{");
    let kind = match err {
        CsagError::InvalidParams { .. } => "invalid_params",
        CsagError::QueryNodeNotFound { .. } => "query_node_not_found",
        CsagError::NoCommunity { .. } => "no_community",
        CsagError::BudgetExhausted { .. } => "budget_exhausted",
        CsagError::Overloaded { .. } => "overloaded",
        CsagError::EpochUnavailable { .. } => "epoch_unavailable",
        CsagError::DurabilityUnavailable { .. } => "durability_unavailable",
    };
    push_kv(&mut s, "error", &json_string(kind));
    s.push(',');
    push_kv(&mut s, "message", &json_string(&err.to_string()));
    if let CsagError::Overloaded { retry_after } = err {
        s.push(',');
        push_kv(
            &mut s,
            "retry_after_ms",
            &json_f64(retry_after.as_secs_f64() * 1000.0),
        );
    }
    if let CsagError::EpochUnavailable {
        requested,
        published,
    } = err
    {
        s.push(',');
        push_kv(&mut s, "requested", &requested.to_string());
        s.push(',');
        push_kv(&mut s, "published", &published.to_string());
        // Mirror the `overloaded` envelope so pinned-read clients can
        // back off instead of hot-retrying. The hint scales with the
        // epoch gap (each missing epoch is one write the cluster still
        // has to publish), derived purely from the two epochs so serve
        // and `csag query --json` render the identical rejection.
        let gap = requested.saturating_sub(*published).clamp(1, 50);
        s.push(',');
        push_kv(&mut s, "retry_after_ms", &json_f64((5 * gap) as f64));
    }
    if let CsagError::BudgetExhausted { partial: Some(p) } = err {
        s.push(',');
        push_key(&mut s, "partial");
        s.push('{');
        push_key(&mut s, "community");
        s.push('[');
        for (i, v) in p.community.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push(']');
        s.push(',');
        push_kv(&mut s, "delta", &json_f64(p.delta));
        s.push(',');
        push_kv(&mut s, "states_explored", &p.states_explored.to_string());
        s.push(',');
        push_kv(
            &mut s,
            "elapsed_ms",
            &json_f64(p.elapsed.as_secs_f64() * 1000.0),
        );
        s.push('}');
    }
    s.push('}');
    s
}

pub(crate) fn push_key(s: &mut String, key: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
}

pub(crate) fn push_kv(s: &mut String, key: &str, value: &str) {
    push_key(s, key);
    s.push_str(value);
}

/// A JSON object from already-rendered values, keys in the given order
/// — the one writer behind the metrics/report `to_json`s (the per-query
/// result writer above places its commas by hand to stay
/// allocation-lean).
pub(crate) fn json_object(fields: &[(&str, String)]) -> String {
    let mut s = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_kv(&mut s, key, value);
    }
    s.push('}');
    s
}

/// A JSON array from already-rendered items.
pub(crate) fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// A JSON number literal, or `null` for non-finite values.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints a round-trippable float (always with a decimal
        // point or exponent), which is valid JSON.
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal with minimal escaping (quotes, backslashes,
/// control characters).
pub(crate) fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommunityResult {
        CommunityResult {
            q: 3,
            epoch: 2,
            community: vec![1, 3, 5],
            delta: 0.25,
            certificate: Some(AccuracyCertificate {
                certified: true,
                error_bound: 0.02,
                confidence: 0.95,
                moe: 0.001,
            }),
            timings: PhaseTimings::default(),
            provenance: Provenance::new(Method::Sea, 4, CommunityModel::KCore, 42),
        }
    }

    #[test]
    fn json_has_all_sections_and_balances() {
        let j = sample().to_json();
        for key in [
            "\"q\":3",
            "\"epoch\":2",
            "\"community\":[1,3,5]",
            "\"size\":3",
            "\"delta\":0.25",
            "\"certified\":true",
            "\"method\":\"sea\"",
            "\"timings_ms\"",
            "\"seed\":42",
            "\"objective\":null",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_null_for_non_finite() {
        let mut r = sample();
        r.delta = f64::NAN;
        r.certificate = None;
        let j = r.to_json();
        assert!(j.contains("\"delta\":null"));
        assert!(j.contains("\"certificate\":null"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn error_json_includes_partial() {
        use super::super::error::{CsagError, PartialSearch};
        let err = CsagError::BudgetExhausted {
            partial: Some(PartialSearch {
                community: vec![0, 2],
                delta: 0.5,
                states_explored: 9,
                elapsed: Duration::from_millis(3),
            }),
        };
        let j = error_to_json(&err);
        assert!(j.contains("\"error\":\"budget_exhausted\""));
        assert!(j.contains("\"community\":[0,2]"));
        assert!(j.contains("\"states_explored\":9"));
        let j = error_to_json(&CsagError::invalid("k too small"));
        assert!(j.contains("\"error\":\"invalid_params\""));
        assert!(j.contains("k too small"));
        let j = error_to_json(&CsagError::Overloaded {
            retry_after: Duration::from_millis(40),
        });
        assert!(j.contains("\"error\":\"overloaded\""));
        assert!(j.contains("\"retry_after_ms\":40.0"));
        // The pinned-read rejection carries the same back-off key,
        // derived from the epoch gap alone (5 ms per missing epoch,
        // clamped to [5, 250]).
        let j = error_to_json(&CsagError::EpochUnavailable {
            requested: 9,
            published: 6,
        });
        assert!(j.contains("\"error\":\"epoch_unavailable\""));
        assert!(j.contains("\"requested\":9"));
        assert!(j.contains("\"published\":6"));
        assert!(j.contains("\"retry_after_ms\":15.0"), "{j}");
        let j = error_to_json(&CsagError::EpochUnavailable {
            requested: 1000,
            published: 0,
        });
        assert!(j.contains("\"retry_after_ms\":250.0"), "{j}");
    }
}
