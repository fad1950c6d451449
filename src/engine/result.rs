//! The unified result type: community, accuracy certificate, per-phase
//! timings, and provenance — one shape for every [`Method`], built in one
//! place (`assemble`, from what the method's search found).

use super::query::{CommunityQuery, Method};
use crate::json::{Value, Writer};
use csag_baselines::BaselineResult;
use csag_core::exact::ExactResult;
use csag_core::sea::SeaResult;
use csag_decomp::CommunityModel;
use csag_graph::NodeId;
use std::time::Duration;

/// What the run can promise about the community's attribute distance δ.
///
/// * Exact runs prove `δ ≤ (1 + error_bound)·δ_opt` (Theorem 6) at
///   `confidence = 1`; `certified` means the search completed (bound 0).
/// * SEA runs set `certified` when Theorem 11's stopping rule fired on
///   some candidate of the run. `error_bound` and `moe` come from the
///   interval of the returned community, the lowest-δ candidate SEA
///   estimated, which need not be the one the rule fired on: a certified
///   answer can report `error_bound > e`, and an uncertified one still
///   reports how close its interval came.
/// * Heuristic baselines promise nothing; their results carry no
///   certificate at all ([`CommunityResult::certificate`] is `None`).
#[derive(Clone, Copy, Debug)]
pub struct AccuracyCertificate {
    /// Whether Theorem 11's stopping rule fired (SEA) or the search
    /// completed (Exact).
    pub certified: bool,
    /// The relative error bound on the returned δ
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

/// What a method's search found, before [`assemble`] puts it in the
/// answer shape.
pub(crate) enum Found {
    Exact(ExactResult),
    Sea(SeaResult),
    /// A baseline's community, with its δ scored on the read's distance
    /// table.
    Baseline(BaselineResult, f64),
}

/// The one place a [`CommunityResult`] is built: `found`'s community and
/// δ, its certificate (Exact's proven bracket, SEA's Theorem-11 bound, none
/// for a baseline), the SEA sub-phase timings and the provenance. The
/// caller stamps the epoch and the outer timings.
pub(crate) fn assemble(query: &CommunityQuery, found: Found) -> CommunityResult {
    let mut provenance = Provenance::new(query.method, query.k, query.model, query.seed);
    let mut timings = PhaseTimings::default();
    let (community, delta, certificate) = match found {
        Found::Exact(r) => {
            provenance.states_explored = r.states_explored;
            // The proven bracket [lower_bound, δ] on the optimum, as a
            // relative error: 0 when complete, ∞ when the bound is 0.
            let error_bound = if r.delta <= r.lower_bound {
                0.0
            } else {
                r.delta / r.lower_bound - 1.0
            };
            let certificate = AccuracyCertificate {
                certified: r.complete,
                error_bound,
                confidence: 1.0,
                moe: 0.0,
            };
            (r.community, r.delta, Some(certificate))
        }
        Found::Sea(r) => {
            provenance.rounds = r.rounds.len();
            provenance.candidates_examined = r.rounds.iter().map(|x| x.candidates_examined).sum();
            provenance.population_size = r.population_size;
            provenance.sample_size = r.sample_size;
            timings.sampling = r.timing.sampling;
            timings.estimation = r.timing.estimation;
            timings.incremental = r.timing.incremental;
            // The bound actually achieved, by inverting Theorem 11:
            // ε ≤ δ⋆·e/(1+e)  ⇔  e ≥ ε/(δ⋆ − ε). A zero-width interval is a
            // perfect estimate (bound 0) even at δ⋆ = 0.
            let error_bound = if r.ci.moe == 0.0 {
                0.0
            } else if r.ci.moe < r.delta_star {
                r.ci.moe / (r.delta_star - r.ci.moe)
            } else {
                f64::INFINITY
            };
            let certificate = AccuracyCertificate {
                certified: r.certified,
                error_bound,
                confidence: query.confidence,
                moe: r.ci.moe,
            };
            (r.community, r.delta_star, Some(certificate))
        }
        Found::Baseline(r, delta) => {
            provenance.objective = Some(r.objective);
            (r.community, delta, None)
        }
    };
    CommunityResult {
        q: query.q,
        epoch: 0,
        community,
        delta,
        certificate,
        timings,
        provenance,
    }
}

impl CommunityResult {
    /// Serializes the result as a single JSON object (through
    /// [`crate::json::Writer`] — the workspace has no serde). Non-finite
    /// numbers become `null`; durations are reported in fractional
    /// milliseconds.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(256 + 12 * self.community.len());
        self.write_json(&mut w);
        w.finish()
    }

    /// [`CommunityResult::to_json`] as one value of a larger document.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.key("q").uint(self.q.into());
        w.key("epoch").uint(self.epoch);
        w.key("community").begin_array();
        for &v in &self.community {
            w.uint(v.into());
        }
        w.end_array();
        w.key("size").uint(self.community.len() as u64);
        w.key("delta").float(self.delta);
        w.key("certificate");
        match &self.certificate {
            None => w.null(),
            Some(c) => {
                w.begin_object();
                w.key("certified").boolean(c.certified);
                w.key("error_bound").float(c.error_bound);
                w.key("confidence").float(c.confidence);
                w.key("moe").float(c.moe).end_object()
            }
        };
        w.key("timings_ms").begin_object();
        for (name, d) in [
            ("prepare", self.timings.prepare),
            ("search", self.timings.search),
            ("sampling", self.timings.sampling),
            ("estimation", self.timings.estimation),
            ("incremental", self.timings.incremental),
            ("total", self.timings.total),
        ] {
            w.key(name).float(d.as_secs_f64() * 1000.0);
        }
        w.end_object();
        let p = &self.provenance;
        w.key("provenance").begin_object();
        w.key("method").string(p.method.name());
        w.key("k").uint(p.k.into());
        w.key("model").display(p.model);
        w.key("rounds").uint(p.rounds as u64);
        w.key("states_explored").uint(p.states_explored);
        w.key("candidates_examined")
            .uint(p.candidates_examined as u64);
        w.key("population_size").uint(p.population_size as u64);
        w.key("sample_size").uint(p.sample_size as u64);
        w.key("seed").uint(p.seed);
        w.key("objective");
        match p.objective {
            Some(x) => w.float(x),
            None => w.null(),
        };
        w.end_object().end_object();
    }
}

/// Serializes an engine error as a JSON object (for `csag --json` runs
/// that fail).
pub fn error_to_json(err: &super::error::CsagError) -> String {
    let mut w = Writer::new();
    write_error_json(err, &mut w);
    w.finish()
}

/// [`error_to_json`] as one value of a larger document.
pub(crate) fn write_error_json(err: &super::error::CsagError, w: &mut Writer) {
    use super::error::CsagError;
    let kind = match err {
        CsagError::InvalidParams { .. } => "invalid_params",
        CsagError::QueryNodeNotFound { .. } => "query_node_not_found",
        CsagError::NoCommunity { .. } => "no_community",
        CsagError::BudgetExhausted => "budget_exhausted",
        CsagError::Overloaded { .. } => "overloaded",
        CsagError::EpochUnavailable { .. } => "epoch_unavailable",
        CsagError::DurabilityUnavailable { .. } => "durability_unavailable",
    };
    w.begin_object();
    w.key("error").string(kind);
    w.key("message").display(err);
    match err {
        CsagError::Overloaded { retry_after } => {
            w.key("retry_after_ms")
                .float(retry_after.as_secs_f64() * 1000.0);
        }
        CsagError::EpochUnavailable {
            requested,
            published,
        } => {
            w.key("requested").uint(*requested);
            w.key("published").uint(*published);
            // Mirror the `overloaded` envelope so pinned-read clients can
            // back off instead of hot-retrying. The hint scales with the
            // epoch gap (each missing epoch is one write the cluster still
            // has to publish), derived purely from the two epochs so serve
            // and `csag query --json` render the identical rejection.
            let gap = requested.saturating_sub(*published).clamp(1, 50);
            w.key("retry_after_ms").float((5 * gap) as f64);
        }
        _ => {}
    }
    w.end_object();
}

/// What "the same answer" means, everywhere an answer is compared: the
/// payload of `doc` — the `"result"` (or `"error"`) object of a
/// csag-wire response envelope, or `doc` itself when it is what `csag
/// query --json` printed — minus `timings_ms`, the one wall-clock
/// section, and minus `epoch` when `ignore_epoch` (a store that replayed
/// the same updates offline answers at epoch 0). Everything else —
/// community, δ, certificate, provenance, an error's kind and message —
/// must match to the byte. `None` when `doc` carries no object payload.
pub fn answer_identity(doc: &Value, ignore_epoch: bool) -> Option<Value> {
    let payload = ["result", "error"]
        .into_iter()
        .filter_map(|member| doc.get(member))
        .find(|v| matches!(v, Value::Object(_)))
        .unwrap_or(doc);
    let Value::Object(members) = payload else {
        return None;
    };
    let noise = |key: &str| key == "timings_ms" || (ignore_epoch && key == "epoch");
    Some(Value::Object(
        members
            .iter()
            .filter(|(key, _)| !noise(key))
            .cloned()
            .collect(),
    ))
}

/// [`answer_identity`] of a typed outcome, rendered for a byte
/// comparison — the same rule for answers that never crossed the wire
/// (a replica against its primary, a churned store against a fresh
/// engine), applied to the JSON the wire would send for either a result
/// or an error.
pub fn outcome_identity<R: std::borrow::Borrow<CommunityResult>>(
    outcome: &Result<R, super::error::CsagError>,
    ignore_epoch: bool,
) -> String {
    let json = match outcome {
        Ok(result) => result.borrow().to_json(),
        Err(e) => error_to_json(e),
    };
    let doc = crate::json::parse(&json).expect("the writer renders JSON");
    answer_identity(&doc, ignore_epoch)
        .expect("an object payload")
        .render()
}

#[cfg(test)]
mod tests {
    use super::super::error::CsagError;
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

    fn json_string(raw: &str) -> String {
        let mut w = Writer::new();
        w.string(raw);
        w.finish()
    }

    fn json_f64(x: f64) -> String {
        let mut w = Writer::new();
        w.float(x);
        w.finish()
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn answer_identity_cuts_timings_and_optionally_epoch() {
        use crate::json::parse;
        let mut later = sample();
        later.timings.total = Duration::from_millis(7);
        let bare = parse(&sample().to_json()).unwrap();
        let enveloped = parse(&format!(
            "{{\"id\":1,\"epoch\":9,\"queue_ms\":0.5,\"result\":{}}}",
            later.to_json()
        ))
        .unwrap();
        let id = answer_identity(&bare, false).unwrap();
        assert_eq!(Some(&id), answer_identity(&enveloped, false).as_ref());
        assert!(id.get("timings_ms").is_none() && id.get("epoch").is_some());
        assert!(id.get("provenance").is_some() && id.get("community").is_some());

        later.epoch = 30;
        let moved = parse(&later.to_json()).unwrap();
        assert_ne!(Some(&id), answer_identity(&moved, false).as_ref());
        assert_eq!(
            answer_identity(&bare, true),
            answer_identity(&moved, true),
            "the answer's epoch is the one optional part"
        );

        // Errors compare whole, bare (`csag query --json`) or enveloped.
        let err = error_to_json(&CsagError::invalid("k too small"));
        let bare = parse(&err).unwrap();
        let enveloped = parse(&format!("{{\"id\":\"x\",\"error\":{err}}}")).unwrap();
        assert_eq!(answer_identity(&bare, false), Some(bare.clone()));
        assert_eq!(answer_identity(&enveloped, false), Some(bare));
        assert_eq!(answer_identity(&parse("[1]").unwrap(), false), None);

        // The typed form is the same identity, certificate included.
        let mut other = sample();
        other.timings.total = Duration::from_millis(9);
        other.epoch = 7;
        let (a, b) = (Ok(sample()), Ok(std::sync::Arc::new(other.clone())));
        assert_ne!(outcome_identity(&a, false), outcome_identity(&b, false));
        assert_eq!(outcome_identity(&a, true), outcome_identity(&b, true));
        other.certificate = None;
        assert_ne!(
            outcome_identity(&a, true),
            outcome_identity(&Ok(other), true)
        );
        // Errors follow the one rule too: their wire JSON, whole.
        let refused: Result<CommunityResult, _> = Err(CsagError::invalid("k = 0"));
        assert_eq!(
            outcome_identity(&refused, true),
            error_to_json(&CsagError::invalid("k = 0"))
        );
    }

    #[test]
    fn error_json_includes_partial() {
        // A budget refusal is its kind and message alone.
        let j = error_to_json(&CsagError::BudgetExhausted);
        assert_eq!(
            j,
            "{\"error\":\"budget_exhausted\",\"message\":\"budget exhausted before any community was found\"}"
        );
        assert!(!j.contains("\"partial\""));
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
