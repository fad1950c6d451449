//! The experiments' method lineup and how one of its columns runs, built
//! entirely on the unified [`csag::engine`] entry point.
//!
//! Every comparison table of §VII (Figure 5, Tables II, III and V,
//! Figure 6) maps one [`Lineup`] over its queries: each method is a
//! [`CommunityQuery`] template built once from [`Scale`], and runs through
//! the same engine (sharing its cached decomposition and per-query
//! distance tables). A run yields the community, the community's q-centric
//! attribute distance δ (the paper's Figure-5(a) metric, which the engine
//! evaluates identically for everyone), and the phase timings.
//! Budget-stopped Exact and E-VAC runs answer with their best community so
//! far — the paper's "best found within the limit" rows.

use crate::config::{sea_query, Scale, EXACT_STATES, SEA_SEED};
use csag::engine::{
    parallel_map as engine_parallel_map, CommunityQuery, CommunityResult, CsagError, Method,
    PhaseTimings,
};
use csag_core::CommunityModel;
use csag_graph::NodeId;

/// One method's outcome on one query.
#[derive(Clone, Debug)]
pub struct MethodRun {
    /// Community (sorted, contains q).
    pub community: Vec<NodeId>,
    /// q-centric attribute distance δ of the community.
    pub delta: f64,
    /// The engine's phase timings.
    pub timings: PhaseTimings,
}

impl MethodRun {
    /// Search-phase milliseconds. The engine's one-time shared preparation
    /// (core decomposition, distance-cache checkout) is not billed to
    /// whichever queries happen to run first.
    pub fn millis(&self) -> f64 {
        self.timings.search.as_secs_f64() * 1000.0
    }
}

/// The graph a lineup runs on.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// A homogeneous graph of `nodes` nodes. E-VAC sits out where
    /// [`Scale::evac_allowed`] is false.
    Homogeneous {
        /// Node count.
        nodes: usize,
    },
    /// A heterogeneous graph run through a `HeteroEngine` (Table V): SEA
    /// samples it natively ([`Method::SeaHetero`]) and every other method
    /// runs on the meta-path projection. ACQ sits out on `numeric_only`
    /// graphs, where equality matching cannot share any attribute, and
    /// E-VAC sits out everywhere.
    Hetero {
        /// The graph carries no textual attributes.
        numeric_only: bool,
    },
}

/// The methods §VII compares, as query templates at one `k` and model.
#[derive(Clone, Debug)]
pub struct Lineup {
    /// Every method of [`Lineup::ORDER`] with its template, `None` where
    /// it sits the target out.
    templates: Vec<(Method, Option<CommunityQuery>)>,
}

impl Lineup {
    /// The column order of Tables II and III and Figure 6. Figure 5 puts
    /// Exact first as its reference; Table V picks its own subset.
    pub const ORDER: [Method; 6] = [
        Method::Sea,
        Method::Atc,
        Method::Acq,
        Method::Vac,
        Method::Exact,
        Method::EVac,
    ];

    /// The lineup at `k` under `model` on `target`, with `scale`'s
    /// budgets: Exact stops at [`EXACT_STATES`] states or
    /// [`Scale::exact_budget`], whichever comes first; VAC peels at most
    /// 1 500 times; E-VAC gets [`Scale::evac_budget`] states, the same
    /// clock, and refuses roots above 320 nodes. k-truss SEA samples at
    /// λ = 0.5, because triangles survive node sampling with probability
    /// ≈ λ³.
    pub fn new(scale: &Scale, k: u32, model: CommunityModel, target: Target) -> Self {
        let base = |m| CommunityQuery::new(m, 0).with_k(k).with_model(model);
        let truss = model == CommunityModel::KTruss;
        let (sea_method, numeric_only, evac) = match target {
            Target::Homogeneous { nodes } => (Method::Sea, false, scale.evac_allowed(nodes)),
            Target::Hetero { numeric_only } => (Method::SeaHetero, numeric_only, false),
        };
        let sea = sea_query(k).with_method(sea_method).with_model(model);
        let sea = if truss {
            sea.with_lambda(0.5).with_seed(SEA_SEED ^ 0x7055)
        } else {
            sea.with_seed(SEA_SEED)
        };
        let templates = Self::ORDER
            .into_iter()
            .map(|m| {
                let template = match m {
                    Method::Exact => Some(
                        base(m)
                            .with_state_budget(EXACT_STATES)
                            .with_time_budget(scale.exact_budget()),
                    ),
                    Method::Sea => Some(sea.clone()),
                    Method::Acq => (!numeric_only).then(|| base(m)),
                    Method::Vac => Some(base(m).with_vac_iteration_cap(Some(1_500))),
                    Method::EVac => evac.then(|| {
                        base(m)
                            .with_state_budget(scale.evac_budget())
                            .with_time_budget(scale.exact_budget())
                            .with_evac_max_root(Some(320))
                    }),
                    // LocATC runs on the defaults.
                    _ => Some(base(m)),
                };
                (m, template)
            })
            .collect();
        Lineup { templates }
    }

    /// The template `method` runs, `None` where it sits this target out.
    fn template(&self, method: Method) -> Option<&CommunityQuery> {
        self.templates
            .iter()
            .find(|(m, _)| *m == method)
            .and_then(|(_, t)| t.as_ref())
    }

    /// Runs `method` at `q` through `run` (`Engine::run`, or
    /// `HeteroEngine::run` on original ids). `None` for a method that
    /// sits this target out and for a query it has no community for or
    /// refuses. SEA draws a per-query seed from the template's: the
    /// homogeneous pipeline mixes in `q` by the golden-ratio multiplier,
    /// the heterogeneous one XORs it in (Table V's seeds).
    pub fn run(
        &self,
        method: Method,
        q: NodeId,
        run: impl FnOnce(&CommunityQuery) -> Result<CommunityResult, CsagError>,
    ) -> Option<MethodRun> {
        let template = self.template(method)?;
        let seed = match template.method {
            Method::Sea => template.seed ^ (q as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            Method::SeaHetero => template.seed ^ q as u64,
            _ => template.seed,
        };
        let res = run(&template.clone().with_query(q).with_seed(seed)).ok()?;
        Some(MethodRun {
            community: res.community,
            delta: res.delta,
            timings: res.timings,
        })
    }
}

/// `method`'s column header under `model`: `SEA (ours)`, `LocATC-Core`,
/// `SEA-Truss`, `VAC-Truss`, …
pub fn header(method: Method, model: CommunityModel) -> String {
    let truss = model == CommunityModel::KTruss;
    let name = match method {
        Method::Exact => return "Exact (ours)".into(),
        Method::Sea | Method::SeaHetero if !truss => return "SEA (ours)".into(),
        Method::Sea | Method::SeaHetero => "SEA",
        Method::Atc => "LocATC",
        Method::Acq => "ACQ",
        Method::Vac => "VAC",
        _ => "E-VAC",
    };
    format!("{name}-{}", if truss { "Truss" } else { "Core" })
}

/// Evaluates `f` over all queries in parallel, preserving query order in
/// the output. A thin node-id adapter over the engine's generalized
/// [`csag::engine::parallel_map`] executor — the same code path
/// [`csag::engine::Engine::run_batch`] uses.
pub fn parallel_map<T, F>(queries: &[NodeId], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(NodeId) -> T + Sync,
{
    engine_parallel_map(queries, threads, |&q| f(q))
}

/// Mean of an iterator of f64 values; 0 when empty.
pub fn mean<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag::engine::Engine;
    use csag_datasets::generator::{generate, SyntheticConfig};
    use csag_datasets::random_queries;

    fn small_engine() -> Engine {
        let g = generate(
            &SyntheticConfig {
                nodes: 200,
                communities: 5,
                ..Default::default()
            },
            1,
        )
        .0;
        Engine::new(g)
    }

    #[test]
    fn all_methods_return_valid_communities() {
        let engine = small_engine();
        let q = random_queries(engine.graph(), 1, 3, 42)[0];
        let target = Target::Homogeneous {
            nodes: engine.graph().n(),
        };
        let lineup = Lineup::new(&Scale::quick(), 3, CommunityModel::KCore, target);
        let runs: Vec<(Method, MethodRun)> = Lineup::ORDER
            .into_iter()
            .map(|m| {
                let run = lineup.run(m, q, |x| engine.run(x));
                (m, run.unwrap_or_else(|| panic!("{m} found nothing")))
            })
            .collect();
        for (m, run) in &runs {
            assert!(run.community.binary_search(&q).is_ok(), "{m} lost q");
            assert!(
                run.delta >= 0.0 && run.delta <= 1.0,
                "{m} delta {}",
                run.delta
            );
            assert!(run.millis() >= 0.0);
        }
        // Exact is never worse than anyone on δ (its budget-stopped
        // incumbent included).
        let exact_delta = runs
            .iter()
            .find(|(m, _)| *m == Method::Exact)
            .unwrap()
            .1
            .delta;
        for (m, run) in &runs {
            assert!(
                exact_delta <= run.delta + 1e-9,
                "{m} beat Exact: {} < {exact_delta}",
                run.delta
            );
        }
        // The whole comparison shared one engine: one decomposition, one
        // distance table for q (admitted by the second method's read).
        assert_eq!(engine.decomp_computations(), 1);
        assert_eq!(engine.cached_query_nodes(), 1);
        assert_eq!(
            engine.distance_cache_hits(),
            runs.len() - 2,
            "every method after the second read the resident table"
        );
    }

    #[test]
    fn exact_column_stops_on_its_state_budget() {
        let engine = small_engine();
        let target = Target::Homogeneous {
            nodes: engine.graph().n(),
        };
        let lineup = Lineup::new(&Scale::quick(), 3, CommunityModel::KCore, target);
        let q = random_queries(engine.graph(), 1, 3, 42)[0];
        let query = lineup
            .template(Method::Exact)
            .unwrap()
            .clone()
            .with_query(q);
        // The budget, not the clock, ends the search: a second run
        // reproduces the first answer.
        let (a, b) = (engine.run(&query).unwrap(), engine.run(&query).unwrap());
        assert_eq!(a.community, b.community);
        assert_eq!(a.delta.to_bits(), b.delta.to_bits());
        for res in [&a, &b] {
            assert_eq!(res.provenance.states_explored, EXACT_STATES);
            assert!(
                !res.certificate.unwrap().certified,
                "a stopped search is uncertified"
            );
        }
        // The lineup's Exact column reports that same answer.
        let run = lineup.run(Method::Exact, q, |x| engine.run(x)).unwrap();
        assert_eq!(
            (run.community, run.delta.to_bits()),
            (a.community, a.delta.to_bits())
        );
    }

    #[test]
    fn acq_skipped_on_numeric_only() {
        let engine = small_engine();
        let q = random_queries(engine.graph(), 1, 3, 42)[0];
        let target = Target::Hetero { numeric_only: true };
        let lineup = Lineup::new(&Scale::quick(), 3, CommunityModel::KCore, target);
        assert!(lineup.run(Method::Acq, q, |x| engine.run(x)).is_none());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let queries: Vec<u32> = (0..37).collect();
        let out = parallel_map(&queries, 4, |q| q * 2);
        assert_eq!(out, (0..37).map(|q| q * 2).collect::<Vec<_>>());
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
    }
}
