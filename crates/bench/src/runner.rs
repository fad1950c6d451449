//! Shared per-query method runners and parallel query evaluation, built
//! entirely on the unified [`csag::engine`] entry point.
//!
//! Every experiment compares methods on the same footing: each method
//! runs through the same [`Engine`] (sharing its cached decomposition and
//! per-query distance tables), returns its community, the community's
//! q-centric attribute distance δ (the paper's Figure-5(a) metric, which
//! the engine evaluates identically for everyone), and the wall-clock
//! time. Budget-stopped exact runs answer with their best community so
//! far, marked non-optimal — the paper's "best found within the limit"
//! rows.

use csag::engine::{
    parallel_map as engine_parallel_map, CommunityQuery, CommunityResult, Engine, Method,
};
use csag_core::distance::DistanceParams;
use csag_core::CommunityModel;
use csag_graph::NodeId;
use std::time::Duration;

/// One method's outcome on one query.
#[derive(Clone, Debug)]
pub struct MethodRun {
    /// Community (sorted, contains q).
    pub community: Vec<NodeId>,
    /// q-centric attribute distance δ of the community.
    pub delta: f64,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// True when the method proved optimality (a completed Exact run).
    pub optimal: bool,
}

/// Budgets that keep exponential methods bounded (the paper reports
/// `> 4h` / `-` in the same situations).
#[derive(Clone, Copy, Debug)]
pub struct Budgets {
    /// Time budget per exact query.
    pub exact_time: Duration,
    /// State budget for E-VAC.
    pub evac_states: u64,
    /// E-VAC refuses roots larger than this (returns `-`).
    pub evac_max_root: usize,
    /// Peeling-iteration cap for approximate VAC.
    pub vac_max_iters: usize,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            exact_time: Duration::from_secs(10),
            evac_states: 3_000,
            evac_max_root: 320,
            vac_max_iters: 1_500,
        }
    }
}

fn method_run(res: &CommunityResult, optimal: bool) -> MethodRun {
    MethodRun {
        community: res.community.clone(),
        delta: res.delta,
        // Search-phase time only: the engine's one-time shared
        // preparation (core decomposition, distance-cache checkout) must
        // not be billed to whichever queries happen to run first.
        millis: res.timings.search.as_secs_f64() * 1000.0,
        optimal,
    }
}

/// Runs one engine query the way the experiment tables consume outcomes:
/// `Some` for answers (a budget-stopped exact run's best so far
/// included, flagged non-optimal), `None` for "this method has no
/// community / refused" cells.
pub fn run_query(engine: &Engine, query: &CommunityQuery) -> Option<MethodRun> {
    let res = engine.run(query).ok()?;
    let optimal = query.method == Method::Exact && res.certificate.is_some_and(|c| c.certified);
    Some(method_run(&res, optimal))
}

/// Runs the exact algorithm (all prunings, warm start) under a time
/// budget.
pub fn run_exact(
    engine: &Engine,
    q: NodeId,
    k: u32,
    model: CommunityModel,
    dp: DistanceParams,
    budgets: &Budgets,
) -> Option<MethodRun> {
    let query = CommunityQuery::new(Method::Exact, q)
        .with_k(k)
        .with_model(model)
        .with_gamma(dp.gamma)
        .with_time_budget(budgets.exact_time);
    run_query(engine, &query)
}

/// Runs SEA from a configured query template (see
/// [`crate::config::sea_query`]) with a query-derived RNG seed; also
/// returns the full [`CommunityResult`] for timing breakdowns.
pub fn run_sea(
    engine: &Engine,
    q: NodeId,
    template: &CommunityQuery,
    dp: DistanceParams,
    seed: u64,
) -> Option<(MethodRun, CommunityResult)> {
    let query = template
        .clone()
        .with_query(q)
        .with_gamma(dp.gamma)
        .with_seed(seed ^ (q as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let res = engine.run(&query).ok()?;
    Some((method_run(&res, false), res))
}

/// Runs LocATC; the engine scores its community under δ.
pub fn run_loc_atc(
    engine: &Engine,
    q: NodeId,
    k: u32,
    model: CommunityModel,
    dp: DistanceParams,
) -> Option<MethodRun> {
    let query = CommunityQuery::new(Method::Atc, q)
        .with_k(k)
        .with_model(model)
        .with_gamma(dp.gamma);
    run_query(engine, &query)
}

/// Runs ACQ; the engine scores its community under δ. `None` additionally
/// when the graph has no textual attributes at all (the Table-V
/// knowledge-graph situation where equality matching cannot return a
/// shared community).
pub fn run_acq(
    engine: &Engine,
    q: NodeId,
    k: u32,
    model: CommunityModel,
    dp: DistanceParams,
    numeric_only: bool,
) -> Option<MethodRun> {
    if numeric_only {
        return None;
    }
    let query = CommunityQuery::new(Method::Acq, q)
        .with_k(k)
        .with_model(model)
        .with_gamma(dp.gamma);
    run_query(engine, &query)
}

/// Runs approximate VAC (iteration-capped); the engine scores its
/// community under δ.
pub fn run_vac(
    engine: &Engine,
    q: NodeId,
    k: u32,
    model: CommunityModel,
    dp: DistanceParams,
    budgets: &Budgets,
) -> Option<MethodRun> {
    let query = CommunityQuery::new(Method::Vac, q)
        .with_k(k)
        .with_model(model)
        .with_gamma(dp.gamma)
        .with_vac_iteration_cap(Some(budgets.vac_max_iters));
    run_query(engine, &query)
}

/// Runs exact VAC under state/time/root budgets; the engine scores its
/// community under δ.
pub fn run_e_vac(
    engine: &Engine,
    q: NodeId,
    k: u32,
    model: CommunityModel,
    dp: DistanceParams,
    budgets: &Budgets,
) -> Option<MethodRun> {
    let query = CommunityQuery::new(Method::EVac, q)
        .with_k(k)
        .with_model(model)
        .with_gamma(dp.gamma)
        .with_state_budget(budgets.evac_states)
        .with_time_budget(budgets.exact_time)
        .with_evac_max_root(Some(budgets.evac_max_root));
    run_query(engine, &query)
}

/// Evaluates `f` over all queries in parallel, preserving query order in
/// the output. A thin node-id adapter over the engine's generalized
/// [`csag::engine::parallel_map`] executor — the same code path
/// [`Engine::run_batch`] uses.
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
        let dp = DistanceParams::default();
        let budgets = Budgets {
            exact_time: Duration::from_secs(5),
            evac_states: 2_000,
            ..Default::default()
        };
        let model = CommunityModel::KCore;
        let sea_q = crate::config::sea_query(3).with_error_bound(0.1);

        let runs: Vec<(&str, MethodRun)> = vec![
            (
                "Exact",
                run_exact(&engine, q, 3, model, dp, &budgets).unwrap(),
            ),
            ("SEA", run_sea(&engine, q, &sea_q, dp, 7).unwrap().0),
            ("LocATC", run_loc_atc(&engine, q, 3, model, dp).unwrap()),
            ("ACQ", run_acq(&engine, q, 3, model, dp, false).unwrap()),
            ("VAC", run_vac(&engine, q, 3, model, dp, &budgets).unwrap()),
            (
                "E-VAC",
                run_e_vac(&engine, q, 3, model, dp, &budgets).unwrap(),
            ),
        ];
        for (name, run) in &runs {
            assert!(run.community.binary_search(&q).is_ok(), "{name} lost q");
            assert!(
                run.delta >= 0.0 && run.delta <= 1.0,
                "{name} delta {}",
                run.delta
            );
            assert!(run.millis >= 0.0);
        }
        // Exact is never worse than anyone on δ (its budget-stopped
        // incumbent included).
        let exact_delta = runs[0].1.delta;
        for (name, run) in &runs[1..] {
            assert!(
                exact_delta <= run.delta + 1e-9,
                "{name} beat Exact: {} < {exact_delta}",
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
    fn acq_skipped_on_numeric_only() {
        let engine = small_engine();
        let q = random_queries(engine.graph(), 1, 3, 42)[0];
        assert!(run_acq(
            &engine,
            q,
            3,
            CommunityModel::KCore,
            DistanceParams::default(),
            true
        )
        .is_none());
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
