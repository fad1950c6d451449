//! Figure 7: size-bounded community search (§VI-B).
//!
//! Response time and relative error of SEA under size bounds
//! \[30,35\] … \[45,50\], on dblp-like (projected) and github-like — the
//! paper's DBLP and GitHub panels. The reference δ for the relative error
//! is a full-population greedy descent restricted to the same size window
//! (no sampling, λ=1, exhaustive candidate walk), which upper-bounds the
//! quality any size-bounded run can reach in practice.

use crate::config::{Scale, QUERY_SEED, SEA_SEED};
use crate::runner::{mean, parallel_map};
use crate::table::{fmt_ms, fmt_pct, Table};
use csag::engine::{Engine, Method};
use csag_core::distance::{DistanceParams, QueryDistances};
use csag_core::CommunityModel;
use csag_datasets::{random_queries, standins};
use csag_decomp::{EpochIndex, Maintainer};
use csag_eval::relative_error;
use csag_graph::{AttributedGraph, NodeId};

const BOUNDS: [(usize, usize); 4] = [(30, 35), (35, 40), (40, 45), (45, 50)];

/// Reference: full-information greedy descent restricted to `[l, h]`.
fn greedy_size_bounded_delta(
    g: &AttributedGraph,
    index: &EpochIndex,
    q: NodeId,
    k: u32,
    l: usize,
    h: usize,
    dp: DistanceParams,
) -> Option<f64> {
    let mut maintainer = Maintainer::new(g, index, CommunityModel::KCore, k);
    let dist = QueryDistances::new(q, g.n(), dp);
    let mut cur = maintainer.maximal(q)?;
    let mut best: Option<f64> = None;
    loop {
        if cur.len() < l {
            break;
        }
        if cur.len() <= h {
            let d = dist.delta(g, &cur);
            if best.is_none_or(|b| d < b) {
                best = Some(d);
            }
        }
        let Some((_, worst)) = cur
            .iter()
            .filter(|&&v| v != q)
            .map(|&v| (dist.get(g, v), v))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)))
        else {
            break;
        };
        let shrunk: Vec<NodeId> = cur.iter().copied().filter(|&v| v != worst).collect();
        match maintainer.maximal_within(q, &shrunk) {
            Some(next) => cur = next,
            None => break,
        }
    }
    best
}

/// Runs the size-bounded study on one graph.
fn run_graph(name: &str, g: &AttributedGraph, k: u32, scale: &Scale, table: &mut Table) {
    let dp = DistanceParams::default();
    let n_queries = if scale.quick { 3 } else { 10 };
    // Queries must sit in large-enough communities: require a k-core.
    let queries = random_queries(g, n_queries, k, QUERY_SEED);
    let engine = Engine::new(g.clone());
    for (l, h) in BOUNDS {
        let template = crate::config::sea_query(k)
            .with_method(Method::SeaSizeBounded)
            .with_size_bound(l, h);
        let outcomes: Vec<Option<(f64, f64)>> = parallel_map(&queries, scale.threads, |q| {
            let query = template
                .clone()
                .with_query(q)
                .with_seed(SEA_SEED ^ (q as u64) << 8);
            let res = engine.run(&query).ok()?;
            let ms = res.timings.total.as_secs_f64() * 1000.0;
            if res.community.len() < l || res.community.len() > h {
                // Size window unreachable for this query (community too
                // small); skip it like the paper's query filter does.
                return None;
            }
            let reference = greedy_size_bounded_delta(g, engine.index(), q, k, l, h, dp)?;
            Some((ms, relative_error(res.delta, reference)))
        });
        let done: Vec<&(f64, f64)> = outcomes.iter().flatten().collect();
        if done.is_empty() {
            table.add_row(vec![
                name.into(),
                format!("[{l},{h}]"),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
            continue;
        }
        let ms = mean(done.iter().map(|r| r.0));
        let rel: Vec<f64> = done.iter().map(|r| r.1).filter(|r| r.is_finite()).collect();
        table.add_row(vec![
            name.into(),
            format!("[{l},{h}]"),
            fmt_ms(ms),
            fmt_pct(mean(rel.into_iter())),
            done.len().to_string(),
        ]);
    }
}

/// Runs the Figure-7 study.
pub fn run(scale: &Scale) -> String {
    let mut table = Table::new(
        "Figure 7: size-bounded CS (SEA) — response time and relative error vs greedy full-information reference",
        &["dataset", "size bound", "time", "rel. error", "queries used"],
    );
    let dblp = standins::dblp_like();
    let projection = dblp.graph.project(&dblp.meta_path);
    run_graph(
        "dblp-like (projected)",
        &projection.graph,
        dblp.default_k,
        scale,
        &mut table,
    );
    if !scale.quick {
        let gh = standins::github_like();
        run_graph("github-like", &gh.graph, gh.default_k, scale, &mut table);
    }
    table.to_markdown()
}
