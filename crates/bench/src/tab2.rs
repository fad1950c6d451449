//! Table II: each method's community scored under *every* attribute
//! cohesiveness metric (facebook-like), with competition ranks and the
//! total rank.

use crate::config::{Scale, QUERY_SEED};
use crate::runner::{header, parallel_map, Lineup, Target};
use crate::table::Table;
use csag::engine::Engine;
use csag_core::distance::DistanceParams;
use csag_core::CommunityModel;
use csag_datasets::{random_queries, standins};
use csag_eval::{atc_score, max_pairwise_distance, ranks, shared_attributes, Direction};
use csag_graph::{AttributedGraph, NodeId};

/// Per-method mean scores under the four metrics.
#[derive(Clone, Copy, Default)]
struct Scores {
    minmax: f64,
    coverage: f64,
    shared: f64,
    delta: f64,
    count: usize,
}

/// (minmax, coverage, shared, delta) for one community.
type MetricTuple = (f64, f64, f64, f64);

fn score_community(
    g: &AttributedGraph,
    q: NodeId,
    comm: &[NodeId],
    delta: f64,
    dp: DistanceParams,
) -> MetricTuple {
    let (minmax, _) = max_pairwise_distance(g, comm, dp);
    let coverage = atc_score(g, q, comm);
    let shared = shared_attributes(g, q, comm) as f64;
    (minmax, coverage, shared, delta)
}

/// Runs the Table-II study.
pub fn run(scale: &Scale) -> String {
    let d = standins::facebook_like();
    let dp = DistanceParams::default();
    let model = CommunityModel::KCore;
    let k = d.default_k;
    let queries = random_queries(&d.graph, scale.queries_for(d.graph.n()), k, QUERY_SEED);
    let lineup = Lineup::new(scale, k, model, Target::Homogeneous { nodes: d.graph.n() });
    let engine = Engine::new(d.graph.clone());

    let per_query = parallel_map(&queries, scale.threads, |q| {
        Lineup::ORDER.map(|m| {
            let r = lineup.run(m, q, |x| engine.run(x))?;
            Some(score_community(&d.graph, q, &r.community, r.delta, dp))
        })
    });

    // Aggregate means per method.
    let mut scores = [Scores::default(); Lineup::ORDER.len()];
    for row in &per_query {
        for (m, cell) in row.iter().enumerate() {
            if let Some((minmax, coverage, shared, delta)) = cell {
                scores[m].minmax += minmax;
                scores[m].coverage += coverage;
                scores[m].shared += shared;
                scores[m].delta += delta;
                scores[m].count += 1;
            }
        }
    }
    for s in &mut scores {
        if s.count > 0 {
            let n = s.count as f64;
            s.minmax /= n;
            s.coverage /= n;
            s.shared /= n;
            s.delta /= n;
        } else {
            // Methods that never ran (e.g. E-VAC refusing large roots)
            // must rank last, not first; NaN sorts last in `ranks`.
            s.minmax = f64::NAN;
            s.coverage = f64::NAN;
            s.shared = f64::NAN;
            s.delta = f64::NAN;
        }
    }

    let minmax_ranks = ranks(&scores.map(|s| s.minmax), Direction::LowerBetter);
    let coverage_ranks = ranks(&scores.map(|s| s.coverage), Direction::HigherBetter);
    let shared_ranks = ranks(&scores.map(|s| s.shared), Direction::HigherBetter);
    let delta_ranks = ranks(&scores.map(|s| s.delta), Direction::LowerBetter);

    let mut table = Table::new(
        &format!(
            "Table II: attribute cohesiveness under each method's own metric \
             (facebook-like, {} queries, k={k}; rank in parentheses)",
            queries.len()
        ),
        &[
            "method",
            "min-max (VAC)",
            "coverage (ATC)",
            "#shared (ACQ)",
            "δ (ours)",
            "total rank",
        ],
    );
    for (m, method) in Lineup::ORDER.into_iter().enumerate() {
        let name = header(method, model);
        if scores[m].count == 0 {
            table.add_row(vec![
                name,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let total = minmax_ranks[m] + coverage_ranks[m] + shared_ranks[m] + delta_ranks[m];
        table.add_row(vec![
            name,
            format!("{:.4} ({})", scores[m].minmax, minmax_ranks[m]),
            format!("{:.2} ({})", scores[m].coverage, coverage_ranks[m]),
            format!("{:.3} ({})", scores[m].shared, shared_ranks[m]),
            format!("{:.4} ({})", scores[m].delta, delta_ranks[m]),
            total.to_string(),
        ]);
    }
    table.to_markdown()
}
