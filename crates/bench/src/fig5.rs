//! Figure 5: effectiveness and efficiency on homogeneous graphs.
//!
//! (a) attribute distance δ per method, (b) relative error of δ w.r.t. the
//! exact ground truth, (c) response time, (d) SEA's per-step time
//! breakdown (S1 sampling / S2 estimation / S3 incremental sampling).

use crate::config::{Scale, QUERY_SEED};
use crate::runner::{header, mean, parallel_map, Lineup, MethodRun, Target};
use crate::table::{fmt_ms, fmt_pct, header_with, Table};
use csag::engine::{Engine, Method, PhaseTimings};
use csag_core::CommunityModel;
use csag_datasets::standins;
use csag_datasets::{random_queries, Dataset};
use csag_eval::relative_error;

fn datasets(scale: &Scale) -> Vec<Dataset> {
    if scale.quick {
        vec![standins::facebook_like()]
    } else {
        standins::all_homogeneous()
    }
}

/// The figure's columns: Exact, the reference of (b), then the lineup's
/// other methods in order. SEA is column 1.
fn columns() -> impl Iterator<Item = Method> {
    std::iter::once(Method::Exact).chain(Lineup::ORDER.into_iter().filter(|&m| m != Method::Exact))
}

/// Runs the Figure-5 suite and renders tables (a)–(d).
pub fn run(scale: &Scale) -> String {
    let model = CommunityModel::KCore;
    let names: Vec<String> = columns()
        .map(|m| match m {
            Method::Exact => "Exact".into(),
            m => header(m, model),
        })
        .collect();
    let mut tab_a = Table::new(
        "Figure 5(a): attribute distance δ (mean over queries; lower is better)",
        &header_with(&["dataset", "queries", "k"], &names),
    );
    let mut tab_b = Table::new(
        "Figure 5(b): relative error of δ w.r.t. Exact (mean %)",
        &header_with(&["dataset"], &names[1..]),
    );
    let mut header_c = header_with(&["dataset"], &names);
    header_c.push("SEA speedup (min)");
    let mut tab_c = Table::new("Figure 5(c): response time (mean per query)", &header_c);
    let mut tab_d = Table::new(
        "Figure 5(d): SEA per-step time (mean per query)",
        &["dataset", "S1 sampling", "S2 estimation", "S3 incremental"],
    );

    for d in datasets(scale) {
        let k = d.default_k;
        let n_queries = scale.queries_for(d.graph.n());
        let queries = random_queries(&d.graph, n_queries, k, QUERY_SEED);
        let lineup = Lineup::new(scale, k, model, Target::Homogeneous { nodes: d.graph.n() });
        // One engine per dataset: every method and query shares the
        // cached decomposition and distance tables.
        let engine = Engine::new(d.graph.clone());

        let outcomes: Vec<Vec<Option<MethodRun>>> = parallel_map(&queries, scale.threads, |q| {
            columns()
                .map(|m| lineup.run(m, q, |x| engine.run(x)))
                .collect()
        });
        let column = |c: usize| outcomes.iter().filter_map(move |o| o[c].as_ref());
        let mean_of = |vals: Vec<f64>| (!vals.is_empty()).then(|| mean(vals));

        // --- (a): mean δ per method.
        let mut row_a = vec![d.name.clone(), queries.len().to_string(), k.to_string()];
        row_a.extend((0..names.len()).map(|c| {
            mean_of(column(c).map(|r| r.delta).collect())
                .map_or_else(|| "-".into(), |m| format!("{m:.4}"))
        }));
        tab_a.add_row(row_a);

        // --- (b): relative error vs Exact (only where both exist).
        let mut row_b = vec![d.name.clone()];
        row_b.extend((1..names.len()).map(|c| {
            let errs = outcomes
                .iter()
                .filter_map(|o| Some(relative_error(o[c].as_ref()?.delta, o[0].as_ref()?.delta)))
                .filter(|e| e.is_finite())
                .collect();
            mean_of(errs).map_or_else(|| "-".into(), fmt_pct)
        }));
        tab_b.add_row(row_b);

        // --- (c): mean time per method + SEA's minimum speedup.
        let ms: Vec<Option<f64>> = (0..names.len())
            .map(|c| mean_of(column(c).map(MethodRun::millis).collect()))
            .collect();
        let fastest_other = ms
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != 1)
            .filter_map(|(_, m)| *m)
            .reduce(f64::min);
        let speedup = match (ms[1], fastest_other) {
            (Some(s), Some(fastest_other)) if s > 0.0 => {
                format!("{:.2}x", fastest_other / s)
            }
            _ => "-".into(),
        };
        let mut row_c = vec![d.name.clone()];
        row_c.extend(ms.iter().map(|v| v.map_or_else(|| "-".into(), fmt_ms)));
        row_c.push(speedup);
        tab_c.add_row(row_c);

        // --- (d): SEA step breakdown.
        let step = |sel: &dyn Fn(&PhaseTimings) -> f64| -> f64 {
            mean(column(1).map(|r| sel(&r.timings) * 1000.0))
        };
        tab_d.add_row(vec![
            d.name.clone(),
            fmt_ms(step(&|t| t.sampling.as_secs_f64())),
            fmt_ms(step(&|t| t.estimation.as_secs_f64())),
            fmt_ms(step(&|t| t.incremental.as_secs_f64())),
        ]);
    }

    let mut out = String::new();
    out.push_str(&tab_a.to_markdown());
    out.push_str(&tab_b.to_markdown());
    out.push_str(&tab_c.to_markdown());
    out.push_str(&tab_d.to_markdown());
    out
}
