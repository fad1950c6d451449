//! Table IV: effect of the pruning strategies on the exact method
//! (runtime and number of explored search-tree states).
//!
//! Configurations, as in the paper: `Exact` (P1+P2+P3), `Exact\P3`
//! (P1+P2), `Exact\P3+P2` (P1 only), `Exact w/o P` (none). Configurations
//! that blow up hit a state budget and are reported as `>budget`, the way
//! the paper reports `>8 days`.

use crate::config::{Scale, QUERY_SEED};
use crate::runner::parallel_map;
use crate::table::{fmt_ms, Table};
use csag::engine::{CommunityQuery, Engine, Method};
use csag_core::exact::PruningConfig;
use csag_datasets::{random_queries, standins, Dataset};

const CONFIGS: [(&str, PruningConfig); 4] = [
    ("Exact", PruningConfig::ALL),
    ("Exact\\P3", PruningConfig::NO_P3),
    ("Exact\\P3+P2", PruningConfig::P1_ONLY),
    ("Exact w/o P", PruningConfig::NONE),
];

fn datasets(scale: &Scale) -> Vec<Dataset> {
    // Miniature planted graphs: the ablation needs every configuration to
    // finish (or visibly blow through the state budget), which on the full
    // stand-ins is impossible for `Exact w/o P` — mirroring the paper's
    // `>8 days` rows, but at a scale where the other configs terminate.
    let mut minis = standins::ablation_minis();
    if scale.quick {
        minis.truncate(1);
    }
    minis
}

/// Runs the pruning ablation.
pub fn run(scale: &Scale) -> String {
    let state_budget: u64 = if scale.quick { 20_000 } else { 200_000 };
    let mut table = Table::new(
        &format!(
            "Table IV: effect of prunings on Exact (mean per query; state budget {state_budget})"
        ),
        &["dataset", "config", "time", "# states", "budget hit"],
    );

    for d in datasets(scale) {
        let k = d.default_k;
        let n_queries = if scale.quick { 2 } else { 6 };
        let queries = random_queries(&d.graph, n_queries, k, QUERY_SEED);
        let engine = Engine::new(d.graph.clone());
        for (name, pruning) in CONFIGS {
            let template = CommunityQuery::new(Method::Exact, 0)
                .with_k(k)
                .with_pruning(pruning)
                .with_state_budget(state_budget)
                .with_time_budget(scale.exact_budget());
            let runs: Vec<Option<(f64, u64, bool)>> = parallel_map(&queries, scale.threads, |q| {
                let r = engine.run(&template.clone().with_query(q)).ok()?;
                Some((
                    r.timings.search.as_secs_f64() * 1000.0,
                    r.provenance.states_explored,
                    !r.certificate.is_some_and(|c| c.certified),
                ))
            });
            let done: Vec<&(f64, u64, bool)> = runs.iter().flatten().collect();
            if done.is_empty() {
                table.add_row(vec![
                    d.name.clone(),
                    name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let ms = done.iter().map(|r| r.0).sum::<f64>() / done.len() as f64;
            let states = done.iter().map(|r| r.1 as f64).sum::<f64>() / done.len() as f64;
            let hits = done.iter().filter(|r| r.2).count();
            table.add_row(vec![
                d.name.clone(),
                name.into(),
                fmt_ms(ms),
                format!("{states:.3e}"),
                format!("{hits}/{}", done.len()),
            ]);
        }
    }
    table.to_markdown()
}
