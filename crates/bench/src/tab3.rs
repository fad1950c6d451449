//! Table III + Figure 6: F1 score against ground-truth communities.
//!
//! The stand-ins' planted communities play the role of the human-annotated
//! ground truth (Facebook circles, LiveJournal/Orkut/Amazon communities).
//! Figure 6 repeats the study per ego-network of the facebook-like graph.

use crate::config::{Scale, QUERY_SEED};
use crate::runner::{header, mean, parallel_map, Lineup, Target};
use crate::table::{header_with, Table};
use csag::engine::Engine;
use csag_core::CommunityModel;
use csag_datasets::ego::ego_networks;
use csag_datasets::{random_queries, standins, Dataset};
use csag_eval::best_f1;

/// Mean F1 per lineup column on `d` (`None` where a method never ran).
fn f1_for_dataset(d: &Dataset, scale: &Scale) -> Vec<Option<f64>> {
    let k = d.default_k;
    let queries = random_queries(&d.graph, scale.queries_for(d.graph.n()), k, QUERY_SEED);
    let target = Target::Homogeneous { nodes: d.graph.n() };
    let lineup = Lineup::new(scale, k, CommunityModel::KCore, target);
    let engine = Engine::new(d.graph.clone());

    let per_query = parallel_map(&queries, scale.threads, |q| {
        Lineup::ORDER.map(|m| {
            let r = lineup.run(m, q, |x| engine.run(x))?;
            Some(best_f1(&r.community, &d.ground_truth))
        })
    });

    (0..Lineup::ORDER.len())
        .map(|m| {
            let vals: Vec<f64> = per_query.iter().filter_map(|row| row[m]).collect();
            (!vals.is_empty()).then(|| mean(vals.iter().copied()))
        })
        .collect()
}

/// Runs the Table-III study (F1 on four ground-truth datasets).
pub fn run(scale: &Scale) -> String {
    // Noisy-attribute variants: with clean synthetic profiles equality
    // matching recovers the planted truth exactly (ACQ's unrealistic
    // best case); the noisy variants model real annotated corpora.
    let datasets: Vec<Dataset> = if scale.quick {
        vec![standins::facebook_noisy()]
    } else {
        vec![
            standins::facebook_noisy(),
            standins::livejournal_noisy(),
            standins::orkut_noisy(),
            standins::amazon_noisy(),
        ]
    };
    let mut table = Table::new(
        "Table III: F1-score w.r.t. ground-truth communities (higher is better; '-' = not run)",
        &[
            "method",
            "facebook-noisy",
            "livejournal-noisy",
            "orkut-noisy",
            "amazon-noisy",
        ],
    );
    let per_dataset: Vec<Vec<Option<f64>>> =
        datasets.iter().map(|d| f1_for_dataset(d, scale)).collect();
    for (m, method) in Lineup::ORDER.into_iter().enumerate() {
        let mut row = vec![header(method, CommunityModel::KCore)];
        for col in &per_dataset {
            row.push(
                col[m]
                    .map(|f| format!("{f:.2}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        for _ in per_dataset.len()..4 {
            row.push("-".into());
        }
        table.add_row(row);
    }
    table.to_markdown()
}

/// Runs the Figure-6 study (F1 per facebook ego-network, noisy attrs).
pub fn run_fig6(scale: &Scale) -> String {
    let d = standins::facebook_noisy();
    let count = if scale.quick { 3 } else { 10 };
    let egos = ego_networks(&d, count);
    let model = CommunityModel::KCore;
    let names: Vec<String> = Lineup::ORDER.map(|m| header(m, model)).to_vec();
    let mut table = Table::new(
        "Figure 6: F1-score per facebook-like ego-network (query = ego center, k=3)",
        &header_with(&["ego", "nodes"], &names),
    );
    for ego in &egos {
        let target = Target::Homogeneous {
            nodes: ego.graph.n(),
        };
        let lineup = Lineup::new(scale, 3, model, target);
        let engine = Engine::new(ego.graph.clone());
        let mut row = vec![ego.name.clone(), engine.graph().n().to_string()];
        row.extend(Lineup::ORDER.map(|m| {
            lineup.run(m, ego.center, |x| engine.run(x)).map_or_else(
                || "-".into(),
                |r| format!("{:.2}", best_f1(&r.community, &ego.circles)),
            )
        }));
        table.add_row(row);
    }
    table.to_markdown()
}
