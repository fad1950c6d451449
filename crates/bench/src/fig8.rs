//! Figure 8: parameter sensitivity of SEA (panels a–l).
//!
//! Sweeps λ, Hoeffding ϵ, Hoeffding confidence 1−β, error bound e, CI
//! confidence 1−α, and k — on the dblp-like projection and the
//! twitter-like graph (the paper's DBLP/Twitter pair). Efficiency (mean
//! response time) and effectiveness (mean δ, or mean relative error for
//! the e/α panels) per sweep point.

use crate::config::{Scale, HOEFFDING, QUERY_SEED, SEA_SEED};
use crate::runner::{mean, parallel_map, Lineup, Target};
use crate::table::{fmt_ms, fmt_pct, Table};
use csag::engine::{CommunityQuery, Engine, Method};
use csag_core::CommunityModel;
use csag_datasets::{random_queries, standins};
use csag_eval::relative_error;
use csag_graph::{AttributedGraph, NodeId};

/// Which quantity a panel reports alongside time.
enum Effect {
    Delta,
    RelativeError,
}

#[allow(clippy::too_many_arguments)] // internal experiment plumbing, one call site per panel
fn sweep(
    table: &mut Table,
    dataset: &str,
    panel: &str,
    engine: &Engine,
    queries: &[NodeId],
    scale: &Scale,
    points: &[(String, CommunityQuery)],
    effect: Effect,
) {
    // Exact ground truth per query, shared by relative-error panels.
    let target = Target::Homogeneous {
        nodes: engine.graph().n(),
    };
    let lineup = Lineup::new(scale, points[0].1.k, CommunityModel::KCore, target);
    let exact: Vec<Option<f64>> = match effect {
        Effect::RelativeError => parallel_map(queries, scale.threads, |q| {
            let r = lineup.run(Method::Exact, q, |x| engine.run(x))?;
            Some(r.delta)
        }),
        Effect::Delta => vec![None; queries.len()],
    };

    for (label, template) in points {
        let runs: Vec<Option<(f64, f64)>> = parallel_map(queries, scale.threads, |q| {
            let query = template
                .clone()
                .with_query(q)
                .with_seed(SEA_SEED ^ (q as u64) << 16);
            let res = engine.run(&query).ok()?;
            Some((res.timings.total.as_secs_f64() * 1000.0, res.delta))
        });
        let mut ms = Vec::new();
        let mut eff = Vec::new();
        for (i, r) in runs.iter().enumerate() {
            if let Some((m, delta)) = r {
                ms.push(*m);
                match effect {
                    Effect::Delta => eff.push(*delta),
                    Effect::RelativeError => {
                        if let Some(Some(e)) = exact.get(i) {
                            let rel = relative_error(*delta, *e);
                            if rel.is_finite() {
                                eff.push(rel);
                            }
                        }
                    }
                }
            }
        }
        let eff_str = if eff.is_empty() {
            "-".to_string()
        } else {
            match effect {
                Effect::Delta => format!("{:.4}", mean(eff.iter().copied())),
                Effect::RelativeError => fmt_pct(mean(eff.iter().copied())),
            }
        };
        table.add_row(vec![
            dataset.into(),
            panel.into(),
            label.clone(),
            if ms.is_empty() {
                "-".into()
            } else {
                fmt_ms(mean(ms.iter().copied()))
            },
            eff_str,
        ]);
    }
}

/// Runs the full parameter-sensitivity suite.
pub fn run(scale: &Scale) -> String {
    let mut table = Table::new(
        "Figure 8: parameter sensitivity (mean response time; δ or relative error)",
        &["dataset", "panel", "value", "time", "δ / rel.err"],
    );

    let dblp = standins::dblp_like();
    let dblp_proj = dblp.graph.project(&dblp.meta_path).graph;
    let twitter = if scale.quick {
        None
    } else {
        Some(standins::twitter_like())
    };

    let mut graphs: Vec<(&str, &AttributedGraph, u32)> =
        vec![("dblp-like (projected)", &dblp_proj, dblp.default_k)];
    if let Some(t) = &twitter {
        graphs.push(("twitter-like", &t.graph, t.default_k));
    }

    let n_queries = if scale.quick { 3 } else { 8 };
    for (name, g, k) in graphs {
        let queries = random_queries(g, n_queries, k, QUERY_SEED);
        let engine = Engine::new(g.clone());
        let base = crate::config::sea_query(k);

        // (a)/(b): λ sweep.
        let lambdas = if scale.quick {
            vec![0.2, 0.8]
        } else {
            vec![0.05, 0.2, 0.4, 0.6, 0.8, 1.0]
        };
        let points: Vec<(String, CommunityQuery)> = lambdas
            .iter()
            .map(|&l| (format!("λ={l}"), base.clone().with_lambda(l)))
            .collect();
        sweep(
            &mut table,
            name,
            "lambda",
            &engine,
            &queries,
            scale,
            &points,
            Effect::Delta,
        );

        // (c)/(d): Hoeffding ϵ sweep.
        // ϵ rescaled to the stand-in regime (see config::HOEFFDING).
        let eps = if scale.quick {
            vec![0.30, 0.14]
        } else {
            vec![0.30, 0.22, 0.18, 0.14, 0.10]
        };
        let points: Vec<(String, CommunityQuery)> = eps
            .iter()
            .map(|&e| (format!("ϵ={e}"), base.clone().with_hoeffding(e, 0.95)))
            .collect();
        sweep(
            &mut table,
            name,
            "hoeffding-eps",
            &engine,
            &queries,
            scale,
            &points,
            Effect::Delta,
        );

        // (e)/(f): Hoeffding confidence sweep.
        let betas = if scale.quick {
            vec![0.90, 0.98]
        } else {
            vec![0.86, 0.90, 0.94, 0.98]
        };
        let points: Vec<(String, CommunityQuery)> = betas
            .iter()
            .map(|&c| {
                (
                    format!("1-β={c}"),
                    base.clone().with_hoeffding(HOEFFDING.0, c),
                )
            })
            .collect();
        sweep(
            &mut table,
            name,
            "hoeffding-conf",
            &engine,
            &queries,
            scale,
            &points,
            Effect::Delta,
        );

        // (g)/(h): error bound e sweep (relative error panel).
        let errs = if scale.quick {
            vec![0.02, 0.05]
        } else {
            vec![0.01, 0.02, 0.03, 0.04, 0.05]
        };
        let points: Vec<(String, CommunityQuery)> = errs
            .iter()
            .map(|&e| {
                (
                    format!("e={}%", e * 100.0),
                    base.clone().with_error_bound(e),
                )
            })
            .collect();
        sweep(
            &mut table,
            name,
            "error-bound",
            &engine,
            &queries,
            scale,
            &points,
            Effect::RelativeError,
        );

        // (i)/(j): CI confidence sweep (relative error panel).
        let alphas = if scale.quick {
            vec![0.90, 0.98]
        } else {
            vec![0.86, 0.90, 0.94, 0.98]
        };
        let points: Vec<(String, CommunityQuery)> = alphas
            .iter()
            .map(|&c| (format!("1-α={c}"), base.clone().with_confidence(c)))
            .collect();
        sweep(
            &mut table,
            name,
            "ci-conf",
            &engine,
            &queries,
            scale,
            &points,
            Effect::RelativeError,
        );

        // (k)/(l): k sweep.
        let ks: Vec<u32> = if scale.quick {
            vec![k, k + 1]
        } else {
            (k..k + 5).collect()
        };
        let points: Vec<(String, CommunityQuery)> = ks
            .iter()
            .map(|&kk| (format!("k={kk}"), base.clone().with_k(kk)))
            .collect();
        sweep(
            &mut table,
            name,
            "k",
            &engine,
            &queries,
            scale,
            &points,
            Effect::Delta,
        );
    }
    table.to_markdown()
}
