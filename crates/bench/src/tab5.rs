//! Table V: heterogeneous graphs — response time and relative error of δ
//! for core- and truss-based methods.
//!
//! One `HeteroEngine` per dataset answers every column on original ids.
//! SEA runs natively on the heterogeneous graph (§VI-A: P-neighbor BFS +
//! projection of the sampled neighborhood). The comparison methods only
//! understand homogeneous graphs, so — exactly as the paper does — they
//! run on the meta-path projection, which the engine builds once. The
//! exact ground truth for relative error comes from the lineup's Exact on
//! the projection, one per model. ACQ cells are `-` on the
//! numerical-only knowledge graphs where equality matching cannot share
//! any attribute.

use crate::config::{Scale, QUERY_SEED};
use crate::runner::{header, mean, parallel_map, Lineup, Target};
use crate::table::{fmt_ms, fmt_pct, header_with, Table};
use csag::engine::{HeteroEngine, Method};
use csag_core::CommunityModel::{self, KCore, KTruss};
use csag_datasets::{hetero_queries, standins, HeteroDataset};
use csag_eval::relative_error;

/// The printed columns: core methods, then truss methods.
const COLUMNS: [(CommunityModel, Method); 7] = [
    (KCore, Method::Sea),
    (KCore, Method::Acq),
    (KCore, Method::Atc),
    (KCore, Method::Vac),
    (KTruss, Method::Sea),
    (KTruss, Method::Atc),
    (KTruss, Method::Vac),
];

fn datasets(scale: &Scale) -> Vec<HeteroDataset> {
    if scale.quick {
        vec![standins::dblp_like()]
    } else {
        standins::all_heterogeneous()
    }
}

struct Cell {
    ms: Vec<f64>,
    rel: Vec<f64>,
}

impl Cell {
    fn new() -> Self {
        Cell {
            ms: Vec::new(),
            rel: Vec::new(),
        }
    }

    fn render(&self) -> String {
        if self.ms.is_empty() {
            return "-".into();
        }
        let ms = mean(self.ms.iter().copied());
        let rel: Vec<f64> = self.rel.iter().copied().filter(|r| r.is_finite()).collect();
        if rel.is_empty() {
            format!("{} / -", fmt_ms(ms))
        } else {
            format!("{} / {}", fmt_ms(ms), fmt_pct(mean(rel.into_iter())))
        }
    }
}

/// Runs the Table-V study. Each cell is `mean time / mean relative error`.
pub fn run(scale: &Scale) -> String {
    let names: Vec<String> = COLUMNS.map(|(model, m)| header(m, model)).to_vec();
    let mut table = Table::new(
        "Table V: heterogeneous graphs — response time / relative error of δ \
         (core methods above, truss methods below; baselines run on the meta-path projection)",
        &header_with(&["dataset"], &names),
    );

    for d in datasets(scale) {
        let k = d.default_k;
        let n_queries = if scale.quick { 3 } else { 8 };
        let queries = hetero_queries(&d, n_queries, k, QUERY_SEED);
        let target = Target::Hetero {
            numeric_only: d.numeric_only,
        };
        let lineups = [KCore, KTruss].map(|model| Lineup::new(scale, k, model, target));
        let side = |model| usize::from(model == KTruss);
        let engine = HeteroEngine::new(d.graph, d.meta_path);

        let mut cells: Vec<Cell> = (0..COLUMNS.len()).map(|_| Cell::new()).collect();
        let outcomes = parallel_map(&queries, scale.threads, |q| {
            // The ground truths, from the projection (core + truss).
            let exact = lineups
                .each_ref()
                .map(|l| l.run(Method::Exact, q, |x| engine.run(x)));
            COLUMNS.map(|(model, m)| {
                let r = lineups[side(model)].run(m, q, |x| engine.run(x))?;
                let rel = exact[side(model)]
                    .as_ref()
                    .map_or(f64::NAN, |e| relative_error(r.delta, e.delta));
                Some((r.millis(), rel))
            })
        });
        for row in outcomes {
            for (c, cell) in row.into_iter().enumerate() {
                if let Some((ms, rel)) = cell {
                    cells[c].ms.push(ms);
                    cells[c].rel.push(rel);
                }
            }
        }
        let mut out_row = vec![d.name];
        out_row.extend(cells.iter().map(Cell::render));
        table.add_row(out_row);
    }
    table.to_markdown()
}
