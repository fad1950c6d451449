//! Figure 9 + Table VI: case study — size-bounded SEA on the imdb-like
//! graph, with the round-by-round refinement log.
//!
//! The paper queries Robert De Niro on IMDB with size bounds \[10,30\] and
//! \[30,50\] and shows (a) the two communities and (b) the per-round
//! δ⋆ / MoE ε / ΔS / time table. We reproduce the protocol with the
//! highest-P-degree movie of the imdb-like stand-in as the star query.

use crate::config::{Scale, HOEFFDING, SEA_SEED};
use crate::table::{fmt_ms, Table};
use csag_core::distance::DistanceParams;
use csag_core::hetero_cs::SeaHetero;
use csag_core::sea::SeaParams;
use csag_datasets::standins;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BOUNDS: [(usize, usize); 2] = [(10, 30), (30, 50)];

/// Runs the case study.
pub fn run(_scale: &Scale) -> String {
    let d = standins::imdb_like();
    let dp = DistanceParams::default();
    // The "star": the target node with the most P-neighbors.
    let targets = d.graph.nodes_of_type(d.meta_path.source_type());
    let star = targets
        .iter()
        .copied()
        .max_by_key(|&v| d.graph.p_neighbors(v, &d.meta_path).len())
        .expect("non-empty dataset");

    let mut out = String::new();
    let mut tab6 = Table::new(
        "Table VI: case study — round-by-round refinement (imdb-like, star query)",
        &[
            "size bound",
            "round",
            "δ*",
            "MoE ε",
            "ΔS (added)",
            "time",
            "candidates",
        ],
    );

    // SEA runs directly, not through the engine: Table VI prints the
    // per-round records, which a `CommunityResult` does not carry.
    for (l, h) in BOUNDS {
        let params = SeaParams::default()
            .with_k(d.default_k)
            .with_hoeffding(HOEFFDING.0, HOEFFDING.1)
            .with_size_bound(l, h);
        let mut rng = StdRng::seed_from_u64(SEA_SEED ^ 0xF19);
        let sea = SeaHetero::new(&d.graph, d.meta_path.clone(), dp);
        match sea.run(star, &params, &mut rng) {
            Ok(res) => {
                out.push_str(&format!(
                    "Size bound [{l},{h}]: community of {} movies, δ* = {:.4} (CI {}), certified = {}\n",
                    res.community.len(),
                    res.delta_star,
                    res.ci,
                    res.certified,
                ));
                for (i, round) in res.rounds.iter().enumerate() {
                    tab6.add_row(vec![
                        format!("[{l},{h}]"),
                        (i + 1).to_string(),
                        format!("{:.3e}", round.delta_star),
                        format!("{:.3e}", round.moe),
                        round.added_samples.to_string(),
                        fmt_ms(round.elapsed.as_secs_f64() * 1000.0),
                        round.candidates_examined.to_string(),
                    ]);
                }
            }
            Err(_) => {
                out.push_str(&format!(
                    "Size bound [{l},{h}]: no community within the window for this query\n"
                ));
            }
        }
    }
    out.push('\n');
    out.push_str(&tab6.to_markdown());
    out
}
