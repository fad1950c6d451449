//! Cross-crate integration tests: datasets → decomposition → exact/SEA →
//! evaluation, end to end.

use csag::core::distance::{DistanceParams, QueryDistances};
use csag::core::exact::{Exact, ExactParams};
use csag::core::sea::{Sea, SeaParams};
use csag::core::CommunityModel;
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{hetero_queries, random_queries};
use csag::decomp::EpochIndex;
use csag::eval::{best_f1, relative_error};
use csag::graph::{AttributedGraph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn small_config() -> SyntheticConfig {
    SyntheticConfig {
        nodes: 600,
        communities: 8,
        intra_degree: 7,
        inter_degree: 1.0,
        ..Default::default()
    }
}

/// Community and δ of a budgeted exact search — its best so far when the
/// budget stops it, the way the experiments read it.
fn exact_best(
    g: &AttributedGraph,
    q: NodeId,
    k: u32,
    model: CommunityModel,
    budget: Duration,
) -> (Vec<NodeId>, f64) {
    let params = ExactParams::default()
        .with_k(k)
        .with_model(model)
        .with_time_budget(budget);
    let index = EpochIndex::new();
    let r = Exact::new(g, &index, DistanceParams::default())
        .run(q, &params)
        .unwrap_or_else(|e| panic!("expected a {k}-community around node {q}: {e}"));
    (r.community, r.delta)
}

#[test]
fn sea_tracks_exact_on_planted_graphs() {
    let (g, _) = generate(&small_config(), 11);
    let dp = DistanceParams::default();
    let queries = random_queries(&g, 6, 4, 21);
    assert!(!queries.is_empty());

    let mut errors = Vec::new();
    for &q in &queries {
        let (exact_community, exact_delta) =
            exact_best(&g, q, 4, CommunityModel::KCore, Duration::from_secs(5));
        let params = SeaParams::default().with_k(4).with_hoeffding(0.3, 0.95);
        let mut rng = StdRng::seed_from_u64(1000 + q as u64);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, dp)
            .run(q, &params, &mut rng)
            .expect("same 4-core exists");

        assert!(sea.community.binary_search(&q).is_ok());
        assert!(exact_community.binary_search(&q).is_ok());
        assert!(
            sea.delta_star >= exact_delta - 1e-9,
            "SEA cannot beat the exact optimum: {} vs {}",
            sea.delta_star,
            exact_delta
        );
        errors.push(relative_error(sea.delta_star, exact_delta));
    }
    // Average quality: SEA stays close to the optimum on planted graphs.
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(avg < 0.25, "mean relative error too large: {avg}");
}

#[test]
fn certification_implies_small_error_most_of_the_time() {
    let (g, _) = generate(&small_config(), 12);
    let dp = DistanceParams::default();
    let queries = random_queries(&g, 8, 4, 22);

    let mut certified_errors = Vec::new();
    for &q in &queries {
        let params = SeaParams::default()
            .with_k(4)
            .with_hoeffding(0.3, 0.95)
            .with_error_bound(0.05);
        let mut rng = StdRng::seed_from_u64(2000 + q as u64);
        let Ok(sea) = Sea::new(&g, &EpochIndex::new(), dp).run(q, &params, &mut rng) else {
            continue;
        };
        if !sea.certified {
            continue;
        }
        // Only truly optimal ground truths count: budget-stopped exact
        // runs are skipped.
        let exact = match Exact::new(&g, &EpochIndex::new(), dp).run(
            q,
            &ExactParams::default()
                .with_k(4)
                .with_time_budget(Duration::from_secs(5)),
        ) {
            Ok(exact) if exact.complete => exact,
            _ => continue,
        };
        certified_errors.push(relative_error(sea.delta_star, exact.delta));
    }
    // The guarantee holds at confidence 1-α per query; demand that the
    // *majority* of certified queries meet 3x the bound (loose, seed-stable).
    if certified_errors.len() >= 3 {
        let ok = certified_errors.iter().filter(|&&e| e <= 0.15).count();
        assert!(
            ok * 2 >= certified_errors.len(),
            "too many certified outliers: {certified_errors:?}"
        );
    }
}

#[test]
fn truss_communities_are_tighter_than_core_communities() {
    let (g, _) = generate(&small_config(), 13);
    let dp = DistanceParams::default();
    let queries = random_queries(&g, 4, 5, 23);
    for &q in &queries {
        let (core_community, _) =
            exact_best(&g, q, 5, CommunityModel::KCore, Duration::from_secs(3));
        let index = EpochIndex::new();
        let truss = Exact::new(&g, &index, dp).run(
            q,
            &ExactParams::default()
                .with_k(5)
                .with_model(CommunityModel::KTruss)
                .with_time_budget(Duration::from_secs(3)),
        );
        // A 5-truss is contained in some 4-core; structurally it is the
        // stricter model, so when it exists it is no larger than the
        // maximal core at the same k... the *optimal* communities need not
        // nest, but both must contain q and be valid.
        if let Ok(truss) = truss {
            assert!(truss.community.binary_search(&q).is_ok());
        }
        assert!(core_community.binary_search(&q).is_ok());
    }
}

#[test]
fn f1_against_planted_truth_is_meaningful() {
    let (g, truth) = generate(&small_config(), 14);
    let dp = DistanceParams::default();
    let q = random_queries(&g, 1, 4, 24)[0];
    let params = SeaParams::default().with_k(4).with_hoeffding(0.3, 0.95);
    let mut rng = StdRng::seed_from_u64(3000);
    let index = EpochIndex::new();
    let sea = Sea::new(&g, &index, dp).run(q, &params, &mut rng).unwrap();
    let f1 = best_f1(&sea.community, &truth);
    // The community lives inside q's planted block, so precision is high
    // and F1 is clearly above chance (block ≈ 1/8 of the graph).
    assert!(f1 > 0.2, "F1 {f1} too low for a planted-community search");
}

#[test]
fn heterogeneous_pipeline_end_to_end() {
    use csag::core::hetero_cs::SeaHetero;
    use csag::datasets::hetero_gen::{generate_hetero, HeteroConfig};

    let d = generate_hetero(
        &HeteroConfig {
            targets: 400,
            communities: 8,
            ..Default::default()
        },
        5,
    );
    let queries = hetero_queries(&d, 3, 4, 31);
    assert!(!queries.is_empty());
    let sea = SeaHetero::new(&d.graph, d.meta_path.clone(), DistanceParams::default());
    for &q in &queries {
        let params = SeaParams::default().with_k(4).with_hoeffding(0.3, 0.95);
        let mut rng = StdRng::seed_from_u64(4000 + q as u64);
        let res = sea.run(q, &params, &mut rng).expect("(k,P)-core exists");
        assert!(res.community.binary_search(&q).is_ok());
        // Validate the (k,P)-core property on the full projection.
        let proj = d.graph.project(&d.meta_path);
        let local: Vec<u32> = res
            .community
            .iter()
            .filter_map(|&v| proj.local(v))
            .collect();
        assert_eq!(local.len(), res.community.len());
        for &lv in &local {
            let mut sorted = local.clone();
            sorted.sort_unstable();
            let deg = proj
                .graph
                .neighbors(lv)
                .iter()
                .filter(|w| sorted.binary_search(w).is_ok())
                .count();
            assert!(deg >= 4, "member {lv} has only {deg} P-neighbors inside");
        }
    }
}

#[test]
fn size_bounded_pipeline_respects_window() {
    let (g, _) = generate(&small_config(), 15);
    let q = random_queries(&g, 1, 4, 25)[0];
    let params = SeaParams::default()
        .with_k(4)
        .with_hoeffding(0.3, 0.95)
        .with_size_bound(8, 20);
    let mut rng = StdRng::seed_from_u64(5000);
    if let Ok(res) =
        Sea::new(&g, &EpochIndex::new(), DistanceParams::default()).run(q, &params, &mut rng)
    {
        assert!(res.community.len() >= 8 && res.community.len() <= 20);
        assert!(res.community.binary_search(&q).is_ok());
    }
}

#[test]
fn sea_community_contains_query_and_respects_k() {
    // The SEA contract, checked across several graphs / seeds / k values:
    // the returned community always contains the query node and is a
    // connected k-core (every member keeps >= k neighbors inside).
    for (graph_seed, k) in [(41u64, 3u32), (42, 4), (43, 5)] {
        let (g, _) = generate(&small_config(), graph_seed);
        let dp = DistanceParams::default();
        for &q in &random_queries(&g, 5, k, 100 + graph_seed) {
            let params = SeaParams::default().with_k(k).with_hoeffding(0.3, 0.95);
            let mut rng = StdRng::seed_from_u64(7000 + graph_seed * 31 + q as u64);
            let index = EpochIndex::new();
            let res = Sea::new(&g, &index, dp)
                .run(q, &params, &mut rng)
                .expect("random_queries only returns nodes with a k-core");
            assert!(
                res.community.binary_search(&q).is_ok(),
                "community must contain the query node {q} (k={k})"
            );
            for &v in &res.community {
                let deg_inside = g
                    .neighbors(v)
                    .iter()
                    .filter(|w| res.community.binary_search(w).is_ok())
                    .count();
                assert!(
                    deg_inside >= k as usize,
                    "member {v} has only {deg_inside} in-community neighbors, need k={k}"
                );
            }
            // Determinism: the same seed reproduces the same community.
            let mut rng2 = StdRng::seed_from_u64(7000 + graph_seed * 31 + q as u64);
            let res2 = Sea::new(&g, &index, dp).run(q, &params, &mut rng2).unwrap();
            assert_eq!(res.community, res2.community, "seeded runs must agree");
        }
    }
}

#[test]
fn delta_star_is_exactly_the_returned_communitys_distance() {
    let (g, _) = generate(&small_config(), 16);
    let q = random_queries(&g, 1, 4, 26)[0];
    let dp = DistanceParams::default();
    let params = SeaParams::default().with_k(4).with_hoeffding(0.3, 0.95);
    let mut rng = StdRng::seed_from_u64(6000);
    let index = EpochIndex::new();
    let res = Sea::new(&g, &index, dp).run(q, &params, &mut rng).unwrap();
    let dist = QueryDistances::new(q, g.n(), dp);
    let actual = dist.delta(&g, &res.community);
    assert!((actual - res.delta_star).abs() < 1e-9);
}

/// ROADMAP direction 1, quick form: SEA's certificate (Theorems 10–11) says a
/// certified answer's δ is within relative error `e` of the exact
/// optimum with probability ≥ 1 − α over SEA's own randomness. For
/// every (graph, q, k) cell — the paper's Figure-1 and Figure-3 graphs
/// and two planted graphs small enough that `Method::Exact` finishes —
/// run `Exact` once and `Method::Sea` over 200 seeds at `e` ∈ {0.05,
/// 0.1}, 1 − α = 0.95, count the certified answers whose relative error
/// exceeds `e`, and reject the cell when a one-sided exact binomial
/// test refuses "violation rate ≤ α" at the 1 % level. Seeds are the
/// first 200 integers; nothing here is tuned to pass.
///
/// **It rejects** — every cell that certifies anything, by a wide margin
/// (counts in CHANGES.md and in ROADMAP direction 1) — so it is
/// ignored rather than loosened, and the two older, looser assertions
/// (`certification_implies_small_error_most_of_the_time` above, the
/// single draw in `csag_core::sea`) stay until the estimator is fixed.
/// Run it with `cargo test --test integration_pipeline -- --ignored
/// --nocapture` (~1 s).
#[test]
#[ignore = "coverage finding, ROADMAP direction 1"]
fn certified_answers_violate_the_error_bound_no_more_often_than_alpha() {
    use csag::datasets::paper_examples::{figure1_imdb, figure3_graph};
    use csag::engine::{CommunityQuery, Engine, Method};
    use csag::stats::binomial_tail;

    const SEEDS: u64 = 200;
    const ALPHA: f64 = 0.05;
    let planted = |nodes: usize, seed: u64| {
        let config = SyntheticConfig {
            nodes,
            communities: 3,
            ..Default::default()
        };
        generate(&config, seed).0
    };
    let (fig1, q1) = figure1_imdb();
    let (fig3, q3) = figure3_graph();
    let (planted_a, planted_b) = (planted(24, 71), planted(28, 72));
    let mut cells: Vec<(&str, AttributedGraph, NodeId, u32, f64)> =
        vec![("fig1", fig1, q1, 3, 0.5), ("fig3", fig3, q3, 2, 0.0)];
    for (name, g) in [("planted-a", planted_a), ("planted-b", planted_b)] {
        for q in random_queries(&g, 2, 3, 0xC0DE) {
            cells.push((name, g.clone(), q, 3, 0.5));
        }
    }
    assert!(cells.len() >= 4, "every graph offers a query cell");

    let mut rejected = Vec::new();
    for (name, g, q, k, gamma) in cells {
        let engine = Engine::new(g);
        let cell = |method| CommunityQuery::new(method, q).with_k(k).with_gamma(gamma);
        let exact = engine
            .run(&cell(Method::Exact).with_step_budget(2_000_000))
            .unwrap_or_else(|e| panic!("{name} q={q}: exact must answer: {e}"));
        assert!(
            exact.certificate.is_some_and(|c| c.certified),
            "{name} q={q}: exact must finish to be ground truth"
        );
        for e in [0.05, 0.1] {
            let (mut certified, mut violations) = (0u64, 0u64);
            for seed in 0..SEEDS {
                let query = cell(Method::Sea)
                    .with_error_bound(e)
                    .with_confidence(1.0 - ALPHA)
                    .with_seed(seed);
                let sea = engine
                    .run(&query)
                    .unwrap_or_else(|err| panic!("{name} q={q} seed={seed}: {err}"));
                assert!(
                    sea.delta >= exact.delta - 1e-9,
                    "SEA cannot beat the optimum"
                );
                if sea.certificate.is_some_and(|c| c.certified) {
                    certified += 1;
                    violations += u64::from(relative_error(sea.delta, exact.delta) > e);
                }
            }
            let p_value = binomial_tail(certified, violations, ALPHA);
            eprintln!(
                "coverage {name} q={q} k={k} e={e}: {violations} violation(s) among \
                 {certified} certified of {SEEDS}, p = {p_value:.4}"
            );
            if p_value < 0.01 {
                rejected.push(format!(
                    "{name} q={q} k={k} e={e}: {violations}/{certified} (p = {p_value:.2e})"
                ));
            }
        }
    }
    assert!(
        rejected.is_empty(),
        "certified answers miss the bound more often than α = {ALPHA}: {rejected:?}"
    );
}
