//! Cross-crate integration tests: every method optimizes *its own* metric
//! best (the Table II diagonal), on a planted graph.

use csag::baselines::{acq, e_vac, loc_atc, vac, EVacLimits};
use csag::core::distance::{DistanceParams, QueryDistances};
use csag::core::exact::{Exact, ExactParams};
use csag::core::CommunityModel;
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::random_queries;
use csag::decomp::{EpochIndex, Maintainer};
use csag::eval::{atc_score, max_pairwise_distance, shared_attributes};
use std::time::Duration;

fn graph() -> csag::graph::AttributedGraph {
    generate(
        &SyntheticConfig {
            nodes: 500,
            communities: 8,
            intra_degree: 6,
            inter_degree: 0.8,
            token_dropout: 0.15,
            ..Default::default()
        },
        42,
    )
    .0
}

#[test]
fn each_method_wins_its_own_metric() {
    let g = graph();
    let dp = DistanceParams::default();
    let k = 3;
    let q = random_queries(&g, 1, k, 77)[0];
    let model = CommunityModel::KCore;

    let index = EpochIndex::new();
    let exact = Exact::new(&g, &index, dp)
        .run(
            q,
            &ExactParams::default()
                .with_k(k)
                .with_time_budget(Duration::from_secs(5)),
        )
        .unwrap_or_else(|e| panic!("expected a {k}-core around node {q}: {e}"));
    let acq_r = acq(&mut Maintainer::new(&g, &EpochIndex::new(), model, k), q).unwrap();
    let atc_r = loc_atc(
        &mut Maintainer::new(&g, &EpochIndex::new(), model, k),
        q,
        None,
    )
    .unwrap();
    let vac_r = vac(
        &mut Maintainer::new(&g, &EpochIndex::new(), model, k),
        &QueryDistances::new(q, g.n(), dp),
        Some(2_000),
        None,
    )
    .unwrap();

    // δ: Exact is at least as good as every baseline — when it completed;
    // a slow (debug) build that stops it holds no ground truth.
    let dist = QueryDistances::new(q, g.n(), dp);
    for (name, comm) in [
        ("ACQ", &acq_r.community),
        ("LocATC", &atc_r.community),
        ("VAC", &vac_r.community),
    ] {
        let delta = dist.delta(&g, comm);
        assert!(
            !exact.complete || exact.delta <= delta + 1e-9,
            "{name} beat Exact on δ: {delta} < {}",
            exact.delta
        );
    }

    // #shared: ACQ is at least as good as Exact and VAC.
    let acq_shared = shared_attributes(&g, q, &acq_r.community);
    for (name, comm) in [("Exact", &exact.community), ("VAC", &vac_r.community)] {
        assert!(
            acq_shared >= shared_attributes(&g, q, comm),
            "{name} beat ACQ on #shared"
        );
    }

    // Coverage: LocATC's objective value is what it reports, and its local
    // search only ever applies score-improving deletions, so the reported
    // objective must equal the community's coverage score and be positive
    // (the query's community tokens are covered).
    let atc_cov = atc_score(&g, q, &atc_r.community);
    assert!(
        (atc_cov - atc_r.objective).abs() < 1e-9,
        "LocATC misreports its score"
    );
    assert!(atc_cov > 0.0);

    // min-max: VAC's peeling must improve (or match) the unoptimized
    // maximal community it started from. (Cross-method dominance is not
    // guaranteed for the *approximate* VAC — the paper's Table II likewise
    // shows ties and inversions among the approximate methods.)
    let mut maintainer = Maintainer::new(&g, &index, model, k);
    let root = maintainer.maximal(q).unwrap();
    let (vac_mm, _) = max_pairwise_distance(&g, &vac_r.community, dp);
    let (root_mm, _) = max_pairwise_distance(&g, &root, dp);
    assert!(
        vac_mm <= root_mm + 1e-9,
        "VAC worse than its own root: {vac_mm} > {root_mm}"
    );
}

#[test]
fn e_vac_dominates_vac_on_minmax() {
    let g = graph();
    let dp = DistanceParams::default();
    let k = 3;
    for seed in [78u64, 79] {
        let q = random_queries(&g, 1, k, seed)[0];
        let Ok(v) = vac(
            &mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k),
            &QueryDistances::new(q, g.n(), dp),
            Some(2_000),
            None,
        ) else {
            continue;
        };
        let limits = EVacLimits {
            state_budget: Some(5_000),
            max_root: Some(400),
            time_budget: Some(Duration::from_secs(5)),
        };
        let Ok(ev) = e_vac(
            &mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k),
            q,
            dp,
            &limits,
        ) else {
            continue;
        };
        assert!(
            ev.objective <= v.objective + 1e-9,
            "E-VAC ({}) worse than VAC ({})",
            ev.objective,
            v.objective
        );
    }
}

#[test]
fn all_methods_produce_valid_kcores() {
    let g = graph();
    let dp = DistanceParams::default();
    let k = 3;
    let q = random_queries(&g, 1, k, 80)[0];
    let model = CommunityModel::KCore;
    let communities = [
        acq(&mut Maintainer::new(&g, &EpochIndex::new(), model, k), q)
            .unwrap()
            .community,
        loc_atc(
            &mut Maintainer::new(&g, &EpochIndex::new(), model, k),
            q,
            None,
        )
        .unwrap()
        .community,
        vac(
            &mut Maintainer::new(&g, &EpochIndex::new(), model, k),
            &QueryDistances::new(q, g.n(), dp),
            Some(2_000),
            None,
        )
        .unwrap()
        .community,
    ];
    for comm in &communities {
        assert!(comm.binary_search(&q).is_ok());
        assert!(csag::graph::traversal::is_connected_subset(&g, comm));
        for &v in comm {
            let deg = g
                .neighbors(v)
                .iter()
                .filter(|w| comm.binary_search(w).is_ok())
                .count();
            assert!(deg >= k as usize);
        }
    }
}
