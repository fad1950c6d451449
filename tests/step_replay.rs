//! Every answer replays from its echoed `rounds`. Each looping method
//! (Exact, SEA, size-bounded SEA, E-VAC, VAC, LocATC) counts the loop
//! heads it passes in one step counter, echoed as `provenance.rounds`, and
//! stops at a head only through the one stop poll. So the same query with
//! `step_budget = rounds` and no time budget passes the same heads and
//! gives the same answer, whether the clock, the step budget or the search
//! itself ended the first run.

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::decomp::CommunityModel;
use csag::engine::{outcome_identity, CommunityQuery, CsagError, Engine, Method};
use csag::graph::NodeId;
use proptest::prelude::*;
use std::time::Duration;

const MODELS: [CommunityModel; 2] = [CommunityModel::KCore, CommunityModel::KTruss];

/// `query`'s answer and that of its replay (`step_budget` = the answer's
/// `rounds`, no time budget), each as its `outcome_identity`; `None`
/// when `query` has no answer to replay.
fn replayed(engine: &Engine, query: &CommunityQuery) -> Option<(String, String)> {
    let answer = engine.run(query).ok()?;
    let replay = CommunityQuery {
        time_budget: None,
        ..query.clone()
    }
    .with_step_budget(answer.provenance.rounds);
    Some((
        outcome_identity(&Ok::<_, CsagError>(answer), false),
        outcome_identity(&engine.run(&replay), false),
    ))
}

/// Every node of the 300-node, 5-community generator graph of seed 9,
/// asked with SEA under `model` at k = 3, e = 0.001, `lambda` and its own
/// id as seed, answers as its replay. A round whose sample holds no root
/// is a step too, so an answer whose rounds include rootless ones
/// replays: at λ = 0.05 most answers have some.
fn every_sea_answer_replays(model: CommunityModel, lambda: f64) {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 300,
            communities: 5,
            ..Default::default()
        },
        9,
    );
    let engine = Engine::new(g);
    let mut answered = 0;
    for q in 0..engine.graph().n() as NodeId {
        let query = CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_model(model)
            .with_error_bound(0.001)
            .with_lambda(lambda)
            .with_seed(u64::from(q));
        let Some((answer, replay)) = replayed(&engine, &query) else {
            continue;
        };
        assert_eq!(answer, replay, "{model} λ = {lambda} q = {q}");
        answered += 1;
    }
    assert!(answered > 100, "{model} λ = {lambda}: {answered} answered");
}

// One test per case, so the four sweeps run in parallel.
#[test]
fn every_k_core_sea_answer_replays() {
    every_sea_answer_replays(CommunityModel::KCore, 0.2);
}

#[test]
fn every_k_truss_sea_answer_replays() {
    every_sea_answer_replays(CommunityModel::KTruss, 0.2);
}

#[test]
fn every_k_core_sea_answer_replays_at_a_small_lambda() {
    every_sea_answer_replays(CommunityModel::KCore, 0.05);
}

#[test]
fn every_k_truss_sea_answer_replays_at_a_small_lambda() {
    every_sea_answer_replays(CommunityModel::KTruss, 0.05);
}

/// `method`'s query of `q`. Exact and E-VAC take a step budget, so the
/// ask without a time budget ends too.
fn query_of(method: Method, q: NodeId, model: CommunityModel) -> CommunityQuery {
    let query = CommunityQuery::new(method, q)
        .with_k(3)
        .with_model(model)
        .with_seed(u64::from(q));
    match method {
        Method::Exact => query.with_step_budget(400),
        Method::EVac => query.with_step_budget(48),
        Method::SeaSizeBounded => query.with_size_bound(3, 12),
        _ => query,
    }
}

const LOOPING: [Method; 6] = [
    Method::Exact,
    Method::Sea,
    Method::SeaSizeBounded,
    Method::EVac,
    Method::Vac,
    Method::Atc,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Each looping method, in both models, asked with a short real time
    /// budget (wherever the clock fires) and with none: each answer
    /// equals its replay from its rounds.
    #[test]
    fn every_answer_replays_from_its_rounds(
        seed in 0u64..1_000,
        budget_us in 20u64..2_000,
        picks in prop::collection::vec(any::<u32>(), 3),
    ) {
        let (g, _) = generate(
            &SyntheticConfig {
                nodes: 120,
                communities: 4,
                ..Default::default()
            },
            seed,
        );
        let engine = Engine::new(g);
        let n = engine.graph().n();
        for model in MODELS {
            for q in picks.iter().map(|&i| i % n as NodeId) {
                for method in LOOPING {
                    let query = query_of(method, q, model);
                    let timed = query.clone().with_time_budget(Duration::from_micros(budget_us));
                    for (ask, query) in [("timed", timed), ("untimed", query)] {
                        if let Some((answer, replay)) = replayed(&engine, &query) {
                            prop_assert_eq!(answer, replay, "{} {} {} q = {}", ask, method, model, q);
                        }
                    }
                }
            }
        }
    }
}
