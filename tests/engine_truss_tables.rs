//! Reads build no `O(m)` edge table: every engine read — SEA, size-bounded
//! SEA, Exact and the four baselines — borrows the engine's `EpochIndex`,
//! whose one per-edge table is the trussness table (decomposed by a fresh
//! engine, handed over repaired on a store-seeded epoch, and built by no
//! read), and a k-truss peel numbers the edges of the subset it peels, so
//! the peel scratch a worker pools grows to the largest subset's internal
//! edges, not to `m`.
//! Each read answers exactly as the standalone call with a fresh index.
//! An engine SEA read takes q's component from the index's component
//! table, which equals the walk of q's component. And one truss
//! decomposition per store: the first write seeds its trussness repair
//! from the table the engine's decomposition kept, decomposing nothing.
//!
//! Keep this file at ONE `#[test]`: `truss_decompositions` is
//! process-wide, so a concurrently running sibling test would pollute the
//! deltas.

use csag::baselines::{acq, e_vac, loc_atc, vac, BaselineResult, EVacLimits};
use csag::core::distance::{DistanceParams, QueryDistances};
use csag::core::exact::{Exact, ExactParams};
use csag::core::sea::{grow_neighborhood, Sea, SeaParams};
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{random_updates, ChurnMix};
use csag::decomp::{
    node_max_trussness, truss_decomposition, truss_decompositions, CommunityModel, EpochIndex,
    Maintainer,
};
use csag::engine::{
    outcome_identity, CommunityQuery, CommunityResult, CsagError, Engine, GraphStore, Method,
};
use csag::graph::traversal::Components;
use csag::graph::{AttributedGraph, GraphUpdate as Edit, MutableGraph, NodeId, QueryWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const K: u32 = 4;
const STATES: u64 = 200;
/// E-VAC scores each state in `O(|H|²)`, so it gets a smaller budget.
const EVAC_STATES: u64 = 16;
/// The methods whose every read answers iff q has a root: all but
/// size-bounded SEA.
const ROOTED: [Method; 6] = [
    Method::Sea,
    Method::Exact,
    Method::Acq,
    Method::Atc,
    Method::Vac,
    Method::EVac,
];

/// Every homogeneous method's read of `q` under `model`, engine-side.
fn reads(q: NodeId, model: CommunityModel) -> Vec<CommunityQuery> {
    let query = |method| CommunityQuery::new(method, q).with_k(K).with_model(model);
    vec![
        query(Method::Sea)
            .with_error_bound(0.1)
            .with_seed(u64::from(q)),
        query(Method::SeaSizeBounded)
            .with_size_bound(5, 12)
            .with_error_bound(0.1)
            .with_seed(u64::from(q)),
        query(Method::Exact).with_state_budget(STATES),
        query(Method::Acq),
        query(Method::Atc),
        query(Method::Vac),
        query(Method::EVac)
            .with_state_budget(EVAC_STATES)
            .with_evac_max_root(None),
    ]
}

/// `query` run by the standalone call with a fresh index, in the engine's
/// answer shape: the engine's own `answer` with every field the search
/// decides replaced by the standalone run's. The two are
/// `outcome_identity`-equal iff both searches returned the same community,
/// δ, interval, certificate, objective and effort counters (or the same
/// error).
fn standalone(
    engine: &Engine,
    query: &CommunityQuery,
    answer: &Result<CommunityResult, CsagError>,
) -> String {
    let g = engine.graph();
    let dp = DistanceParams::default();
    let index = EpochIndex::new();
    let like = || answer.clone().expect("the engine answered too");
    let (q, k, model) = (query.q, query.k, query.model);
    let maintainer = || Maintainer::new(g, &index, model, k);
    let baseline = |r: BaselineResult| {
        let mut res = like();
        res.delta = QueryDistances::new(q, g.n(), dp).delta(g, &r.community);
        res.community = r.community;
        res.provenance.objective = Some(r.objective);
        res
    };
    let outcome = match query.method {
        Method::Sea | Method::SeaSizeBounded => {
            let mut params = SeaParams::default()
                .with_k(k)
                .with_model(model)
                .with_error_bound(query.error_bound);
            if let Some((l, h)) = query.size_bound {
                params = params.with_size_bound(l, h);
            }
            let mut rng = StdRng::seed_from_u64(query.seed);
            Sea::new(g, &index, dp).run(q, &params, &mut rng).map(|r| {
                let mut res = like();
                res.community = r.community;
                res.delta = r.delta_star;
                let cert = res.certificate.as_mut().expect("SEA answers certify");
                cert.certified = r.certified;
                cert.moe = r.ci.moe;
                res.provenance.rounds = r.rounds.len();
                res.provenance.candidates_examined =
                    r.rounds.iter().map(|x| x.candidates_examined).sum();
                res.provenance.population_size = r.population_size;
                res.provenance.sample_size = r.sample_size;
                res
            })
        }
        Method::Exact => {
            let params = ExactParams::default()
                .with_k(k)
                .with_model(model)
                .with_state_budget(STATES);
            Exact::new(g, &index, dp).run(q, &params).map(|r| {
                let mut res = like();
                res.community = r.community;
                res.delta = r.delta;
                res.provenance.states_explored = r.states_explored;
                res
            })
        }
        Method::Acq => acq(&mut maintainer(), q).map(baseline),
        Method::Atc => loc_atc(&mut maintainer(), q, None).map(baseline),
        Method::Vac => vac(
            &mut maintainer(),
            &QueryDistances::new(q, g.n(), dp),
            query.vac_iteration_cap,
            None,
        )
        .map(baseline),
        Method::EVac => {
            let limits = EVacLimits {
                state_budget: query.state_budget,
                max_root: query.evac_max_root,
                time_budget: None,
            };
            e_vac(&mut maintainer(), q, dp, &limits).map(baseline)
        }
        Method::SeaHetero => unreachable!("not a homogeneous read"),
    };
    outcome_identity(&outcome, false)
}

/// Every answer in `answers` equals the standalone call's; adds to
/// `found` how many found a community, per method.
fn all_match_standalone(
    engine: &Engine,
    answers: &[(CommunityQuery, Result<CommunityResult, CsagError>)],
    label: &str,
    found: &mut HashMap<Method, usize>,
) {
    for (query, answer) in answers {
        assert_eq!(
            outcome_identity(answer, false),
            standalone(engine, query, answer),
            "{label}: {} {} at q = {}",
            query.method,
            query.model,
            query.q
        );
        *found.entry(query.method).or_default() += usize::from(answer.is_ok());
    }
}

#[test]
fn truss_reads_build_no_edge_table_and_the_first_write_adopts_the_decomposition() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 300,
            communities: 6,
            ..Default::default()
        },
        11,
    );

    // A standalone engine: the trussness screen runs the one
    // decomposition, and its per-edge table (CSR order) is kept.
    let engine = Engine::new(g.clone());
    let before = truss_decompositions();
    let trussness = engine.node_trussness().to_vec();
    assert_eq!(
        truss_decompositions() - before,
        1,
        "the screen's decomposition"
    );
    let kept = engine
        .index()
        .edge_trussness_if_computed()
        .map(|t| t.chunks().concat().len());
    assert_eq!(kept, Some(2 * g.m()), "one entry per adjacency slot");
    let coreness = engine.coreness();
    let picks: Vec<NodeId> = (0..g.n() as NodeId)
        .filter(|&v| trussness[v as usize] >= K && coreness[v as usize] >= K)
        .step_by(37)
        .take(6)
        .collect();
    assert!(
        picks.len() >= 4,
        "the generator plants 4-trusses: {picks:?}"
    );

    let before = truss_decompositions();
    let mut truss_answers = Vec::new();
    for _ in 0..3 {
        for &q in &picks {
            for query in reads(q, CommunityModel::KTruss) {
                truss_answers.push((query.clone(), engine.run(&query)));
            }
        }
    }
    assert_eq!(
        truss_decompositions() - before,
        0,
        "warm k-truss reads of every method build no edge table"
    );

    // Every answer, k-core and k-truss, equals the standalone call's.
    let core_answers: Vec<_> = picks
        .iter()
        .flat_map(|&q| reads(q, CommunityModel::KCore))
        .map(|query| {
            let answer = engine.run(&query);
            (query, answer)
        })
        .collect();
    let mut found = HashMap::new();
    all_match_standalone(&engine, &truss_answers, "warm", &mut found);
    all_match_standalone(&engine, &core_answers, "warm", &mut found);
    // Each pick lies in a 4-core and a 4-truss, so every read of every
    // method but size-bounded SEA (whose bound may exclude each
    // community) finds one: three k-truss rounds and one k-core read per
    // pick. A state-budgeted Exact or E-VAC answers its best so far.
    for method in ROOTED {
        assert_eq!(found[&method], 4 * picks.len(), "{method}: {found:?}");
    }

    // A store-seeded epoch: the store hands the engine the per-edge
    // table it repaired and its node trussness, and its reads decompose
    // nothing.
    let store = GraphStore::new(g.clone());
    let mut rng = StdRng::seed_from_u64(7);
    let batch = random_updates(&g, &mut rng, 8, ChurnMix::MIXED);
    first_write_decomposes_nothing(&store, &batch, "plain store");
    let snap = store.snapshot();
    let before = truss_decompositions();
    let mut seeded_answers = Vec::new();
    for _ in 0..3 {
        for &q in &picks {
            for query in reads(q, CommunityModel::KTruss) {
                seeded_answers.push((query.clone(), snap.engine().run(&query)));
            }
        }
    }
    assert_eq!(truss_decompositions() - before, 0, "seeded reads");
    assert_eq!(snap.engine().truss_decomp_computations(), 0, "seeded");
    assert_eq!(
        snap.engine()
            .index()
            .edge_trussness_if_computed()
            .map(|t| t.chunks().concat()),
        Some(truss_decomposition(snap.graph())),
        "a seeded epoch holds the store's repaired per-edge table"
    );
    // The churn may drop a pick's root; a read then fails for every
    // method alike.
    let mut found = HashMap::new();
    all_match_standalone(snap.engine(), &seeded_answers, "seeded", &mut found);
    let rooted = found[&Method::Sea];
    assert!(rooted > 0, "{found:?}");
    for method in ROOTED {
        assert_eq!(found[&method], rooted, "seeded {method}: {found:?}");
    }

    // The same on a durable store, and on a store reset to a fresh graph
    // (its maintainer starts over).
    let dir = std::env::temp_dir().join(format!("csag-truss-tables-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = GraphStore::with_wal(g.clone(), &dir).expect("fresh WAL");
    first_write_decomposes_nothing(&durable, &batch, "WAL store");
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    store.reset_to(Arc::new(g.clone()), store.epoch() + 1);
    first_write_decomposes_nothing(&store, &batch, "reset store");

    engine_reads_match_the_walk_across_components(&g);
}

/// Makes trussness resident on `store`'s current epoch, then applies
/// `batch`: the write must run no decomposition (its trussness repair
/// adopts the table the engine's decomposition kept), and the node
/// trussness it hands the next epoch must equal a fresh decomposition's.
fn first_write_decomposes_nothing(store: &GraphStore, batch: &[Edit], label: &str) {
    store.snapshot().engine().node_trussness();
    let before = truss_decompositions();
    let report = store.apply(batch).expect("churn applies");
    assert_eq!(truss_decompositions() - before, 0, "{label}: first write");
    assert!(
        report.edges_added + report.edges_removed > 0,
        "{label}: structural"
    );
    let snap = store.snapshot();
    assert_eq!(
        snap.engine().truss_decomp_computations(),
        0,
        "{label}: seeded"
    );
    assert_eq!(
        snap.engine().node_trussness(),
        node_max_trussness(snap.graph()).as_slice(),
        "{label}: maintained node trussness"
    );
}

/// `g` cut into three blocks of ids (`0..100`, `100..200`, the rest) with
/// no edge between blocks, and every 50th node stripped of its edges.
fn blocks_and_isolated(g: &AttributedGraph) -> AttributedGraph {
    let mut cut = MutableGraph::from_graph(g);
    for (u, v) in g.edges() {
        if u / 100 != v / 100 || u % 50 == 0 || v % 50 == 0 {
            cut.apply(&Edit::RemoveEdge { u, v }).expect("edge of g");
        }
    }
    cut.snapshot()
}

/// On a graph of several components and isolated nodes, every node's
/// component in the engine's table equals the walk of it, and every
/// engine SEA read — k-core, k-truss and size-bounded, under several
/// seeds — answers exactly as the standalone solver, as does every
/// method's k-truss read of one truss node per block. All of them run on
/// one workspace, and every subset they peel lies in one block, so its
/// pooled peel scratch ends with at most two row slots (one per
/// direction) per edge of the largest block: the peels sized it by what
/// they peeled, not by `m`.
fn engine_reads_match_the_walk_across_components(g: &AttributedGraph) {
    let cut = blocks_and_isolated(g);
    let components = Components::new(&cut);
    let isolated = components.iter().filter(|c| c.len() == 1).count();
    assert!(isolated >= 6, "every 50th node is isolated: {isolated}");
    assert!(
        components.iter().count() - isolated >= 3,
        "three blocks at least"
    );
    let block_edges = |b: NodeId| cut.edges().filter(|&(u, _)| u / 100 == b).count();
    let largest_block = (0..3).map(block_edges).max().expect("three blocks");
    assert!(2 * largest_block < cut.m(), "no block holds half the edges");
    let engine = Engine::new(cut);
    let g = engine.graph();
    for q in 0..g.n() as NodeId {
        let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
        assert_eq!(
            engine.index().components(g).of(q),
            grow_neighborhood(g, q, g.n(), &dist),
            "q = {q}: the component table is the walk"
        );
    }
    let (coreness, trussness) = (engine.coreness().to_vec(), engine.node_trussness().to_vec());
    let mut ws = QueryWorkspace::new();
    let mut answered = [0usize; 3];
    let mut truss_answers = Vec::new();
    for (block, answered) in answered.iter_mut().enumerate() {
        let first = block as NodeId * 100;
        let nodes = first..(first + 100).min(engine.graph().n() as NodeId);
        let picks: Vec<NodeId> = nodes
            .filter(|&v| coreness[v as usize] >= K)
            .step_by(7)
            .take(4)
            .collect();
        for &q in &picks {
            for seed in [1, 2, 77] {
                let sea = CommunityQuery::new(Method::Sea, q)
                    .with_k(K)
                    .with_error_bound(0.1)
                    .with_seed(seed);
                let mut queries = vec![
                    sea.clone(),
                    sea.clone()
                        .with_size_bound(5, 12)
                        .with_method(Method::SeaSizeBounded),
                ];
                if trussness[q as usize] >= K {
                    queries.push(sea.with_model(CommunityModel::KTruss));
                }
                for query in queries {
                    let answer = engine.run_with_workspace(&query, &mut ws);
                    assert_eq!(
                        outcome_identity(&answer, false),
                        standalone(&engine, &query, &answer),
                        "{} {} at q = {q}, seed {seed}",
                        query.method,
                        query.model
                    );
                    *answered += usize::from(answer.is_ok());
                }
            }
        }
        if let Some(&q) = picks.iter().find(|&&v| trussness[v as usize] >= K) {
            for query in reads(q, CommunityModel::KTruss) {
                let answer = engine.run_with_workspace(&query, &mut ws);
                truss_answers.push((query, answer));
            }
        }
    }
    assert!(
        answered.iter().all(|&a| a >= 12),
        "every block answers: {answered:?}"
    );
    let mut found = HashMap::new();
    all_match_standalone(&engine, &truss_answers, "blocks", &mut found);
    assert!(
        found[&Method::Sea] >= 2,
        "k-truss reads answered: {found:?}"
    );
    let slots = ws.take_peel().slots.len();
    assert!(slots > 0, "the k-truss reads peeled");
    assert!(
        slots <= 2 * largest_block,
        "the peel laid out {slots} row slots; the largest block has {largest_block} edges"
    );
}
