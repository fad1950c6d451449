//! Evolving-graph store integration tests: correctness after arbitrary
//! churn, epoch isolation, and selective cache retention.
//!
//! The acceptance contract (ISSUE 4): for arbitrary `GraphUpdate`
//! batches, every engine answer equals a fresh `Engine` built from the
//! updated graph, while a query node untouched by the update keeps its
//! cached distance table across the epoch bump (`Arc::ptr_eq`).

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::{random_queries, random_updates, ChurnMix};
use csag::engine::{outcome_identity, CommunityQuery, Engine, GraphStore, GraphUpdate, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The headline acceptance test: after every one of a stream of random
/// mixed batches, the evolving engine's answers — across methods and
/// models — are indistinguishable from a fresh engine built from the
/// post-churn graph.
#[test]
fn every_answer_after_churn_equals_a_fresh_engine() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 220,
            communities: 5,
            ..Default::default()
        },
        21,
    );
    let query_nodes = random_queries(&g, 4, 3, 77);
    let store = GraphStore::new(g);
    let mut rng = StdRng::seed_from_u64(0x5EED);

    // Exact and E-VAC runs carry a *state* budget: deterministic for a
    // given graph, so budget-stopped answers also compare equal across
    // engines — while keeping the debug-mode test fast. Every method runs
    // in both models.
    let queries_for = |q: u32| {
        let core = [
            CommunityQuery::new(Method::Exact, q)
                .with_k(3)
                .with_state_budget(2_000),
            CommunityQuery::new(Method::Sea, q)
                .with_k(3)
                .with_hoeffding(0.3, 0.95)
                .with_seed(q as u64),
            CommunityQuery::new(Method::SeaSizeBounded, q)
                .with_k(3)
                .with_size_bound(4, 10)
                .with_hoeffding(0.3, 0.95)
                .with_seed(q as u64),
            CommunityQuery::new(Method::Vac, q).with_k(3),
            CommunityQuery::new(Method::Acq, q).with_k(3),
            CommunityQuery::new(Method::Atc, q).with_k(3),
            CommunityQuery::new(Method::EVac, q)
                .with_k(3)
                .with_state_budget(16)
                .with_evac_max_root(None),
        ];
        let truss = core
            .clone()
            .map(|query| query.with_model(csag::decomp::CommunityModel::KTruss));
        core.into_iter().chain(truss).collect::<Vec<_>>()
    };
    // Warm the store (including the truss decomposition, so the patched
    // path is exercised on every later epoch).
    for &q in &query_nodes {
        for query in queries_for(q) {
            let _ = store.run(&query);
        }
    }

    for round in 0..4 {
        let batch = random_updates(store.snapshot().graph(), &mut rng, 10, ChurnMix::MIXED);
        let report = store.apply(&batch).expect("batch endpoints exist");
        assert_eq!(report.epoch, round + 1);

        let snap = store.snapshot();
        let fresh = Engine::new(snap.graph().clone());
        for &q in &query_nodes {
            for query in queries_for(q) {
                let a = snap.engine().run(&query);
                let b = fresh.run(&query);
                assert_eq!(
                    outcome_identity(&a, true),
                    outcome_identity(&b, true),
                    "epoch {} {:?} on q = {q} diverged",
                    report.epoch,
                    query.method
                );
            }
        }
        // The patched decompositions equal from-scratch recomputation.
        assert_eq!(
            snap.engine().coreness(),
            csag::decomp::core_decomposition(snap.graph()).as_slice(),
            "epoch {} coreness",
            report.epoch
        );
        assert_eq!(
            snap.engine().node_trussness(),
            csag::decomp::node_max_trussness(snap.graph()).as_slice(),
            "epoch {} trussness",
            report.epoch
        );
        assert_eq!(
            snap.engine().decomp_computations(),
            0,
            "epochs inherit maintained coreness, they never re-peel"
        );
    }
}

/// The retention half of the acceptance contract: an epoch bump caused by
/// a structural batch hands the *identical* `Arc` back for every cached
/// query node, and an attribute batch drops exactly the touched nodes.
#[test]
fn untouched_query_nodes_keep_their_distance_tables_across_epochs() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 200,
            communities: 4,
            ..Default::default()
        },
        5,
    );
    let nodes = random_queries(&g, 4, 3, 9);
    let (qa, qb) = (nodes[0], nodes[1]);
    let store = GraphStore::new(g);
    let gamma = CommunityQuery::new(Method::Exact, qa).with_k(3).gamma;
    // Two reads per node: the second admits its table.
    for &q in &[qa, qb, qa, qb] {
        store
            .run(&CommunityQuery::new(Method::Sea, q).with_k(3).with_seed(3))
            .expect("planted query nodes have 3-cores");
    }
    let snap0 = store.snapshot();
    let table_a = snap0.engine().cached_distances(qa, gamma).unwrap();
    let table_b = snap0.engine().cached_distances(qb, gamma).unwrap();

    // Structural churn far away from the cached query nodes: both tables
    // survive bit-for-bit.
    let far = (0..store.snapshot().graph().n() as u32)
        .rev()
        .find(|v| *v != qa && *v != qb)
        .unwrap();
    let report = store
        .apply(&[GraphUpdate::AddEdge { u: far, v: qa ^ 1 }])
        .unwrap();
    assert_eq!(report.distance_tables_retained, 2);
    let snap1 = store.snapshot();
    assert_eq!(snap1.epoch(), 1);
    assert!(Arc::ptr_eq(
        &table_a,
        &snap1.engine().cached_distances(qa, gamma).unwrap()
    ));
    assert!(Arc::ptr_eq(
        &table_b,
        &snap1.engine().cached_distances(qb, gamma).unwrap()
    ));

    // Attribute churn on qb (tokens only — normalization cannot move):
    // qb's table dies, qa's survives as a warm slot-patched copy.
    let report = store
        .apply(&[GraphUpdate::SetAttributes {
            v: qb,
            tokens: Some(vec!["rewritten".to_string()]),
            numeric: None,
        }])
        .unwrap();
    assert_eq!(report.distance_tables_invalidated, 1);
    assert_eq!(report.distance_tables_retained, 1);
    let snap2 = store.snapshot();
    assert!(snap2.engine().cached_distances(qb, gamma).is_none());
    let patched = snap2.engine().cached_distances(qa, gamma).unwrap();
    assert!(
        !Arc::ptr_eq(&table_a, &patched),
        "a slot was reset, so the handle must be a private copy"
    );
    assert_eq!(
        patched.computed(),
        table_a.computed() - 1,
        "exactly qb's slot was forgotten in qa's table"
    );

    // The old epochs' snapshots still hold their own graphs and caches.
    assert_eq!(snap0.epoch(), 0);
    assert!(snap0.engine().cached_distances(qb, gamma).is_some());
}

/// Concurrent readers pin epochs while a writer churns: every answer a
/// reader gets matches a fresh engine for *its* pinned epoch.
#[test]
fn concurrent_readers_see_consistent_epochs_during_churn() {
    let (g, _) = generate(
        &SyntheticConfig {
            nodes: 200,
            communities: 4,
            ..Default::default()
        },
        8,
    );
    let nodes = random_queries(&g, 4, 3, 13);
    let store = GraphStore::new(g);
    let make = |q: u32| {
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_hoeffding(0.3, 0.95)
            .with_seed(500 + q as u64)
    };

    std::thread::scope(|scope| {
        // Writer: a stream of structural batches.
        let writer_store = &store;
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xAB);
            for _ in 0..8 {
                let batch = random_updates(
                    writer_store.snapshot().graph(),
                    &mut rng,
                    4,
                    ChurnMix::MIXED,
                );
                writer_store.apply(&batch).expect("batch applies");
            }
        });
        // Readers: pin a snapshot, answer, verify against a fresh engine
        // built from that snapshot's graph.
        for &q in &nodes {
            let reader_store = &store;
            scope.spawn(move || {
                for _ in 0..4 {
                    let snap = reader_store.snapshot();
                    let evolved = snap.engine().run(&make(q));
                    let fresh = Engine::new(snap.graph().clone());
                    let rebuilt = fresh.run(&make(q));
                    assert_eq!(
                        outcome_identity(&evolved, true),
                        outcome_identity(&rebuilt, true),
                        "epoch {} reader on q = {q} diverged",
                        snap.epoch()
                    );
                }
            });
        }
    });
    assert_eq!(store.epoch(), 8);
}

/// "Local in fact", as a count no wall clock can give: toggling an edge
/// *inside* a planted community is the expensive case for the truss
/// repair — the new edge closes triangles, so a whole community level is
/// its candidate set — and its cost must depend on the community, not on
/// the graph. The same per-update bound holds at 5 000 and at 30 000
/// nodes (the benchmark's `G5` shape, communities of ≈ 91).
#[test]
fn truss_repair_work_is_bounded_by_the_community_not_the_graph() {
    use csag::decomp::{node_max_trussness, TrussMaintainer};
    use csag::graph::MutableGraph;
    use rand::Rng;

    const STEPS_PER_UPDATE: u64 = 8_000;
    for (nodes, communities) in [(5_000, 55), (30_000, 330)] {
        let config = SyntheticConfig {
            nodes,
            communities,
            intra_degree: 6,
            inter_degree: 1.5,
            personal_pool: 500,
            ..SyntheticConfig::default()
        };
        let (g, planted) = generate(&config, 20);
        let mut mutable = MutableGraph::from_graph(&g);
        let table = csag::decomp::EpochIndex::new().edge_trussness(&g).clone();
        let mut maint = TrussMaintainer::adopt(Arc::new(g.clone()), table);
        let mut rng = StdRng::seed_from_u64(0x10CA1);
        let (mut worst, mut total) = (0, 0);
        for _ in 0..512 {
            let community = &planted[rng.gen_range(0..planted.len())];
            let u = community[rng.gen_range(0..community.len())];
            let v = community[rng.gen_range(0..community.len())];
            let before = maint.work();
            if mutable.has_edge(u, v) {
                mutable.apply(&GraphUpdate::RemoveEdge { u, v }).unwrap();
                maint.remove_edge(&mutable, u, v);
            } else if u != v {
                mutable.apply(&GraphUpdate::AddEdge { u, v }).unwrap();
                maint.insert_edge(&mutable, u, v);
            }
            let steps = maint.work() - before;
            assert!(
                steps <= STEPS_PER_UPDATE,
                "{nodes} nodes: toggling ({u}, {v}) took {steps} steps"
            );
            worst = worst.max(steps);
            total += steps;
        }
        println!("{nodes} nodes: worst {worst}, mean {}", total / 512);
        let published = mutable.publish();
        assert_eq!(
            maint
                .publish(&published, &node_max_trussness(&g))
                .0
                .chunks()
                .concat(),
            csag::decomp::truss_decomposition(&published),
            "{nodes} nodes: the counted repairs are the correct ones"
        );
    }
}

fn small_store(seed: u64) -> GraphStore {
    let config = SyntheticConfig {
        nodes: 220,
        communities: 5,
        ..Default::default()
    };
    GraphStore::new(generate(&config, seed).0)
}

/// Applies one random batch drawn against the store's current graph.
fn churn(
    store: &GraphStore,
    rng: &mut StdRng,
    count: usize,
    mix: ChurnMix,
) -> csag::engine::UpdateReport {
    let batch = random_updates(store.snapshot().graph(), rng, count, mix);
    store.apply(&batch).expect("generated endpoints exist")
}

/// Both structural tables of the store's current epoch were handed over
/// by `apply` (this engine computed neither) and equal from-scratch
/// recomputation on the epoch's graph.
fn assert_inherited_tables_match_scratch(store: &GraphStore) {
    let snap = store.snapshot();
    let epoch = snap.epoch();
    assert_eq!(
        snap.engine().coreness(),
        csag::decomp::core_decomposition(snap.graph()).as_slice(),
        "epoch {epoch} coreness"
    );
    assert_eq!(
        snap.engine().node_trussness(),
        csag::decomp::node_max_trussness(snap.graph()).as_slice(),
        "epoch {epoch} trussness"
    );
    assert_eq!(
        snap.engine()
            .index()
            .edge_trussness(snap.graph())
            .chunks()
            .concat(),
        csag::decomp::truss_decomposition(snap.graph()),
        "epoch {epoch} per-edge trussness"
    );
    assert_eq!(snap.engine().decomp_computations(), 0, "epoch {epoch}");
    assert_eq!(
        snap.engine().truss_decomp_computations(),
        0,
        "epoch {epoch}"
    );
}

/// Reads the current epoch's trussness for the first time: the engine had
/// no table (it computes one now), and it is the right one.
fn assert_first_truss_read_computes(store: &GraphStore) {
    let snap = store.snapshot();
    assert_eq!(snap.engine().truss_decomp_computations(), 0);
    assert_eq!(
        snap.engine().node_trussness(),
        csag::decomp::node_max_trussness(snap.graph()).as_slice()
    );
    assert_eq!(snap.engine().truss_decomp_computations(), 1);
}

/// Trussness upkeep is paid for only by stores that use it: without a
/// k-truss question, `apply` seeds no maintainer and hands no table on.
#[test]
fn a_store_nobody_asks_truss_questions_stays_lazy_across_batches() {
    let store = small_store(31);
    let mut rng = StdRng::seed_from_u64(0x1A27);
    for _ in 0..4 {
        churn(&store, &mut rng, 12, ChurnMix::MIXED);
        assert_eq!(store.snapshot().engine().decomp_computations(), 0);
    }
    assert_first_truss_read_computes(&store);
    // From here on the table is resident, so the next batch carries it.
    churn(&store, &mut rng, 12, ChurnMix::MIXED);
    assert_inherited_tables_match_scratch(&store);
}

/// A batch that errors midway publishes its valid prefix — and the tables
/// published with it describe exactly that prefix.
#[test]
fn an_erroring_batch_publishes_tables_of_its_prefix() {
    let store = small_store(32);
    store.snapshot().engine().node_trussness();
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let mut batch = random_updates(store.snapshot().graph(), &mut rng, 12, ChurnMix::STRUCTURAL);
    let (u, v) = (0..220u32)
        .flat_map(|u| (u + 1..220).map(move |v| (u, v)))
        .find(|&(u, v)| !store.snapshot().graph().has_edge(u, v))
        .unwrap();
    batch.push(GraphUpdate::AddEdge { u: 0, v: 99_999 });
    batch.push(GraphUpdate::AddEdge { u, v });
    let err = store.apply(&batch).unwrap_err();
    assert!(matches!(err, csag::engine::ApplyError::Graph(_)), "{err}");
    assert_eq!(store.epoch(), 1, "the prefix published");
    assert!(!store.snapshot().graph().has_edge(u, v), "the tail did not");
    assert_inherited_tables_match_scratch(&store);
    // The maintainer stopped where the graph did: the next batch is exact.
    store.apply(&[GraphUpdate::AddEdge { u, v }]).unwrap();
    assert_inherited_tables_match_scratch(&store);
}

/// `reset_to` swaps the whole state: the maintainer of the old graph must
/// go with it, and the new graph earns its own the usual way.
#[test]
fn reset_to_drops_the_truss_maintainer_and_the_next_resident_epoch_reseeds() {
    let store = small_store(33);
    store.snapshot().engine().node_trussness();
    let mut rng = StdRng::seed_from_u64(0x5E7);
    churn(&store, &mut rng, 12, ChurnMix::STRUCTURAL);
    assert_inherited_tables_match_scratch(&store);

    // A different graph altogether (a follower swallowing a checkpoint).
    let other = small_store(34).snapshot().engine().graph_arc();
    store.reset_to(other, 10);
    churn(&store, &mut rng, 12, ChurnMix::STRUCTURAL);
    assert_eq!(store.epoch(), 11);
    assert_first_truss_read_computes(&store); // lazy again: nothing carried
    churn(&store, &mut rng, 12, ChurnMix::STRUCTURAL);
    assert_inherited_tables_match_scratch(&store); // reseeded from epoch 11
}

/// Sustained mixed churn with trussness resident — edges, attribute
/// rewrites and new vertices (which later batches wire in): both tables
/// equal from-scratch recomputation at every one of 24 epochs.
#[test]
fn resident_tables_equal_from_scratch_at_every_epoch_of_mixed_churn() {
    let store = small_store(35);
    store.snapshot().engine().node_trussness();
    let mut rng = StdRng::seed_from_u64(0xC4095);
    let (mut vertices, mut edges) = (0, 0);
    for round in 1..=24 {
        let report = churn(&store, &mut rng, 16, ChurnMix::MIXED);
        assert_eq!(report.epoch, round);
        vertices += report.vertices_added;
        edges += report.edges_added + report.edges_removed;
        assert_inherited_tables_match_scratch(&store);
    }
    assert!(
        vertices > 0 && edges > 100,
        "{vertices} vertices, {edges} edge toggles"
    );
}

mod published_epochs {
    use super::*;
    use csag::decomp::{node_max_trussness, truss_decomposition, CommunityModel, Maintainer};
    use csag::graph::graph::chunk_nodes;
    use csag::graph::{Applied, AttributedGraph, GraphBuilder, NodeId};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A graph of `n` nodes dealt to up to four blocks, with the edges of
    /// `pairs` that stay inside a block, one numeric attribute a node.
    fn blocks(block: &[u8], pairs: &[(u32, u32)]) -> AttributedGraph {
        let mut b = GraphBuilder::new(1);
        for v in 0..block.len() {
            b.add_node(&["t"], &[v as f64]);
        }
        for &(u, v) in pairs {
            if block[u as usize] == block[v as usize] {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// One raw op on `g`: kind 0–2 adds an edge inside `a`'s block, 3–4
    /// removes one of `a`'s edges (or, with none, falls through), 5
    /// rewrites `a`'s attribute, 6 appends a vertex (in block `id % 4`).
    fn update(g: &AttributedGraph, block: &[u8], (kind, a, b): (u8, u32, u32)) -> GraphUpdate {
        let u = a % g.n() as u32;
        let mates: Vec<NodeId> = (0..g.n() as u32)
            .filter(|&w| block[w as usize] == block[u as usize])
            .collect();
        let nbrs = g.neighbors(u);
        match kind {
            0..=2 => GraphUpdate::AddEdge {
                u,
                v: mates[b as usize % mates.len()],
            },
            3 | 4 if !nbrs.is_empty() => GraphUpdate::RemoveEdge {
                u,
                v: nbrs[b as usize % nbrs.len()],
            },
            3..=5 => GraphUpdate::SetAttributes {
                v: u,
                tokens: None,
                numeric: Some(vec![f64::from(b)]),
            },
            _ => GraphUpdate::AddVertex {
                tokens: vec!["t".into()],
                numeric: vec![f64::from(b)],
            },
        }
    }

    /// A k-truss read first, so the store's repair is seeded; then after
    /// every batch the published epoch holds the decomposition's per-edge
    /// table and node trussness, decomposed nothing, shares every chunk of
    /// the previous table exactly when the batch moved no edge, shares
    /// each adjacency chunk exactly when the batch left it untouched, and
    /// answers every root — each q, k from 2 to 6, both models — as the
    /// peel of the whole graph.
    fn check(
        block: &mut Vec<u8>,
        pairs: &[(u32, u32)],
        batches: &[Vec<(u8, u32, u32)>],
    ) -> Result<(), TestCaseError> {
        let store = GraphStore::new(blocks(block, pairs));
        store.snapshot().engine().node_trussness();
        for raw in batches {
            let before = store.snapshot();
            let mut batch = Vec::new();
            let mut edited_rows = Vec::new();
            let mut preview = csag::graph::MutableGraph::from_arc(before.engine().graph_arc());
            for &op in raw {
                let next = update(&preview.snapshot(), block, op);
                match preview.apply(&next).unwrap() {
                    Applied::VertexAdded(v) => block.push(v as u8 % 4),
                    Applied::EdgeAdded(u, v) | Applied::EdgeRemoved(u, v) => {
                        edited_rows.extend([u, v])
                    }
                    Applied::AttributesSet(_) | Applied::NoOp => {}
                }
                batch.push(next);
            }
            let report = store.apply(&batch).expect("endpoints exist");
            let snap = store.snapshot();
            let (engine, g) = (snap.engine(), snap.graph());
            let index = engine.index();
            let table = index.edge_trussness_if_computed().expect("published");
            let previous = before.engine().index().edge_trussness_if_computed();
            let moved = report.edges_added + report.edges_removed > 0;
            let shares_all = previous.is_some_and(|p| {
                let pairs = p.chunks().iter().zip(table.chunks());
                pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count() == p.chunks().len()
            });
            prop_assert_eq!(shares_all, !moved, "{:?}", batch);
            // The graph shares each adjacency chunk whose nodes the batch
            // left as they were and none of whose rows it edited: an
            // attribute-only batch every chunk, an `AddVertex`-only one
            // every chunk but a last one that gained nodes.
            let old_graph = before.graph();
            for (c, chunk) in g.row_chunks().iter().enumerate() {
                let nodes = chunk_nodes(c, g.n());
                let untouched = nodes == chunk_nodes(c, old_graph.n())
                    && !edited_rows.iter().any(|&v| nodes.contains(&(v as usize)));
                let shared = old_graph
                    .row_chunks()
                    .get(c)
                    .is_some_and(|p| Arc::ptr_eq(p, chunk));
                prop_assert_eq!(shared, untouched, "chunk {} after {:?}", c, batch);
            }
            prop_assert_eq!(table.chunks().concat(), truss_decomposition(g));
            prop_assert_eq!(engine.node_trussness().to_vec(), node_max_trussness(g));
            let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
            for model in [CommunityModel::KCore, CommunityModel::KTruss] {
                for k in 2..=6 {
                    let mut m = Maintainer::new(g, index, model, k);
                    for &q in &all {
                        let root = m.maximal(q);
                        prop_assert_eq!(
                            root,
                            m.maximal_within(q, &all),
                            "{} k={} q={}",
                            model,
                            k,
                            q
                        );
                    }
                }
            }
            prop_assert_eq!(engine.truss_decomp_computations(), 0);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Random multi-block graphs through a `GraphStore` with random
        /// structural, attribute-only and `AddVertex` batches (the long
        /// run of the same protocol is `prop_maintain`'s ignored one).
        #[test]
        fn published_epochs_hold_the_decomposition_and_walk_their_roots(
            (mut block, pairs, batches) in (2usize..28).prop_flat_map(|n| (
                prop::collection::vec(0u8..4, n),
                prop::collection::vec((0..n as u32, 0..n as u32), 0..120),
                prop::collection::vec(prop::collection::vec((0u8..7, 0u32..64, 0u32..64), 0..10), 1..7),
            )),
        ) {
            check(&mut block, &pairs, &batches)?;
        }
    }
}
