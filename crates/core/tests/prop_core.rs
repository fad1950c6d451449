//! Property tests: the exact algorithm against brute force, SEA
//! structural validity, the prefix ladder against from-scratch peels,
//! SEA in place against SEA on a materialized copy of its population, and
//! SEA's answer against the candidates it estimated, on random attributed
//! graphs.

use csag_core::distance::{DistanceParams, QueryDistances};
use csag_core::error::CsagError;
use csag_core::exact::{Exact, ExactParams, PruningConfig};
use csag_core::sea::{
    grow_neighborhood, grow_neighborhood_into, prefix_ladder, sea_on_population, Sea, SeaParams,
    SeaResult,
};
use csag_decomp::{CommunityModel, EpochIndex, Maintainer};
use csag_graph::traversal::component_of;
use csag_graph::{AttributedGraph, GraphBuilder, NodeId, QueryWorkspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::ControlFlow;

/// Random attributed graph: n in 4..12 so subsets are enumerable.
fn arb_graph() -> impl Strategy<Value = (AttributedGraph, u32)> {
    (4usize..12)
        .prop_flat_map(|n| {
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..40);
            let values = prop::collection::vec(0.0f64..1.0, n);
            let topics = prop::collection::vec(0usize..3, n);
            (Just(n), edges, values, topics, 0..n as u32)
        })
        .prop_map(|(n, edges, values, topics, q)| {
            let names = ["alpha", "beta", "gamma"];
            let mut b = GraphBuilder::new(1);
            for i in 0..n {
                b.add_node(&[names[topics[i]]], &[values[i]]);
            }
            for (u, v) in edges {
                b.add_edge(u, v).unwrap();
            }
            (b.build().unwrap(), q)
        })
}

/// A denser graph of 12..48 nodes with mixed token sets, a query node and
/// a population size: big enough that a grown neighborhood is a proper,
/// id-interleaved subset holding a community most of the time. Sizes from
/// `n` up draw the whole component (the walk branch of growth).
fn arb_population_case() -> impl Strategy<Value = (AttributedGraph, u32, usize)> {
    (12usize..48)
        .prop_flat_map(|n| {
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 3 * n..7 * n);
            let values = prop::collection::vec(0.0f64..1.0, n);
            let topics = prop::collection::vec(1usize..8, n);
            (edges, values, topics, 0..n as u32, n / 3..n + 3)
        })
        .prop_map(|(edges, values, topics, q, pop_size)| {
            let names = ["alpha", "beta", "gamma"];
            let mut b = GraphBuilder::new(1);
            for (mask, x) in topics.iter().zip(&values) {
                let tokens: Vec<&str> = (0..3)
                    .filter(|bit| mask & (1 << bit) != 0)
                    .map(|bit| names[bit])
                    .collect();
                b.add_node(&tokens, &[*x]);
            }
            for (u, v) in edges {
                b.add_edge(u, v).unwrap();
            }
            (b.build().unwrap(), q, pop_size)
        })
}

/// A graph of 1..40 nodes split into up to four id-interleaved blocks
/// (node `v` sits in block `v % blocks`) with edges only inside a block,
/// so it has several components and, often, isolated nodes; plus a query
/// node and a growth size at or above `n`.
fn arb_components_case() -> impl Strategy<Value = (AttributedGraph, u32, usize)> {
    (1usize..40, 1u32..5)
        .prop_flat_map(|(n, blocks)| {
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..2 * n);
            let values = prop::collection::vec(0.0f64..1.0, n);
            (Just(blocks), edges, values, 0..n as u32, n..n + 3)
        })
        .prop_map(|(blocks, edges, values, q, size)| {
            let mut b = GraphBuilder::new(1);
            for x in &values {
                b.add_node(&["t"], &[*x]);
            }
            for (u, v) in edges {
                if u % blocks == v % blocks {
                    b.add_edge(u, v).unwrap();
                }
            }
            (b.build().unwrap(), q, size)
        })
}

/// A graph of 12..30 nodes split into 2..4 id-interleaved blocks (node
/// `v` sits in block `v % blocks`) with random edges only inside a block,
/// plus a query node: q's community lives in a block of 3..15 nodes, so
/// many searches, unpruned ones included, stay small enough to rerun at
/// every state budget.
fn arb_bracket_case() -> impl Strategy<Value = (AttributedGraph, u32)> {
    (12usize..31, 2u32..5)
        .prop_flat_map(|(n, blocks)| {
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 3 * n..6 * n);
            let values = prop::collection::vec(0.0f64..1.0, n);
            let topics = prop::collection::vec(0usize..3, n);
            (Just(blocks), edges, values, topics, 0..n as u32)
        })
        .prop_map(|(blocks, edges, values, topics, q)| {
            let names = ["alpha", "beta", "gamma"];
            let mut b = GraphBuilder::new(1);
            for (t, x) in topics.iter().zip(&values) {
                b.add_node(&[names[*t]], &[*x]);
            }
            for (u, v) in edges {
                if u % blocks == v % blocks {
                    b.add_edge(u, v).unwrap();
                }
            }
            (b.build().unwrap(), q)
        })
}

/// The rung sizes the prefix ladder promises over a list of `len` members:
/// from `min_members − 1` (at least 1), ×5/4 (at least +1) up to the whole
/// list, or every size up to `window_top` (capped at the list).
fn expected_rungs(len: usize, min_members: usize, window_top: Option<usize>) -> Vec<usize> {
    let top = window_top.map_or(len, |t| t.min(len));
    let mut sizes = Vec::new();
    let mut size = min_members.saturating_sub(1).max(1);
    while size <= top {
        sizes.push(size);
        size = match window_top {
            Some(_) => size + 1,
            None if size == top => break,
            None => (size * 5 / 4).max(size + 1).min(top),
        };
    }
    sizes
}

/// Everything about a SEA outcome that is not wall-clock time, with the
/// community mapped through `to_graph_id`; errors compare by variant (their
/// text names the query node in whichever id space the search ran in).
fn outcome(
    res: Result<SeaResult, CsagError>,
    to_graph_id: &dyn Fn(NodeId) -> NodeId,
) -> Result<impl PartialEq + std::fmt::Debug, std::mem::Discriminant<CsagError>> {
    match res {
        Ok(r) => Ok((
            r.community
                .iter()
                .map(|&v| to_graph_id(v))
                .collect::<Vec<_>>(),
            (r.delta_star.to_bits(), r.ci.moe.to_bits(), r.certified),
            (r.population_size, r.sample_size),
            r.rounds
                .iter()
                .map(|x| {
                    (
                        x.delta_star.to_bits(),
                        x.moe.to_bits(),
                        x.added_samples,
                        x.candidates_examined,
                    )
                })
                .collect::<Vec<_>>(),
        )),
        Err(e) => Err(std::mem::discriminant(&e)),
    }
}

/// Brute force optimal connected k-core by subset enumeration.
fn brute_force(g: &AttributedGraph, q: u32, k: u32) -> Option<(f64, Vec<u32>)> {
    let n = g.n();
    let dist = QueryDistances::new(q, n, DistanceParams::default());
    let mut best: Option<(f64, Vec<u32>)> = None;
    for mask in 1u32..(1 << n) {
        if mask & (1 << q) == 0 {
            continue;
        }
        let nodes: Vec<u32> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
        let ok_deg = nodes.iter().all(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|w| nodes.binary_search(w).is_ok())
                .count()
                >= k as usize
        });
        if !ok_deg || !csag_graph::traversal::is_connected_subset(g, &nodes) {
            continue;
        }
        let d = dist.delta(g, &nodes);
        match &best {
            Some((bd, _)) if d >= *bd - 1e-15 => {}
            _ => best = Some((d, nodes)),
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact (all prunings) equals brute force in δ.
    #[test]
    fn exact_matches_brute_force((g, q) in arb_graph(), k in 1u32..4) {
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::default());
        let res = exact.run(q, &ExactParams::default().with_k(k));
        let brute = brute_force(&g, q, k);
        match (res, brute) {
            (Err(CsagError::NoCommunity { .. }), None) => {}
            (Ok(r), Some((bd, _))) => {
                prop_assert!(
                    (r.delta - bd).abs() < 1e-9,
                    "exact {} vs brute {}", r.delta, bd
                );
            }
            (r, b) => prop_assert!(
                false,
                "existence mismatch: exact={:?} brute={:?}",
                r.map(|x| x.community),
                b.map(|x| x.1)
            ),
        }
    }

    /// Every pruning configuration returns the same optimum.
    #[test]
    fn pruning_configs_agree((g, q) in arb_graph(), k in 1u32..4) {
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::default());
        let full = exact.run(q, &ExactParams::default().with_k(k));
        for pruning in [PruningConfig::NO_P3, PruningConfig::P1_ONLY, PruningConfig::NONE] {
            let other = exact.run(
                q,
                &ExactParams::default().with_k(k).with_pruning(pruning),
            );
            match (&full, &other) {
                (Err(CsagError::NoCommunity { .. }), Err(CsagError::NoCommunity { .. })) => {}
                (Ok(a), Ok(b)) => prop_assert!(
                    (a.delta - b.delta).abs() < 1e-9,
                    "{:?}: {} vs {}", pruning, a.delta, b.delta
                ),
                _ => prop_assert!(false, "existence mismatch under {:?}", pruning),
            }
        }
    }

    /// SEA always returns a structurally valid community containing q, and
    /// its δ is never better than the exact optimum (it is a restriction).
    #[test]
    fn sea_returns_valid_connected_kcore((g, q) in arb_graph(), k in 2u32..4, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let index = EpochIndex::new();
        let sea = Sea::new(&g, &index, DistanceParams::default());
        let params = SeaParams::default().with_k(k).with_error_bound(0.2);
        if let Ok(res) = sea.run(q, &params, &mut rng) {
            prop_assert!(res.community.binary_search(&q).is_ok());
            for &v in &res.community {
                let d = g
                    .neighbors(v)
                    .iter()
                    .filter(|w| res.community.binary_search(w).is_ok())
                    .count();
                prop_assert!(d >= k as usize);
            }
            prop_assert!(csag_graph::traversal::is_connected_subset(&g, &res.community));
            // δ⋆ is the true attribute distance of the returned community.
            let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
            let actual = dist.delta(&g, &res.community);
            prop_assert!((actual - res.delta_star).abs() < 1e-9);
            // And it cannot beat the optimum.
            if let Some((bd, _)) = brute_force(&g, q, k) {
                prop_assert!(res.delta_star >= bd - 1e-9);
            }
        }
    }

    /// If the exact search finds a community, SEA (given enough rounds and
    /// the full population) must find one too — sampling cannot invent
    /// non-existence.
    #[test]
    fn sea_existence_matches_exact((g, q) in arb_graph(), k in 2u32..4) {
        let mut rng = StdRng::seed_from_u64(1234);
        let index = EpochIndex::new();
        let exact_exists = Exact::new(&g, &index, DistanceParams::default())
            .run(q, &ExactParams::default().with_k(k))
            .is_ok();
        let sea_exists = Sea::new(&g, &index, DistanceParams::default())
            .run(q, &SeaParams::default().with_k(k).with_error_bound(0.3), &mut rng)
            .is_ok();
        prop_assert_eq!(sea_exists, exact_exists);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A search stopped at any state budget B brackets the optimum:
    /// `lower_bound ≤ δ_opt ≤ δ_B`. The bracket never widens as B grows,
    /// and it closes, with the unbudgeted community, exactly when B
    /// reaches the `C` states the unbudgeted search needs. Searches
    /// needing more than 300 states are skipped to keep the B-sweep small.
    #[test]
    fn a_stopped_search_brackets_the_optimum((g, q) in arb_bracket_case(), k in 2u32..4) {
        let index = EpochIndex::new();
        let exact = Exact::new(&g, &index, DistanceParams::default());
        for model in [CommunityModel::KCore, CommunityModel::KTruss] {
            for pruning in [
                PruningConfig::ALL,
                PruningConfig::NO_P3,
                PruningConfig::P1_ONLY,
                PruningConfig::NONE,
            ] {
                let params = ExactParams::default()
                    .with_k(k)
                    .with_model(model)
                    .with_pruning(pruning);
                let Ok(full) = exact.run(q, &params.clone().with_state_budget(300)) else {
                    continue;
                };
                if !full.complete {
                    continue;
                }
                let (opt, c) = (full.delta, full.states_explored);
                let mut gap = f64::INFINITY;
                for b in 1..=c {
                    let r = exact.run(q, &params.clone().with_state_budget(b)).unwrap();
                    let at = format!("{model} k={k} {pruning:?} B={b} of {c}");
                    prop_assert!(
                        r.lower_bound <= opt + 1e-12 && opt <= r.delta + 1e-12,
                        "{}: {} ≤ {} ≤ {} fails", at, r.lower_bound, opt, r.delta
                    );
                    prop_assert!(r.delta - r.lower_bound <= gap + 1e-12, "{}: bracket widened", at);
                    gap = r.delta - r.lower_bound;
                    prop_assert_eq!(r.complete, b == c, "{}", at);
                    prop_assert_eq!(r.states_explored, b, "{}", at);
                    if b == c {
                        prop_assert_eq!(&r.community, &full.community, "{}", at);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The prefix ladder, for every query node and both models, with and
    /// without a size window and with a random early stop: its rungs are
    /// the promised prefixes of `root ∖ {q}` sorted by `(f, id)`, and its
    /// candidates are exactly the from-scratch `maximal_within` peels of
    /// those rungs with repeated fixed points dropped. Successive peels are
    /// nested, so a peel as long as the previous one is the same set. One
    /// maintainer and one workspace serve every ladder.
    #[test]
    fn the_prefix_ladder_reports_each_new_fixed_point_once(
        (g, _) in arb_bracket_case(),
        (k, truss, extra) in (2u32..5, any::<bool>(), 0usize..3),
        (windowed, top) in (any::<bool>(), 1usize..40),
        (stops, stop) in (any::<bool>(), 1usize..12),
    ) {
        let model = if truss { CommunityModel::KTruss } else { CommunityModel::KCore };
        let min_members = model.min_size(k) + extra;
        let window_top = windowed.then_some(top);
        let stop_after = stops.then_some(stop);
        let index = EpochIndex::new();
        let mut m = Maintainer::new(&g, &index, model, k);
        let mut ws = QueryWorkspace::new();
        for q in 0..g.n() as NodeId {
            let Some(root) = m.maximal(q) else { continue };
            let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
            let (mut rungs, mut cands) = (Vec::new(), Vec::new());
            prefix_ladder(&mut m, &dist, &root, min_members, window_top, &mut ws, |rung, cand| {
                rungs.push(rung.to_vec());
                cands.push(cand.map(<[NodeId]>::to_vec));
                match stop_after {
                    Some(s) if rungs.len() >= s => ControlFlow::Break(()),
                    _ => ControlFlow::Continue(()),
                }
            });

            let mut by_f: Vec<(f64, NodeId)> = root
                .iter()
                .filter(|&&v| v != q)
                .map(|&v| (dist.get(&g, v), v))
                .collect();
            by_f.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut sizes = expected_rungs(by_f.len(), min_members, window_top);
            sizes.truncate(stop_after.unwrap_or(usize::MAX));
            prop_assert_eq!(rungs.len(), sizes.len(), "q = {}: rung count", q);
            let mut last: Option<Vec<NodeId>> = None;
            for ((rung, cand), size) in rungs.iter().zip(&cands).zip(sizes) {
                prop_assert_eq!(rung.as_slice(), &by_f[..size], "q = {}: rung {}", q, size);
                let mut prefix = vec![q];
                prefix.extend(by_f[..size].iter().map(|&(_, v)| v));
                let peel = Maintainer::new(&g, &index, model, k).maximal_within(q, &prefix);
                if let (Some(p), Some(l)) = (&peel, &last) {
                    prop_assert!(
                        l.iter().all(|v| p.binary_search(v).is_ok()),
                        "q = {}: rung {} does not contain the last fixed point", q, size
                    );
                    prop_assert_eq!(p.len() == l.len(), p == l, "q = {}: rung {}", q, size);
                }
                let fresh = peel.is_some() && peel != last;
                prop_assert_eq!(cand, &peel.clone().filter(|_| fresh), "q = {}: rung {}", q, size);
                if peel.is_some() {
                    last = peel;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Growth that the Theorem-10 bound cannot stop early (`min_size ≥ n`)
    /// collects exactly `q`'s connected component — checked against the
    /// independent BFS of `traversal::component_of`, for every node as
    /// `q`, isolated ones included.
    #[test]
    fn unstoppable_growth_is_the_component((g, q, size) in arb_components_case()) {
        let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
        let grown = grow_neighborhood(&g, q, size, &dist);
        prop_assert_eq!(&grown, &component_of(&g, q, None));
        prop_assert_eq!(dist.computed(), 0, "the walk reads no f(·,q)");
        let mut ws = QueryWorkspace::new();
        let mut out = Vec::new();
        for v in 0..g.n() as NodeId {
            let dist = QueryDistances::new(v, g.n(), DistanceParams::default());
            grow_neighborhood_into(&g, v, size, &dist, &mut ws, &mut out);
            prop_assert_eq!(&out, &component_of(&g, v, None), "q = {}", v);
        }
    }

    /// SEA restricted to a node subset of the graph answers exactly as SEA
    /// on a materialized copy of that subset: `induced()` numbers its nodes
    /// in ascending original order, so the seeded draws (by population
    /// position), the `(f, id)` tie-breaks and the sorted outputs coincide.
    /// This is the only place the copying route is still exercised.
    #[test]
    fn sea_in_place_equals_sea_on_the_induced_copy(
        (g, q, pop_size) in arb_population_case(),
        (k, truss) in (2u32..5, any::<bool>()),
        (bounded, l, width) in (any::<bool>(), 1usize..6, 0usize..8),
        (seed, error) in (0u64..1000, 0.02f64..0.5),
    ) {
        let dp = DistanceParams::default();
        let mut params = SeaParams::default().with_k(k).with_error_bound(error);
        if truss {
            params = params.with_model(CommunityModel::KTruss);
        }
        if bounded {
            params = params.with_size_bound(l, l + width);
        }
        let dist = QueryDistances::new(q, g.n(), dp);
        let pop = grow_neighborhood(&g, q, pop_size, &dist);
        let mut ws = QueryWorkspace::new();
        let in_place = sea_on_population(
            &g, &pop, q, &dist, &params, &mut StdRng::seed_from_u64(seed), &mut ws,
        );

        let sub = g.induced(&pop);
        let all: Vec<NodeId> = (0..sub.graph.n() as NodeId).collect();
        let q_local = sub.local(q).expect("q is in its own neighborhood");
        let dist_local = QueryDistances::new(q_local, sub.graph.n(), dp);
        let copied = sea_on_population(
            &sub.graph, &all, q_local, &dist_local, &params,
            &mut StdRng::seed_from_u64(seed), &mut ws,
        );
        prop_assert_eq!(outcome(in_place, &|v| v), outcome(copied, &|l| sub.original(l)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// SEA answers with the lowest-δ candidate it estimated. With λ = 1 it
    /// samples its whole population, so it runs one round over the root
    /// `maximal_within(q, population)`; replaying the prefix ladder there
    /// with SEA's `min_members` and window, and keeping the first
    /// `candidates_examined` candidates inside the size bound, lists exactly
    /// what SEA estimated. Its δ must not exceed any of theirs, whether or
    /// not Theorem 11 fired on a larger one. An uncertified answer ran out
    /// of population, not of rounds.
    #[test]
    fn sea_answers_with_the_lowest_delta_candidate_it_estimated(
        (g, q, pop_size) in arb_population_case(),
        (k, truss) in (2u32..5, any::<bool>()),
        (bounded, l, width) in (any::<bool>(), 1usize..6, 0usize..8),
        (seed, e) in (0u64..1000, 0usize..3),
    ) {
        let mut params = SeaParams::default()
            .with_k(k)
            .with_error_bound([0.02, 0.05, 0.1][e])
            .with_lambda(1.0);
        if truss {
            params = params.with_model(CommunityModel::KTruss);
        }
        if bounded {
            params = params.with_size_bound(l, l + width);
        }
        let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
        let pop = grow_neighborhood(&g, q, pop_size, &dist);
        let mut ws = QueryWorkspace::new();
        let res = match sea_on_population(
            &g, &pop, q, &dist, &params, &mut StdRng::seed_from_u64(seed), &mut ws,
        ) {
            Ok(res) => res,
            Err(CsagError::NoCommunity { .. }) => return Ok(()),
            Err(err) => panic!("unexpected error: {err}"),
        };
        prop_assert_eq!(res.rounds.len(), 1, "λ = 1 samples everything at once");
        prop_assert!(res.certified || res.rounds.len() < params.max_rounds);

        let examined = res.rounds[0].candidates_examined;
        let index = EpochIndex::new();
        let mut m = Maintainer::new(&g, &index, params.model, k);
        let root = m.maximal_within(q, &pop).expect("SEA answered, so the population has a root");
        let window_top = params.size_bound.map(|(_, h)| 2 * h);
        let in_window =
            |c: &[NodeId]| params.size_bound.is_none_or(|(l, h)| (l..=h).contains(&c.len()));
        let mut deltas = Vec::new();
        prefix_ladder(&mut m, &dist, &root, params.min_members(), window_top, &mut ws, |_, cand| {
            if let Some(c) = cand.filter(|c| in_window(c)) {
                deltas.push(dist.delta(&g, c));
            }
            if deltas.len() < examined {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        prop_assert_eq!(deltas.len(), examined, "the replay estimates what SEA estimated");
        let lowest = deltas.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(
            res.delta_star <= lowest + 1e-12,
            "δ = {} but SEA estimated a candidate at δ = {}", res.delta_star, lowest
        );
    }
}
