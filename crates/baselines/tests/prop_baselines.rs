//! Property tests: baselines against brute force on small random graphs.

use csag_baselines::{acq, e_vac, loc_atc, vac, EVacLimits};
use csag_core::distance::{DistanceParams, QueryDistances};
use csag_core::{CommunityModel, EpochIndex};
use csag_decomp::Maintainer;
use csag_graph::{AttributedGraph, GraphBuilder};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (AttributedGraph, u32)> {
    (4usize..11)
        .prop_flat_map(|n| {
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..36);
            let token_masks = prop::collection::vec(0u8..16, n);
            let values = prop::collection::vec(0.0f64..1.0, n);
            (Just(n), edges, token_masks, values, 0..n as u32)
        })
        .prop_map(|(n, edges, token_masks, values, q)| {
            let names = ["a", "b", "c", "d"];
            let mut b = GraphBuilder::new(1);
            for i in 0..n {
                let toks: Vec<&str> = (0..4)
                    .filter(|t| token_masks[i] & (1 << t) != 0)
                    .map(|t| names[t])
                    .collect();
                b.add_node(&toks, &[values[i]]);
            }
            for (u, v) in edges {
                b.add_edge(u, v).unwrap();
            }
            (b.build().unwrap(), q)
        })
}

/// All connected k-core subsets containing q (brute force).
fn all_communities(g: &AttributedGraph, q: u32, k: u32) -> Vec<Vec<u32>> {
    let n = g.n();
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        if mask & (1 << q) == 0 {
            continue;
        }
        let nodes: Vec<u32> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
        let ok = nodes.iter().all(|&v| {
            g.neighbors(v)
                .iter()
                .filter(|w| nodes.binary_search(w).is_ok())
                .count()
                >= k as usize
        });
        if ok && csag_graph::traversal::is_connected_subset(g, &nodes) {
            out.push(nodes);
        }
    }
    out
}

fn shared_count(g: &AttributedGraph, q: u32, comm: &[u32]) -> usize {
    g.tokens(q)
        .iter()
        .filter(|&&a| comm.iter().all(|&v| g.tokens(v).binary_search(&a).is_ok()))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ACQ's shared-attribute count is the true maximum over all
    /// communities.
    #[test]
    fn acq_is_optimal_on_shared_attributes((g, q) in arb_graph(), k in 1u32..3) {
        let communities = all_communities(&g, q, k);
        let res = acq(&mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k), q);
        match (communities.is_empty(), res) {
            (true, Err(e)) if e.is_no_community() => {}
            (false, Ok(r)) => {
                let best = communities
                    .iter()
                    .map(|c| shared_count(&g, q, c))
                    .max()
                    .unwrap();
                prop_assert_eq!(
                    r.objective as usize,
                    best,
                    "ACQ found {} shared, brute force {}",
                    r.objective,
                    best
                );
                prop_assert_eq!(shared_count(&g, q, &r.community), best);
            }
            (empty, r) => prop_assert!(
                false,
                "existence mismatch: communities empty={} result={:?}",
                empty,
                r.map(|x| x.community)
            ),
        }
    }

    /// E-VAC (unbudgeted) finds the true min-max optimum among the
    /// communities reachable by worst-pair peeling; it must match or beat
    /// the approximate VAC and never beat the brute-force optimum.
    #[test]
    fn e_vac_bounded_by_brute_force((g, q) in arb_graph(), k in 1u32..3) {
        use csag_baselines::vac::max_pairwise_distance;
        let dp = DistanceParams::default();
        let communities = all_communities(&g, q, k);
        if communities.is_empty() {
            return Ok(());
        }
        let brute_best = communities
            .iter()
            .map(|c| max_pairwise_distance(&g, c, dp).0)
            .fold(f64::INFINITY, f64::min);
        let ev = e_vac(&mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k), q, dp, &EVacLimits::default())
            .expect("community exists");
        prop_assert!(ev.objective >= brute_best - 1e-9, "E-VAC beat brute force?!");
        let v = vac(&mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k), &QueryDistances::new(q, g.n(), dp), None, None).expect("community exists");
        prop_assert!(ev.objective <= v.objective + 1e-9, "E-VAC worse than VAC");
    }

    /// Every baseline returns a valid connected k-core containing q
    /// whenever one exists.
    #[test]
    fn baselines_return_valid_communities((g, q) in arb_graph(), k in 1u32..3) {
        let dp = DistanceParams::default();
        let exists = !all_communities(&g, q, k).is_empty();
        let results = [
            acq(&mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k), q).map(|r| r.community),
            loc_atc(&mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k), q, None).map(|r| r.community),
            vac(&mut Maintainer::new(&g, &EpochIndex::new(), CommunityModel::KCore, k), &QueryDistances::new(q, g.n(), dp), None, None).map(|r| r.community),
        ];
        for comm in results.iter() {
            prop_assert_eq!(comm.is_ok(), exists);
            if let Ok(comm) = comm {
                prop_assert!(comm.binary_search(&q).is_ok());
                prop_assert!(csag_graph::traversal::is_connected_subset(&g, comm));
                for &v in comm {
                    let deg = g
                        .neighbors(v)
                        .iter()
                        .filter(|w| comm.binary_search(w).is_ok())
                        .count();
                    prop_assert!(deg >= k as usize);
                }
            }
        }
    }
}
