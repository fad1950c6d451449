//! Property tests for meta-path machinery on random bipartite-ish
//! heterogeneous graphs.

use csag_graph::{HeteroGraphBuilder, MetaPath};
use proptest::prelude::*;

/// Random target/hub graph: `t` targets, `h` hubs, random typed edges.
fn arb_hetero() -> impl Strategy<Value = (csag_graph::HeteroGraph, MetaPath, usize)> {
    (2usize..10, 1usize..8)
        .prop_flat_map(|(t, h)| {
            let edges = prop::collection::vec((0..t as u32, 0..h as u32), 0..40);
            (Just(t), Just(h), edges)
        })
        .prop_map(|(t, h, edges)| {
            let mut b = HeteroGraphBuilder::new(1);
            let target = b.node_type("target");
            let hub = b.node_type("hub");
            let link = b.edge_type("link");
            let targets: Vec<u32> = (0..t)
                .map(|i| b.add_node(target, &["x"], &[i as f64]))
                .collect();
            let hubs: Vec<u32> = (0..h).map(|i| b.add_node(hub, &[], &[i as f64])).collect();
            for (ti, hi) in edges {
                b.add_edge(targets[ti as usize], hubs[hi as usize], link)
                    .unwrap();
            }
            let g = b.build();
            let path = MetaPath::new(vec![target, hub, target], vec![link, link]);
            (g, path, t)
        })
}

proptest! {
    /// P-neighborhood is symmetric for a symmetric meta-path.
    #[test]
    fn p_neighbors_symmetric((g, path, t) in arb_hetero()) {
        let target_ty = path.source_type();
        let targets = g.nodes_of_type(target_ty);
        prop_assert_eq!(targets.len(), t);
        for &u in &targets {
            for v in g.p_neighbors(u, &path) {
                let back = g.p_neighbors(v, &path);
                prop_assert!(
                    back.binary_search(&u).is_ok(),
                    "{u} sees {v} but not vice versa"
                );
                prop_assert_ne!(v, u, "self excluded");
            }
        }
    }

    /// The projection's edges are exactly the P-neighbor pairs, and the
    /// projected adjacency agrees with direct P-neighbor queries.
    #[test]
    fn projection_matches_p_neighbors((g, path, _t) in arb_hetero()) {
        let proj = g.project(&path);
        for local in 0..proj.graph.n() as u32 {
            let orig = proj.original(local);
            let direct: Vec<u32> = g.p_neighbors(orig, &path);
            let via_proj: Vec<u32> = proj
                .graph
                .neighbors(local)
                .iter()
                .map(|&w| proj.original(w))
                .collect();
            prop_assert_eq!(via_proj, direct);
            // Attributes carried over unchanged.
            prop_assert_eq!(proj.graph.numeric_raw(local), g.attrs().numeric_raw(orig));
        }
    }

    /// project_subset over every node, hubs included, in descending
    /// order and each twice, equals project: it keeps only target nodes,
    /// in ascending order, once each.
    #[test]
    fn project_subset_full_equals_project((g, path, _t) in arb_hetero()) {
        let every: Vec<u32> = (0..g.n() as u32).rev().flat_map(|v| [v, v]).collect();
        let full = g.project(&path);
        let sub = g.project_subset(&path, &every);
        prop_assert_eq!(full.graph.n(), sub.graph.n());
        prop_assert_eq!(full.graph.m(), sub.graph.m());
        prop_assert_eq!(&full.to_original, &sub.to_original);
        for v in 0..full.graph.n() as u32 {
            prop_assert_eq!(full.graph.neighbors(v), sub.graph.neighbors(v));
        }
    }
}
