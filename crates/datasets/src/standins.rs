//! Scaled stand-ins for the paper's datasets (Table I).
//!
//! Each constructor produces a seeded synthetic graph whose *shape*
//! (relative size, density, community structure, attribute style) mirrors
//! the corresponding real corpus, scaled down so the full experiment suite
//! runs on one machine. Sizes are roughly proportional to
//! the originals within a 4k–100k node budget.

use crate::generator::{generate, SyntheticConfig};
use crate::hetero_gen::{generate_hetero, HeteroConfig, HeteroDataset};
use csag_graph::{AttributedGraph, NodeId};

/// A homogeneous benchmark dataset with planted ground truth.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Short name ("facebook-like", …).
    pub name: String,
    /// The attributed graph.
    pub graph: AttributedGraph,
    /// Planted ground-truth communities (the stand-in for human-annotated
    /// communities in Table III / Figure 6).
    pub ground_truth: Vec<Vec<NodeId>>,
    /// Default k for experiments.
    pub default_k: u32,
}

fn homo(name: &str, cfg: SyntheticConfig, seed: u64, default_k: u32) -> Dataset {
    let (graph, ground_truth) = generate(&cfg, seed);
    Dataset {
        name: name.to_string(),
        graph,
        ground_truth,
        default_k,
    }
}

/// Facebook stand-in: small, dense, strong circles (4k nodes).
pub fn facebook_like() -> Dataset {
    homo(
        "facebook-like",
        SyntheticConfig {
            nodes: 4_000,
            communities: 45,
            intra_degree: 9,
            inter_degree: 2.0,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0xFACE_B00C,
        4,
    )
}

/// GitHub stand-in: sparser developer network (12k nodes).
pub fn github_like() -> Dataset {
    homo(
        "github-like",
        SyntheticConfig {
            nodes: 12_000,
            communities: 135,
            intra_degree: 6,
            inter_degree: 1.5,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x617_4875,
        4,
    )
}

/// Twitch stand-in: mid-size social graph (25k nodes).
pub fn twitch_like() -> Dataset {
    homo(
        "twitch-like",
        SyntheticConfig {
            nodes: 25_000,
            communities: 270,
            intra_degree: 10,
            inter_degree: 2.5,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x7017C4,
        5,
    )
}

/// LiveJournal stand-in: large sparse blogging network (50k nodes).
pub fn livejournal_like() -> Dataset {
    homo(
        "livejournal-like",
        SyntheticConfig {
            nodes: 50_000,
            communities: 550,
            intra_degree: 6,
            inter_degree: 1.5,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x11FE_10AD,
        4,
    )
}

/// Twitter-2010 stand-in: the largest homogeneous graph (90k nodes).
pub fn twitter_like() -> Dataset {
    homo(
        "twitter-like",
        SyntheticConfig {
            nodes: 90_000,
            communities: 1000,
            intra_degree: 6,
            inter_degree: 2.0,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x0711_77E4,
        4,
    )
}

/// Orkut stand-in (Table III ground-truth evaluation): dense communities.
pub fn orkut_like() -> Dataset {
    homo(
        "orkut-like",
        SyntheticConfig {
            nodes: 25_000,
            communities: 280,
            intra_degree: 11,
            inter_degree: 3.0,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x04C07,
        5,
    )
}

/// Amazon stand-in (Table III ground-truth evaluation): small, crisp
/// co-purchase communities.
pub fn amazon_like() -> Dataset {
    homo(
        "amazon-like",
        SyntheticConfig {
            nodes: 15_000,
            communities: 170,
            intra_degree: 5,
            inter_degree: 0.8,
            numeric_dims: 2,
            numeric_noise: 0.02,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x44A20,
        4,
    )
}

/// The five homogeneous datasets of Figure 5, in paper order.
pub fn all_homogeneous() -> Vec<Dataset> {
    vec![
        facebook_like(),
        github_like(),
        twitch_like(),
        livejournal_like(),
        twitter_like(),
    ]
}

/// Noisy-attribute variant of a dataset: members drop each community
/// token with probability `dropout`, so equality matching (ACQ/ATC) can no
/// longer recover planted communities exactly — the regime of real
/// annotated corpora used by the paper's Table III / Figure 6.
fn with_dropout(name: &str, mut cfg: SyntheticConfig, seed: u64, k: u32, dropout: f64) -> Dataset {
    cfg.token_dropout = dropout;
    homo(name, cfg, seed, k)
}

/// Facebook stand-in with noisy attribute profiles (Table III / Figure 6).
pub fn facebook_noisy() -> Dataset {
    with_dropout(
        "facebook-noisy",
        SyntheticConfig {
            nodes: 4_000,
            communities: 45,
            intra_degree: 9,
            inter_degree: 2.0,
            numeric_dims: 2,
            numeric_noise: 0.04,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0xFACE_B00C,
        4,
        0.25,
    )
}

/// LiveJournal stand-in with noisy attribute profiles (Table III).
pub fn livejournal_noisy() -> Dataset {
    with_dropout(
        "livejournal-noisy",
        SyntheticConfig {
            nodes: 50_000,
            communities: 550,
            intra_degree: 6,
            inter_degree: 1.5,
            numeric_dims: 2,
            numeric_noise: 0.05,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x11FE_10AD,
        4,
        0.2,
    )
}

/// Orkut stand-in with noisy attribute profiles (Table III).
pub fn orkut_noisy() -> Dataset {
    with_dropout(
        "orkut-noisy",
        SyntheticConfig {
            nodes: 25_000,
            communities: 280,
            intra_degree: 11,
            inter_degree: 3.0,
            numeric_dims: 2,
            numeric_noise: 0.05,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x04C07,
        5,
        0.25,
    )
}

/// Amazon stand-in with noisy attribute profiles (Table III).
pub fn amazon_noisy() -> Dataset {
    with_dropout(
        "amazon-noisy",
        SyntheticConfig {
            nodes: 15_000,
            communities: 170,
            intra_degree: 5,
            inter_degree: 0.8,
            numeric_dims: 2,
            numeric_noise: 0.04,
            community_tokens: 8,
            personal_tokens: 2,
            personal_pool: 500,
            token_dropout: 0.0,
            inner_fraction: 0.3,
            inner_tokens: 3,
            inner_intra_degree: 4,
        },
        0x44A20,
        4,
        0.2,
    )
}

/// Miniature planted graphs for the Table-IV pruning ablation: exact
/// enumeration must *finish* under every pruning configuration so the
/// state counts are comparable (on the full stand-ins every configuration
/// hits the budget at a similar state count, hiding the pruning effect).
pub fn ablation_minis() -> Vec<Dataset> {
    let mk = |name: &str, nodes: usize, communities: usize, seed: u64| -> Dataset {
        homo(
            name,
            SyntheticConfig {
                nodes,
                communities,
                intra_degree: 4,
                // No cross edges: the maximal connected k-core is then one
                // planted block, so the enumeration root is small enough
                // for every pruning configuration to be comparable.
                inter_degree: 0.0,
                numeric_dims: 2,
                numeric_noise: 0.04,
                community_tokens: 6,
                personal_tokens: 2,
                personal_pool: 60,
                token_dropout: 0.15,
                inner_fraction: 0.3,
                inner_tokens: 3,
                inner_intra_degree: 3,
            },
            seed,
            3,
        )
    };
    vec![
        mk("facebook-mini", 600, 40, 0xFACE),
        mk("github-mini", 1_200, 80, 0x617),
        mk("twitch-mini", 2_400, 160, 0x701),
        mk("livejournal-mini", 4_000, 260, 0x11F),
    ]
}

/// DBLP stand-in: author-paper heterogeneous graph, textual + numerical
/// author attributes (8k authors).
pub fn dblp_like() -> HeteroDataset {
    let mut d = generate_hetero(
        &HeteroConfig {
            targets: 8_000,
            communities: 90,
            hubs_per_community: 180,
            targets_per_hub: 4,
            cross_hubs: 300,
            numeric_dims: 2,
            numeric_noise: 0.05,
            textual: true,
            target_type: "author".into(),
            hub_type: "paper".into(),
            edge_type: "writes".into(),
            ..HeteroConfig::default()
        },
        0xDB19,
    );
    d.name = "dblp-like".into();
    d.default_k = 4;
    d
}

/// IMDB stand-in: movie-person heterogeneous graph (10k movies).
pub fn imdb_like() -> HeteroDataset {
    let mut d = generate_hetero(
        &HeteroConfig {
            targets: 10_000,
            communities: 110,
            hubs_per_community: 200,
            targets_per_hub: 4,
            cross_hubs: 400,
            numeric_dims: 2,
            numeric_noise: 0.05,
            textual: true,
            target_type: "movie".into(),
            hub_type: "actor".into(),
            edge_type: "acts_in".into(),
            ..HeteroConfig::default()
        },
        0x11DB,
        // IMDB in the paper has higher kmax; keep k modest for runtime.
    );
    d.name = "imdb-like".into();
    d.default_k = 4;
    d
}

/// DBpedia stand-in: knowledge graph with *numerical attributes only*
/// (equality-matching methods return nothing, Table V).
pub fn dbpedia_like() -> HeteroDataset {
    let mut d = generate_hetero(
        &HeteroConfig {
            targets: 9_000,
            communities: 100,
            hubs_per_community: 160,
            targets_per_hub: 4,
            cross_hubs: 350,
            numeric_dims: 3,
            numeric_noise: 0.05,
            textual: false,
            target_type: "entity".into(),
            hub_type: "statement".into(),
            edge_type: "relates".into(),
            ..HeteroConfig::default()
        },
        0xDB9ED1A,
    );
    d.name = "dbpedia-like".into();
    d.default_k = 4;
    d
}

/// YAGO stand-in: numerical-only knowledge graph (10k entities).
pub fn yago_like() -> HeteroDataset {
    let mut d = generate_hetero(
        &HeteroConfig {
            targets: 10_000,
            communities: 110,
            hubs_per_community: 150,
            targets_per_hub: 4,
            cross_hubs: 350,
            numeric_dims: 3,
            numeric_noise: 0.06,
            textual: false,
            target_type: "entity".into(),
            hub_type: "fact".into(),
            edge_type: "relates".into(),
            ..HeteroConfig::default()
        },
        0x9A60,
    );
    d.name = "yago-like".into();
    d.default_k = 4;
    d
}

/// Freebase stand-in: numerical-only knowledge graph (11k entities).
pub fn freebase_like() -> HeteroDataset {
    let mut d = generate_hetero(
        &HeteroConfig {
            targets: 11_000,
            communities: 120,
            hubs_per_community: 150,
            targets_per_hub: 4,
            cross_hubs: 400,
            numeric_dims: 3,
            numeric_noise: 0.06,
            textual: false,
            target_type: "entity".into(),
            hub_type: "mediator".into(),
            edge_type: "relates".into(),
            ..HeteroConfig::default()
        },
        0xF4EE,
    );
    d.name = "freebase-like".into();
    d.default_k = 4;
    d
}

/// The five heterogeneous datasets of Table V, in paper order.
pub fn all_heterogeneous() -> Vec<HeteroDataset> {
    vec![
        dblp_like(),
        imdb_like(),
        dbpedia_like(),
        yago_like(),
        freebase_like(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Standins are big-ish; tests build only the smallest ones to stay
    // fast in debug mode. Integration/benches exercise the rest in
    // release builds.

    #[test]
    fn facebook_like_shape() {
        let d = facebook_like();
        assert_eq!(d.name, "facebook-like");
        assert_eq!(d.graph.n(), 4_000);
        assert!(d.graph.m() > 10_000);
        assert_eq!(d.ground_truth.iter().map(Vec::len).sum::<usize>(), 4_000);
        assert!(d.default_k >= 4);
    }

    #[test]
    fn facebook_like_is_reproducible() {
        let a = facebook_like();
        let b = facebook_like();
        assert_eq!(a.graph.m(), b.graph.m());
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn dblp_like_shape() {
        let d = dblp_like();
        assert_eq!(d.name, "dblp-like");
        let ty = d.graph.node_type_id("author").unwrap();
        assert_eq!(d.graph.count_of_type(ty), 8_000);
        assert!(!d.numeric_only);
    }

    #[test]
    fn dbpedia_like_is_numeric_only() {
        let d = dbpedia_like();
        assert!(d.numeric_only);
        let ty = d.graph.node_type_id("entity").unwrap();
        let first = d.graph.nodes_of_type(ty)[0];
        assert!(d.graph.attrs().tokens(first).is_empty());
    }
}
