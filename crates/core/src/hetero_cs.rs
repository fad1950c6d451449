//! SEA on heterogeneous graphs: approximate (k, P)-core / (k, P)-truss
//! community search (paper §VI-A).
//!
//! The three modifications over the homogeneous pipeline:
//!
//! 1. The Hoeffding minimum-population bound (Theorem 10) uses the number
//!    of *target-type* nodes instead of |V_G|.
//! 2. The neighborhood `Gq` is grown by a P-neighbor-oriented best-first
//!    search: the frontier moves between target nodes connected by a path
//!    instance of the meta-path `P`.
//! 3. Estimation runs on the community of target nodes, with `f(·,q)`
//!    computed on the target nodes' attributes.
//!
//! Internally we materialize the meta-path projection restricted to `Gq`
//! — the one place a second graph (and with it a second id space and a
//! second `f(·,q)` table) is genuinely needed, because P-neighbor edges do
//! not exist in the heterogeneous graph — and hand it to the same
//! [`crate::sea::sea_on_population`] the homogeneous solver calls, with
//! every projected node as the population; a `(k, P)-core` of the
//! heterogeneous graph is exactly a k-core of the projection.

use crate::distance::{composite_distance_attrs, DistanceParams, QueryDistances};
use crate::error::{check_query_node, CsagError};
use crate::sea::{sea_on_population, SeaParams, SeaResult};
use csag_graph::{FixedBitSet, HeteroGraph, MetaPath, MinScored, NodeId, QueryWorkspace};
use csag_stats::min_population_size;
use rand::Rng;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Checks that `q` is a node of `g` ([`CsagError::QueryNodeNotFound`])
/// of `path`'s source type ([`CsagError::InvalidParams`]) — the target
/// nodes a (k, P)-community is searched from.
pub fn check_target_node(g: &HeteroGraph, path: &MetaPath, q: NodeId) -> Result<(), CsagError> {
    check_query_node(q, g.n())?;
    if g.node_type(q) != path.source_type() {
        return Err(CsagError::invalid(format!(
            "query node {q} is not of the meta-path's source type"
        )));
    }
    Ok(())
}

/// SEA solver for heterogeneous graphs under a fixed meta-path.
pub struct SeaHetero<'g> {
    g: &'g HeteroGraph,
    path: MetaPath,
    dparams: DistanceParams,
}

impl<'g> SeaHetero<'g> {
    /// Creates a solver. The meta-path must be symmetric-typed (source type
    /// = end type); its source type defines the community's target nodes.
    ///
    /// # Panics
    /// If the meta-path is not symmetric-typed.
    pub fn new(g: &'g HeteroGraph, path: MetaPath, dparams: DistanceParams) -> Self {
        assert!(
            path.is_symmetric_typed(),
            "community search requires a symmetric meta-path"
        );
        SeaHetero { g, path, dparams }
    }

    /// Runs approximate (k,P)-core / (k,P)-truss search from target node
    /// `q`.
    ///
    /// # Errors
    /// * [`CsagError::InvalidParams`] — `params` fail validation, or `q`
    ///   is not of the meta-path's source (target) type.
    /// * [`CsagError::QueryNodeNotFound`] — `q` is outside the graph.
    /// * [`CsagError::NoCommunity`] — `q` has no (k,P)-community in the
    ///   sampled neighborhood.
    pub fn run<R: Rng + ?Sized>(
        &self,
        q: NodeId,
        params: &SeaParams,
        rng: &mut R,
    ) -> Result<SeaResult, CsagError> {
        params.validate()?;
        check_target_node(self.g, &self.path, q)?;
        let t0 = Instant::now();
        // Modification 1: n = #target nodes.
        let n_targets = self.g.count_of_type(self.path.source_type());
        let min_gq = min_population_size(
            params.min_members(),
            n_targets,
            params.hoeffding_epsilon,
            1.0 - params.hoeffding_confidence,
        );
        // Modification 2: P-neighbor-oriented best-first growth.
        let gq_targets = self.grow_p_neighborhood(q, min_gq);
        // Project the neighborhood to a homogeneous graph of target nodes.
        let projection = self.g.project_subset(&self.path, &gq_targets);
        let q_local = projection.local(q).ok_or_else(|| {
            CsagError::no_community(format!(
                "target node {q} has no P-neighborhood under the meta-path"
            ))
        })?;
        let setup = t0.elapsed();

        // Modification 3: estimation happens over target nodes; distances
        // are inherited through the projection's restricted attributes.
        // Restate projection-local "no community" answers in terms of the
        // heterogeneous node id the caller asked about.
        let pg = &projection.graph;
        let all: Vec<NodeId> = (0..pg.n() as NodeId).collect();
        let dist = QueryDistances::new(q_local, pg.n(), self.dparams);
        let mut ws = QueryWorkspace::new();
        let mut result = sea_on_population(pg, &all, q_local, &dist, params, rng, &mut ws)
            .map_err(|e| match e {
                CsagError::NoCommunity { .. } => CsagError::no_community(format!(
                    "target node {q} has no (k,P)-community at k = {} in its sampled neighborhood",
                    params.k
                )),
                other => other,
            })?;
        result.timing.sampling += setup;
        result.community = result
            .community
            .iter()
            .map(|&l| projection.original(l))
            .collect();
        result.community.sort_unstable();
        Ok(result)
    }

    /// Best-first expansion over P-neighbors, smallest `f(·,q)` first,
    /// until `min_size` target nodes are collected or the P-connected
    /// component is exhausted.
    fn grow_p_neighborhood(&self, q: NodeId, min_size: usize) -> Vec<NodeId> {
        let attrs = self.g.attrs();
        let mut taken = FixedBitSet::new(self.g.n());
        let mut queued = FixedBitSet::new(self.g.n());
        let mut heap = BinaryHeap::new();
        queued.insert(q);
        heap.push(MinScored {
            score: 0.0,
            node: q,
        });
        let mut out = Vec::new();
        while let Some(MinScored { node: v, .. }) = heap.pop() {
            if !taken.insert(v) {
                continue;
            }
            out.push(v);
            if out.len() >= min_size.max(1) {
                break;
            }
            for w in self.g.p_neighbors(v, &self.path) {
                if !taken.contains(w) && queued.insert(w) {
                    let f = composite_distance_attrs(attrs, w, q, self.dparams);
                    heap.push(MinScored { score: f, node: w });
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag_decomp::CommunityModel;
    use csag_graph::HeteroGraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A DBLP-style graph: two author clusters (ML and DB) co-authoring
    /// papers inside their cluster, with one cross-cluster paper.
    /// Authors have a research-interest token and an h-index-like number.
    fn dblp_like() -> (HeteroGraph, MetaPath, Vec<NodeId>) {
        let mut b = HeteroGraphBuilder::new(1);
        let author = b.node_type("author");
        let paper = b.node_type("paper");
        let writes = b.edge_type("writes");
        let mut authors = Vec::new();
        for i in 0..12 {
            let (topic, h) = if i < 6 {
                ("ml", 30.0 + i as f64)
            } else {
                ("db", 5.0 + i as f64)
            };
            authors.push(b.add_node(author, &[topic], &[h]));
        }
        let add_paper = |b: &mut HeteroGraphBuilder, coauthors: &[usize]| {
            let p = b.add_node(paper, &["paper"], &[0.0]);
            for &a in coauthors {
                b.add_edge(authors[a], p, writes).unwrap();
            }
        };
        // Dense ML cluster: papers among authors 0..6 (every trio).
        for i in 0..6usize {
            for j in (i + 1)..6 {
                add_paper(&mut b, &[i, j, (j + 1) % 6]);
            }
        }
        // Dense DB cluster.
        for i in 6..12usize {
            for j in (i + 1)..12 {
                add_paper(&mut b, &[i, j, 6 + ((j + 1) % 6)]);
            }
        }
        // One bridge paper.
        add_paper(&mut b, &[0, 6]);
        let g = b.build();
        let apa = MetaPath::new(vec![author, paper, author], vec![writes, writes]);
        (g, apa, authors)
    }

    #[test]
    fn kp_core_community_stays_in_cluster() {
        let (g, apa, authors) = dblp_like();
        let sea = SeaHetero::new(&g, apa, DistanceParams::default());
        let params = SeaParams::default().with_k(3).with_error_bound(0.1);
        let mut rng = StdRng::seed_from_u64(1);
        let res = sea
            .run(authors[0], &params, &mut rng)
            .expect("community exists");
        assert!(res.community.contains(&authors[0]));
        // All members are authors.
        let author_ty = g.node_type_id("author").unwrap();
        for &v in &res.community {
            assert_eq!(g.node_type(v), author_ty);
        }
        // Mostly ML cluster.
        let ml = res.community.iter().filter(|&&v| v < authors[6]).count();
        assert!(
            ml * 2 > res.community.len(),
            "ML share: {ml}/{}",
            res.community.len()
        );
    }

    #[test]
    fn query_of_wrong_type_is_rejected() {
        let (g, apa, _) = dblp_like();
        let paper_node = g.nodes_of_type(g.node_type_id("paper").unwrap())[0];
        let sea = SeaHetero::new(&g, apa, DistanceParams::default());
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            sea.run(paper_node, &SeaParams::default().with_k(2), &mut rng),
            Err(CsagError::InvalidParams { .. })
        ));
    }

    #[test]
    fn truss_model_on_projection() {
        let (g, apa, authors) = dblp_like();
        let sea = SeaHetero::new(&g, apa, DistanceParams::default());
        let params = SeaParams::default()
            .with_k(3)
            .with_model(CommunityModel::KTruss)
            .with_error_bound(0.2);
        let mut rng = StdRng::seed_from_u64(3);
        let res = sea.run(authors[1], &params, &mut rng);
        if let Ok(res) = res {
            assert!(res.community.contains(&authors[1]));
            assert!(res.community.len() >= 3);
        }
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_path_rejected() {
        let (g, apa, _) = dblp_like();
        let bad = MetaPath::new(
            vec![apa.node_types[0], apa.node_types[1]],
            vec![apa.edge_types[0]],
        );
        let _ = SeaHetero::new(&g, bad, DistanceParams::default());
    }
}
