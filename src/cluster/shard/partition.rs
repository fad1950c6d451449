//! The deterministic edge-cut partitioner and the per-update routing
//! table it maintains as the graph churns.
//!
//! A [`ShardPlan`] assigns every vertex an **owner** shard (BFS-ordered
//! contiguous blocks, so communities tend to land whole) and gives each
//! shard a **coverage set**: the owned block plus a halo of ghost
//! vertices within `halo` hops of it. A shard's edge set is every
//! global edge incident to its coverage set, which yields the invariant
//! the whole subsystem leans on:
//!
//! > **Coverage closure.** If shard `i` covers vertex `x`, shard `i`
//! > holds *every* global edge of `x` — so `x`'s degree, adjacency
//! > list, and triangle set on shard `i` are byte-identical to the
//! > global graph's.
//!
//! Every shard keeps the **full vertex set** (attributes replicated,
//! edges partitioned): attribute rows, token interning, and min-max
//! normalization evolve identically on every shard, so attribute
//! distances — the other half of every community score — never diverge.
//! Only adjacency is partial, and coverage says exactly where it is
//! total.
//!
//! Churn keeps the invariant, never the halo: `ShardPlan::route`
//! sends an edge insertion to every shard covering either endpoint, an
//! edge removal to all shards (a no-op where the edge is absent),
//! attribute changes and new vertices to all shards (new vertices are
//! covered only by their owner, assigned round-robin). Coverage is
//! never expanded after partitioning — the fast-path hit rate may decay
//! under heavy churn, but a covered region is always exact.

use crate::engine::GraphUpdate;
use csag_graph::{AttributedGraph, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// The partition: owner assignment plus per-shard coverage bitmaps.
/// Shared copy-on-write with published [`super::ClusterView`]s — a view
/// holds the `Arc`s its epoch saw; the next vertex addition clones.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: usize,
    halo: u32,
    /// `owner[v]`: the shard whose block holds `v`.
    owner: Arc<Vec<u32>>,
    /// `covered[i][v]`: shard `i` holds all of `v`'s edges.
    covered: Vec<Arc<Vec<bool>>>,
    /// Numeric dimensionality, for routing-time validity simulation.
    dims: usize,
}

/// One batch split along the plan: the per-shard sub-batches for the
/// longest prefix of the input that referential-integrity checks admit
/// (the same checks `MutableGraph::apply` runs, simulated ahead so the
/// fan-out ships exactly the prefix the journal will publish).
pub(crate) struct RoutedBatch {
    /// Sub-batch for each shard, in input order.
    pub per_shard: Vec<Vec<GraphUpdate>>,
    /// How many input updates are valid; `updates[valid_prefix]` is the
    /// update the journal's apply will reject (when `< updates.len()`).
    pub valid_prefix: usize,
    /// Owners assigned to vertices the prefix appends, in id order.
    pub new_vertex_owners: Vec<u32>,
}

impl ShardPlan {
    /// Partitions `g` into `shards` blocks with a ghost halo of
    /// `halo` hops. Deterministic: global BFS order (roots in id order,
    /// sorted adjacency) chopped into contiguous blocks of
    /// `ceil(n / shards)`.
    pub fn partition(g: &AttributedGraph, shards: usize, halo: u32) -> ShardPlan {
        assert!(shards >= 1, "a plan needs at least one shard");
        let n = g.n();
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        for root in 0..n as NodeId {
            if seen[root as usize] {
                continue;
            }
            seen[root as usize] = true;
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                order.push(v);
                for &w in g.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
        let block = n.div_ceil(shards.max(1)).max(1);
        let mut owner = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            owner[v as usize] = (i / block).min(shards - 1) as u32;
        }
        let covered = (0..shards)
            .map(|s| {
                let mut cov = vec![false; n];
                let mut frontier: VecDeque<(NodeId, u32)> = (0..n as NodeId)
                    .filter(|&v| owner[v as usize] == s as u32)
                    .map(|v| (v, 0))
                    .collect();
                for &(v, _) in &frontier {
                    cov[v as usize] = true;
                }
                while let Some((v, d)) = frontier.pop_front() {
                    if d == halo {
                        continue;
                    }
                    for &w in g.neighbors(v) {
                        if !cov[w as usize] {
                            cov[w as usize] = true;
                            frontier.push_back((w, d + 1));
                        }
                    }
                }
                Arc::new(cov)
            })
            .collect();
        ShardPlan {
            shards,
            halo,
            owner: Arc::new(owner),
            covered,
            dims: g.attrs().dims(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured halo radius, in hops.
    pub fn halo(&self) -> u32 {
        self.halo
    }

    /// Vertices currently known to the plan.
    pub fn n(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning `v` (`v` must be in range).
    pub fn owner(&self, v: NodeId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Whether shard `s` covers `v` (holds all of `v`'s edges).
    pub fn covers(&self, s: usize, v: NodeId) -> bool {
        self.covered[s][v as usize]
    }

    /// Shard `s`'s coverage bitmap (shared with published views).
    pub(crate) fn coverage(&self, s: usize) -> Arc<Vec<bool>> {
        Arc::clone(&self.covered[s])
    }

    /// The owner table (shared with published views).
    pub(crate) fn owners(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.owner)
    }

    /// Vertices shard `s` owns.
    pub fn owned_count(&self, s: usize) -> usize {
        self.owner.iter().filter(|&&o| o == s as u32).count()
    }

    /// Ghost vertices shard `s` covers beyond its owned block.
    pub fn halo_count(&self, s: usize) -> usize {
        self.covered[s]
            .iter()
            .enumerate()
            .filter(|&(v, &c)| c && self.owner[v] != s as u32)
            .count()
    }

    /// Carves shard `s`'s graph out of the seed graph: the full vertex
    /// set with every edge not incident to the coverage set removed
    /// (through the same `MutableGraph` edit/snapshot path the stores
    /// use, so the result is a canonical build of exactly those rows).
    pub fn shard_graph(&self, g: &AttributedGraph, s: usize) -> AttributedGraph {
        let cov = &self.covered[s];
        let mut mg = csag_graph::MutableGraph::from_graph(g);
        for v in 0..g.n() as NodeId {
            for &w in g.neighbors(v) {
                if v < w && !cov[v as usize] && !cov[w as usize] {
                    mg.apply(&GraphUpdate::RemoveEdge { u: v, v: w })
                        .expect("removing an existing edge cannot fail");
                }
            }
        }
        mg.snapshot()
    }

    /// Splits `updates` into per-shard sub-batches, simulating the
    /// journal's referential-integrity checks so the fan-out carries
    /// exactly the prefix the journal will publish. Does **not** mutate
    /// the plan — call [`ShardPlan::commit`] with the result once the
    /// journal accepted the batch.
    pub(crate) fn route(&self, updates: &[GraphUpdate]) -> RoutedBatch {
        let mut per_shard: Vec<Vec<GraphUpdate>> = vec![Vec::new(); self.shards];
        let mut new_vertex_owners = Vec::new();
        // Validity simulation state: node count evolves within the
        // batch; new vertices are covered only by their owner.
        let mut n = self.owner.len();
        let mut valid_prefix = updates.len();
        'route: for (idx, update) in updates.iter().enumerate() {
            let in_range = |v: NodeId| (v as usize) < n;
            match update {
                GraphUpdate::AddEdge { u, v } => {
                    if !in_range(*u) || !in_range(*v) {
                        valid_prefix = idx;
                        break 'route;
                    }
                    for s in 0..self.shards {
                        if self.covers_evolving(s, *u, &new_vertex_owners)
                            || self.covers_evolving(s, *v, &new_vertex_owners)
                        {
                            per_shard[s].push(update.clone());
                        }
                    }
                }
                GraphUpdate::RemoveEdge { u, v } => {
                    if !in_range(*u) || !in_range(*v) {
                        valid_prefix = idx;
                        break 'route;
                    }
                    // Every shard covering an endpoint must drop the
                    // edge; shards holding it only as halo fringe must
                    // too. All shards is the sound superset (a no-op
                    // where the edge is absent).
                    for sub in &mut per_shard {
                        sub.push(update.clone());
                    }
                }
                GraphUpdate::AddVertex { numeric, .. } => {
                    if numeric.len() != self.dims {
                        valid_prefix = idx;
                        break 'route;
                    }
                    new_vertex_owners.push((n % self.shards) as u32);
                    n += 1;
                    for sub in &mut per_shard {
                        sub.push(update.clone());
                    }
                }
                GraphUpdate::SetAttributes { v, numeric, .. } => {
                    if !in_range(*v) || numeric.as_ref().is_some_and(|r| r.len() != self.dims) {
                        valid_prefix = idx;
                        break 'route;
                    }
                    for sub in &mut per_shard {
                        sub.push(update.clone());
                    }
                }
            }
        }
        RoutedBatch {
            per_shard,
            valid_prefix,
            new_vertex_owners,
        }
    }

    /// Coverage lookup that sees vertices the current batch appended.
    fn covers_evolving(&self, s: usize, v: NodeId, new_owners: &[u32]) -> bool {
        let base = self.owner.len();
        if (v as usize) < base {
            self.covered[s][v as usize]
        } else {
            new_owners[v as usize - base] == s as u32
        }
    }

    /// Records the vertices a journal-accepted prefix appended:
    /// copy-on-write extension of the owner table and coverage bitmaps
    /// (published views keep the `Arc`s of their epoch).
    pub(crate) fn commit(&mut self, routed: &RoutedBatch) {
        if routed.new_vertex_owners.is_empty() {
            return;
        }
        let owner = Arc::make_mut(&mut self.owner);
        for &o in &routed.new_vertex_owners {
            owner.push(o);
        }
        for (s, cov) in self.covered.iter_mut().enumerate() {
            let cov = Arc::make_mut(cov);
            for &o in &routed.new_vertex_owners {
                cov.push(o as usize == s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ShardedRouter;
    use csag_datasets::generator::{generate, SyntheticConfig};
    use csag_datasets::paper_examples::figure1_imdb;
    use csag_datasets::{random_updates, ChurnMix};
    use csag_graph::graph::{chunk_nodes, CHUNK};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partition_is_deterministic_and_total() {
        let (g, _) = figure1_imdb();
        let a = ShardPlan::partition(&g, 3, 1);
        let b = ShardPlan::partition(&g, 3, 1);
        for v in 0..g.n() as NodeId {
            assert_eq!(a.owner(v), b.owner(v));
            assert!(a.owner(v) < 3);
            assert!(a.covers(a.owner(v), v), "owner always covers");
        }
        let total: usize = (0..3).map(|s| a.owned_count(s)).sum();
        assert_eq!(total, g.n(), "every vertex owned exactly once");
    }

    #[test]
    fn coverage_closure_holds_on_shard_graphs() {
        let (g, _) = figure1_imdb();
        for shards in 1..=4 {
            for halo in 0..=2 {
                let plan = ShardPlan::partition(&g, shards, halo);
                for s in 0..shards {
                    let sg = plan.shard_graph(&g, s);
                    assert_eq!(sg.n(), g.n(), "full vertex set everywhere");
                    for v in 0..g.n() as NodeId {
                        if plan.covers(s, v) {
                            assert_eq!(
                                sg.neighbors(v),
                                g.neighbors(v),
                                "covered vertex {v} must keep its whole adjacency on shard {s}"
                            );
                        } else {
                            // Partial at best, and never an invented edge.
                            for &w in sg.neighbors(v) {
                                assert!(g.has_edge(v, w));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_shard_owns_and_covers_everything() {
        let (g, _) = figure1_imdb();
        let plan = ShardPlan::partition(&g, 1, 0);
        assert_eq!(plan.owned_count(0), g.n());
        assert_eq!(plan.halo_count(0), 0);
        let sg = plan.shard_graph(&g, 0);
        assert_eq!(sg.m(), g.m());
    }

    #[test]
    fn routing_ships_removals_everywhere_and_insertions_to_coverers() {
        let (g, _) = figure1_imdb();
        let plan = ShardPlan::partition(&g, 3, 1);
        let (u, v) = (0 as NodeId, (g.n() - 1) as NodeId);
        let routed = plan.route(&[
            GraphUpdate::AddEdge { u, v },
            GraphUpdate::RemoveEdge { u: v, v: u },
        ]);
        assert_eq!(routed.valid_prefix, 2);
        for s in 0..3 {
            let has_add = routed.per_shard[s]
                .iter()
                .any(|up| matches!(up, GraphUpdate::AddEdge { .. }));
            assert_eq!(has_add, plan.covers(s, u) || plan.covers(s, v));
            assert!(routed.per_shard[s]
                .iter()
                .any(|up| matches!(up, GraphUpdate::RemoveEdge { .. })));
        }
    }

    #[test]
    fn routing_stops_at_the_first_invalid_update() {
        let (g, _) = figure1_imdb();
        let n = g.n() as NodeId;
        let mut plan = ShardPlan::partition(&g, 2, 1);
        let routed = plan.route(&[
            GraphUpdate::AddVertex {
                tokens: vec!["t".into()],
                numeric: vec![0.0; g.attrs().dims()],
            },
            // Valid only because the vertex above precedes it.
            GraphUpdate::AddEdge { u: n, v: 0 },
            // Out of range even after the append: invalid.
            GraphUpdate::AddEdge { u: n + 1, v: 0 },
            GraphUpdate::RemoveEdge { u: 0, v: 1 },
        ]);
        assert_eq!(routed.valid_prefix, 2);
        assert_eq!(routed.new_vertex_owners.len(), 1);
        for sub in &routed.per_shard {
            assert!(sub.len() <= 2, "nothing past the invalid update ships");
        }
        let before = plan.n();
        plan.commit(&routed);
        assert_eq!(plan.n(), before + 1);
        let owner = plan.owner(n);
        assert!(plan.covers(owner, n), "new vertex covered at its owner");
        assert_eq!(
            (0..2).filter(|&s| plan.covers(s, n)).count(),
            1,
            "and only at its owner"
        );
    }

    /// Chunk `c` of `shard` is the journal's when `sharing[c]`, and
    /// `sharing` marks at least one chunk.
    fn check_shared(shard: &AttributedGraph, journal: &AttributedGraph, sharing: &[bool]) {
        assert!(sharing.contains(&true), "some chunk keeps every edge");
        let pairs = shard.row_chunks().iter().zip(journal.row_chunks());
        for (c, (a, b)) in pairs.enumerate() {
            if sharing[c] {
                assert!(Arc::ptr_eq(a, b), "chunk {c} is a copy");
            }
        }
    }

    /// A carved shard shares with the journal every chunk none of whose
    /// nodes lost an edge, and still does after a batch for every such
    /// chunk the batch did not touch.
    #[test]
    fn a_carved_shard_shares_the_chunks_that_keep_their_edges() {
        let config = SyntheticConfig {
            nodes: 400,
            communities: 4,
            ..SyntheticConfig::default()
        };
        let g = generate(&config, 3).0;
        let router = ShardedRouter::over_graph(g, 3, 1, 0);
        let view = router.view();
        let journal = view.journal().graph();
        let sharing: Vec<Vec<bool>> = (0..3)
            .map(|s| {
                let shard = view.shard(s).graph();
                let keeps = |v: usize| shard.degree(v as NodeId) == journal.degree(v as NodeId);
                let chunks = journal.n().div_ceil(CHUNK);
                (0..chunks)
                    .map(|c| chunk_nodes(c, journal.n()).all(keeps))
                    .collect()
            })
            .collect();
        for (s, sharing) in sharing.iter().enumerate() {
            assert!(sharing.contains(&false), "shard {s} lost some edge");
            check_shared(view.shard(s).graph(), journal, sharing);
        }

        let mut rng = StdRng::seed_from_u64(3);
        let batch = random_updates(journal, &mut rng, 16, ChurnMix::STRUCTURAL);
        router.apply(&batch).expect("churn batch applies");
        let touched: Vec<usize> = batch
            .iter()
            .flat_map(|update| match *update {
                GraphUpdate::AddEdge { u, v } | GraphUpdate::RemoveEdge { u, v } => {
                    vec![u as usize / CHUNK, v as usize / CHUNK]
                }
                _ => Vec::new(),
            })
            .collect();
        let view = router.view();
        assert_eq!(view.journal().graph().n(), journal.n());
        for (s, sharing) in sharing.iter().enumerate() {
            let untouched: Vec<bool> = (sharing.iter().enumerate())
                .map(|(c, &shared)| shared && !touched.contains(&c))
                .collect();
            check_shared(view.shard(s).graph(), view.journal().graph(), &untouched);
        }
    }
}
