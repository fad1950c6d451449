//! Inputs are data: the five workloads as a table of parameters, and
//! the seeded generator that turns one row plus `--seed` into the op
//! list of a pass (request lines and update batches).
//!
//! The system under test never sees a workload name — it receives the
//! graph file, the request lines and the update batches, nothing else.
//! The graph `G5` is the fixed dataset (one generator seed); the
//! workload seed is the only source of query nodes, SEA seeds and
//! update scripts, so the same seed gives the same bytes and a
//! different seed gives different query nodes. The one list that does
//! not depend on the seed is the untimed [`quality_panel`].

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::engine::GraphUpdate;
use csag::graph::{AttributedGraph, NodeId};
use std::collections::HashSet;
use std::fmt::Write as _;

/// What the reads are served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One in-memory `GraphStore`.
    Solo,
    /// One `GraphStore` with a WAL (`fsync: Always`, a checkpoint
    /// every [`CHECKPOINT_EVERY`] epochs).
    Durable,
    /// `ShardedRouter::over_graph(G5, 3, 1, 0)`.
    Sharded,
}

/// The shape of one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `nodes` query nodes read in a fixed order, `cycles` times over,
    /// then one forward/inverse batch pair.
    Cycle {
        nodes: usize,
        cycles: usize,
        /// Draw the nodes eight to a planted community instead of
        /// uniformly.
        clustered: bool,
        /// Every `screened`-th read asks at [`SCREENED_K`] and is
        /// answered `no_community` by the coreness screen (0: none do).
        screened: usize,
    },
    /// `rounds` rounds of one batch then `reads` reads of `hot` nodes
    /// pinned to the epoch the batch produced. The batches are
    /// `rounds / 2` forward ones followed by their inverses in reverse
    /// order.
    Churn {
        rounds: usize,
        hot: usize,
        reads: usize,
    },
    /// `count` requests at [`SCREENED_K`], answered from the cached
    /// coreness screen, then one forward/inverse batch pair.
    Light { count: usize },
}

/// One row of the workload table.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// The layer this workload isolates (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub backend: Backend,
    /// Requests the client keeps in flight (closed loop).
    pub window: usize,
    /// Consecutive answered reads timed as one unit: long enough (5 ms
    /// and up) that thread hand-offs on the one CPU do not show, short
    /// enough that a burst of host noise spoils few of them.
    pub chunk: usize,
    /// Timed passes of one run. Fixed by count, never by seconds: every
    /// timing is a minimum over the passes, and a minimum falls as the
    /// passes grow, so both sides of a comparison must replay the list
    /// the same number of times however fast they are.
    pub passes: usize,
    pub shape: Shape,
}

/// Updates per batch.
pub const BATCH_UPDATES: usize = 16;
/// Attribute rewrites inside an attribute-carrying batch.
pub const ATTR_REWRITES: usize = 4;
/// WAL checkpoint cadence of the durable backend: equal to the churn
/// workload's batches per pass, so exactly one checkpoint falls in
/// every pass.
pub const CHECKPOINT_EVERY: u64 = 16;
/// Structural parameter of every real read.
pub const READ_K: u32 = 3;
/// A `k` no vertex of `G5` reaches (its largest core number is 11): a
/// read at this `k` is refused by the coreness screen in O(1).
pub const SCREENED_K: u32 = 50;
/// Reads of the quality panel ([`quality_panel`]).
pub const PANEL_READS: usize = 64;
/// Requested SEA error bound of every read (sent explicitly).
pub const READ_ERROR: f64 = 0.1;

/// The five workloads. Sizes are fixed by count, never by seconds; see
/// README.md for why each exists and what it deviates from.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "read_hot",
        why: "32 query nodes fit the 64-table distance cache: search (core sampling/estimation) does the work",
        backend: Backend::Solo,
        window: 4,
        chunk: 16,
        passes: 16,
        shape: Shape::Cycle { nodes: 32, cycles: 4, clustered: false, screened: 0 },
    },
    Spec {
        name: "read_scan",
        why: "256 distinct nodes in fixed order, 4x the cache: every read misses, engine.prepare and cold distances pay",
        backend: Backend::Solo,
        window: 4,
        chunk: 16,
        passes: 8,
        shape: Shape::Cycle { nodes: 256, cycles: 1, clustered: false, screened: 0 },
    },
    Spec {
        name: "churn_rw",
        why: "16 durable 16-update batches beside 128 pinned reads: snapshot, core/truss repair, WAL and table carry-over pay",
        backend: Backend::Durable,
        window: 4,
        chunk: 16,
        passes: 10,
        shape: Shape::Churn { rounds: 16, hot: 8, reads: 8 },
    },
    Spec {
        name: "shard_read",
        why: "128 community-clustered reads over 3 shards (halo 1), 8 of them screened: planner, gather and write fan-out pay",
        backend: Backend::Sharded,
        window: 4,
        chunk: 16,
        passes: 8,
        shape: Shape::Cycle { nodes: 32, cycles: 4, clustered: true, screened: 16 },
    },
    Spec {
        name: "wire_light",
        why: "32768 requests answered no_community from the coreness screen: wire, service hand-off and transport pay",
        backend: Backend::Solo,
        window: 64,
        chunk: 1_024,
        passes: 32,
        shape: Shape::Light { count: 32_768 },
    },
];

/// The row named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The fixed dataset `G5`: 5 000 nodes, ≈ 40 k edges, 55 planted
/// communities (the shape of the repo's GitHub/LiveJournal stand-ins),
/// with the ground-truth communities the clustered draw uses.
///
/// Why not the 20 000 nodes the benchmark was first specified on: SEA's
/// sampling population stays below `n` only from 11 100 nodes up, and
/// from there a run of any workload but the light one outlasts the
/// driver's time cap at eight passes and a single set-up (README.md,
/// "Graph", has the measured seconds).
pub fn g5() -> (AttributedGraph, Vec<Vec<NodeId>>) {
    let config = SyntheticConfig {
        nodes: 5_000,
        communities: 55,
        intra_degree: 6,
        inter_degree: 1.5,
        personal_pool: 500,
        ..SyntheticConfig::default()
    };
    generate(&config, 20)
}

/// splitmix64: the benchmark's only randomness, so inputs depend on
/// nothing but the seed (not on the vendored `rand` stand-in).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias at these sizes is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// `count` distinct elements of `pool`, in draw order.
    fn draw<T: Copy>(&mut self, pool: &[T], count: usize) -> Vec<T> {
        assert!(
            count <= pool.len(),
            "pool of {} cannot give {count}",
            pool.len()
        );
        let mut pool = pool.to_vec();
        (0..count)
            .map(|i| {
                let j = i + self.below(pool.len() - i);
                pool.swap(i, j);
                pool[i]
            })
            .collect()
    }
}

/// One read of the op list.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadOp {
    pub q: NodeId,
    pub k: u32,
    pub truss: bool,
    /// SEA seed (32 bits, so the wire's `f64` numbers carry it exactly).
    pub seed: u32,
    /// Batches applied earlier in the pass; a read behind at least one
    /// is pinned to the epoch they produced.
    pub applies_before: u64,
    /// Whether the reference answers with a community (`k` within the
    /// node's core and truss numbers) or with `no_community`.
    pub expect_result: bool,
}

impl ReadOp {
    /// Appends the csag-wire v2 request line (with its newline) for
    /// this read as the `id`-th read of a pass that starts at epoch
    /// `base_epoch`; `None` leaves the read unpinned whatever precedes
    /// it (set-up's read replay, which applies nothing).
    pub fn render(&self, id: usize, base_epoch: Option<u64>, out: &mut Vec<u8>) {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"id\":{id},\"method\":\"sea\",\"q\":{},\"k\":{}",
            self.q, self.k
        );
        if self.k == READ_K {
            let _ = write!(line, ",\"error\":{READ_ERROR:?},\"seed\":{}", self.seed);
        }
        if self.truss {
            line.push_str(",\"model\":\"k-truss\"");
        }
        if let Some(base) = base_epoch.filter(|_| self.applies_before > 0) {
            let _ = write!(line, ",\"epoch\":{}", base + self.applies_before);
        }
        line.push_str("}\n");
        out.extend_from_slice(line.as_bytes());
    }
}

/// One step of a pass: a run of reads the client pipelines, or a batch
/// the writer applies in lock-step once the window has drained.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Reads `start..end` (indices into [`Inputs::reads`]).
    Reads { start: usize, end: usize },
    /// Batch `index` of [`Inputs::batches`].
    Apply { index: usize },
}

/// Everything one run replays: the same list in every pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    pub reads: Vec<ReadOp>,
    pub batches: Vec<Vec<GraphUpdate>>,
    pub steps: Vec<Step>,
    /// The distinct query nodes, in draw order.
    pub query_nodes: Vec<NodeId>,
}

impl Inputs {
    /// Batches applied per pass. Every pass returns the graph to its
    /// set-up state, so a pass that starts at epoch `e` ends at
    /// `e + applies_per_pass()`.
    pub fn applies_per_pass(&self) -> u64 {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Apply { .. }))
            .count() as u64
    }

    /// `reads + applies`: the ops of one pass.
    pub fn ops_per_pass(&self) -> usize {
        self.reads.len() + self.applies_per_pass() as usize
    }

    /// The request lines of one pass that starts at epoch 0 (so a
    /// pinned read shows the number of batches ahead of it).
    pub fn requests_jsonl(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (id, read) in self.reads.iter().enumerate() {
            read.render(id, Some(0), &mut out);
        }
        out
    }

    /// The batches as one `csag-updates v1` script, a `# batch i`
    /// comment ahead of each.
    pub fn updates_txt(&self) -> String {
        let mut out = String::new();
        for (i, batch) in self.batches.iter().enumerate() {
            let _ = writeln!(out, "# batch {i}");
            out.push_str(&script(batch));
        }
        out
    }
}

/// `batch` as `csag-updates v1` text, one update per line.
pub fn script(batch: &[GraphUpdate]) -> String {
    let mut out = String::new();
    for update in batch {
        out.push_str(&update.to_line());
        out.push('\n');
    }
    out
}

/// The batch that undoes `forward` on the graph `forward` was generated
/// for: inverted updates in reverse order.
fn inverse(forward: &[GraphUpdate], g: &AttributedGraph) -> Vec<GraphUpdate> {
    forward
        .iter()
        .rev()
        .map(|update| match update {
            GraphUpdate::AddEdge { u, v } => GraphUpdate::RemoveEdge { u: *u, v: *v },
            GraphUpdate::RemoveEdge { u, v } => GraphUpdate::AddEdge { u: *u, v: *v },
            GraphUpdate::SetAttributes { v, .. } => GraphUpdate::SetAttributes {
                v: *v,
                tokens: None,
                numeric: Some(g.numeric_raw(*v).to_vec()),
            },
            GraphUpdate::AddVertex { .. } => unreachable!("scripts never add vertices"),
        })
        .collect()
}

/// Draws the forward batches of a script. No edge and no rewritten node
/// appears twice in the whole script, so the batches commute and every
/// inverse is exact whatever the order.
struct ScriptGen<'g> {
    g: &'g AttributedGraph,
    edges: Vec<(NodeId, NodeId)>,
    used_pairs: HashSet<(NodeId, NodeId)>,
    used_nodes: HashSet<NodeId>,
}

impl<'g> ScriptGen<'g> {
    fn new(g: &'g AttributedGraph) -> Self {
        ScriptGen {
            g,
            edges: g.edges().collect(),
            used_pairs: HashSet::new(),
            used_nodes: HashSet::new(),
        }
    }

    /// Half removals of existing edges, half insertions of absent ones.
    fn toggles(&mut self, rng: &mut SplitMix64, count: usize, out: &mut Vec<GraphUpdate>) {
        let n = self.g.n();
        for i in 0..count {
            loop {
                let (u, v) = if i % 2 == 0 {
                    self.edges[rng.below(self.edges.len())]
                } else {
                    (rng.below(n) as NodeId, rng.below(n) as NodeId)
                };
                let pair = (u.min(v), u.max(v));
                let present = self.g.has_edge(u, v);
                if u == v || present != (i % 2 == 0) || !self.used_pairs.insert(pair) {
                    continue;
                }
                out.push(if present {
                    GraphUpdate::RemoveEdge { u, v }
                } else {
                    GraphUpdate::AddEdge { u, v }
                });
                break;
            }
        }
    }

    /// Whether `v` holds the minimum or maximum of some numeric
    /// dimension (rewriting it could move a normalization range).
    fn holds_extreme(&self, v: NodeId) -> bool {
        let attrs = self.g.attrs();
        (0..attrs.dims()).any(|d| {
            let (lo, hi) = attrs.dim_range(d);
            let x = self.g.numeric_raw(v)[d];
            x <= lo || x >= hi
        })
    }

    /// A numeric rewrite of `target` (or of a random node) that stays
    /// strictly inside every dimension's current min–max range, on a
    /// node that holds none of the extremes — so no normalization range
    /// moves and only `v`'s own distance slots go stale.
    fn rewrite(&mut self, rng: &mut SplitMix64, target: Option<NodeId>) -> GraphUpdate {
        let attrs = self.g.attrs();
        let v = target.unwrap_or_else(|| loop {
            let v = rng.below(self.g.n()) as NodeId;
            if !self.holds_extreme(v) && !self.used_nodes.contains(&v) {
                break v;
            }
        });
        self.used_nodes.insert(v);
        let numeric = (0..attrs.dims())
            .map(|d| {
                let (lo, hi) = attrs.dim_range(d);
                lo + (hi - lo) * (0.05 + 0.9 * rng.unit())
            })
            .collect();
        GraphUpdate::SetAttributes {
            v,
            tokens: None,
            numeric: Some(numeric),
        }
    }
}

/// Generates the op list of `spec` for `seed` over `g`.
///
/// `coreness` / `trussness` (per node) decide which nodes may be
/// queried — only nodes a `k = 3` community of either model exists for
/// — and what each read is expected to answer.
pub fn generate_inputs(
    spec: &Spec,
    seed: u64,
    g: &AttributedGraph,
    communities: &[Vec<NodeId>],
    coreness: &[u32],
    trussness: &[u32],
) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let answerable = |v: NodeId| coreness[v as usize] >= READ_K && trussness[v as usize] >= READ_K;
    let eligible: Vec<NodeId> = (0..g.n() as NodeId).filter(|&v| answerable(v)).collect();
    let mut gen = ScriptGen::new(g);
    let mut reads = Vec::new();
    let mut batches = Vec::new();
    let mut steps = Vec::new();
    let query_nodes;

    // Every fourth read asks for the k-truss model, and the slot moves
    // on by one with every `turn` through the node list, so that every
    // node is asked under both models: a k-truss read costs 4, 6 or
    // 12 ms depending on the node (SEA doubles its sample until a truss
    // shows), and eight nodes carrying all of them made a pass's cost
    // depend on the draw.
    let read = |reads: &mut Vec<ReadOp>,
                rng: &mut SplitMix64,
                (q, k): (NodeId, u32),
                turn: usize,
                applies: u64| {
        let truss = (reads.len() + turn) % 4 == 3;
        let reach = if truss {
            trussness[q as usize]
        } else {
            coreness[q as usize]
        };
        reads.push(ReadOp {
            q,
            k,
            truss,
            seed: rng.next_u64() as u32,
            applies_before: applies,
            expect_result: k <= reach,
        });
    };
    // The closing forward/inverse pair of the read-mostly shapes:
    // structural only, so every distance table carries over.
    let closing_pair = |gen: &mut ScriptGen, rng: &mut SplitMix64| {
        let mut forward = Vec::new();
        gen.toggles(rng, BATCH_UPDATES, &mut forward);
        let back = inverse(&forward, g);
        vec![forward, back]
    };

    match spec.shape {
        Shape::Cycle {
            nodes,
            cycles,
            clustered,
            screened,
        } => {
            query_nodes = if clustered {
                let per = 8;
                let homes: Vec<usize> = (0..communities.len())
                    .filter(|&c| communities[c].iter().filter(|&&v| answerable(v)).count() >= per)
                    .collect();
                rng.draw(&homes, nodes.div_ceil(per))
                    .into_iter()
                    .flat_map(|c| {
                        let members: Vec<NodeId> = communities[c]
                            .iter()
                            .copied()
                            .filter(|&v| answerable(v))
                            .collect();
                        rng.draw(&members, per)
                    })
                    .take(nodes)
                    .collect()
            } else {
                rng.draw(&eligible, nodes)
            };
            for cycle in 0..cycles {
                for &q in &query_nodes {
                    let k = if screened > 0 && reads.len() % screened == 5 {
                        SCREENED_K
                    } else {
                        READ_K
                    };
                    read(&mut reads, &mut rng, (q, k), cycle, 0);
                }
            }
            steps.push(Step::Reads {
                start: 0,
                end: reads.len(),
            });
            batches = closing_pair(&mut gen, &mut rng);
            steps.extend([Step::Apply { index: 0 }, Step::Apply { index: 1 }]);
        }
        Shape::Churn {
            rounds,
            hot,
            reads: per_round,
        } => {
            query_nodes = rng.draw(&eligible, hot);
            let half = rounds / 2;
            // Forward batches alternate structural-only and
            // attribute-carrying; the first attribute batch rewrites a
            // hot query node, dropping that node's own table.
            let hot_target = query_nodes.iter().copied().find(|&v| !gen.holds_extreme(v));
            let forward: Vec<Vec<GraphUpdate>> = (0..half)
                .map(|b| {
                    let mut batch = Vec::new();
                    if b % 2 == 1 {
                        gen.toggles(&mut rng, BATCH_UPDATES - ATTR_REWRITES, &mut batch);
                        for r in 0..ATTR_REWRITES {
                            let target = if b == 1 && r == 0 { hot_target } else { None };
                            batch.push(gen.rewrite(&mut rng, target));
                        }
                    } else {
                        gen.toggles(&mut rng, BATCH_UPDATES, &mut batch);
                    }
                    batch
                })
                .collect();
            let inverses: Vec<Vec<GraphUpdate>> =
                forward.iter().rev().map(|f| inverse(f, g)).collect();
            batches.extend(forward);
            batches.extend(inverses);
            for round in 0..rounds {
                steps.push(Step::Apply { index: round });
                let start = reads.len();
                for i in 0..per_round {
                    let q = query_nodes[(round * per_round + i) % hot];
                    let turn = (round * per_round + i) / hot;
                    read(&mut reads, &mut rng, (q, READ_K), turn, round as u64 + 1);
                }
                steps.push(Step::Reads {
                    start,
                    end: reads.len(),
                });
            }
        }
        Shape::Light { count } => {
            query_nodes = rng.draw(&eligible, 256);
            for i in 0..count {
                let q = query_nodes[i % query_nodes.len()];
                read(
                    &mut reads,
                    &mut rng,
                    (q, SCREENED_K),
                    i / query_nodes.len(),
                    0,
                );
            }
            steps.push(Step::Reads {
                start: 0,
                end: reads.len(),
            });
            batches = closing_pair(&mut gen, &mut rng);
            steps.extend([Step::Apply { index: 0 }, Step::Apply { index: 1 }]);
        }
    }
    Inputs {
        reads,
        batches,
        steps,
        query_nodes,
    }
}

/// The quality panel: [`PANEL_READS`] real reads on query nodes spaced
/// evenly over the answerable nodes of the dataset, each with a SEA
/// seed of its own — the one op list that does *not* depend on
/// `--seed`. `certified_ratio` and `mean_delta` are taken from its
/// answers, so that they repeat exactly from run to run and a 2 % bound
/// can tell a change of the answers from the draw of the nodes: the
/// mean δ of 64 seeded nodes moves ±4 % with the draw, and as much
/// with the SEA seeds alone.
pub fn quality_panel(g: &AttributedGraph, coreness: &[u32], trussness: &[u32]) -> Inputs {
    let answerable: Vec<NodeId> = (0..g.n() as NodeId)
        .filter(|&v| coreness[v as usize] >= READ_K && trussness[v as usize] >= READ_K)
        .collect();
    let query_nodes: Vec<NodeId> = (0..PANEL_READS)
        .map(|i| answerable[i * answerable.len() / PANEL_READS])
        .collect();
    let reads: Vec<ReadOp> = query_nodes
        .iter()
        .enumerate()
        .map(|(i, &q)| ReadOp {
            q,
            k: READ_K,
            truss: i % 4 == 3,
            seed: q,
            applies_before: 0,
            expect_result: true,
        })
        .collect();
    Inputs {
        steps: vec![Step::Reads {
            start: 0,
            end: reads.len(),
        }],
        reads,
        batches: Vec::new(),
        query_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csag::decomp::{core_decomposition, node_max_trussness};
    use csag::graph::MutableGraph;

    fn small() -> (AttributedGraph, Vec<Vec<NodeId>>) {
        let config = SyntheticConfig {
            nodes: 1_200,
            communities: 14,
            ..SyntheticConfig::default()
        };
        generate(&config, 7)
    }

    fn inputs_for(spec: &Spec, seed: u64, g: &AttributedGraph, c: &[Vec<NodeId>]) -> Inputs {
        generate_inputs(
            spec,
            seed,
            g,
            c,
            &core_decomposition(g),
            &node_max_trussness(g),
        )
    }

    fn graph_bytes(g: &AttributedGraph) -> Vec<u8> {
        let mut out = Vec::new();
        csag::graph::io::write_graph(g, &mut out).unwrap();
        out
    }

    #[test]
    fn same_seed_same_bytes_and_another_seed_other_query_nodes() {
        let (g, communities) = small();
        for spec in &SPECS {
            // The light shape at full size is slow to diff; its
            // generator path is the same at any count.
            let spec = match spec.shape {
                Shape::Light { .. } => Spec {
                    shape: Shape::Light { count: 512 },
                    ..*spec
                },
                _ => *spec,
            };
            let a = inputs_for(&spec, 11, &g, &communities);
            let b = inputs_for(&spec, 11, &g, &communities);
            assert_eq!(a.requests_jsonl(), b.requests_jsonl(), "{}", spec.name);
            assert_eq!(a.updates_txt(), b.updates_txt(), "{}", spec.name);
            assert_eq!(a, b);
            let c = inputs_for(&spec, 12, &g, &communities);
            assert_ne!(a.query_nodes, c.query_nodes, "{}", spec.name);
            assert_ne!(a.requests_jsonl(), c.requests_jsonl(), "{}", spec.name);
            assert_ne!(a.updates_txt(), c.updates_txt(), "{}", spec.name);
        }
    }

    #[test]
    fn a_pass_of_every_script_returns_the_graph_byte_for_byte() {
        let (g, communities) = small();
        let base = graph_bytes(&g);
        for spec in &SPECS {
            let inputs = inputs_for(spec, 5, &g, &communities);
            let mut mutable = MutableGraph::from_graph(&g);
            let mut applied = 0;
            for step in &inputs.steps {
                if let Step::Apply { index } = step {
                    for update in &inputs.batches[*index] {
                        let done = mutable.apply(update).unwrap();
                        assert_ne!(
                            done,
                            csag::graph::Applied::NoOp,
                            "{update:?} must take effect"
                        );
                    }
                    applied += 1;
                    if applied < inputs.applies_per_pass() {
                        assert_ne!(graph_bytes(&mutable.snapshot()), base, "{}", spec.name);
                    }
                }
            }
            assert_eq!(applied, inputs.applies_per_pass());
            assert_eq!(graph_bytes(&mutable.snapshot()), base, "{}", spec.name);
            // The text form carries the same cycle: parse it back.
            let parsed = GraphUpdate::parse_script(&inputs.updates_txt()).unwrap();
            assert_eq!(parsed, inputs.batches.concat(), "{}", spec.name);
        }
    }

    #[test]
    fn attribute_rewrites_keep_every_normalization_range() {
        let (g, communities) = small();
        let churn = spec("churn_rw").unwrap();
        let inputs = inputs_for(churn, 3, &g, &communities);
        let mut mutable = MutableGraph::from_graph(&g);
        let mut rewrites = 0;
        for batch in &inputs.batches[..inputs.batches.len() / 2] {
            for update in batch {
                mutable.apply(update).unwrap();
                if let GraphUpdate::SetAttributes { .. } = update {
                    rewrites += 1;
                }
            }
            let now = mutable.snapshot();
            for d in 0..g.attrs().dims() {
                assert_eq!(now.attrs().dim_range(d), g.attrs().dim_range(d));
            }
        }
        assert_eq!(
            rewrites,
            4 * ATTR_REWRITES,
            "4 of the 8 forward batches carry 4 rewrites"
        );
        assert!(inputs.batches[1].iter().any(
            |u| matches!(u, GraphUpdate::SetAttributes { v, .. } if inputs.query_nodes.contains(v))
        ));
    }

    #[test]
    fn shapes_have_the_stated_sizes() {
        let (g, communities) = small();
        let sizes: Vec<(usize, u64)> = SPECS
            .iter()
            .map(|s| {
                let i = inputs_for(s, 1, &g, &communities);
                (i.reads.len(), i.applies_per_pass())
            })
            .collect();
        assert_eq!(
            sizes,
            vec![(128, 2), (256, 2), (128, 16), (128, 2), (32_768, 2)]
        );
        let passes: Vec<usize> = SPECS.iter().map(|s| s.passes).collect();
        assert_eq!(passes, vec![16, 8, 10, 8, 32]);
        let sharded = inputs_for(spec("shard_read").unwrap(), 1, &g, &communities);
        let screened: Vec<&ReadOp> = sharded.reads.iter().filter(|r| r.k == SCREENED_K).collect();
        assert_eq!(screened.len(), 8);
        assert!(screened.iter().all(|r| !r.expect_result));
        let hot = inputs_for(spec("read_hot").unwrap(), 1, &g, &communities);
        for &q in &hot.query_nodes {
            let asked: Vec<bool> = hot
                .reads
                .iter()
                .filter(|r| r.q == q)
                .map(|r| r.truss)
                .collect();
            assert_eq!(
                asked.iter().filter(|&&t| t).count(),
                1,
                "one k-truss read in four"
            );
            assert_eq!(asked.len(), 4);
        }
        let churn = inputs_for(spec("churn_rw").unwrap(), 1, &g, &communities);
        assert_eq!(churn.reads[0].applies_before, 1);
        assert_eq!(churn.reads[127].applies_before, 16);
        assert_eq!(
            churn.applies_per_pass(),
            CHECKPOINT_EVERY,
            "one checkpoint per pass"
        );
        let mut line = Vec::new();
        churn.reads[3].render(3, Some(40), &mut line);
        let line = String::from_utf8(line).unwrap();
        assert!(
            line.starts_with("{\"id\":3,\"method\":\"sea\",\"q\":"),
            "{line}"
        );
        assert!(
            line.ends_with(",\"model\":\"k-truss\",\"epoch\":41}\n"),
            "{line}"
        );
        assert!(csag::service::parse_wire_request(line.trim_end(), 0).is_ok());
    }
}
