//! The [`MutableGraph`] overlay against a model of plain per-node rows.
//!
//! The model keeps one `Vec` of neighbors, token names and numerics per
//! node and applies updates to them directly. Random update streams —
//! both edge kinds, `set-attrs`, `add-vertex`, invalid updates, and
//! sweeps that edit most rows at once, as a shard gather does — run
//! through both, publishing at random points. After every update the
//! overlay's adjacency must match the model's; after every publish the
//! published graph must save to the same bytes as a [`GraphBuilder`]
//! rebuild of the model's rows, normalize bit-identically, share its
//! predecessor's attribute block exactly when no attribute changed,
//! share its predecessor's adjacency chunk exactly when the chunk's nodes
//! are unchanged and none of their rows was edited, and leave every
//! earlier epoch's graph byte-unchanged.

use csag_graph::graph::{chunk_nodes, CHUNK};
use csag_graph::io::write_graph;
use csag_graph::update::{Applied, GraphUpdate, MutableGraph};
use csag_graph::{AttributedGraph, GraphBuilder, GraphError, NodeId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

const DIMS: usize = 2;
const TOKENS: [&str; 6] = ["movie", "crime", "tv", "drama", "western", "noir"];

/// The reference: one `Vec` of neighbors, token names and numerics per
/// node, edited in place.
struct Model {
    adj: Vec<Vec<NodeId>>,
    tokens: Vec<Vec<String>>,
    numeric: Vec<Vec<f64>>,
    m: usize,
}

impl Model {
    fn of(g: &AttributedGraph) -> Model {
        let names = |v: NodeId| -> Vec<String> {
            let mut names: Vec<String> = g
                .tokens(v)
                .iter()
                .map(|&t| g.interner().name(t).unwrap().to_string())
                .collect();
            names.sort();
            names
        };
        Model {
            adj: (0..g.n() as NodeId)
                .map(|v| g.neighbors(v).to_vec())
                .collect(),
            tokens: (0..g.n() as NodeId).map(names).collect(),
            numeric: (0..g.n() as NodeId)
                .map(|v| g.numeric_raw(v).to_vec())
                .collect(),
            m: g.m(),
        }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if (node as usize) < self.n() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node, n: self.n() })
        }
    }

    fn check_dims(node: NodeId, row: &[f64]) -> Result<(), GraphError> {
        if row.len() == DIMS {
            Ok(())
        } else {
            Err(GraphError::DimMismatch {
                node,
                expected: DIMS,
                got: row.len(),
            })
        }
    }

    fn token_row(tokens: &[String]) -> Vec<String> {
        let mut row = tokens.to_vec();
        row.sort();
        row.dedup();
        row
    }

    fn apply(&mut self, update: &GraphUpdate) -> Result<Applied, GraphError> {
        match update {
            GraphUpdate::AddEdge { u, v } | GraphUpdate::RemoveEdge { u, v } => {
                self.check_node(*u)?;
                self.check_node(*v)?;
                let add = matches!(update, GraphUpdate::AddEdge { .. });
                let present = self.adj[*u as usize].binary_search(v).is_ok();
                if u == v || present == add {
                    return Ok(Applied::NoOp);
                }
                for (a, b) in [(*u, *v), (*v, *u)] {
                    let row = &mut self.adj[a as usize];
                    match row.binary_search(&b) {
                        Ok(pos) => {
                            row.remove(pos);
                        }
                        Err(pos) => row.insert(pos, b),
                    }
                }
                if add {
                    self.m += 1;
                    Ok(Applied::EdgeAdded(*u, *v))
                } else {
                    self.m -= 1;
                    Ok(Applied::EdgeRemoved(*u, *v))
                }
            }
            GraphUpdate::AddVertex { tokens, numeric } => {
                let id = self.n() as NodeId;
                Model::check_dims(id, numeric)?;
                self.adj.push(Vec::new());
                self.tokens.push(Model::token_row(tokens));
                self.numeric.push(numeric.clone());
                Ok(Applied::VertexAdded(id))
            }
            GraphUpdate::SetAttributes { v, tokens, numeric } => {
                self.check_node(*v)?;
                if let Some(row) = numeric {
                    Model::check_dims(*v, row)?;
                }
                if let Some(tokens) = tokens {
                    self.tokens[*v as usize] = Model::token_row(tokens);
                }
                if let Some(row) = numeric {
                    self.numeric[*v as usize] = row.clone();
                }
                Ok(Applied::AttributesSet(*v))
            }
        }
    }

    /// A builder rebuild of the rows, interning `vocabulary` first so
    /// token ids (and with them the saved token order) line up.
    fn rebuild(&self, vocabulary: &csag_graph::TokenInterner) -> AttributedGraph {
        let mut b = GraphBuilder::new(DIMS);
        for id in 0..vocabulary.len() as u32 {
            b.intern(vocabulary.name(id).unwrap());
        }
        for (tokens, numeric) in self.tokens.iter().zip(&self.numeric) {
            let names: Vec<&str> = tokens.iter().map(String::as_str).collect();
            b.add_node(&names, numeric);
        }
        for (u, row) in self.adj.iter().enumerate() {
            for &v in row {
                if (u as NodeId) < v {
                    b.add_edge(u as NodeId, v).unwrap();
                }
            }
        }
        b.build().unwrap()
    }
}

#[derive(Clone, Debug)]
enum Step {
    Update(GraphUpdate),
    /// Toggles the edge `{v, v + stride}` at every node `v`.
    Sweep(u32),
    Publish,
}

fn random_tokens(rng: &mut StdRng) -> Vec<String> {
    (0..rng.gen_range(0..4))
        .map(|_| {
            let i = rng.gen_range(0..TOKENS.len() + 2);
            TOKENS.get(i).map_or(format!("new-{i}"), |t| t.to_string())
        })
        .collect()
}

/// Mostly well-formed rows, sometimes of the wrong width.
fn random_numeric(rng: &mut StdRng) -> Vec<f64> {
    let width = if rng.gen_bool(0.9) {
        DIMS
    } else {
        rng.gen_range(0..=DIMS + 1)
    };
    (0..width).map(|_| rng.gen_range(-50.0..50.0)).collect()
}

/// A random seed graph and a stream of steps over it.
struct Cases;

impl Strategy for Cases {
    type Value = (AttributedGraph, Vec<Step>);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = rng.gen_range(1..40);
        let mut b = GraphBuilder::new(DIMS);
        for _ in 0..n {
            let tokens = random_tokens(rng);
            let names: Vec<&str> = tokens.iter().map(String::as_str).collect();
            let numeric: Vec<f64> = (0..DIMS).map(|_| rng.gen_range(-50.0..50.0)).collect();
            b.add_node(&names, &numeric);
        }
        for _ in 0..rng.gen_range(0..100) {
            b.add_edge(rng.gen_range(0..n), rng.gen_range(0..n))
                .unwrap();
        }
        // Node ids run past the seed graph, so some updates are refused.
        let node = |rng: &mut StdRng| rng.gen_range(0..48u32);
        let steps = (0..rng.gen_range(1..40))
            .map(|_| match rng.gen_range(0..18) {
                0..=5 => Step::Update(GraphUpdate::AddEdge {
                    u: node(rng),
                    v: node(rng),
                }),
                6..=9 => Step::Update(GraphUpdate::RemoveEdge {
                    u: node(rng),
                    v: node(rng),
                }),
                10..=11 => Step::Update(GraphUpdate::AddVertex {
                    tokens: random_tokens(rng),
                    numeric: random_numeric(rng),
                }),
                12..=14 => Step::Update(GraphUpdate::SetAttributes {
                    v: node(rng),
                    tokens: rng.gen_bool(0.5).then(|| random_tokens(rng)),
                    numeric: rng.gen_bool(0.5).then(|| random_numeric(rng)),
                }),
                15 => Step::Sweep(rng.gen_range(1..5)),
                _ => Step::Publish,
            })
            .collect();
        (b.build().unwrap(), steps)
    }
}

fn bytes(g: &AttributedGraph) -> Vec<u8> {
    let mut out = Vec::new();
    write_graph(g, &mut out).unwrap();
    out
}

fn normalized_bits(g: &AttributedGraph) -> Vec<u64> {
    (0..g.n() as NodeId)
        .flat_map(|v| g.numeric(v).iter().map(|x| x.to_bits()))
        .collect()
}

fn check_adjacency(mg: &MutableGraph, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(mg.n(), model.n());
    prop_assert_eq!(mg.m(), model.m);
    for (u, row) in model.adj.iter().enumerate() {
        prop_assert_eq!(mg.neighbors(u as NodeId), &row[..], "neighbors of {}", u);
        for v in 0..model.n() as NodeId {
            let present = row.binary_search(&v).is_ok();
            prop_assert_eq!(mg.has_edge(u as NodeId, v), present, "edge {} {}", u, v);
        }
    }
    Ok(())
}

/// What the updates since the last publish edited.
#[derive(Default)]
struct Edited {
    attrs: bool,
    /// Nodes whose adjacency row an update edited.
    rows: Vec<NodeId>,
}

fn apply_both(
    mg: &mut MutableGraph,
    model: &mut Model,
    update: &GraphUpdate,
    edited: &mut Edited,
) -> Result<(), TestCaseError> {
    let got = mg.apply(update);
    prop_assert_eq!(&got, &model.apply(update), "{:?}", update);
    match (update, got) {
        (_, Ok(Applied::EdgeAdded(u, v) | Applied::EdgeRemoved(u, v))) => {
            edited.rows.extend([u, v]);
        }
        (GraphUpdate::AddVertex { .. }, Ok(_)) => edited.attrs = true,
        (
            GraphUpdate::SetAttributes {
                tokens, numeric, ..
            },
            Ok(_),
        ) => edited.attrs |= tokens.is_some() || numeric.is_some(),
        _ => {}
    }
    check_adjacency(mg, model)
}

/// Chunk `c` of `published` is `previous`'s exactly when its nodes are
/// the same and none of their rows was edited.
fn check_chunks_shared(
    published: &AttributedGraph,
    previous: &AttributedGraph,
    rows: &[NodeId],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(published.row_chunks().len(), published.n().div_ceil(CHUNK));
    for (c, chunk) in published.row_chunks().iter().enumerate() {
        let nodes = chunk_nodes(c, published.n());
        let unedited = !rows.iter().any(|&v| nodes.contains(&(v as usize)));
        let kept = nodes == chunk_nodes(c, previous.n()) && unedited;
        let shared = previous
            .row_chunks()
            .get(c)
            .is_some_and(|p| Arc::ptr_eq(p, chunk));
        prop_assert_eq!(shared, kept, "chunk {} of {} nodes", c, published.n());
    }
    Ok(())
}

proptest! {
    #[test]
    fn overlay_matches_the_row_model((seed, steps) in Cases) {
        let base = Arc::new(seed);
        let mut mg = MutableGraph::from_arc(Arc::clone(&base));
        let mut model = Model::of(&base);
        // Every published epoch with the bytes it saved to when published.
        let mut epochs: Vec<(Arc<AttributedGraph>, Vec<u8>)> = vec![(Arc::clone(&base), bytes(&base))];
        let mut edited = Edited::default();
        for step in steps.iter().chain([&Step::Publish]) {
            match step {
                Step::Update(update) => {
                    apply_both(&mut mg, &mut model, update, &mut edited)?;
                }
                Step::Sweep(stride) => {
                    let n = model.n() as NodeId;
                    for v in 0..n {
                        let (u, w) = (v, (v + stride) % n);
                        let update = if model.adj[u as usize].binary_search(&w).is_ok() {
                            GraphUpdate::RemoveEdge { u, v: w }
                        } else {
                            GraphUpdate::AddEdge { u, v: w }
                        };
                        apply_both(&mut mg, &mut model, &update, &mut edited)?;
                    }
                }
                Step::Publish => {
                    let snapshot = bytes(&mg.snapshot());
                    let published = mg.publish();
                    check_adjacency(&mg, &model)?;
                    let got = bytes(&published);
                    prop_assert_eq!(&got, &snapshot, "snapshot and publish agree");
                    let rebuilt = model.rebuild(published.interner());
                    prop_assert_eq!(&got, &bytes(&rebuilt), "publish equals a rebuild");
                    prop_assert_eq!(normalized_bits(&published), normalized_bits(&rebuilt));
                    let previous = &epochs.last().unwrap().0;
                    prop_assert_eq!(
                        std::ptr::eq(published.attrs(), previous.attrs()),
                        !edited.attrs,
                        "the attribute block is shared exactly when no attribute changed"
                    );
                    check_chunks_shared(&published, previous, &edited.rows)?;
                    for (epoch, (g, saved)) in epochs.iter().enumerate() {
                        prop_assert_eq!(&bytes(g), saved, "epoch {} changed after publishing", epoch);
                    }
                    epochs.push((published, got));
                    edited = Edited::default();
                }
            }
        }
    }
}
