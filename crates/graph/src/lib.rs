//! Attributed graph storage for community search.
//!
//! This crate provides the graph substrate used by every algorithm in the
//! workspace:
//!
//! * [`AttributedGraph`] — an undirected homogeneous graph in CSR layout,
//!   its rows in chunks that graphs share (so an epoch costs the chunks
//!   its batch edited), whose nodes carry *textual* attributes (interned
//!   token sets) and *numerical* attributes (fixed-width `f64` vectors,
//!   min-max normalized at build time, the paper's `Z(·)`).
//! * [`HeteroGraph`] — a heterogeneous graph with typed nodes and edges,
//!   [`MetaPath`] queries, P-neighbor computation and meta-path projection
//!   onto an [`AttributedGraph`] of target-type nodes (paper §VI-A).
//! * [`FixedBitSet`] — a dense node-mask used pervasively by the
//!   decomposition and search algorithms.
//! * [`traversal`] — BFS / connectivity primitives restricted to node
//!   masks, and [`traversal::Components`], a graph's component index.
//! * [`wal`] — checksummed byte framing for write-ahead-log segments,
//!   with torn-tail vs. corruption classification (the byte layer under
//!   the facade crate's durable update log).
//! * [`QueryWorkspace`] + [`MinScored`] — pooled per-thread query scratch
//!   (bitsets, best-first heaps, buffers, and the grow-only
//!   [`PeelScratch`] of the restricted peels) keeping the steady-state hot
//!   path allocation-free, and the shared min-heap ordering every
//!   best-first traversal uses.
//! * [`alloc_counter`] — an opt-in counting global allocator backing the
//!   zero-allocation tests and the perf report.
//!
//! Node identifiers are plain `u32` values ([`NodeId`]), dense in
//! `0..graph.n()`. The CSR layout keeps neighbor scans cache-friendly, which
//! dominates the running time of the peeling and enumeration algorithms
//! built on top.
//!
//! ```
//! use csag_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(2);
//! let a = b.add_node(&["movie", "crime"], &[9.2, 1.6e6]);
//! let c = b.add_node(&["movie", "drama"], &[9.0, 1.1e6]);
//! b.add_edge(a, c).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.n(), 2);
//! assert_eq!(g.neighbors(a), &[c]);
//! ```

pub mod alloc_counter;
pub mod attrs;
pub mod bitset;
pub mod builder;
pub mod graph;
pub mod heap;
pub mod hetero;
pub mod io;
pub mod stats;
pub mod traversal;
pub mod update;
pub mod wal;
pub mod workspace;

pub use attrs::TokenInterner;
pub use bitset::FixedBitSet;
pub use builder::{GraphBuilder, GraphError};
pub use graph::{AttributedGraph, InducedSubgraph};
pub use heap::MinScored;
pub use hetero::{HeteroGraph, HeteroGraphBuilder, MetaPath, ProjectedGraph};
pub use update::{Applied, GraphUpdate, MutableGraph, RowOverlay};
pub use workspace::{PeelScratch, QueryWorkspace};

/// Dense node identifier, valid in `0..graph.n()`.
pub type NodeId = u32;
