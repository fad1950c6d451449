//! What reading a graph from text costs in memory.
//!
//! `read_graph` keeps only the graph it returns: token rows go straight
//! into one flat array, the edge list grows by fixed-size blocks instead
//! of copying itself to double, the adjacency is laid out in one target
//! array and compacted in place, and every table is cut to its length
//! before the graph is assembled. This binary counts live heap bytes and
//! checks two figures on a graph of the generator's shape:
//!
//! * the peak while reading stays within 1.5× the loaded graph (measured
//!   1.33×; a builder holding a `Vec` per token row, a doubling edge
//!   list, a second target array and growth slack in every table peaked
//!   at 2.00× on this graph);
//! * the loaded graph's live bytes are within 2 % of the sum of its
//!   tables' lengths, so no table carries growth slack (that builder's
//!   graph held 27 % more).
//!
//! Keep this file at ONE `#[test]`: the byte counters are process-wide,
//! so a concurrently running sibling test would pollute them.

use csag_graph::io::{read_graph, write_graph};
use csag_graph::{AttributedGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to `System`, keeping the live byte count and its peak.
struct ByteCounter;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counters do not touch the memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc may move, holding both blocks for a moment; a
        // shrinking one gives back its tail in place.
        if new_size > layout.size() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: ByteCounter = ByteCounter;

const NODES: usize = 5_000;
const BLOCKS: usize = 55;

/// The generator's shape: 55 blocks; each node carries its block's eight
/// topic tokens plus two drawn from a 500-token pool, and two numerics,
/// with about sixteen edges, mostly inside its block.
fn generated() -> AttributedGraph {
    let mut rng = StdRng::seed_from_u64(5);
    let mut b = GraphBuilder::new(2);
    for v in 0..NODES {
        let block = v % BLOCKS;
        let mut names: Vec<String> = (0..8).map(|t| format!("topic_{block}_{t}")).collect();
        for _ in 0..2 {
            names.push(format!("tag_{block}_{}", rng.gen_range(0..500)));
        }
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        b.add_node(&names, &[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
    }
    for v in 0..NODES as NodeId {
        for _ in 0..8 {
            let w = if rng.gen_bool(0.8) {
                (rng.gen_range(0..(NODES / BLOCKS) as NodeId) * BLOCKS as NodeId
                    + v % BLOCKS as NodeId)
                    .min(NODES as NodeId - 1)
            } else {
                rng.gen_range(0..NODES as NodeId)
            };
            b.add_edge(v, w).unwrap();
        }
    }
    b.build().unwrap()
}

/// The bytes `g`'s tables hold at their lengths: the CSR, the token rows,
/// raw and normalized numerics with their ranges, and the vocabulary (its
/// probe table a power of two, at least 16 and twice the names).
fn table_bytes(g: &AttributedGraph) -> usize {
    let (n, dims) = (g.n(), g.attrs().dims());
    let tokens: usize = (0..n as NodeId).map(|v| g.tokens(v).len()).sum();
    let vocab = g.interner();
    let text: usize = (0..vocab.len() as u32)
        .map(|id| vocab.name(id).unwrap().len())
        .sum();
    let slots = if vocab.is_empty() {
        0
    } else {
        (2 * vocab.len()).next_power_of_two().max(16)
    };
    let csr = 8 * (n + 1) + 4 * 2 * g.m();
    let rows = 8 * (n + 1) + 4 * tokens;
    let numerics = 2 * 8 * n * dims + 2 * 8 * dims;
    csr + rows + numerics + text + 4 * vocab.len() + 4 * slots
}

#[test]
fn reading_a_graph_keeps_only_the_graph() {
    let mut text = Vec::new();
    write_graph(&generated(), &mut text).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let g = read_graph(&text[..]).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let live = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(g.n(), NODES);

    let tables = table_bytes(&g);
    let slack = live as f64 / tables as f64 - 1.0;
    assert!(
        slack.abs() <= 0.02,
        "the loaded graph holds {live} bytes for {tables} bytes of tables ({:+.1} %)",
        100.0 * slack
    );
    let ratio = peak as f64 / live as f64;
    assert!(
        ratio <= 1.5,
        "reading peaked at {peak} bytes, {ratio:.2}x the {live}-byte graph"
    );
}
