//! Reusable per-query scratch state.
//!
//! The steady-state query hot path must not pay an allocator round-trip
//! per query: bitsets, best-first heaps, node/score buffers and the peel
//! scratch are the same shapes every time, so one [`QueryWorkspace`] owns
//! a small pool of each and hands them out with `take_*` / `put_*` pairs.
//! A workspace is thread-private (batch executors create one per worker);
//! the pools grow to the high-water mark of whatever ran through them and
//! then stop allocating entirely — the property the counting-allocator
//! tests in `csag-core` pin down.
//!
//! `take_*` returns a cleared (and, for bitsets, re-sized) object; `put_*`
//! returns it to the pool. Dropping a taken object instead of returning it
//! is safe — the pool simply refills lazily — but defeats the reuse.
//!
//! The one pooled object that is *not* cleared on `take` is the
//! [`PeelScratch`] of the restricted peels: its arrays are epoch-stamped,
//! so a peel ignores whatever an earlier one left behind, and they only
//! grow, so one scratch serves every graph (epoch, shard) a worker reads.

use crate::bitset::FixedBitSet;
use crate::heap::MinScored;
use crate::NodeId;
use std::collections::BinaryHeap;

/// Pooled scratch for one query-serving thread. See the [module
/// docs](self).
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    bitsets: Vec<FixedBitSet>,
    heaps: Vec<BinaryHeap<MinScored>>,
    node_bufs: Vec<Vec<NodeId>>,
    scored_bufs: Vec<Vec<(f64, NodeId)>>,
    f64_bufs: Vec<Vec<f64>>,
    peels: Vec<PeelScratch>,
}

impl QueryWorkspace {
    /// An empty workspace; pools fill on first use.
    pub fn new() -> Self {
        QueryWorkspace::default()
    }

    /// A cleared bitset over the universe `0..len` (reuses a pooled
    /// backing buffer when one with enough capacity is available).
    pub fn take_bitset(&mut self, len: usize) -> FixedBitSet {
        match self.bitsets.pop() {
            Some(mut b) => {
                b.reset(len);
                b
            }
            None => FixedBitSet::new(len),
        }
    }

    /// Returns a bitset to the pool.
    pub fn put_bitset(&mut self, b: FixedBitSet) {
        self.bitsets.push(b);
    }

    /// An empty best-first heap (capacity retained from prior use).
    pub fn take_heap(&mut self) -> BinaryHeap<MinScored> {
        match self.heaps.pop() {
            Some(mut h) => {
                h.clear();
                h
            }
            None => BinaryHeap::new(),
        }
    }

    /// Returns a heap to the pool.
    pub fn put_heap(&mut self, h: BinaryHeap<MinScored>) {
        self.heaps.push(h);
    }

    /// An empty node-id buffer (capacity retained from prior use).
    pub fn take_nodes(&mut self) -> Vec<NodeId> {
        match self.node_bufs.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a node buffer to the pool.
    pub fn put_nodes(&mut self, v: Vec<NodeId>) {
        self.node_bufs.push(v);
    }

    /// An empty `(score, node)` buffer (capacity retained from prior use).
    pub fn take_scored(&mut self) -> Vec<(f64, NodeId)> {
        match self.scored_bufs.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a scored buffer to the pool.
    pub fn put_scored(&mut self, v: Vec<(f64, NodeId)>) {
        self.scored_bufs.push(v);
    }

    /// An empty `f64` buffer (capacity retained from prior use).
    pub fn take_f64s(&mut self) -> Vec<f64> {
        match self.f64_bufs.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns an `f64` buffer to the pool.
    pub fn put_f64s(&mut self, v: Vec<f64>) {
        self.f64_bufs.push(v);
    }

    /// A peel scratch as the last peel left it (stamped, so nothing needs
    /// clearing); the caller [`fit`s](PeelScratch::fit) it to its graph.
    pub fn take_peel(&mut self) -> PeelScratch {
        self.peels.pop().unwrap_or_default()
    }

    /// Returns a peel scratch to the pool.
    pub fn put_peel(&mut self, p: PeelScratch) {
        self.peels.push(p);
    }
}

/// The scratch of `csag-decomp`'s restricted peels (k-core, k-truss and
/// the maintainer's root walk): `u32` arrays indexed by node id and by the
/// k-truss peel's row slots, the epoch counter that stamps the node
/// arrays, and the peels' work lists. Which array means what is the
/// peel's business.
///
/// A node-array entry equal to the current epoch was written by the
/// current peel; any other value is stale, so a peel never clears what an
/// earlier one wrote. Arrays that a peel uses for values rather than
/// stamps (degrees, supports, row numbers) are written before they are
/// read within each peel, or checked against the current peel's rows
/// when read, and a value never goes into an array another peel reads as
/// stamps. The arrays only grow: [`PeelScratch::fit`] sizes the node
/// arrays to a graph's `n`, and the k-truss peel grows the slot array to
/// the rows it lays out — two slots (one per direction) for each subset
/// edge at a node its walk from `q` reaches — so it is as long as the
/// largest such region needs, never sized by a graph's `m`. The scratch
/// of the largest graph and subset seen serves every smaller one. When
/// the epoch counter wraps, every array is cleared once and counting
/// restarts at 1.
#[derive(Clone, Debug, Default)]
pub struct PeelScratch {
    epoch: u32,
    /// Arrays indexed by node id, each at least the largest fitted `n`.
    pub node: [Vec<u32>; 5],
    /// Indexed by the k-truss peel's row slots; at least as long as the
    /// most slots a peel has laid out.
    pub slots: Vec<u32>,
    /// Lists whose length each peel sets itself (a stack, a walk, a
    /// peel's rows).
    pub lists: [Vec<u32>; 4],
}

impl PeelScratch {
    /// Grows the node arrays to at least `n` entries (zero-filled; zero is
    /// never a live epoch). Never shrinks them.
    pub fn fit(&mut self, n: usize) {
        for a in self.node.iter_mut().filter(|a| a.len() < n) {
            a.resize(n, 0);
        }
    }

    /// Starts a peel: returns its epoch, which no entry holds yet. At the
    /// wrap (2³² − 1 peels) every array is cleared and counting restarts
    /// at 1.
    #[inline]
    pub fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for a in self.node.iter_mut().chain([&mut self.slots]) {
                a.fill(0);
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// The epoch of the latest peel (0 before the first).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Moves the epoch counter forward to `epoch`, as if that many peels
    /// had run; a test reaches the wrap this way.
    ///
    /// # Panics
    /// When `epoch` is below the current one: entries stamped above it
    /// would read as written by a later peel.
    pub fn advance_epoch_to(&mut self, epoch: u32) {
        assert!(epoch >= self.epoch, "peel epochs only move forward");
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_come_back_cleared_with_capacity() {
        let mut ws = QueryWorkspace::new();
        let mut v = ws.take_nodes();
        v.extend(0..100);
        let ptr = v.as_ptr();
        ws.put_nodes(v);
        let v = ws.take_nodes();
        assert!(v.is_empty());
        assert!(v.capacity() >= 100, "capacity must survive the pool");
        assert_eq!(v.as_ptr(), ptr, "same backing buffer");
    }

    #[test]
    fn bitsets_resize_and_clear() {
        let mut ws = QueryWorkspace::new();
        let mut b = ws.take_bitset(100);
        b.insert(7);
        ws.put_bitset(b);
        // Smaller universe: reuses the backing words, comes back empty.
        let b = ws.take_bitset(50);
        assert_eq!(b.capacity(), 50);
        assert!(b.is_empty());
        ws.put_bitset(b);
        // Larger universe still works.
        let b = ws.take_bitset(1000);
        assert_eq!(b.capacity(), 1000);
        assert!(!b.contains(7));
    }

    #[test]
    fn heaps_and_scored_and_f64_pools_round_trip() {
        let mut ws = QueryWorkspace::new();
        let mut h = ws.take_heap();
        h.push(MinScored {
            score: 0.5,
            node: 1,
        });
        ws.put_heap(h);
        assert!(ws.take_heap().is_empty());

        let mut s = ws.take_scored();
        s.push((0.1, 2));
        ws.put_scored(s);
        assert!(ws.take_scored().is_empty());

        let mut f = ws.take_f64s();
        f.push(1.0);
        ws.put_f64s(f);
        assert!(ws.take_f64s().is_empty());
    }

    #[test]
    fn peel_scratch_only_grows() {
        let mut ws = QueryWorkspace::new();
        let mut p = ws.take_peel();
        p.fit(100);
        assert!(p.node.iter().all(|a| a.len() == 100));
        assert!(p.slots.is_empty(), "fitting sizes no edges");
        p.node[0][99] = p.next_epoch();
        ws.put_peel(p);
        let mut p = ws.take_peel();
        p.fit(10);
        assert!(p.node.iter().all(|a| a.len() == 100), "never shrinks");
        assert_eq!(p.node[0][99], 1, "stamps survive the pool");
        assert_eq!(p.next_epoch(), 2);
    }

    #[test]
    fn peel_epoch_wraps_to_one_and_clears() {
        let mut p = PeelScratch::default();
        p.fit(4);
        p.slots.resize(2, 0);
        p.advance_epoch_to(u32::MAX - 1);
        assert_eq!(p.next_epoch(), u32::MAX);
        p.node[1][3] = u32::MAX;
        p.slots[1] = 7;
        assert_eq!(p.next_epoch(), 1);
        assert!(p.node.iter().flatten().chain(&p.slots).all(|&x| x == 0));
    }
}
