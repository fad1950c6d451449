//! Attribute storage: textual token interning and numerical normalization.
//!
//! The paper's metric (§II-A) treats the two attribute kinds differently:
//! textual attributes are compared by Jaccard distance over *sets* of
//! tokens, numerical attributes by Manhattan distance over *min-max
//! normalized* (`Z(·)`) coordinates. This module stores both compactly:
//!
//! * tokens are interned to dense `u32` ids by a [`TokenInterner`] and each
//!   node's token set is a sorted slice in one flat arena, so Jaccard is a
//!   linear merge with no hashing at query time;
//! * numerical vectors have a fixed per-graph dimensionality and are
//!   normalized once at build time.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Interns textual attribute tokens (e.g. `"movie"`, `"crime"`) to dense
/// `u32` ids, bidirectionally. Ids are handed out in first-seen order.
///
/// The whole vocabulary lives in three flat buffers: every name appended
/// to one `String`, a `Vec<u32>` of end offsets mapping id → name, and an
/// open-addressing table of ids (linear probing, at most half full)
/// mapping name → id. For 100 000 ten-byte names that is 26 bytes of
/// resident memory a token, where a map of owned `String`s took 132, and
/// a clone is three buffer copies.
///
/// The table hashes with a keyed [`RandomState`]: tokens reach a running
/// server through update feeds, and an unkeyed hash would let a client
/// choose names that all probe one run of the table.
#[derive(Clone, Default)]
pub struct TokenInterner {
    /// Every name, back to back, in id order.
    text: String,
    /// `ends[id]` is where name `id` ends in `text`; it starts where
    /// `id - 1` ends (or at 0).
    ends: Vec<u32>,
    /// `EMPTY` or an id. Its length is 0 or a power of two at least
    /// twice the number of names.
    slots: Vec<u32>,
    hasher: RandomState,
}

const EMPTY: u32 = u32::MAX;

impl TokenInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, interning it if new.
    ///
    /// # Panics
    /// When the vocabulary would outgrow `u32` ids or 4 GiB of text.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("token vocabulary outgrew u32 ids");
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("token vocabulary outgrew 4 GiB of text");
        self.ends.push(end);
        if 2 * self.ends.len() > self.slots.len() {
            self.grow();
        } else {
            let slot = self.vacant_slot(name);
            self.slots[slot] = id;
        }
        id
    }

    /// Looks up an already-interned token.
    pub fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                id if self.name_at(id as usize) == name => return Some(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Returns the token string for `id`, if in range.
    pub fn name(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        (id < self.ends.len()).then(|| self.name_at(id))
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn name_at(&self, id: usize) -> &str {
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        &self.text[start..self.ends[id] as usize]
    }

    /// Drops the spare capacity of the name buffers (the probe table stays
    /// a power of two).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// The first empty slot on `name`'s probe run (`name` is absent).
    fn vacant_slot(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Doubles the table (16 slots at first) and re-inserts every id.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (2 * self.slots.len()).max(16)];
        for id in 0..self.ends.len() {
            let slot = self.vacant_slot(self.name_at(id));
            self.slots[slot] = id as u32;
        }
    }
}

impl fmt::Debug for TokenInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = (0..self.len()).map(|id| self.name_at(id)).collect();
        f.debug_struct("TokenInterner")
            .field("names", &names)
            .finish()
    }
}

/// Flat per-node attribute storage shared by homogeneous and heterogeneous
/// graphs.
///
/// Invariants (enforced by [`crate::GraphBuilder`]):
/// * `token_offsets.len() == n + 1` and each node's token slice is sorted
///   and deduplicated;
/// * `numeric.len() == n * dims`; `normalized` mirrors `numeric` with every
///   dimension min-max scaled into `[0, 1]`.
///
/// The interner is shared, not copied, by everything derived from one
/// graph (restrictions, snapshots of a [`crate::update::MutableGraph`]);
/// a copy, made only when an update brings a token nobody has seen, is
/// three buffer copies of the whole vocabulary. The block itself is
/// shared too: a graph holds it behind an `Arc`, and an overlay's snapshot
/// after a batch that changed no attribute points at its base's block.
#[derive(Clone, Debug)]
pub struct NodeAttributes {
    pub(crate) interner: Arc<TokenInterner>,
    pub(crate) token_offsets: Vec<usize>,
    pub(crate) tokens: Vec<u32>,
    pub(crate) dims: usize,
    pub(crate) numeric: Vec<f64>,
    pub(crate) normalized: Vec<f64>,
    pub(crate) dim_min: Vec<f64>,
    pub(crate) dim_max: Vec<f64>,
}

impl NodeAttributes {
    /// Number of nodes covered.
    pub fn n(&self) -> usize {
        self.token_offsets.len() - 1
    }

    /// Numerical dimensionality shared by every node.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Sorted token ids of node `v`.
    #[inline]
    pub fn tokens(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.tokens[self.token_offsets[v]..self.token_offsets[v + 1]]
    }

    /// Raw (unnormalized) numerical attributes of node `v`.
    #[inline]
    pub fn numeric_raw(&self, v: u32) -> &[f64] {
        let v = v as usize;
        &self.numeric[v * self.dims..(v + 1) * self.dims]
    }

    /// Min-max normalized numerical attributes of node `v`, each in `[0,1]`.
    #[inline]
    pub fn numeric_normalized(&self, v: u32) -> &[f64] {
        let v = v as usize;
        &self.normalized[v * self.dims..(v + 1) * self.dims]
    }

    /// The interner mapping token ids back to strings.
    pub fn interner(&self) -> &TokenInterner {
        &self.interner
    }

    /// Observed `[min, max]` of dimension `d` before normalization
    /// (`(0, 0)` for every dimension of a graph without nodes).
    ///
    /// # Panics
    /// When `d ≥ dims`.
    pub fn dim_range(&self, d: usize) -> (f64, f64) {
        assert!(d < self.dims, "dimension {d} out of range {}", self.dims);
        match (self.dim_min.get(d), self.dim_max.get(d)) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0.0, 0.0),
        }
    }

    /// Builds attribute storage from a builder's token rows and numeric
    /// rows, with every table at exactly its length, through
    /// [`NodeAttributes::from_flat`].
    pub(crate) fn from_rows(
        mut interner: TokenInterner,
        rows: TokenRows,
        dims: usize,
        mut numeric: Vec<f64>,
    ) -> Self {
        let TokenRows {
            mut offsets,
            mut tokens,
        } = rows;
        interner.shrink_to_fit();
        offsets.shrink_to_fit();
        tokens.shrink_to_fit();
        numeric.shrink_to_fit();
        NodeAttributes::from_flat(Arc::new(interner), offsets, tokens, dims, numeric)
    }

    /// Builds attribute storage from token rows already in flat form
    /// (each row sorted and deduplicated) and numeric rows, which are
    /// min-max normalized per dimension (constant dimensions normalize to
    /// 0). Every attribute block, built or published, is normalized here.
    pub(crate) fn from_flat(
        interner: Arc<TokenInterner>,
        token_offsets: Vec<usize>,
        tokens: Vec<u32>,
        dims: usize,
        numeric: Vec<f64>,
    ) -> Self {
        let n = token_offsets.len() - 1;
        debug_assert_eq!(numeric.len(), n * dims);
        debug_assert!((0..n).all(|v| {
            let row = &tokens[token_offsets[v]..token_offsets[v + 1]];
            row.windows(2).all(|w| w[0] < w[1])
        }));

        // Ranges are kept only for dimensions some row backs up: a graph
        // without nodes answers `(0, 0)` from `dim_range` rather than
        // allocating whatever its `dims` claims.
        let ranged = if n == 0 { 0 } else { dims };
        let mut dim_min = vec![f64::INFINITY; ranged];
        let mut dim_max = vec![f64::NEG_INFINITY; ranged];
        for row in numeric.chunks_exact(dims.max(1)) {
            for (d, &x) in row.iter().enumerate() {
                dim_min[d] = dim_min[d].min(x);
                dim_max[d] = dim_max[d].max(x);
            }
        }
        let mut normalized = Vec::with_capacity(numeric.len());
        for row in numeric.chunks_exact(dims.max(1)) {
            for (d, &x) in row.iter().enumerate() {
                let (lo, hi) = (dim_min[d], dim_max[d]);
                let range = hi - lo;
                normalized.push(if range == f64::INFINITY {
                    // Finite extremes whose difference overflows: halving
                    // every term keeps the quotient finite, monotone and
                    // exactly 0 and 1 at the extremes.
                    (x / 2.0 - lo / 2.0) / (hi / 2.0 - lo / 2.0)
                } else if range > 0.0 {
                    (x - lo) / range
                } else {
                    0.0
                });
            }
        }

        NodeAttributes {
            interner,
            token_offsets,
            tokens,
            dims,
            numeric,
            normalized,
            dim_min,
            dim_max,
        }
    }

    /// Restriction of the attributes to `nodes` (new ids are positions in
    /// `nodes`). Normalization ranges are inherited from the parent graph so
    /// that distances computed in a subgraph match the parent's (a meta-path
    /// projection must score nodes exactly as the heterogeneous graph does),
    /// and the interner is shared with the parent.
    pub(crate) fn restrict(&self, nodes: &[u32]) -> Self {
        let mut token_offsets = Vec::with_capacity(nodes.len() + 1);
        token_offsets.push(0usize);
        let mut tokens = Vec::new();
        let mut numeric = Vec::with_capacity(nodes.len() * self.dims);
        let mut normalized = Vec::with_capacity(nodes.len() * self.dims);
        for &v in nodes {
            tokens.extend_from_slice(self.tokens(v));
            token_offsets.push(tokens.len());
            numeric.extend_from_slice(self.numeric_raw(v));
            normalized.extend_from_slice(self.numeric_normalized(v));
        }
        NodeAttributes {
            interner: Arc::clone(&self.interner),
            token_offsets,
            tokens,
            dims: self.dims,
            numeric,
            normalized,
            dim_min: self.dim_min.clone(),
            dim_max: self.dim_max.clone(),
        }
    }
}

/// Token rows under construction, already in [`NodeAttributes`]' flat
/// form: one array of ids, each row sorted and deduplicated in place when
/// it is closed.
#[derive(Clone, Debug)]
pub(crate) struct TokenRows {
    offsets: Vec<usize>,
    tokens: Vec<u32>,
}

impl TokenRows {
    /// No rows yet, with room for `rows` of them.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        TokenRows {
            offsets,
            tokens: Vec::new(),
        }
    }

    /// Number of rows closed.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Closes a row holding `ids` (in any order, repeats allowed).
    pub(crate) fn push(&mut self, ids: impl IntoIterator<Item = u32>) {
        let start = self.tokens.len();
        self.tokens.extend(ids);
        let kept = sort_dedup(&mut self.tokens[start..]);
        self.tokens.truncate(start + kept);
        self.offsets.push(self.tokens.len());
    }
}

/// Sorts `row` and moves its distinct values, ascending, to its front;
/// returns how many there are.
pub(crate) fn sort_dedup(row: &mut [u32]) -> usize {
    row.sort_unstable();
    let mut kept = 0;
    for i in 0..row.len() {
        if kept == 0 || row[i] != row[kept - 1] {
            row[kept] = row[i];
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rows: Vec<Vec<u32>>) -> TokenRows {
        let mut out = TokenRows::with_capacity(rows.len());
        for row in rows {
            out.push(row);
        }
        out
    }

    #[test]
    fn interner_round_trips() {
        let mut i = TokenInterner::new();
        let movie = i.intern("movie");
        let crime = i.intern("crime");
        assert_ne!(movie, crime);
        assert_eq!(i.intern("movie"), movie, "re-interning is stable");
        assert_eq!(i.get("crime"), Some(crime));
        assert_eq!(i.get("absent"), None);
        assert_eq!(i.name(movie), Some("movie"));
        assert_eq!(i.name(99), None);
        assert_eq!(i.len(), 2);
    }

    fn sample_attrs() -> NodeAttributes {
        let mut i = TokenInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        NodeAttributes::from_rows(
            i,
            rows(vec![vec![b, a, b], vec![c], vec![]]),
            2,
            vec![0.0, 10.0, 5.0, 20.0, 10.0, 30.0],
        )
    }

    #[test]
    fn token_rows_are_sorted_and_deduped() {
        let attrs = sample_attrs();
        assert_eq!(attrs.tokens(0), &[0, 1], "sorted, deduped");
        assert_eq!(attrs.tokens(1), &[2]);
        assert_eq!(attrs.tokens(2), &[] as &[u32]);
    }

    #[test]
    fn normalization_is_min_max_per_dimension() {
        let attrs = sample_attrs();
        assert_eq!(attrs.numeric_normalized(0), &[0.0, 0.0]);
        assert_eq!(attrs.numeric_normalized(1), &[0.5, 0.5]);
        assert_eq!(attrs.numeric_normalized(2), &[1.0, 1.0]);
        assert_eq!(attrs.dim_range(0), (0.0, 10.0));
        assert_eq!(attrs.dim_range(1), (10.0, 30.0));
    }

    #[test]
    fn constant_dimension_normalizes_to_zero() {
        let attrs = NodeAttributes::from_rows(
            TokenInterner::new(),
            rows(vec![vec![], vec![]]),
            1,
            vec![7.0, 7.0],
        );
        assert_eq!(attrs.numeric_normalized(0), &[0.0]);
        assert_eq!(attrs.numeric_normalized(1), &[0.0]);
    }

    /// Finite extremes whose difference overflows `f64` still normalize
    /// into `[0, 1]`, with the extremes at exactly 0 and 1.
    #[test]
    fn overflowing_range_normalizes_into_the_unit_interval() {
        let values = vec![f64::MAX, -f64::MAX, 0.0, 1.7e308, -1.7e308, 1.0, -5e307];
        let n = values.len();
        let attrs =
            NodeAttributes::from_rows(TokenInterner::new(), rows(vec![vec![]; n]), 1, values);
        assert_eq!(attrs.dim_range(0), (-f64::MAX, f64::MAX));
        assert_eq!(attrs.numeric_normalized(0), &[1.0]);
        assert_eq!(attrs.numeric_normalized(1), &[0.0]);
        assert_eq!(attrs.numeric_normalized(2), &[0.5]);
        for v in 0..n as u32 {
            let x = attrs.numeric_normalized(v)[0];
            assert!((0.0..=1.0).contains(&x), "node {v} normalizes to {x}");
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| attrs.numeric_raw(a)[0].total_cmp(&attrs.numeric_raw(b)[0]));
        assert!(order
            .windows(2)
            .all(|w| attrs.numeric_normalized(w[0])[0] <= attrs.numeric_normalized(w[1])[0]));
    }

    #[test]
    fn restriction_preserves_parent_normalization() {
        let attrs = sample_attrs();
        let sub = attrs.restrict(&[2, 0]);
        assert_eq!(sub.n(), 2);
        // Node 2's normalized value stays 1.0 even though it is the only
        // large value left in the restriction.
        assert_eq!(sub.numeric_normalized(0), &[1.0, 1.0]);
        assert_eq!(sub.numeric_normalized(1), &[0.0, 0.0]);
        assert_eq!(sub.tokens(0), &[] as &[u32]);
        assert_eq!(sub.tokens(1), &[0, 1]);
        assert_eq!(sub.numeric_raw(0), &[10.0, 30.0]);
    }

    #[test]
    fn zero_dims_supported() {
        let attrs =
            NodeAttributes::from_rows(TokenInterner::new(), rows(vec![vec![], vec![]]), 0, vec![]);
        assert_eq!(attrs.dims(), 0);
        assert_eq!(attrs.numeric_normalized(0), &[] as &[f64]);
    }
}
