//! Property tests for the graph substrate.

use csag_graph::traversal::{component_of, Components};
use csag_graph::{FixedBitSet, GraphBuilder};
use proptest::prelude::*;

/// Strategy: a random undirected graph as (n, edge list) with n in 1..40.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..120);
        (Just(n), edges)
    })
}

/// Strategy: `blocks` groups of `size` nodes striped across the id space
/// (node `u·blocks + b` is the `u`-th of group `b`), edges only inside a
/// group, and `isolated` edgeless nodes after them — so always several
/// components, interleaved in id order.
fn arb_multi_component_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2u32..6, 1u32..12, 1usize..6).prop_flat_map(|(blocks, size, isolated)| {
        let n = (blocks * size) as usize + isolated;
        let edges =
            prop::collection::vec((0..blocks, 0..size, 0..size), 0..80).prop_map(move |picks| {
                picks
                    .into_iter()
                    .map(|(b, u, v)| (u * blocks + b, v * blocks + b))
                    .collect()
            });
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> csag_graph::AttributedGraph {
    let mut b = GraphBuilder::new(1);
    for i in 0..n {
        b.add_node(&["t"], &[i as f64]);
    }
    for &(u, v) in edges {
        b.add_edge(u, v).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #[test]
    fn adjacency_is_symmetric_sorted_and_loop_free((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for v in 0..g.n() as u32 {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "sorted+dedup");
            prop_assert!(!nb.contains(&v), "no self loop");
            for &w in nb {
                prop_assert!(g.neighbors(w).binary_search(&v).is_ok(), "symmetric");
            }
        }
        // Handshake lemma.
        let degsum: usize = (0..g.n() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.m());
    }

    #[test]
    fn has_edge_matches_neighbor_lists((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                let expect = g.neighbors(u).contains(&v);
                prop_assert_eq!(g.has_edge(u, v), expect);
            }
        }
    }

    #[test]
    fn components_partition_nodes((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let comps = Components::new(&g);
        let mut all: Vec<u32> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
        // Every node's component query agrees with the partition.
        for comp in comps.iter() {
            for &v in comp {
                prop_assert_eq!(&component_of(&g, v, None)[..], comp);
            }
        }
    }

    /// The component index answers exactly what the walk does, on graphs
    /// with several interleaved components and isolated nodes.
    #[test]
    fn component_index_matches_the_walk((n, edges) in arb_multi_component_graph()) {
        let g = build(n, &edges);
        let comps = Components::new(&g);
        prop_assert!(comps.iter().count() >= 3, "two groups and an isolated node at least");
        for v in 0..n as u32 {
            prop_assert_eq!(comps.of(v), &component_of(&g, v, None)[..]);
        }
    }

    #[test]
    fn induced_subgraph_edges_are_exactly_internal_edges((n, edges) in arb_graph(), keep_mask in prop::collection::vec(any::<bool>(), 40)) {
        let g = build(n, &edges);
        let keep: Vec<u32> =
            (0..g.n() as u32).filter(|&v| keep_mask[v as usize]).collect();
        let sub = g.induced(&keep);
        prop_assert_eq!(sub.graph.n(), keep.len());
        // Internal edge count matches.
        let mut mask = FixedBitSet::new(g.n());
        for &v in &keep {
            mask.insert(v);
        }
        let internal = g
            .edges()
            .filter(|&(u, v)| mask.contains(u) && mask.contains(v))
            .count();
        prop_assert_eq!(sub.graph.m(), internal);
        // Round-trip ids.
        for (local, &orig) in sub.to_original.iter().enumerate() {
            prop_assert_eq!(sub.local(orig), Some(local as u32));
            prop_assert_eq!(sub.graph.numeric_raw(local as u32), g.numeric_raw(orig));
        }
    }

    #[test]
    fn bitset_behaves_like_reference_set(ops in prop::collection::vec((0u32..200, any::<bool>()), 0..400)) {
        let mut bs = FixedBitSet::new(200);
        let mut reference = std::collections::BTreeSet::new();
        for (v, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(v), reference.insert(v));
            } else {
                prop_assert_eq!(bs.remove(v), reference.remove(&v));
            }
        }
        prop_assert_eq!(bs.count(), reference.len());
        prop_assert_eq!(bs.to_vec(), reference.into_iter().collect::<Vec<_>>());
    }
}

/// Hostile input to the graph-file reader — what a `--graph` file, a
/// primary's snapshot payload or a WAL checkpoint can hold. Every input
/// reads to `Ok` or a typed `Err`, never a panic and never an allocation
/// sized by a header field; whatever reads writes back and reads again
/// to the same graph. The retired heterogeneous format's header,
/// `ntype`/`etype` records and typed rows stay in the mix as near misses.
mod graph_text {
    use csag_graph::io::{read_graph, write_graph};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Fragments the grammar is made of — whole records, their words,
    /// and near misses of each.
    const FRAGMENTS: [&str; 41] = [
        "csag-graph v1",
        "csag-hetero v1",
        "dims 0",
        "dims 1",
        "dims 18446744073709551615",
        "dims 4000000000",
        "dims 1\nnode 0 c 5",
        "node 0 -",
        "node 0 a 1",
        "node 1 - 2",
        "node 0 0 -",
        "node 1 0 a,b 1",
        "edge 0 1",
        "edge 0 1 0",
        "ntype 0 t",
        "ntype 1 t",
        "etype 0 w",
        "dims",
        "node",
        "edge",
        "ntype",
        "t",
        "#",
        "-",
        "a,,b",
        "0",
        "1",
        "4000000000",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "1.5",
        "1e999",
        "nan",
        "inf",
        "\u{a0}",
        "\u{0}",
        "é",
        "",
    ];
    const JOINTS: [&str; 5] = [" ", "\n", "\t", "\r\n", "\n\n"];
    const HEADERS: [&str; 3] = ["", "csag-graph v1\n", "csag-hetero v1\n"];

    /// Reads `text`; an `Ok` must survive a write and a second read with
    /// its shape intact, and a second `dims` record is never accepted.
    fn read_checked(text: &str) -> Result<(), TestCaseError> {
        let dims_records = text
            .lines()
            .filter(|l| l.split_whitespace().next() == Some("dims"))
            .count();
        if dims_records > 1 {
            prop_assert!(read_graph(text.as_bytes()).is_err(), "{:?}", text);
        }
        if let Ok(g) = read_graph(text.as_bytes()) {
            let mut again = Vec::new();
            write_graph(&g, &mut again).expect("write to memory");
            let g2 = read_graph(&again[..]).expect("a written graph reads back");
            prop_assert_eq!(
                (g2.n(), g2.m(), g2.attrs().dims()),
                (g.n(), g.m(), g.attrs().dims())
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_graph_readers(
            header in 0..HEADERS.len(),
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let text = HEADERS[header].to_string() + &String::from_utf8_lossy(&bytes);
            read_checked(&text)?;
        }

        /// A second `dims` record anywhere after the first is refused,
        /// never read as a fresh start that drops every record before it.
        #[test]
        fn a_second_dims_record_is_refused(
            nodes in 1usize..6,
            at in 0usize..64,
            dims in 0usize..3,
        ) {
            let mut lines: Vec<String> = (0..nodes).map(|v| format!("node {v} a 1")).collect();
            lines.extend((1..nodes).map(|v| format!("edge 0 {v}")));
            lines.insert(at % (lines.len() + 1), format!("dims {dims}"));
            let body = lines.join("\n");
            read_checked(&format!("csag-graph v1\ndims 1\n{body}\n"))?;
            read_checked(&format!("csag-hetero v1\ndims 1\nntype 0 t\n{body}\n"))?;
        }

        #[test]
        fn joined_fragments_read_or_fail_cleanly(
            header in 0..HEADERS.len(),
            picks in prop::collection::vec((0..FRAGMENTS.len(), 0..JOINTS.len()), 0..32),
        ) {
            let text: String = std::iter::once(HEADERS[header])
                .chain(picks.iter().flat_map(|&(f, j)| [FRAGMENTS[f], JOINTS[j]]))
                .collect();
            read_checked(&text)?;
        }
    }
}

/// Hostile input to the `csag-updates v1` reader — what a WAL frame, a
/// replication feed or an operator's script can hold.
mod update_text {
    use csag_graph::GraphUpdate;
    use proptest::prelude::*;

    /// Fragments the grammar is made of, and near misses of each.
    const FRAGMENTS: [&str; 24] = [
        "add-edge",
        "remove-edge",
        "add-vertex",
        "set-attrs",
        "add-edg",
        "#",
        "# epoch 3",
        "-",
        "--",
        ",",
        "a,b",
        "a,,b",
        "0",
        "7",
        "4294967295",
        "4294967296",
        "-1",
        "1.5",
        "1e999",
        "nan",
        "inf",
        "\u{a0}",
        "\u{0}",
        "é",
    ];
    const JOINTS: [&str; 5] = [" ", "\n", "\t", "\r\n", "  "];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_the_script_reader(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = GraphUpdate::parse_script(&String::from_utf8_lossy(&bytes));
        }

        /// Whitespace-joined grammar fragments parse or fail cleanly, and
        /// whatever parses is a value the text can say again: updates
        /// that came from text always pass the writers' replay check.
        #[test]
        fn joined_fragments_parse_or_fail_and_parsed_updates_are_replayable(
            picks in prop::collection::vec((0..FRAGMENTS.len(), 0..JOINTS.len()), 0..24),
        ) {
            let text: String = picks
                .iter()
                .flat_map(|&(f, j)| [FRAGMENTS[f], JOINTS[j]])
                .collect();
            let whole = GraphUpdate::parse_script(&text);
            let mut sayable = Vec::new();
            for line in text.lines() {
                if let Ok(update) = GraphUpdate::parse_line(line) {
                    prop_assert_eq!(update.replayable(), Ok(()), "from {:?}", line);
                    sayable.push(update);
                }
            }
            if let Ok(updates) = whole {
                prop_assert_eq!(&updates, &sayable, "script and lines agree on {:?}", text);
            }
            let again: String = sayable.iter().map(|u| u.to_line() + "\n").collect();
            prop_assert_eq!(GraphUpdate::parse_script(&again), Ok(sayable));
        }
    }
}

/// The arena interner against the obvious model: a `HashMap<String, u32>`
/// plus a `Vec<String>` of names in first-seen order.
mod interner_model {
    use csag_graph::TokenInterner;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Names that stress the table: short ones over a tiny alphabet
    /// (repeats, the empty name, prefixes of one another), unicode, long
    /// names, and enough numbered ones to grow the table several times.
    fn arb_name() -> impl Strategy<Value = String> {
        const UNICODE: [char; 8] = ['a', 'é', '中', '🦀', '\u{0}', '\u{a0}', ' ', ','];
        (0u8..4, any::<u64>()).prop_map(|(kind, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            match kind {
                0 => (0..rng.gen_range(0..4))
                    .map(|_| if rng.gen_bool(0.5) { 'a' } else { 'b' })
                    .collect(),
                1 => (0..rng.gen_range(0..7))
                    .map(|_| UNICODE[rng.gen_range(0..UNICODE.len())])
                    .collect(),
                2 => (0..rng.gen_range(40..120))
                    .map(|_| rng.gen_range(b'a'..=b'z') as char)
                    .collect(),
                _ => format!("tok-{}", rng.gen_range(0..3000)),
            }
        })
    }

    #[derive(Default)]
    struct Model {
        ids: HashMap<String, u32>,
        names: Vec<String>,
    }

    impl Model {
        fn intern(&mut self, name: &str) -> u32 {
            if let Some(&id) = self.ids.get(name) {
                return id;
            }
            let id = self.names.len() as u32;
            self.ids.insert(name.to_owned(), id);
            self.names.push(name.to_owned());
            id
        }
    }

    /// Every id names what the model names, every model name finds its
    /// id, and `probes` (mostly never interned) find what the model does.
    fn agree(i: &TokenInterner, m: &Model, probes: &[String]) -> Result<(), TestCaseError> {
        prop_assert_eq!(i.len(), m.names.len());
        prop_assert_eq!(i.is_empty(), m.names.is_empty());
        for (id, name) in m.names.iter().enumerate() {
            prop_assert_eq!(i.name(id as u32), Some(name.as_str()));
            prop_assert_eq!(i.get(name), Some(id as u32));
        }
        prop_assert_eq!(i.name(m.names.len() as u32), None);
        prop_assert_eq!(i.name(u32::MAX), None);
        for p in probes {
            prop_assert_eq!(i.get(p), m.ids.get(p).copied(), "{:?}", p);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A clone taken part-way agrees with the model at that point, and
        /// keeps agreeing as the rest of the stream goes into it alone.
        #[test]
        fn interner_matches_a_hash_map_model(
            stream in prop::collection::vec(arb_name(), 0..3000),
            probes in prop::collection::vec(arb_name(), 0..64),
            cut in 0.0f64..1.0,
        ) {
            let cut = (stream.len() as f64 * cut) as usize;
            let (mut interner, mut model) = (TokenInterner::new(), Model::default());
            for name in &stream[..cut] {
                prop_assert_eq!(interner.intern(name), model.intern(name));
            }
            let frozen = interner.clone();
            let frozen_model = Model { ids: model.ids.clone(), names: model.names.clone() };
            for name in &stream[cut..] {
                prop_assert_eq!(interner.intern(name), model.intern(name));
                prop_assert_eq!(interner.get(name), Some(model.ids[name]));
            }
            agree(&interner, &model, &probes)?;
            agree(&interner.clone(), &model, &probes)?;
            agree(&frozen, &frozen_model, &probes)?;
        }
    }
}

/// The text format over graphs whose every token it can hold: reading
/// what was written gives the same graph back, ids included, and writing
/// that again gives the same bytes.
mod text_round_trip {
    use csag_graph::io::{read_graph, write_graph};
    use csag_graph::{AttributedGraph, GraphBuilder};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Tokens the format can hold: not empty, no `,`, no whitespace; `-`
    /// only beside another token (a list of nothing but `-` gets an `x`).
    fn node_tokens() -> impl Strategy<Value = Vec<String>> {
        const CHARS: [char; 9] = ['a', 'b', 'c', '0', '9', 'é', '#', '-', '\u{0}'];
        prop::collection::vec((any::<bool>(), any::<u64>()), 0..5).prop_map(|picks| {
            let mut toks: Vec<String> = picks
                .into_iter()
                .map(|(dash, seed)| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    if dash && rng.gen_bool(0.3) {
                        return "-".to_owned();
                    }
                    (0..rng.gen_range(1..4))
                        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                        .collect()
                })
                .collect();
            if !toks.is_empty() && toks.iter().all(|t| t == "-") {
                toks.push("x".to_owned());
            }
            toks
        })
    }

    fn arb_value() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 4] = [-0.0, f64::MIN_POSITIVE, f64::MAX, 0.1 + 0.2];
        (0usize..8, -1e6f64..1e6).prop_map(|(pick, x)| SPECIAL.get(pick).copied().unwrap_or(x))
    }

    /// `(dims, per node: tokens, numerics, edges (u, v))`.
    type Spec = (usize, Vec<(Vec<String>, Vec<f64>)>, Vec<(u32, u32)>);

    fn arb_spec() -> impl Strategy<Value = Spec> {
        (0usize..3, 1usize..24).prop_flat_map(|(dims, n)| {
            let nodes =
                prop::collection::vec((node_tokens(), prop::collection::vec(arb_value(), dims)), n);
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..48);
            (Just(dims), nodes, edges)
        })
    }

    fn homogeneous((dims, nodes, edges): &Spec) -> AttributedGraph {
        let mut b = GraphBuilder::new(*dims);
        for (toks, numeric) in nodes {
            let toks: Vec<&str> = toks.iter().map(String::as_str).collect();
            b.add_node(&toks, numeric);
        }
        for &(u, v) in edges {
            b.add_edge(u, v).unwrap();
        }
        b.build().unwrap()
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    fn same_graph(a: &AttributedGraph, b: &AttributedGraph) -> Result<(), TestCaseError> {
        prop_assert_eq!((a.n(), a.m()), (b.n(), b.m()));
        prop_assert_eq!(a.attrs().dims(), b.attrs().dims());
        prop_assert_eq!(a.interner().len(), b.interner().len());
        for t in 0..a.interner().len() as u32 {
            prop_assert_eq!(a.interner().name(t), b.interner().name(t));
        }
        for v in 0..a.n() as u32 {
            prop_assert_eq!(a.neighbors(v), b.neighbors(v));
            prop_assert_eq!(a.tokens(v), b.tokens(v));
            prop_assert_eq!(bits(a.numeric_raw(v)), bits(b.numeric_raw(v)));
            prop_assert_eq!(bits(a.numeric(v)), bits(b.numeric(v)));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn homogeneous_graphs_read_back_as_written(spec in arb_spec()) {
            let g = homogeneous(&spec);
            let mut first = Vec::new();
            write_graph(&g, &mut first).expect("every token is writable");
            let back = read_graph(&first[..]).expect("a written graph reads back");
            same_graph(&back, &g)?;
            let mut second = Vec::new();
            write_graph(&back, &mut second).unwrap();
            prop_assert!(first == second, "second write differs");
        }
    }
}
