//! Property tests for the WAL byte layer (`csag_graph::wal`): the
//! torn-write contract.
//!
//! The durability stack's safety argument rests on one claim: **a byte
//! stream of frames, cut at ANY byte, recovers to an exact prefix of
//! the written records — never a panic, never an error, never a wrong
//! graph** — and bytes a crash could not have produced are a typed
//! [`ScanError`], not a guess. These tests state that claim over
//! generated graphs, generated update batches, and every (arbitrary)
//! cut point and bit flip proptest can throw at it.
//!
//! The stream reader ([`read_frame`]) faces a socket peer instead of a
//! crashed file, so its claim is about hostile bytes: whatever arrives,
//! it answers `Ok`/`Err` — no panic, and no buffer sized by a header
//! above [`MAX_FRAME_LEN`].

use csag_graph::update::{GraphUpdate, MutableGraph};
use csag_graph::wal::{checksum, frame, read_frame, scan, ScanEnd, ScanError, MAX_FRAME_LEN};
use csag_graph::{AttributedGraph, GraphBuilder};
use proptest::prelude::*;

/// A small connected-ish seed graph with one numeric dimension.
fn seed_graph(n: usize) -> AttributedGraph {
    let mut b = GraphBuilder::new(1);
    for i in 0..n {
        b.add_node(&["t"], &[i as f64 / n as f64]);
    }
    for i in 1..n {
        b.add_edge(i as u32 - 1, i as u32).unwrap();
    }
    b.build().unwrap()
}

/// One valid-by-construction update against an `n`-node graph. The node
/// count never shrinks, so updates stay valid however batches compose.
/// (The vendored proptest has no `prop_oneof`; a selector field picks
/// the variant instead.)
fn update_strategy(n: u32) -> impl Strategy<Value = GraphUpdate> {
    (0u32..4, 0..n, 0..n, 0u32..1000).prop_map(move |(variant, u, v, x)| match variant {
        0 => GraphUpdate::AddEdge { u, v },
        1 => GraphUpdate::RemoveEdge { u, v },
        2 => GraphUpdate::SetAttributes {
            v,
            tokens: None,
            numeric: Some(vec![x as f64 / 1000.0]),
        },
        _ => GraphUpdate::AddVertex {
            tokens: vec!["t".into()],
            numeric: vec![x as f64 / 1000.0],
        },
    })
}

/// A sequence of update batches, rendered exactly as the durability
/// layer logs them: one `csag-updates v1` script body per batch.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<GraphUpdate>>> {
    prop::collection::vec(prop::collection::vec(update_strategy(8), 1..5), 1..6)
}

/// Renders a batch the way the WAL's record layer does: one update line
/// per update (the epoch header above is content-layer concern; the
/// byte layer treats bodies as opaque).
fn body_of(epoch: usize, batch: &[GraphUpdate]) -> Vec<u8> {
    let mut s = format!("# epoch {epoch}\n");
    for u in batch {
        s.push_str(&u.to_line());
        s.push('\n');
    }
    s.into_bytes()
}

/// The graph after applying the first `k` batches to the seed,
/// serialized to its canonical `csag-graph v1` bytes.
fn graph_after(batches: &[Vec<GraphUpdate>], k: usize) -> Vec<u8> {
    let mut m = MutableGraph::from_graph(&seed_graph(6));
    for batch in &batches[..k] {
        for u in batch {
            let _ = m.apply(u);
        }
    }
    let mut out = Vec::new();
    csag_graph::io::write_graph(&m.snapshot(), &mut out).unwrap();
    out
}

proptest! {
    /// Cut the framed stream at an arbitrary byte: the scan must
    /// succeed, yield an exact prefix of the written bodies, and —
    /// replayed onto the seed graph — reproduce byte-for-byte the graph
    /// that many batches built. The recovered epoch is always ≤ the
    /// written epoch, and a torn tail truncates to a clean log.
    #[test]
    fn any_truncation_recovers_an_exact_prefix(
        batches in batches_strategy(),
        cut_permille in 0u32..=1000,
    ) {
        let mut stream = Vec::new();
        let bodies: Vec<Vec<u8>> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| body_of(i + 1, b))
            .collect();
        for body in &bodies {
            stream.extend_from_slice(&frame(body));
        }
        let cut = (stream.len() * cut_permille as usize / 1000).min(stream.len());

        let scanned = scan(&stream[..cut]).expect("truncation is never corruption");
        let recovered_epoch = scanned.frames.len();
        prop_assert!(recovered_epoch <= batches.len());
        for (i, &(_, body)) in scanned.frames.iter().enumerate() {
            prop_assert_eq!(body, &bodies[i][..], "frame {} must match what was written", i);
        }
        // Replaying the recovered bodies (parsed back through the
        // script grammar, exactly as recovery does) yields the precise
        // graph that prefix of batches built — never a wrong graph.
        let mut replayed = MutableGraph::from_graph(&seed_graph(6));
        for &(_, body) in &scanned.frames {
            let text = std::str::from_utf8(body).expect("bodies are update scripts");
            for u in GraphUpdate::parse_script(text).expect("bodies round-trip") {
                let _ = replayed.apply(&u);
            }
        }
        let mut replayed_bytes = Vec::new();
        csag_graph::io::write_graph(&replayed.snapshot(), &mut replayed_bytes).unwrap();
        prop_assert_eq!(replayed_bytes, graph_after(&batches, recovered_epoch));
        if let ScanEnd::Torn { offset, .. } = scanned.end {
            prop_assert!(offset <= cut);
            let repaired = scan(&stream[..offset]).expect("repair is clean");
            prop_assert_eq!(repaired.end, ScanEnd::Clean);
            prop_assert_eq!(repaired.frames.len(), recovered_epoch);
        } else {
            // A clean scan of a strict prefix can only happen on a
            // frame boundary.
            let mut boundary = 0usize;
            let mut boundaries = vec![0usize];
            for body in &bodies {
                boundary += frame(body).len();
                boundaries.push(boundary);
            }
            prop_assert!(boundaries.contains(&cut));
        }
    }

    /// Flip one arbitrary byte anywhere in the stream: the scan either
    /// still returns an exact prefix of the written bodies (the flip
    /// landed in the droppable tail) or reports a typed [`ScanError`]
    /// — it never panics and never yields an altered record.
    #[test]
    fn any_bit_flip_is_refused_or_dropped_never_wrong(
        batches in batches_strategy(),
        pos_permille in 0u32..1000,
        bit in 0u32..8,
    ) {
        let bodies: Vec<Vec<u8>> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| body_of(i + 1, b))
            .collect();
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&frame(body));
        }
        let pos = (stream.len() * pos_permille as usize / 1000).min(stream.len() - 1);
        stream[pos] ^= 1 << bit;

        match scan(&stream) {
            Err(ScanError { offset, reason }) => {
                prop_assert!(offset <= pos, "error at {offset} blamed past the flip at {pos}: {reason}");
                prop_assert!(!reason.is_empty());
            }
            Ok(scanned) => {
                for (i, &(_, body)) in scanned.frames.iter().enumerate() {
                    prop_assert_eq!(
                        body,
                        &bodies[i][..],
                        "a surviving frame must be byte-identical to what was written"
                    );
                }
                prop_assert!(
                    matches!(scanned.end, ScanEnd::Torn { .. })
                        || scanned.frames.len() == bodies.len(),
                    "a damaged stream that scans clean must have kept every frame intact"
                );
            }
        }
    }

    /// Whatever a peer sends — raw garbage, a well-formed header
    /// declaring any `u64` length, or a genuine frame — `read_frame`
    /// returns instead of panicking; a declared length above the cap is
    /// refused with the body unread (so nothing was allocated for it),
    /// and an accepted body is exactly the bytes that were sent.
    #[test]
    fn hostile_bytes_into_read_frame_are_refused_not_fatal(
        variant in 0u32..4,
        declared in any::<u64>(),
        crc in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let (header, declared) = match variant {
            0 => (String::new(), None),
            1 => (format!("!rec {declared} {crc:016x}\n"), Some(declared)),
            2 => {
                let small = declared % (1 << 20);
                (format!("!rec {small} {crc:016x}\n"), Some(small))
            }
            _ => (
                format!("!rec {} {:016x}\n", tail.len(), checksum(&tail)),
                Some(tail.len() as u64),
            ),
        };
        let mut stream = header.clone().into_bytes();
        stream.extend_from_slice(&tail);
        let mut reader = std::io::Cursor::new(&stream);

        match read_frame(&mut reader) {
            Ok(Some(body)) => {
                prop_assert!(body.len() <= stream.len(), "a body is bytes that were sent");
                if variant == 3 {
                    prop_assert_eq!(body, tail);
                }
            }
            Ok(None) => prop_assert!(stream.is_empty(), "only an empty stream is a clean EOF"),
            Err(reason) => {
                prop_assert!(!reason.is_empty());
                prop_assert!(variant != 3, "a genuine frame was refused: {reason}");
                if declared.is_some_and(|d| d > MAX_FRAME_LEN as u64) {
                    prop_assert_eq!(
                        reader.position() as usize,
                        header.len(),
                        "an oversized frame must be refused before its body is read"
                    );
                }
            }
        }
    }
}
