//! # `csag::cluster::remote` — cross-process replication over sockets
//!
//! [`crate::cluster::Router`] replicates a primary
//! [`crate::engine::GraphStore`] to N replicas — but in-process only.
//! This module takes the same replica contract (an ordered
//! [`LogRecord`](crate::cluster::LogRecord) consumer publishing a
//! watermark) across a process boundary, speaking **`csag-repl v1`**
//! over TCP or unix-domain sockets:
//!
//! * [`ReplListener`] — the primary side: accepts follower
//!   connections, handshakes on the follower's current epoch, catches
//!   it up (a WAL tail replay when the log still covers the gap, a
//!   full snapshot ship — the `csag::durability` checkpoint file's raw
//!   bytes — when it is behind the pruned horizon), then forwards the
//!   live record feed and reads `ack <epoch>` watermarks back.
//! * [`Follower`] — the replica side: a store in *this* process kept
//!   in epoch lockstep by applying the stream through the ordinary
//!   [`GraphStore::apply`](crate::engine::GraphStore::apply) path,
//!   reconnecting (with gap detection and snapshot reseed) after any
//!   drop. Serve reads from its store with an ordinary
//!   [`crate::service::Service`] + [`crate::service::Transport`].
//! * The router tracks each follower in its one member table, a
//!   member whose link is a socket, under the one lifecycle: ack
//!   silence or a dropped connection degrades it (watermark frozen — a
//!   pinned read can never be served stale), a reconnect reseeds it,
//!   acks return it to healthy. Its `"kind":"remote"` row of
//!   `csag-cluster-metrics-v2` carries lag, bytes shipped and reseeds.
//!
//! Wire framing reuses what already exists: log records cross the
//! socket in the WAL's checksummed `!rec` frames
//! ([`csag_graph::wal::frame`]) around
//! [`LogRecord::to_wire`](crate::cluster::LogRecord::to_wire) bodies,
//! and snapshots are `csag-graph v1` payloads. The normative grammar
//! lives in `docs/replication.md`.
//!
//! The deterministic failure seam is the same [`FaultPlan`] the WAL and
//! query transport use: [`ReplListener::bind_uds_with`] /
//! [`ReplListener::bind_tcp_with`] drop the connection at a scripted
//! *shipped-record* index, so the degrade → reconnect → reseed →
//! catch-up path runs under plain `cargo test`.
//!
//! [`FaultPlan`]: crate::durability::FaultPlan

pub(crate) mod feed;
mod follower;
mod listener;

pub use follower::{Follower, FollowerConfig};
pub use listener::ReplListener;

/// Protocol identifier sent in every hello line.
pub const PROTOCOL: &str = "csag-repl-v1";

/// Opens the follower's hello line:
/// `repl hello csag-repl-v1 epoch <E|none> name <NAME>`.
pub(crate) const HELLO_PREFIX: &str = "repl hello";
/// Opens the primary's stream response: `stream <E>` — log frames with
/// epochs `> E` follow.
pub(crate) const STREAM_PREFIX: &str = "stream";
/// Opens the primary's snapshot response: `snapshot <E> <len>` —
/// `len` raw `csag-graph v1` bytes follow, then log frames with epochs
/// `> E`.
pub(crate) const SNAPSHOT_PREFIX: &str = "snapshot";
/// Opens the primary's refusal: `error <message>`, then close.
pub(crate) const ERROR_PREFIX: &str = "error";
/// Opens every follower→primary ack line: `ack <epoch>`.
pub(crate) const ACK_PREFIX: &str = "ack ";

/// Parses a hello line into `(follower_epoch, name)`; `None` epoch
/// means the follower has no state and needs a snapshot.
pub(crate) fn parse_hello(line: &str) -> Result<(Option<u64>, String), String> {
    let rest = line
        .strip_prefix(HELLO_PREFIX)
        .ok_or_else(|| format!("expected `{HELLO_PREFIX} ...`, got `{line}`"))?;
    let mut tokens = rest.split_whitespace();
    if tokens.next() != Some(PROTOCOL) {
        return Err(format!("unsupported protocol in `{line}`"));
    }
    if tokens.next() != Some("epoch") {
        return Err(format!("missing `epoch` in `{line}`"));
    }
    let epoch = match tokens.next() {
        Some("none") => None,
        Some(t) => Some(
            t.parse::<u64>()
                .map_err(|_| format!("bad epoch `{t}` in `{line}`"))?,
        ),
        None => return Err(format!("missing epoch value in `{line}`")),
    };
    if tokens.next() != Some("name") {
        return Err(format!("missing `name` in `{line}`"));
    }
    let name = tokens
        .next()
        .ok_or_else(|| format!("missing name value in `{line}`"))?;
    if tokens.next().is_some() {
        return Err(format!("trailing tokens in `{line}`"));
    }
    Ok((epoch, name.to_string()))
}

/// The primary's handshake response, parsed by the follower.
pub(crate) enum Header {
    /// `stream <E>`: the follower's state was accepted as-is.
    Stream {
        /// The epoch the stream resumes above.
        from: u64,
    },
    /// `snapshot <E> <len>`: a full payload follows.
    Snapshot {
        /// The epoch the snapshot captures.
        epoch: u64,
        /// Payload length in bytes, as claimed by the peer.
        len: u64,
    },
    /// `error <message>`: the primary refused the handshake.
    Error {
        /// Why.
        message: String,
    },
}

/// Parses the primary's handshake response line.
pub(crate) fn parse_header(line: &str) -> Result<Header, String> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some(t) if t == STREAM_PREFIX => {
            let from = tokens
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| format!("bad stream header `{line}`"))?;
            if tokens.next().is_some() {
                return Err(format!("trailing tokens in `{line}`"));
            }
            Ok(Header::Stream { from })
        }
        Some(t) if t == SNAPSHOT_PREFIX => {
            let epoch = tokens
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| format!("bad snapshot header `{line}`"))?;
            let len = tokens
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| format!("bad snapshot header `{line}`"))?;
            if tokens.next().is_some() {
                return Err(format!("trailing tokens in `{line}`"));
            }
            Ok(Header::Snapshot { epoch, len })
        }
        Some(t) if t == ERROR_PREFIX => Ok(Header::Error {
            message: tokens.collect::<Vec<_>>().join(" "),
        }),
        _ => Err(format!("unrecognized handshake response `{line}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_grammar_round_trips() {
        let (e, n) = parse_hello("repl hello csag-repl-v1 epoch 42 name f1").unwrap();
        assert_eq!((e, n.as_str()), (Some(42), "f1"));
        let (e, n) = parse_hello("repl hello csag-repl-v1 epoch none name fresh").unwrap();
        assert_eq!((e, n.as_str()), (None, "fresh"));
        for bad in [
            "",
            "hello",
            "repl hello csag-repl-v0 epoch 1 name x",
            "repl hello csag-repl-v1 epoch x name y",
            "repl hello csag-repl-v1 epoch 1",
            "repl hello csag-repl-v1 epoch 1 name x extra",
        ] {
            assert!(parse_hello(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn header_grammar_round_trips() {
        assert!(matches!(
            parse_header("stream 9").unwrap(),
            Header::Stream { from: 9 }
        ));
        assert!(matches!(
            parse_header("snapshot 4 128").unwrap(),
            Header::Snapshot { epoch: 4, len: 128 }
        ));
        match parse_header("error no such history").unwrap() {
            Header::Error { message } => assert_eq!(message, "no such history"),
            _ => panic!("expected error header"),
        }
        for bad in ["", "stream", "stream x", "snapshot 1", "frobnicate 3"] {
            assert!(parse_header(bad).is_err(), "accepted `{bad}`");
        }
    }
    proptest::proptest! {
        /// Hostile handshake lines — arbitrary bytes, and whitespace-joined
        /// fragments of the grammar — parse or are refused with a
        /// message; what parses round-trips through the grammar.
        #[test]
        fn handshake_parsers_never_panic_and_accept_only_the_grammar(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
            picks in proptest::collection::vec(0usize..16, 0..12),
        ) {
            const PIECES: [&str; 16] = [
                "repl", "hello", PROTOCOL, "epoch", "none", "name", "stream", "snapshot", "error",
                "ack", "0", "7", "18446744073709551615", "18446744073709551616", "-1", "f\u{0}1",
            ];
            let noise = String::from_utf8_lossy(&bytes);
            let line = picks.iter().map(|&i| PIECES[i]).collect::<Vec<_>>().join(" ");
            for line in [&*noise, line.as_str()] {
                if let Ok((epoch, name)) = parse_hello(line) {
                    let epoch = epoch.map_or("none".to_string(), |e| e.to_string());
                    let canonical = format!("{HELLO_PREFIX} {PROTOCOL} epoch {epoch} name {name}");
                    let tokens = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(tokens(line), tokens(&canonical));
                }
                match parse_header(line) {
                    Ok(Header::Stream { from }) => {
                        proptest::prop_assert_eq!(line.split_whitespace().nth(1), Some(&*from.to_string()));
                    }
                    Ok(Header::Snapshot { epoch, len }) => {
                        let want = format!("{SNAPSHOT_PREFIX} {epoch} {len}");
                        proptest::prop_assert_eq!(line.split_whitespace().collect::<Vec<_>>().join(" "), want);
                    }
                    Ok(Header::Error { .. }) => proptest::prop_assert!(line.trim_start().starts_with(ERROR_PREFIX)),
                    Err(message) => proptest::prop_assert!(!message.is_empty()),
                }
            }
        }
    }
}
