//! The replication log: one [`LogRecord`] per published primary epoch.
//!
//! The log *format* is `csag-updates v1` — the same text grammar
//! `GraphUpdate::parse_script` already reads — framed with the epoch the
//! batch produced. In-process replicas receive records over a channel
//! (the `Arc`'d batch is shared, never copied per replica). The
//! [`LogRecord::to_wire`] / [`LogRecord::parse_wire`] pair is the one
//! text form of a record everywhere else: inside a `!rec` frame
//! ([`LogRecord::from_frame`]) it is the WAL body on disk and the
//! `csag-repl v1` frame body a remote follower reads off its socket.
//!
//! Correctness rests on one invariant: **epoch = batches applied**.
//! Every [`crate::engine::GraphStore::apply`] bumps the epoch exactly
//! once — no-op batches and erroneous batches included (an error
//! publishes the applied prefix) — so two stores that consume the
//! identical record sequence are in epoch lockstep, and their answers
//! at equal epochs are byte-identical (the churn property tests pin
//! this).

use crate::engine::GraphUpdate;
use std::sync::Arc;

/// One replication log entry: the update batch that produced `epoch` on
/// the primary.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// The epoch the primary published after applying `updates`.
    pub epoch: u64,
    /// The batch, shared between every replica's channel.
    pub updates: Arc<Vec<GraphUpdate>>,
}

impl LogRecord {
    /// A record for `epoch` carrying `updates`.
    pub fn new(epoch: u64, updates: Vec<GraphUpdate>) -> Self {
        LogRecord {
            epoch,
            updates: Arc::new(updates),
        }
    }

    /// Renders the record as an epoch-framed `csag-updates v1` script:
    /// an `# epoch N` header comment line followed by one update line
    /// per entry. It is the body of every WAL and `csag-repl v1` frame.
    pub fn to_wire(&self) -> String {
        let mut s = format!("# epoch {}\n", self.epoch);
        for u in self.updates.iter() {
            s.push_str(&u.to_line());
            s.push('\n');
        }
        s
    }

    /// Parses [`LogRecord::to_wire`] output back into a record.
    ///
    /// # Errors
    /// A human-readable message for a missing/malformed epoch header or
    /// any offending update line.
    pub fn parse_wire(text: &str) -> Result<LogRecord, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty log record")?;
        let epoch = header
            .strip_prefix("# epoch ")
            .ok_or_else(|| format!("log record must start with `# epoch N`, got `{header}`"))?
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("bad epoch in log record header `{header}`"))?;
        let body: String = lines.collect::<Vec<_>>().join("\n");
        Ok(LogRecord::new(epoch, GraphUpdate::parse_script(&body)?))
    }

    /// Decodes the body of one `!rec` frame ([`csag_graph::wal::frame`]
    /// around [`LogRecord::to_wire`]) — what the WAL holds on disk and
    /// the replication feed carries on the socket.
    ///
    /// # Errors
    /// A message for a non-UTF-8 body, else [`LogRecord::parse_wire`]'s.
    pub fn from_frame(body: &[u8]) -> Result<LogRecord, String> {
        let text = std::str::from_utf8(body).map_err(|_| "record body is not UTF-8")?;
        LogRecord::parse_wire(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_framing_round_trips() {
        let record = LogRecord::new(
            7,
            vec![
                GraphUpdate::AddEdge { u: 1, v: 2 },
                GraphUpdate::SetAttributes {
                    v: 0,
                    tokens: Some(vec!["drama".into()]),
                    numeric: Some(vec![0.25]),
                },
                GraphUpdate::AddVertex {
                    tokens: vec![],
                    numeric: vec![1.5],
                },
            ],
        );
        let wire = record.to_wire();
        assert!(wire.starts_with("# epoch 7\n"));
        let back = LogRecord::parse_wire(&wire).unwrap();
        assert_eq!(back.epoch, 7);
        assert_eq!(*back.updates, *record.updates);

        // An empty batch (a pure epoch bump) still frames.
        let empty = LogRecord::new(3, Vec::new());
        let back = LogRecord::parse_wire(&empty.to_wire()).unwrap();
        assert_eq!((back.epoch, back.updates.len()), (3, 0));

        assert!(LogRecord::parse_wire("").is_err());
        assert!(
            LogRecord::parse_wire("add-edge 1 2\n").is_err(),
            "no header"
        );
        assert!(LogRecord::parse_wire("# epoch x\n").is_err());
        assert!(LogRecord::parse_wire("# epoch 1\nfrobnicate\n").is_err());

        let back = LogRecord::from_frame(wire.as_bytes()).unwrap();
        assert_eq!((back.epoch, back.updates.len()), (7, 3));
        assert!(LogRecord::from_frame(&[b'#', 0xFF]).is_err(), "not UTF-8");
    }
}
