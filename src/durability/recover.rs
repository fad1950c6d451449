//! The replay side: rebuild a [`GraphStore`] from a WAL directory to
//! the exact pre-crash epoch.
//!
//! Recovery is three deterministic steps:
//!
//! 1. **Base**: load the newest *loadable* checkpoint (a crash mid-
//!    checkpoint leaves only a `.tmp` the scan ignores; a damaged
//!    checkpoint falls back to the previous one — the segments behind
//!    it were only pruned after a *successful* newer checkpoint, so
//!    coverage is intact).
//! 2. **Replay**: scan every segment in epoch order and hand each
//!    record to [`GraphStore::replay`] — the ordinary
//!    [`GraphStore::apply`] path behind the skip/gap rule replicas and
//!    followers share. Because
//!    **epoch = batches applied** (erroneous batches publish their
//!    prefix deterministically), the recovered store is byte-identical
//!    to the pre-crash store at the recovered epoch. A torn tail in the
//!    *final* segment is truncated on disk and reported, not fatal;
//!    anything a crash could not produce (mid-stream damage, epoch
//!    gaps) is a typed [`WalError::Corrupt`].
//! 3. **Re-open**: attach a fresh [`Wal`] positioned after the last
//!    replayed record (new appends start a new segment — nothing is
//!    ever written after a truncated tail).

use super::wal::{list_checkpoints, list_segments, Wal, WalConfig, WalError};
use crate::cluster::LogRecord;
use crate::engine::{GraphStore, Replay};
use crate::json::Writer;
use csag_graph::wal::{scan, ScanEnd};
use std::path::Path;
use std::sync::Arc;

/// What one [`GraphStore::recover`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint replay started from.
    pub checkpoint_epoch: u64,
    /// Log records re-applied on top of the checkpoint.
    pub records_replayed: u64,
    /// The recovered (pre-crash durable) epoch.
    pub epoch: u64,
    /// `true` when a torn final record was detected by checksum and
    /// truncated away.
    pub torn_tail_truncated: bool,
    /// Bytes the torn-tail truncation removed.
    pub truncated_bytes: u64,
    /// Segment files scanned.
    pub segments_scanned: usize,
}

impl RecoveryReport {
    /// The report as one flat JSON object (printed by
    /// `csag serve --wal` / `csag update --wal` on recovery).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("checkpoint_epoch").uint(self.checkpoint_epoch);
        w.key("records_replayed").uint(self.records_replayed);
        w.key("epoch").uint(self.epoch);
        w.key("torn_tail_truncated")
            .boolean(self.torn_tail_truncated);
        w.key("truncated_bytes").uint(self.truncated_bytes);
        w.key("segments_scanned")
            .uint(self.segments_scanned as u64)
            .end_object();
        w.finish()
    }
}

/// Rebuilds a store from `dir` (see the [module docs](self)) and
/// re-attaches a writable WAL at the tail.
pub(crate) fn recover_store(
    dir: &Path,
    config: WalConfig,
) -> Result<(GraphStore, RecoveryReport), WalError> {
    let checkpoints = list_checkpoints(dir)?;
    if checkpoints.is_empty() {
        return Err(WalError::NotInitialized { dir: dir.into() });
    }
    // Newest loadable checkpoint wins; damaged ones fall back.
    let mut base = None;
    let mut last_failure: Option<WalError> = None;
    for (epoch, path) in checkpoints.iter().rev() {
        match csag_graph::io::load_graph(path) {
            Ok(graph) => {
                base = Some((*epoch, graph));
                break;
            }
            Err(e) => {
                last_failure = Some(WalError::Corrupt {
                    path: path.clone(),
                    offset: 0,
                    reason: format!("unloadable checkpoint: {e}"),
                });
            }
        }
    }
    let Some((checkpoint_epoch, graph)) = base else {
        return Err(last_failure.expect("non-empty checkpoint list"));
    };

    let mut store = GraphStore::from_arc_at(Arc::new(graph), checkpoint_epoch);
    let mut report = RecoveryReport {
        checkpoint_epoch,
        epoch: checkpoint_epoch,
        ..RecoveryReport::default()
    };

    let segments = list_segments(dir)?;
    report.segments_scanned = segments.len();
    for (i, (_, path)) in segments.iter().enumerate() {
        let bytes = std::fs::read(path).map_err(|e| WalError::Io {
            context: format!("reading segment {}", path.display()),
            message: e.to_string(),
        })?;
        let scanned = scan(&bytes).map_err(|e| WalError::Corrupt {
            path: path.clone(),
            offset: e.offset as u64,
            reason: e.reason,
        })?;
        if let ScanEnd::Torn { offset, reason } = &scanned.end {
            // Only the end of the *last* segment can be torn — rotation
            // never appends to a closed segment again.
            if i + 1 != segments.len() {
                return Err(WalError::Corrupt {
                    path: path.clone(),
                    offset: *offset as u64,
                    reason: format!("torn frame in a non-final segment: {reason}"),
                });
            }
            let io = |e: std::io::Error| WalError::Io {
                context: format!("truncating torn tail of {}", path.display()),
                message: e.to_string(),
            };
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(io)?;
            file.set_len(*offset as u64).map_err(io)?;
            let _ = file.sync_data();
            report.torn_tail_truncated = true;
            report.truncated_bytes = (bytes.len() - offset) as u64;
        }
        for (off, body) in scanned.frames {
            let corrupt = |reason: String| WalError::Corrupt {
                path: path.clone(),
                offset: off as u64,
                reason,
            };
            let record = LogRecord::from_frame(body).map_err(&corrupt)?;
            match store.replay(&record) {
                // Overlap below the checkpoint: its effects are already
                // in the base snapshot.
                Replay::Skipped => continue,
                Replay::Applied => {}
                Replay::Gap { expected } => {
                    return Err(corrupt(format!(
                        "epoch gap: expected record {expected}, found {}",
                        record.epoch
                    )))
                }
                Replay::Diverged { reached } => {
                    return Err(corrupt(format!(
                        "replaying record {} left the store at epoch {reached}",
                        record.epoch
                    )))
                }
            }
            report.records_replayed += 1;
            report.epoch = record.epoch;
        }
    }

    let wal = Wal::reopen(dir, config, report.epoch, checkpoint_epoch);
    store.attach_wal(wal);
    Ok((store, report))
}
