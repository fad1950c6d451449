//! The append side of the durable update log: segmented files of
//! checksummed [`LogRecord`] frames, fsync policy, rotation, and
//! checkpointing. See the [module docs](super) for the big picture and
//! `docs/durability.md` for the on-disk grammar.

use super::fault::{AppendFault, FaultPlan};
use crate::cluster::LogRecord;
use crate::json::Writer;
use csag_graph::AttributedGraph;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// When appended records are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged write survives any
    /// crash. The default.
    Always,
    /// `fsync` after every N appends (and on rotation): a crash loses
    /// at most the last N−1 acknowledged batches — recovery still
    /// reaches a *consistent* earlier epoch, never a wrong graph.
    EveryN(u64),
    /// Never `fsync`; the OS flushes when it pleases. Fastest, loses
    /// the most on a crash, still torn-write safe.
    Never,
}

/// Tuning for a [`Wal`].
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Flush policy for appended records.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (0 disables rotation).
    pub segment_bytes: u64,
    /// Write a checkpoint snapshot every this many epochs, bounding
    /// replay to the delta since the last one (0 disables periodic
    /// checkpoints; the epoch-0 checkpoint is always written).
    pub checkpoint_every: u64,
    /// Deterministic fault script (tests); [`FaultPlan::none`] in
    /// production.
    pub faults: FaultPlan,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 1 << 20,
            checkpoint_every: 64,
            faults: FaultPlan::none(),
        }
    }
}

/// Why the durability layer refused an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation failed (the write it belonged to was rejected;
    /// the log file was rolled back to the previous record boundary).
    Io {
        /// What the WAL was doing.
        context: String,
        /// The underlying OS error.
        message: String,
    },
    /// Bytes on disk that no crash could have produced: damaged
    /// segments, an epoch gap, an unparsable record with a valid
    /// checksum. Recovery refuses to guess.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the defect within it.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// The directory holds no WAL state to recover from.
    NotInitialized {
        /// The directory that was probed.
        dir: PathBuf,
    },
    /// The directory already holds WAL state;
    /// [`crate::engine::GraphStore::with_wal`] refuses to clobber it —
    /// use [`crate::engine::GraphStore::recover`] instead.
    AlreadyInitialized {
        /// The directory that was probed.
        dir: PathBuf,
    },
    /// The log is degraded (a failed fsync or an injected crash left
    /// the tail unknowable): appends are refused until recovery
    /// re-opens the directory. Reads are unaffected.
    Degraded {
        /// Why the log degraded.
        reason: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { context, message } => write!(f, "wal {context}: {message}"),
            WalError::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt wal: {} at byte {offset}: {reason}",
                path.display()
            ),
            WalError::NotInitialized { dir } => {
                write!(f, "no wal state in {}", dir.display())
            }
            WalError::AlreadyInitialized { dir } => write!(
                f,
                "{} already holds wal state; recover it instead of re-initializing",
                dir.display()
            ),
            WalError::Degraded { reason } => write!(f, "wal degraded: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(context: impl Into<String>, e: std::io::Error) -> WalError {
    WalError::Io {
        context: context.into(),
        message: e.to_string(),
    }
}

/// Observable counters of a store's WAL
/// ([`crate::engine::GraphStore::wal_status`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// `Some(reason)` when the log refuses appends (read-only mode).
    pub degraded: Option<String>,
    /// Records successfully appended since open.
    pub appends: u64,
    /// fsync attempts since open.
    pub fsyncs: u64,
    /// Segment rotations since open.
    pub rotations: u64,
    /// Checkpoints successfully written since open.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (tolerated: the WAL still covers
    /// every epoch; replay is just longer).
    pub checkpoint_failures: u64,
    /// Epoch of the newest durable checkpoint.
    pub last_checkpoint_epoch: u64,
    /// Epoch of the last appended record (the durable high-watermark
    /// under [`FsyncPolicy::Always`]).
    pub last_epoch: u64,
}

impl DurabilityStatus {
    /// The status as one flat JSON object (for `csag serve --wal`
    /// observability lines).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("degraded");
        match &self.degraded {
            Some(reason) => w.string(reason),
            None => w.null(),
        };
        for (key, count) in [
            ("appends", self.appends),
            ("fsyncs", self.fsyncs),
            ("rotations", self.rotations),
            ("checkpoints", self.checkpoints),
            ("checkpoint_failures", self.checkpoint_failures),
            ("last_checkpoint_epoch", self.last_checkpoint_epoch),
            ("last_epoch", self.last_epoch),
        ] {
            w.key(key).uint(count);
        }
        w.end_object();
        w.finish()
    }
}

/// Mutable writer state, one lock (appends already serialize on the
/// store's update mutex; this lock only guards direct `Wal` use).
struct WalState {
    /// The open segment file and its path, if any append has happened
    /// since open/rotation.
    segment: Option<(File, PathBuf)>,
    /// First epoch the open segment holds (its filename stem).
    segment_start: u64,
    segment_len: u64,
    status: DurabilityStatus,
    /// Appends since the last successful fsync (drives
    /// [`FsyncPolicy::EveryN`]).
    unsynced: u64,
}

/// The segmented write-ahead log writer. Created through
/// [`crate::engine::GraphStore::with_wal`] /
/// [`crate::engine::GraphStore::recover`]; the store appends each batch
/// here *before* publishing it.
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    state: Mutex<WalState>,
}

pub(crate) fn segment_name(start_epoch: u64) -> String {
    format!("wal-{start_epoch:020}.log")
}

pub(crate) fn checkpoint_name(epoch: u64) -> String {
    format!("checkpoint-{epoch:020}.graph")
}

/// Numeric stem of `prefix-<NNN>.<ext>` filenames, used to sort
/// segments and checkpoints by epoch.
fn parse_stem(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

fn list_dir(dir: &Path, prefix: &str, ext: &str) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| io_err(format!("reading {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("reading directory entry", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = parse_stem(name, prefix, ext) {
            out.push((epoch, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(epoch, _)| epoch);
    Ok(out)
}

pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    list_dir(dir, "wal-", ".log")
}

pub(crate) fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    list_dir(dir, "checkpoint-", ".graph")
}

impl Wal {
    /// Initializes a fresh WAL in `dir` (created if missing) and writes
    /// the epoch-0 checkpoint of `graph` — the base every recovery
    /// starts from.
    ///
    /// # Errors
    /// [`WalError::AlreadyInitialized`] when `dir` holds WAL state;
    /// [`WalError::Io`] when the directory or checkpoint cannot be
    /// written.
    pub(crate) fn create(
        dir: &Path,
        config: WalConfig,
        graph: &AttributedGraph,
        epoch: u64,
    ) -> Result<Wal, WalError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| io_err(format!("creating {}", dir.display()), e))?;
        if !list_checkpoints(dir)?.is_empty() || !list_segments(dir)?.is_empty() {
            return Err(WalError::AlreadyInitialized { dir: dir.into() });
        }
        let wal = Wal {
            dir: dir.into(),
            config,
            state: Mutex::new(WalState {
                segment: None,
                segment_start: epoch + 1,
                segment_len: 0,
                status: DurabilityStatus {
                    last_checkpoint_epoch: epoch,
                    last_epoch: epoch,
                    ..DurabilityStatus::default()
                },
                unsynced: 0,
            }),
        };
        {
            let mut st = wal.state.lock().unwrap_or_else(PoisonError::into_inner);
            write_checkpoint(&wal.dir, graph, epoch)?;
            st.status.checkpoints = 1;
        }
        Ok(wal)
    }

    /// Re-opens a recovered directory for appending. The next record
    /// starts a fresh segment — nothing is ever appended after a
    /// truncated tail.
    pub(crate) fn reopen(
        dir: &Path,
        config: WalConfig,
        last_epoch: u64,
        last_checkpoint_epoch: u64,
    ) -> Wal {
        Wal {
            dir: dir.into(),
            config,
            state: Mutex::new(WalState {
                segment: None,
                segment_start: last_epoch + 1,
                segment_len: 0,
                status: DurabilityStatus {
                    last_checkpoint_epoch,
                    last_epoch,
                    ..DurabilityStatus::default()
                },
                unsynced: 0,
            }),
        }
    }

    /// The directory this WAL persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counters.
    pub fn status(&self) -> DurabilityStatus {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .status
            .clone()
    }

    /// Appends one record durably (write → per-policy fsync), rotating
    /// segments as configured. Called by the store *before* the batch
    /// is applied, so a failure here rejects the write with the graph
    /// untouched.
    ///
    /// # Errors
    /// * [`WalError::Degraded`] — the log already refused durability
    ///   (sticky), or this append's fsync failed / was scripted to tear
    ///   (which *makes* it sticky).
    /// * [`WalError::Io`] — the write failed cleanly; the segment was
    ///   rolled back to the previous record boundary and the log stays
    ///   usable (disk-full may clear).
    pub(crate) fn append(&self, record: &LogRecord) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(reason) = &st.status.degraded {
            return Err(WalError::Degraded {
                reason: reason.clone(),
            });
        }
        let bytes = csag_graph::wal::frame(record.to_wire().as_bytes());
        let fault = self.config.faults.next_append();
        if fault == Some(AppendFault::IoError) {
            return Err(WalError::Io {
                context: format!("append epoch {}", record.epoch),
                message: "injected I/O error".into(),
            });
        }

        // Rotate before writing so a record is never split across
        // segments.
        if self.config.segment_bytes > 0
            && st.segment.is_some()
            && st.segment_len >= self.config.segment_bytes
        {
            if let Some((old, path)) = st.segment.take() {
                if !matches!(self.config.fsync, FsyncPolicy::Never) {
                    old.sync_data().map_err(|e| {
                        io_err(format!("syncing full segment {}", path.display()), e)
                    })?;
                    st.unsynced = 0;
                }
            }
            st.segment_start = record.epoch;
            st.segment_len = 0;
            st.status.rotations += 1;
        }
        if st.segment.is_none() {
            let path = self.dir.join(segment_name(st.segment_start));
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err(format!("opening segment {}", path.display()), e))?;
            st.segment = Some((file, path));
        }
        let pre_len = st.segment_len;
        // Split borrows: the file handle lives in the same state struct
        // as the counters the tail of this function updates.
        let WalState {
            segment,
            segment_len,
            status,
            unsynced,
            ..
        } = &mut *st;
        let (file, _path) = segment.as_mut().expect("segment just opened");

        if let Some(AppendFault::Torn { keep_bytes }) = fault {
            // Simulated crash mid-append: part of the frame lands, then
            // the log goes dark exactly like the process died.
            let keep = keep_bytes.min(bytes.len());
            let _ = file.write_all(&bytes[..keep]);
            let _ = file.sync_data();
            let reason = format!(
                "injected torn write: {keep} of {} bytes of epoch {}",
                bytes.len(),
                record.epoch
            );
            status.degraded = Some(reason.clone());
            return Err(WalError::Degraded { reason });
        }

        if let Err(e) = file.write_all(&bytes) {
            // Roll back to the record boundary so a retry (or recovery)
            // never sees a partial frame; the log itself stays usable.
            let _ = file.set_len(pre_len);
            return Err(io_err(format!("append epoch {}", record.epoch), e));
        }
        *segment_len += bytes.len() as u64;
        *unsynced += 1;

        let sync_now = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => *unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if sync_now {
            status.fsyncs += 1;
            let outcome = if self.config.faults.next_fsync_fails() {
                Err("injected fsync failure".to_string())
            } else {
                file.sync_data().map_err(|e| e.to_string())
            };
            if let Err(message) = outcome {
                // After a failed fsync the page cache is unknowable
                // (the kernel may have dropped the dirty pages): roll
                // the file back best-effort and refuse further appends
                // until recovery re-reads what actually landed.
                let _ = file.set_len(pre_len);
                *segment_len = pre_len;
                let reason = format!("fsync failed: {message}");
                status.degraded = Some(reason.clone());
                return Err(WalError::Degraded { reason });
            }
            *unsynced = 0;
        }
        status.appends += 1;
        status.last_epoch = record.epoch;
        Ok(())
    }

    /// Raw bytes of the newest durable checkpoint, with its epoch — the
    /// snapshot-shipping payload for `csag-repl v1`. The file on disk is
    /// already the `csag-graph v1` encoding, so replication streams it
    /// verbatim instead of re-serializing the engine.
    ///
    /// # Errors
    /// [`WalError::NotInitialized`] when no checkpoint exists;
    /// [`WalError::Io`] when the file cannot be read.
    pub fn checkpoint_bytes(&self) -> Result<(u64, Vec<u8>), WalError> {
        let checkpoints = list_checkpoints(&self.dir)?;
        let Some((epoch, path)) = checkpoints.last() else {
            return Err(WalError::NotInitialized {
                dir: self.dir.clone(),
            });
        };
        let bytes = std::fs::read(path)
            .map_err(|e| io_err(format!("reading checkpoint {}", path.display()), e))?;
        Ok((*epoch, bytes))
    }

    /// Writes a checkpoint of `graph` at `epoch` if the configured
    /// interval has elapsed, pruning segments the checkpoint fully
    /// covers. A checkpoint failure is *tolerated* (counted, nothing
    /// pruned): the log still covers every epoch, replay is just
    /// longer.
    pub(crate) fn maybe_checkpoint(&self, graph: &AttributedGraph, epoch: u64) {
        let every = self.config.checkpoint_every;
        {
            let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if every == 0 || epoch < st.status.last_checkpoint_epoch + every {
                return;
            }
        }
        let _ = self.checkpoint(graph, epoch);
    }

    /// Forces a checkpoint of `graph` at `epoch` and prunes segments
    /// whose records all predate it.
    ///
    /// # Errors
    /// [`WalError::Io`] when the snapshot cannot be written durably
    /// (the failure is also counted in
    /// [`DurabilityStatus::checkpoint_failures`]; the WAL keeps
    /// working).
    pub(crate) fn checkpoint(&self, graph: &AttributedGraph, epoch: u64) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match write_checkpoint(&self.dir, graph, epoch) {
            Ok(()) => {
                st.status.checkpoints += 1;
                st.status.last_checkpoint_epoch = epoch;
            }
            Err(e) => {
                st.status.checkpoint_failures += 1;
                return Err(e);
            }
        }
        // Prune: segment i covers epochs [start_i, start_{i+1}), so it
        // is dead once the *next* segment starts at or below epoch+1.
        // The open segment (and the newest one) always survives.
        if let Ok(segments) = list_segments(&self.dir) {
            for pair in segments.windows(2) {
                let (_, ref path) = pair[0];
                let (next_start, _) = pair[1];
                let open = st
                    .segment
                    .as_ref()
                    .is_some_and(|(_, open_path)| open_path == path);
                if next_start <= epoch + 1 && !open {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        Ok(())
    }
}

/// Read-only tail read for replication catch-up: the contiguous run of
/// records with epochs in `(after, upto]`, or `None` when the segments
/// on disk cannot prove that run (pruned below `after`, torn mid-run,
/// unparsable, gapped). Unlike recovery this never truncates anything —
/// the primary is alive and still appending; the caller falls back to
/// snapshot shipping on `None`.
///
/// Reading concurrently with the writer is safe up to `upto`: every
/// frame with epoch ≤ `upto` was fully written before `upto` was
/// published, and appends go straight through `write_all` (no
/// user-space buffering). A trailing partial frame from an in-flight
/// append only affects epochs > `upto`, which the contiguity check
/// ignores.
pub(crate) fn read_tail_records(dir: &Path, after: u64, upto: u64) -> Option<Vec<LogRecord>> {
    if upto <= after {
        return Some(Vec::new());
    }
    let segments = list_segments(dir).ok()?;
    let mut out = Vec::new();
    let mut expected = after + 1;
    'segments: for (_, path) in &segments {
        let bytes = std::fs::read(path).ok()?;
        let scanned = csag_graph::wal::scan(&bytes).ok()?;
        for (_, body) in scanned.frames {
            let record = LogRecord::from_frame(body).ok()?;
            if record.epoch <= after {
                continue;
            }
            if record.epoch != expected {
                return None;
            }
            out.push(record);
            expected += 1;
            if expected > upto {
                break 'segments;
            }
        }
    }
    if expected > upto {
        Some(out)
    } else {
        None
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Clean shutdown: flush whatever EveryN/Never left unsynced.
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((file, _)) = st.segment.as_ref() {
            let _ = file.sync_data();
        }
    }
}

/// Writes `checkpoint-<epoch>.graph` atomically: temp file → fsync →
/// rename (→ best-effort directory sync). A crash mid-write leaves only
/// a `.tmp` that recovery ignores.
fn write_checkpoint(dir: &Path, graph: &AttributedGraph, epoch: u64) -> Result<(), WalError> {
    let final_path = dir.join(checkpoint_name(epoch));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_name(epoch)));
    let context = format!("writing checkpoint {}", final_path.display());
    let file = File::create(&tmp_path).map_err(|e| io_err(&context, e))?;
    csag_graph::io::write_graph(graph, &file).map_err(|e| io_err(&context, e))?;
    file.sync_all().map_err(|e| io_err(&context, e))?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&context, e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}
