//! The follower runtime: a [`GraphStore`] in *this* process kept in
//! epoch lockstep with a primary in *another* process over `csag-repl
//! v1`.
//!
//! [`Follower::start`] spawns one session thread that loops forever:
//! connect → hello (carrying the follower's current epoch, or `none`
//! before any state exists) → swallow the catch-up (a shipped snapshot
//! resets the store via [`GraphStore::reset_to`]; a tail replay is just
//! early log frames) → hand each framed [`LogRecord`] to
//! [`GraphStore::replay`] (the ordinary apply path behind the shared
//! skip/gap rule), acking every applied epoch — plus periodic heartbeat
//! acks so an idle follower never looks silent.
//! Any failure (connection reset, checksum mismatch, epoch gap) tears
//! the session down and reconnects after a backoff; the handshake then
//! resynchronizes from whatever epoch the store actually reached, so a
//! gap is *detected* here but *repaired* by the listener (tail replay
//! or snapshot reseed).
//!
//! Because **epoch = batches applied** and the stream is gapless and
//! in-order, the follower's answers at epoch `E` are byte-identical to
//! the primary's at `E` — serve them with an ordinary
//! [`crate::service::Service`] + [`crate::service::Transport`] over the
//! follower's store and clients cannot tell the processes apart.

use crate::cluster::replica::{install_snapshot, replay_record};
use crate::cluster::replication::LogRecord;
use crate::engine::GraphStore;
use crate::service::transport::{read_capped_line, Socket};
use csag_graph::builder::GraphBuilder;
use csag_graph::AttributedGraph;
use std::io::{self, BufReader, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use super::{parse_header, Header, ACK_PREFIX, HELLO_PREFIX, PROTOCOL};

/// Tuning for a [`Follower`].
#[derive(Clone, Debug)]
pub struct FollowerConfig {
    /// The name this follower registers under on the primary (the
    /// router's registry key; reconnects with the same name re-attach
    /// to the same member).
    pub name: String,
    /// Optional seed graph: a follower seeded with the primary's
    /// epoch-0 graph skips the initial snapshot ship. Without one the
    /// follower starts empty and hellos with `epoch none`, forcing a
    /// snapshot.
    pub seed: Option<Arc<AttributedGraph>>,
    /// Delay between reconnect attempts after a failed or dropped
    /// session.
    pub reconnect_backoff: Duration,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            name: "follower".into(),
            seed: None,
            reconnect_backoff: Duration::from_millis(50),
        }
    }
}

/// Counters and control state shared with the session thread.
struct FollowerShared {
    store: Arc<GraphStore>,
    stop: AtomicBool,
    /// `true` once the store holds real state (seeded at start, or a
    /// snapshot landed); until then hellos carry `epoch none`.
    synced: AtomicBool,
    connected: AtomicBool,
    records_applied: AtomicU64,
    snapshots_received: AtomicU64,
    /// Sessions opened after the first (each one is a reconnect).
    reconnects: AtomicU64,
    /// The live session's socket, for severing on [`Follower::stop`].
    live: Mutex<Option<Socket>>,
}

/// A remote replica runtime: owns the follower store and the session
/// thread that keeps it in lockstep with the primary. See the
/// [module docs](super).
pub struct Follower {
    shared: Arc<FollowerShared>,
    join: Option<JoinHandle<()>>,
}

impl Follower {
    /// Starts following the primary's replication listener at `addr`
    /// (`tcp://host:port`, `unix:///path`, bare `host:port`, or a bare
    /// socket path). Returns immediately; the session thread connects
    /// (and reconnects) in the background.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for an unparseable address (a
    /// *reachable* but dead address is retried forever, not an error).
    pub fn start(addr: &str, config: FollowerConfig) -> io::Result<Follower> {
        let dial = Socket::dialer(addr)?;
        let (store, synced) = match &config.seed {
            Some(graph) => (GraphStore::from_arc(Arc::clone(graph)), true),
            None => {
                let empty = GraphBuilder::new(0)
                    .build()
                    .expect("empty graph always builds");
                (GraphStore::new(empty), false)
            }
        };
        let shared = Arc::new(FollowerShared {
            store: Arc::new(store),
            stop: AtomicBool::new(false),
            synced: AtomicBool::new(synced),
            connected: AtomicBool::new(false),
            records_applied: AtomicU64::new(0),
            snapshots_received: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            live: Mutex::new(None),
        });
        let session_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("csag-repl-follower".into())
            .spawn(move || session_loop(&session_shared, &*dial, &config))?;
        Ok(Follower {
            shared,
            join: Some(join),
        })
    }

    /// The follower's store: epoch-pinned reads against it uphold the
    /// same guarantees as against the primary (a pin above the applied
    /// watermark waits on the store's own publish watch, never serving
    /// stale state). Front it with a [`crate::service::Service`] to
    /// serve clients.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.shared.store
    }

    /// The highest epoch this follower has applied and published.
    pub fn epoch(&self) -> u64 {
        self.shared.store.published_epoch()
    }

    /// `true` while a replication session is live.
    pub fn connected(&self) -> bool {
        self.shared.connected.load(Ordering::Acquire)
    }

    /// `true` once the store holds real state (seed or snapshot). For a
    /// snapshot it turns `true` just before the snapshot's epoch
    /// publishes; gate store reads on [`Follower::wait_for_epoch`] or
    /// [`Follower::connected`] as well.
    pub fn synced(&self) -> bool {
        self.shared.synced.load(Ordering::Acquire)
    }

    /// Log records applied across all sessions.
    pub fn records_applied(&self) -> u64 {
        self.shared.records_applied.load(Ordering::Relaxed)
    }

    /// Snapshots swallowed (initial seed-over-the-wire + reseeds).
    pub fn snapshots_received(&self) -> u64 {
        self.shared.snapshots_received.load(Ordering::Relaxed)
    }

    /// Sessions opened after the first.
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }

    /// Blocks until the follower publishes `epoch` (or later), or
    /// `timeout` elapses; `true` when reached.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        self.shared.store.subscribe().wait_for(epoch, timeout)
    }

    /// Stops the session thread (severing any live connection) and
    /// joins it; dropping the handle does the same. The store stays
    /// usable at its last published epoch.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(live) = self
            .shared
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            live.shutdown(Shutdown::Both);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Connect–follow–reconnect forever (until stopped).
fn session_loop(
    shared: &Arc<FollowerShared>,
    dial: &dyn Fn() -> io::Result<Socket>,
    config: &FollowerConfig,
) {
    let mut sessions = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        if let Ok(stream) = dial() {
            if sessions > 0 {
                shared.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            sessions += 1;
            if let Ok(keeper) = stream.try_clone() {
                *shared.live.lock().unwrap_or_else(PoisonError::into_inner) = Some(keeper);
            }
            let _ = run_session(shared, stream, config);
            shared.connected.store(false, Ordering::Release);
            *shared.live.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        std::thread::sleep(config.reconnect_backoff);
    }
}

/// How often an idle session acks its current epoch. The router's
/// ack-silence budget is the `max_silence` its owner passes to
/// [`crate::cluster::Router::health_check`]; a budget above this cadence
/// (two beats or more, to ride out scheduling jitter) never degrades a
/// live, idle follower.
const HEARTBEAT: Duration = Duration::from_millis(20);

/// One replication session: hello → catch-up → frame loop. Returns
/// `Err` on any anomaly; the caller reconnects.
fn run_session(
    shared: &Arc<FollowerShared>,
    stream: Socket,
    config: &FollowerConfig,
) -> Result<(), String> {
    let write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);

    let epoch_token = if shared.synced.load(Ordering::Acquire) {
        shared.store.published_epoch().to_string()
    } else {
        "none".to_string()
    };
    {
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        writeln!(
            w,
            "{HELLO_PREFIX} {PROTOCOL} epoch {epoch_token} name {}",
            config.name
        )
        .map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
    }

    // Capped: a peer that never sends the newline cannot size `line`.
    let mut line = Vec::new();
    let header = read_capped_line(&mut reader, &mut line).map_err(|e| e.to_string())?;
    let header = header.ok_or("primary closed before answering the hello")??;
    match parse_header(header.trim_end())? {
        Header::Stream { from } => {
            // The stream header echoes the epoch the primary accepted;
            // anything else means the handshake raced a different
            // history and the frames to come would not line up.
            if from != shared.store.published_epoch() {
                return Err(format!(
                    "primary resumed at epoch {from}, we are at {}",
                    shared.store.published_epoch()
                ));
            }
        }
        Header::Snapshot { epoch, len } => {
            // `len` is the peer's claim: read through `take` so memory
            // grows with the bytes that actually arrive, never with the
            // header's number.
            let mut bytes = Vec::new();
            let got = reader
                .by_ref()
                .take(len)
                .read_to_end(&mut bytes)
                .map_err(|e| e.to_string())?;
            if (got as u64) < len {
                return Err(format!("snapshot cut short: {got} of {len} bytes"));
            }
            // A snapshot at or below our own epoch carries state we
            // already have (epoch lockstep makes it identical); resets
            // only ever move the published epoch forward.
            if epoch > shared.store.published_epoch() || !shared.synced.load(Ordering::Acquire) {
                let graph = csag_graph::io::read_graph(&bytes[..])
                    .map_err(|e| format!("unreadable snapshot: {e}"))?;
                // Before the install: it publishes the epoch, and a
                // waiter woken by that publish must already read this.
                shared.synced.store(true, Ordering::Release);
                let received = &shared.snapshots_received;
                install_snapshot(&shared.store, Arc::new(graph), epoch, received);
            }
            send_ack(&writer, shared.store.published_epoch())?;
        }
        Header::Error { message } => return Err(format!("primary refused: {message}")),
    }
    shared.connected.store(true, Ordering::Release);

    // Heartbeat acks: an idle follower still proves liveness (and its
    // watermark) every `HEARTBEAT`.
    let beat_done = Arc::new(AtomicBool::new(false));
    let beat = {
        let writer = Arc::clone(&writer);
        let store = Arc::clone(&shared.store);
        let done = Arc::clone(&beat_done);
        std::thread::Builder::new()
            .name("csag-repl-beat".into())
            .spawn(move || {
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(HEARTBEAT);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    if send_ack(&writer, store.published_epoch()).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| e.to_string())?
    };

    let outcome = frame_loop(shared, &mut reader, &writer);
    beat_done.store(true, Ordering::Release);
    reader.get_ref().shutdown(Shutdown::Both);
    let _ = beat.join();
    outcome
}

/// Applies framed records until EOF or an anomaly.
fn frame_loop(
    shared: &Arc<FollowerShared>,
    reader: &mut BufReader<Socket>,
    writer: &Arc<Mutex<Socket>>,
) -> Result<(), String> {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let Some(body) = csag_graph::wal::read_frame(reader)? else {
            return Ok(()); // clean EOF: primary shut down
        };
        let record = LogRecord::from_frame(&body)?;
        // A gap the stream contract forbids tears the session down; the
        // reconnect handshake reseeds us from where we are.
        if replay_record(&shared.store, &record, &shared.records_applied)? {
            send_ack(writer, record.epoch)?;
        }
    }
}

fn send_ack(writer: &Arc<Mutex<Socket>>, epoch: u64) -> Result<(), String> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    writeln!(w, "{ACK_PREFIX}{epoch}").map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
}
