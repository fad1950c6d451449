//! The primary-side replication listener: accepts `csag-repl v1`
//! connections, executes the handshake/catch-up, then forwards the
//! router's live record feed while reading acks back.
//!
//! One connection, two threads:
//!
//! * the **connection thread** reads the hello line, registers the
//!   follower with the router ([`crate::cluster::Router`] decides
//!   stream / tail replay / snapshot under its write lock), writes the
//!   catch-up, and then forwards the live feed — one checksummed frame
//!   per [`LogRecord`], the same byte framing the WAL uses on disk;
//! * an **ack thread** reads `ack <epoch>` lines off the same socket
//!   and advances the member's watermark (which is also its heartbeat —
//!   ack silence degrades the member out of the caught-up set via
//!   [`crate::cluster::Router::health_check`]).
//!
//! A dropped connection (or a scripted
//! [`FaultPlan::drop_connection_at_request`] hit — indexed here by
//! *records shipped*) detaches the member: degraded, watermark frozen.
//! The follower reconnects, the handshake reseeds it, acks flow, and
//! the member returns to healthy — the exact local-replica lifecycle,
//! across a process boundary.

use super::feed::CatchUp;
use super::{parse_hello, ACK_PREFIX, ERROR_PREFIX, SNAPSHOT_PREFIX, STREAM_PREFIX};
use crate::cluster::replica::{Feed, Member};
use crate::cluster::replication::LogRecord;
use crate::cluster::Router;
use crate::durability::FaultPlan;
use crate::service::transport::{read_capped_line, Acceptor, BoundAddr, Socket};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, ToSocketAddrs};
#[cfg(unix)]
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// A listening `csag-repl v1` endpoint over a shared
/// [`Router`]: the primary side of cross-process replication. Bind
/// with [`ReplListener::bind_tcp`] / [`ReplListener::bind_uds`]; each
/// accepted follower is handshaken, caught up (tail replay or snapshot
/// ship), and then fed the live record stream. See
/// `docs/replication.md` for the normative protocol grammar.
pub struct ReplListener {
    acceptor: Acceptor,
}

impl ReplListener {
    /// Binds a TCP replication listener (port 0 for ephemeral; read it
    /// back from [`ReplListener::local_addr`]) and starts accepting
    /// followers.
    ///
    /// # Errors
    /// Any [`io::Error`] from binding or inspecting the listener.
    pub fn bind_tcp(router: Arc<Router>, addr: impl ToSocketAddrs) -> io::Result<ReplListener> {
        ReplListener::bind_tcp_with(router, addr, FaultPlan::none())
    }

    /// [`ReplListener::bind_tcp`] with a fault script:
    /// [`FaultPlan::drop_connection_at_request`] indices count *log
    /// records shipped* across this listener's connections, and a hit
    /// severs that record's connection abruptly — the deterministic
    /// mid-stream replication failure.
    ///
    /// # Errors
    /// Any [`io::Error`] from binding or inspecting the listener.
    pub fn bind_tcp_with(
        router: Arc<Router>,
        addr: impl ToSocketAddrs,
        faults: FaultPlan,
    ) -> io::Result<ReplListener> {
        let serve = move |socket| serve_conn(&router, &faults, socket);
        Acceptor::bind_tcp(addr, "csag-repl", Shutdown::Both, serve)
            .map(|acceptor| ReplListener { acceptor })
    }

    /// Binds a unix-domain replication listener (stale socket files are
    /// reclaimed exactly as [`crate::service::Transport::bind_uds`]
    /// does) and starts accepting followers.
    ///
    /// # Errors
    /// [`io::ErrorKind::AddrInUse`] when a live server already serves
    /// `path`; otherwise any [`io::Error`] from binding.
    #[cfg(unix)]
    pub fn bind_uds(router: Arc<Router>, path: impl AsRef<Path>) -> io::Result<ReplListener> {
        ReplListener::bind_uds_with(router, path, FaultPlan::none())
    }

    /// [`ReplListener::bind_uds`] with a fault script (see
    /// [`ReplListener::bind_tcp_with`]).
    ///
    /// # Errors
    /// Same as [`ReplListener::bind_uds`].
    #[cfg(unix)]
    pub fn bind_uds_with(
        router: Arc<Router>,
        path: impl AsRef<Path>,
        faults: FaultPlan,
    ) -> io::Result<ReplListener> {
        let serve = move |socket| serve_conn(&router, &faults, socket);
        Acceptor::bind_uds(path, "csag-repl", Shutdown::Both, serve)
            .map(|acceptor| ReplListener { acceptor })
    }

    /// The address this listener is bound to (with the real port when
    /// bound to port 0).
    pub fn local_addr(&self) -> &BoundAddr {
        self.acceptor.local_addr()
    }

    /// Total replication connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.acceptor.accepted()
    }

    /// Stops accepting, severs every replication connection, and joins
    /// the per-connection threads (dropping the handle does the same).
    /// Followers see a dropped connection and will retry against
    /// whatever binds this address next.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Serves one follower connection end to end: handshake → catch-up →
/// live forwarding, with the ack reader on a second thread.
fn serve_conn(router: &Router, faults: &FaultPlan, stream: Socket) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = BufWriter::new(stream);
    // The hello and every ack come through the capped line reader: a
    // peer that never sends a newline cannot size our buffer.
    let mut line = Vec::new();
    let attach = match read_capped_line(&mut reader, &mut line) {
        Ok(Some(hello)) => hello
            .and_then(|hello| parse_hello(hello.trim_end()))
            .map_err(|_| "malformed hello".to_string())
            .and_then(|(epoch, name)| router.attach_remote(&name, epoch)),
        _ => Err(String::new()),
    };
    let attach = match attach {
        Ok(attach) => attach,
        Err(msg) => {
            // Refused: say why (a peer that said nothing hears nothing)
            // and hang up — the acceptor's registry still holds a clone
            // of the socket, so returning alone leaves the peer waiting.
            if !msg.is_empty() {
                let _ = writeln!(out, "{ERROR_PREFIX} {msg}");
            }
            let _ = out.flush();
            out.get_ref().shutdown(Shutdown::Both);
            return;
        }
    };
    let member = Arc::clone(&attach.member);
    let generation = attach.generation;

    // Ack reader: every `ack <epoch>` beats and makes the member healthy
    // at that watermark; EOF or damage detaches this connection's
    // generation (a fast reconnect's newer attach is left alone).
    let ack_member = Arc::clone(&member);
    let ack_thread = std::thread::Builder::new()
        .name("csag-repl-ack".into())
        .spawn(move || {
            while let Ok(Some(Ok(ack))) = read_capped_line(&mut reader, &mut line) {
                let epoch = ack.trim_end().strip_prefix(ACK_PREFIX);
                let Some(Ok(epoch)) = epoch.map(|e| e.trim().parse::<u64>()) else {
                    break;
                };
                ack_member.counters.acks.fetch_add(1, Ordering::Relaxed);
                ack_member.ack(generation, epoch);
            }
            ack_member.detach(generation);
        });
    let Ok(ack_thread) = ack_thread else {
        member.detach(generation);
        return;
    };

    // Catch-up, then the live feed. Any write failure (or a scripted
    // drop) severs the socket, which also unblocks the ack reader.
    let ok = write_catch_up(&member, attach.catch_up, &mut out, faults)
        && forward_feed(&member, attach.feed, &mut out, faults);
    if !ok {
        member.detach(generation);
    }
    let _ = out.flush();
    out.get_ref().shutdown(Shutdown::Both);
    let _ = ack_thread.join();
}

/// Writes the handshake response and any catch-up payload. `true` on
/// success.
fn write_catch_up(
    member: &Member,
    catch_up: CatchUp,
    out: &mut impl Write,
    faults: &FaultPlan,
) -> bool {
    let written = match catch_up {
        CatchUp::Tail { from, records } => {
            writeln!(out, "{STREAM_PREFIX} {from}").is_ok()
                && records.iter().all(|r| write_record(member, r, out, faults))
        }
        CatchUp::Snapshot { epoch, bytes, tail } => {
            member.counters.reseeds.fetch_add(1, Ordering::Relaxed);
            let shipped = &member.counters.bytes_shipped;
            shipped.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            writeln!(out, "{SNAPSHOT_PREFIX} {epoch} {}", bytes.len()).is_ok()
                && out.write_all(&bytes).is_ok()
                && tail.iter().all(|r| write_record(member, r, out, faults))
        }
    };
    written && out.flush().is_ok()
}

/// Frames and writes one record, consulting the fault script first: a
/// scripted hit makes the caller abort the socket mid-stream (the
/// follower sees a reset and reconnects). `true` when the record went
/// out.
fn write_record(
    member: &Member,
    record: &LogRecord,
    out: &mut impl Write,
    faults: &FaultPlan,
) -> bool {
    if faults.next_request_drops() {
        return false;
    }
    let frame = csag_graph::wal::frame(record.to_wire().as_bytes());
    if out.write_all(&frame).is_err() {
        return false;
    }
    member.counters.records.fetch_add(1, Ordering::Relaxed);
    let shipped = &member.counters.bytes_shipped;
    shipped.fetch_add(frame.len() as u64, Ordering::Relaxed);
    true
}

/// Forwards the live feed until the channel closes (router dropped or
/// a newer connection superseded this one), a write fails, or a fault
/// fires. `true` only for a clean channel close.
fn forward_feed(
    member: &Member,
    feed: mpsc::Receiver<Feed>,
    out: &mut impl Write,
    faults: &FaultPlan,
) -> bool {
    while let Ok(Feed::Record(record)) = feed.recv() {
        if !write_record(member, &record, out, faults) || out.flush().is_err() {
            return false;
        }
    }
    true
}
