//! The socket transport: pipelined `csag-wire v2` over TCP and
//! unix-domain sockets.
//!
//! [`Transport`] binds a listener, accepts many concurrent connections,
//! and serves each one with two threads:
//!
//! * a **reader** that parses request lines and submits them to the
//!   [`Service`] *without waiting for answers* — consecutive lines that
//!   are already buffered are admitted as one batch
//!   ([`Service::submit_batch`] semantics: one scheduler lock, one
//!   worker wake-up for the whole burst);
//! * a **writer** that drains the connection's completion channel and
//!   emits one response line per answered request, **in completion
//!   order** — a client that pipelines K requests gets its K responses
//!   matched by `id`, not by position.
//!
//! That out-of-order, id-matched framing is the only semantic
//! difference between wire v2 (this module) and wire v1 (`csag serve`
//! on stdin/stdout, which answers strictly in request order). Request
//! grammar and response envelope are identical; the normative spec for
//! both lives in [`docs/wire-protocol.md`].
//!
//! Shutdown is graceful by construction: [`Transport::shutdown`] stops
//! accepting, half-closes every connection's read side, and then joins
//! the per-connection threads — which exit only after every in-flight
//! request has been answered and written out (the scheduler holds a
//! sender clone for each admitted waiter, so the writer's channel stays
//! open until the last response is delivered).
//!
//! ```no_run
//! use csag::datasets::paper_examples::figure1_imdb;
//! use csag::service::{Service, ServiceConfig, Transport};
//! use std::sync::Arc;
//!
//! let (graph, _) = figure1_imdb();
//! let service = Arc::new(Service::over_graph(graph, ServiceConfig::default()));
//! let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
//! println!("listening on {}", transport.local_addr());
//! // ... clients connect, pipeline requests, read responses by id ...
//! transport.shutdown(); // drains in-flight work, then joins
//! ```
//!
//! [`docs/wire-protocol.md`]: https://github.com/csag/csag/blob/main/docs/wire-protocol.md

use crate::durability::FaultPlan;
use crate::engine::CsagError;
use crate::service::request::{Request, Response};
use crate::service::wire::{parse_wire_request, rejection_to_json, response_to_json};
use crate::service::Service;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Reader-side cap on how many parsed requests are submitted to the
/// scheduler as one batch. Bounds per-batch latency (the first request
/// of a flood starts executing after at most this many parses) without
/// giving up wake amortization.
const MAX_SUBMIT_BATCH: usize = 128;

/// One message on a connection's completion channel, rendered to a
/// response line by the connection's writer thread.
pub(crate) enum Outgoing {
    /// A completed service response for the request whose wire id token
    /// is `id`.
    Done {
        /// The client-assigned id, echoed verbatim.
        id: Arc<str>,
        /// The serving envelope around the engine's answer.
        response: Response,
    },
    /// A request that never reached a worker: malformed, rejected at
    /// validation, or shed by admission.
    Reject {
        /// The id token to echo (the line number for unparseable lines).
        id: Arc<str>,
        /// The typed error to render.
        error: CsagError,
    },
}

impl Outgoing {
    fn render(&self) -> String {
        match self {
            Outgoing::Done { id, response } => response_to_json(id, response),
            Outgoing::Reject { id, error } => rejection_to_json(id, error),
        }
    }
}

/// The address a [`Transport`] is bound to.
#[derive(Clone, Debug)]
pub enum BoundAddr {
    /// A TCP listener (use [`BoundAddr::tcp`] to recover the
    /// possibly-ephemeral port).
    Tcp(SocketAddr),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl BoundAddr {
    /// The TCP socket address, if this is a TCP binding.
    pub fn tcp(&self) -> Option<SocketAddr> {
        match self {
            BoundAddr::Tcp(a) => Some(*a),
            #[cfg(unix)]
            BoundAddr::Unix(_) => None,
        }
    }
}

impl fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundAddr::Tcp(a) => write!(f, "tcp://{a}"),
            #[cfg(unix)]
            BoundAddr::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// The stream operations the connection loop needs, implemented by both
/// [`TcpStream`] and [`UnixStream`]: splitting into a read and a write
/// half, and half-closing the read side (the graceful-shutdown signal —
/// the blocked reader sees EOF, in-flight responses still flow out).
pub(crate) trait WireSocket: Read + Write + Send + Sized + 'static {
    fn split_off_writer(&self) -> io::Result<Self>;
    fn close_read(&self) -> io::Result<()>;
    /// Severs both directions at once — the injected-fault "connection
    /// drop": the client sees a reset mid-pipeline, nothing is drained.
    fn abort(&self) -> io::Result<()>;
}

impl WireSocket for TcpStream {
    fn split_off_writer(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn close_read(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Read)
    }
    fn abort(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Both)
    }
}

#[cfg(unix)]
impl WireSocket for UnixStream {
    fn split_off_writer(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn close_read(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Read)
    }
    fn abort(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Both)
    }
}

/// A listener the accept loop can run on (TCP or unix-domain).
pub(crate) trait WireListener: Send + 'static {
    type Stream: WireSocket;
    fn accept_stream(&self) -> io::Result<Self::Stream>;
}

impl WireListener for TcpListener {
    type Stream = TcpStream;
    fn accept_stream(&self) -> io::Result<TcpStream> {
        let (s, _) = self.accept()?;
        // Responses are small writes issued while earlier ones may still
        // be unacknowledged; without TCP_NODELAY, Nagle holds them back
        // for the delayed ACK and pipelined throughput collapses.
        s.set_nodelay(true)?;
        Ok(s)
    }
}

#[cfg(unix)]
impl WireListener for UnixListener {
    type Stream = UnixStream;
    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

/// One live connection: the handle to join and a hook that half-closes
/// its read side so the reader unblocks during shutdown.
struct Conn {
    closer: Box<dyn Fn() + Send>,
    handle: JoinHandle<()>,
}

/// State shared between the accept loop, the connections, and the
/// [`Transport`] handle.
struct TransportShared {
    service: Arc<Service>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<Conn>>,
    accepted: AtomicU64,
    /// Deterministic fault script ([`FaultPlan::none`] in production):
    /// connection drops are indexed by requests parsed across all
    /// connections of this transport.
    faults: FaultPlan,
}

impl TransportShared {
    fn conns(&self) -> std::sync::MutexGuard<'_, Vec<Conn>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers and serves one accepted connection; also reaps
    /// already-finished connection threads so the registry does not
    /// grow with connection churn.
    fn spawn_conn<S: WireSocket>(self: &Arc<Self>, stream: S) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let closer: Box<dyn Fn() + Send> = match stream.split_off_writer() {
            Ok(half) => Box::new(move || {
                let _ = half.close_read();
            }),
            // No way to signal this connection during shutdown; it will
            // still drain when the client closes. Serve it anyway.
            Err(_) => Box::new(|| {}),
        };
        let service = Arc::clone(&self.service);
        let faults = self.faults.clone();
        let spawned = std::thread::Builder::new()
            .name("csag-wire-conn".into())
            .spawn(move || connection_loop(&service, stream, &faults));
        let Ok(handle) = spawned else { return };
        let mut conns = self.conns();
        let mut i = 0;
        while i < conns.len() {
            if conns[i].handle.is_finished() {
                let done = conns.swap_remove(i);
                let _ = done.handle.join();
            } else {
                i += 1;
            }
        }
        conns.push(Conn { closer, handle });
    }

    fn accept_loop<L: WireListener>(self: &Arc<Self>, listener: L) {
        loop {
            match listener.accept_stream() {
                Ok(stream) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        // The shutdown wake-up connection (or a client
                        // racing it): stop accepting.
                        break;
                    }
                    self.spawn_conn(stream);
                }
                Err(_) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    // Transient accept error (EMFILE, aborted handshake):
                    // keep serving.
                }
            }
        }
    }
}

/// A listening `csag-wire v2` endpoint over a shared [`Service`].
///
/// Bind with [`Transport::bind_tcp`] or [`Transport::bind_uds`]; every
/// accepted connection gets the full pipelined treatment described in
/// the [module docs](self). The transport keeps the service alive
/// (`Arc`) but does not own it exclusively — in-process callers keep
/// using [`Service::submit`] concurrently, and several transports (TCP
/// and UDS, say) can front one service.
pub struct Transport {
    shared: Arc<TransportShared>,
    accept: Option<JoinHandle<()>>,
    addr: BoundAddr,
}

impl Transport {
    /// Binds a TCP listener (use port 0 for an ephemeral port, then
    /// read it back from [`Transport::local_addr`]) and starts the
    /// accept loop.
    ///
    /// # Errors
    /// Any [`io::Error`] from binding or inspecting the listener.
    pub fn bind_tcp(service: Arc<Service>, addr: impl ToSocketAddrs) -> io::Result<Transport> {
        Transport::bind_tcp_with(service, addr, FaultPlan::none())
    }

    /// [`Transport::bind_tcp`] with a fault script: requests parsed
    /// across this transport's connections are counted, and a scripted
    /// index ([`FaultPlan::drop_connection_at_request`]) severs that
    /// request's connection abruptly — both directions, nothing
    /// drained — exactly as if the peer or network had died.
    ///
    /// # Errors
    /// Any [`io::Error`] from binding or inspecting the listener.
    pub fn bind_tcp_with(
        service: Arc<Service>,
        addr: impl ToSocketAddrs,
        faults: FaultPlan,
    ) -> io::Result<Transport> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Transport::start(service, listener, BoundAddr::Tcp(local), faults)
    }

    /// Binds a unix-domain socket listener and starts the accept loop.
    ///
    /// A socket file already at `path` is probed first: if a server
    /// still answers on it, binding fails with
    /// [`io::ErrorKind::AddrInUse`] instead of silently stealing the
    /// path; if nothing answers (a previous process crashed without
    /// unlinking), the stale file is removed and the bind proceeds.
    /// The file is removed again on shutdown.
    ///
    /// # Errors
    /// [`io::ErrorKind::AddrInUse`] when a live server already serves
    /// `path`; otherwise any [`io::Error`] from binding the listener.
    #[cfg(unix)]
    pub fn bind_uds(service: Arc<Service>, path: impl AsRef<Path>) -> io::Result<Transport> {
        Transport::bind_uds_with(service, path, FaultPlan::none())
    }

    /// [`Transport::bind_uds`] with a fault script (see
    /// [`Transport::bind_tcp_with`]).
    ///
    /// # Errors
    /// Same as [`Transport::bind_uds`].
    #[cfg(unix)]
    pub fn bind_uds_with(
        service: Arc<Service>,
        path: impl AsRef<Path>,
        faults: FaultPlan,
    ) -> io::Result<Transport> {
        let path = path.as_ref().to_path_buf();
        reclaim_stale_uds(&path)?;
        let listener = UnixListener::bind(&path)?;
        Transport::start(service, listener, BoundAddr::Unix(path), faults)
    }

    fn start<L: WireListener>(
        service: Arc<Service>,
        listener: L,
        addr: BoundAddr,
        faults: FaultPlan,
    ) -> io::Result<Transport> {
        let shared = Arc::new(TransportShared {
            service,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            faults,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("csag-wire-accept".into())
            .spawn(move || accept_shared.accept_loop(listener))?;
        Ok(Transport {
            shared,
            accept: Some(accept),
            addr,
        })
    }

    /// The address this transport is bound to (with the real port when
    /// bound to port 0).
    pub fn local_addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Total connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, half-close every connection's
    /// read side, and join the per-connection threads. Requests already
    /// admitted keep their workers; this call returns only after every
    /// in-flight response has been written to its connection.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a wake-up connection; if that
        // fails (listener already broken) the loop is unblocked anyway.
        match &self.addr {
            BoundAddr::Tcp(a) => {
                let _ = TcpStream::connect(a);
            }
            #[cfg(unix)]
            BoundAddr::Unix(p) => {
                let _ = UnixStream::connect(p);
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns());
        for c in &conns {
            (c.closer)();
        }
        for c in conns {
            let _ = c.handle.join();
        }
        #[cfg(unix)]
        if let BoundAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for Transport {
    /// Same as [`Transport::shutdown`] — dropping the handle drains
    /// in-flight work before the listener goes away.
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Probes a possibly-stale unix socket file before binding over it: a
/// live server answering on `path` is an [`io::ErrorKind::AddrInUse`]
/// error; a dead socket file (previous process crashed without
/// unlinking) is removed so the caller's bind proceeds. Shared by the
/// query transport and the replication listener.
#[cfg(unix)]
pub(crate) fn reclaim_stale_uds(path: &Path) -> io::Result<()> {
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is already served by a live process", path.display()),
                ));
            }
            // Connection refused: the socket file outlived its server
            // (crash without unlink). Reclaim it.
            Err(_) => std::fs::remove_file(path)?,
        }
    }
    Ok(())
}

/// The per-connection reader: parse lines, batch every burst of
/// already-buffered requests into one scheduler submission, and never
/// wait for an answer. Ends at EOF (client closed, or shutdown
/// half-closed the read side); the writer is then joined, which
/// finishes only after the scheduler has answered every in-flight
/// request submitted here.
fn connection_loop<S: WireSocket>(service: &Arc<Service>, stream: S, faults: &FaultPlan) {
    let Ok(write_half) = stream.split_off_writer() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let spawned = std::thread::Builder::new()
        .name("csag-wire-writer".into())
        .spawn(move || writer_loop(&rx, write_half));
    let Ok(writer) = spawned else { return };

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut batch: Vec<(Arc<str>, Request)> = Vec::new();
    let mut line_no = 0usize;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if !line.trim().is_empty() {
            if faults.next_request_drops() {
                // Scripted connection drop: sever both directions right
                // now — this request and everything pipelined behind it
                // (answered or not) is lost, exactly like a real reset.
                let _ = reader.get_ref().abort();
                drop(tx);
                let _ = writer.join();
                return;
            }
            match parse_wire_request(&line, line_no) {
                Err(msg) => {
                    let _ = tx.send(Outgoing::Reject {
                        id: Arc::from(line_no.to_string().as_str()),
                        error: CsagError::invalid(msg),
                    });
                }
                Ok(wire) => batch.push((Arc::from(wire.id.as_str()), wire.request)),
            }
        }
        line_no += 1;
        // Batch boundary: submit once nothing more is already buffered
        // (an idle client costs no latency; a pipelining client gets
        // its whole burst admitted under one lock and one wake).
        if !batch.is_empty()
            && (batch.len() >= MAX_SUBMIT_BATCH || !reader.buffer().contains(&b'\n'))
        {
            service.submit_wire_batch(std::mem::take(&mut batch), &tx);
        }
    }
    if !batch.is_empty() {
        service.submit_wire_batch(batch, &tx);
    }
    // Drop our sender; the scheduler holds one clone per in-flight
    // waiter, so the writer drains exactly the outstanding responses
    // and then exits.
    drop(tx);
    let _ = writer.join();
}

/// The per-connection writer: render completion-channel messages as
/// response lines in arrival (= completion) order, flushing once per
/// drained burst rather than once per line.
fn writer_loop<S: Write>(rx: &mpsc::Receiver<Outgoing>, stream: S) {
    let mut out = BufWriter::new(stream);
    while let Ok(first) = rx.recv() {
        let mut msg = first;
        loop {
            if writeln!(out, "{}", msg.render()).is_err() {
                // Client went away; responses are dropped on the floor
                // (the computations and metrics still counted).
                return;
            }
            match rx.try_recv() {
                Ok(next) => msg = next,
                Err(_) => break,
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
}
