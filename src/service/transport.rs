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
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Reader-side cap on how many parsed requests are submitted to the
/// scheduler as one batch. Bounds per-batch latency (the first request
/// of a flood starts executing after at most this many parses) without
/// giving up wake amortization.
const MAX_SUBMIT_BATCH: usize = 128;

/// Longest request line the reader buffers. A peer that never sends
/// `\n` must not size the server's allocation: a longer line is
/// discarded up to its newline and answered `invalid_params`.
const MAX_REQUEST_LINE: usize = 64 * 1024;

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

/// One connected stream, TCP or unix-domain — the only socket type the
/// query transport, the replication listener and the follower speak.
pub(crate) enum Socket {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Runs `$body` on whichever stream `$socket` holds.
macro_rules! on_stream {
    ($socket:expr, $s:ident => $body:expr) => {
        match $socket {
            Socket::Tcp($s) => $body,
            #[cfg(unix)]
            Socket::Unix($s) => $body,
        }
    };
}

impl Socket {
    /// Parses `tcp://host:port`, `unix:///path`, a bare `host:port` or a
    /// bare filesystem path (anything containing `/`) into a dialer:
    /// each call opens a fresh connection (names resolve per attempt).
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for an address in none of those
    /// forms.
    pub(crate) fn dialer(addr: &str) -> io::Result<Box<dyn Fn() -> io::Result<Socket> + Send>> {
        let tcp = |host: &str| -> Box<dyn Fn() -> io::Result<Socket> + Send> {
            let host = host.to_string();
            Box::new(move || {
                let s = TcpStream::connect(host.as_str())?;
                // Small writes (acks, responses) race the incoming
                // stream; Nagle would hold them for the delayed ACK.
                s.set_nodelay(true)?;
                Ok(Socket::Tcp(s))
            })
        };
        if let Some(rest) = addr.strip_prefix("tcp://") {
            return Ok(tcp(rest));
        }
        #[cfg(unix)]
        if let Some(path) = addr
            .strip_prefix("unix://")
            .or(addr.contains('/').then_some(addr))
        {
            let path = PathBuf::from(path);
            return Ok(Box::new(move || {
                UnixStream::connect(&path).map(Socket::Unix)
            }));
        }
        if addr.contains(':') {
            return Ok(tcp(addr));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unrecognized replication address `{addr}`"),
        ))
    }

    /// A second handle to the same stream (a read half and a write
    /// half, or a keeper to sever it from another thread).
    pub(crate) fn try_clone(&self) -> io::Result<Socket> {
        match self {
            Socket::Tcp(s) => s.try_clone().map(Socket::Tcp),
            #[cfg(unix)]
            Socket::Unix(s) => s.try_clone().map(Socket::Unix),
        }
    }

    /// Shuts one or both directions down: [`Shutdown::Read`] is the
    /// graceful signal (the blocked reader sees EOF, in-flight responses
    /// still flow out), [`Shutdown::Both`] a dropped connection (the
    /// peer sees a reset, nothing is drained).
    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = on_stream!(self, s => s.shutdown(how));
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_stream!(self, s => s.read(buf))
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_stream!(self, s => s.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        on_stream!(self, s => s.flush())
    }
}

/// One live connection: the handle to join and a second handle to its
/// socket so shutdown can signal it (`None` if the clone failed — the
/// connection is served anyway and ends when its peer closes).
struct Conn {
    socket: Option<Socket>,
    handle: JoinHandle<()>,
}

/// What the accept thread shares with the [`Acceptor`] handle.
#[derive(Default)]
struct AcceptorState {
    shutdown: AtomicBool,
    accepted: AtomicU64,
}

/// The listening-socket scaffolding under [`Transport`] and
/// [`crate::cluster::ReplListener`]: bind, an accept thread that hands
/// every connection to `serve` on a thread of its own and keeps the
/// registry of live ones, and a shutdown (on drop) that stops accepting,
/// shuts every live connection down `how` it was told to —
/// [`Shutdown::Read`] lets it drain, [`Shutdown::Both`] severs it — and
/// joins them.
pub(crate) struct Acceptor {
    state: Arc<AcceptorState>,
    /// Returns the live-connection registry when it stops.
    accept: Option<JoinHandle<Vec<Conn>>>,
    addr: BoundAddr,
    how: Shutdown,
}

impl Acceptor {
    /// Binds TCP (port 0 for ephemeral) and starts accepting; threads
    /// are named `<name>-accept` / `<name>-conn`.
    pub(crate) fn bind_tcp(
        addr: impl ToSocketAddrs,
        name: &'static str,
        how: Shutdown,
        serve: impl Fn(Socket) + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let listener = TcpListener::bind(addr)?;
        let local = BoundAddr::Tcp(listener.local_addr()?);
        Acceptor::start(local, name, how, serve, move || {
            let (s, _) = listener.accept()?;
            // Responses are small writes issued while earlier ones may
            // still be unacknowledged; without TCP_NODELAY, Nagle holds
            // them back for the delayed ACK and pipelined throughput
            // collapses.
            s.set_nodelay(true)?;
            Ok(Socket::Tcp(s))
        })
    }

    /// Binds a unix-domain socket at `path` (a stale socket file is
    /// reclaimed, a live one is [`io::ErrorKind::AddrInUse`]; the file
    /// is removed again on shutdown) and starts accepting.
    #[cfg(unix)]
    pub(crate) fn bind_uds(
        path: impl AsRef<Path>,
        name: &'static str,
        how: Shutdown,
        serve: impl Fn(Socket) + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let path = path.as_ref().to_path_buf();
        reclaim_stale_uds(&path)?;
        let listener = UnixListener::bind(&path)?;
        Acceptor::start(BoundAddr::Unix(path), name, how, serve, move || {
            listener.accept().map(|(s, _)| Socket::Unix(s))
        })
    }

    fn start(
        addr: BoundAddr,
        name: &'static str,
        how: Shutdown,
        serve: impl Fn(Socket) + Send + Sync + 'static,
        accept: impl Fn() -> io::Result<Socket> + Send + 'static,
    ) -> io::Result<Acceptor> {
        let state = Arc::new(AcceptorState::default());
        let shared = Arc::clone(&state);
        let serve = Arc::new(serve);
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                let mut conns: Vec<Conn> = Vec::new();
                loop {
                    let accepted = accept();
                    // The shutdown wake-up connection (or a client
                    // racing it) ends the loop; a transient accept error
                    // (EMFILE, aborted handshake) does not.
                    if shared.shutdown.load(Ordering::Acquire) {
                        return conns;
                    }
                    let Ok(socket) = accepted else { continue };
                    shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let keeper = socket.try_clone().ok();
                    let serve = Arc::clone(&serve);
                    let spawned = std::thread::Builder::new()
                        .name(format!("{name}-conn"))
                        .spawn(move || serve(socket));
                    let Ok(handle) = spawned else { continue };
                    // Reap finished connections so the registry does
                    // not grow with connection churn.
                    conns.retain(|c| !c.handle.is_finished());
                    conns.push(Conn {
                        socket: keeper,
                        handle,
                    });
                }
            })?;
        Ok(Acceptor {
            state,
            accept: Some(accept),
            addr,
            how,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub(crate) fn local_addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Total connections accepted so far.
    pub(crate) fn accepted(&self) -> u64 {
        self.state.accepted.load(Ordering::Relaxed)
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a wake-up connection; if that
        // fails (listener already broken) the loop is unblocked anyway.
        match &self.addr {
            BoundAddr::Tcp(a) => drop(TcpStream::connect(a)),
            #[cfg(unix)]
            BoundAddr::Unix(p) => drop(UnixStream::connect(p)),
        }
        let conns = self.accept.take().and_then(|h| h.join().ok());
        let conns = conns.unwrap_or_default();
        for socket in conns.iter().filter_map(|c| c.socket.as_ref()) {
            socket.shutdown(self.how);
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

/// A listening `csag-wire v2` endpoint over a shared [`Service`].
///
/// Bind with [`Transport::bind_tcp`] or [`Transport::bind_uds`]; every
/// accepted connection gets the full pipelined treatment described in
/// the [module docs](self). The transport keeps the service alive
/// (`Arc`) but does not own it exclusively — in-process callers keep
/// using [`Service::submit`] concurrently, and several transports (TCP
/// and UDS, say) can front one service.
pub struct Transport {
    acceptor: Acceptor,
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
        let serve = move |socket| connection_loop(&service, socket, &faults);
        Acceptor::bind_tcp(addr, "csag-wire", Shutdown::Read, serve)
            .map(|acceptor| Transport { acceptor })
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
        let serve = move |socket| connection_loop(&service, socket, &faults);
        Acceptor::bind_uds(path, "csag-wire", Shutdown::Read, serve)
            .map(|acceptor| Transport { acceptor })
    }

    /// The address this transport is bound to (with the real port when
    /// bound to port 0).
    pub fn local_addr(&self) -> &BoundAddr {
        self.acceptor.local_addr()
    }

    /// Total connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.acceptor.accepted()
    }

    /// Graceful shutdown: stop accepting, half-close every connection's
    /// read side, and join the per-connection threads. Requests already
    /// admitted keep their workers; this call returns only after every
    /// in-flight response has been written to its connection. Dropping
    /// the handle does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Probes a possibly-stale unix socket file before binding over it: a
/// live server answering on `path` is an [`io::ErrorKind::AddrInUse`]
/// error; a dead socket file (previous process crashed without
/// unlinking) is removed so the caller's bind proceeds.
#[cfg(unix)]
fn reclaim_stale_uds(path: &Path) -> io::Result<()> {
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

/// Reads the next `\n`-terminated line of a request stream into
/// `bytes` — the one line reader behind both session loops and the
/// socket-mode write feed. `None` at end of input. A line longer than
/// `MAX_REQUEST_LINE` (64 KiB) is discarded up to its newline without ever
/// being buffered, and it or a line that is not UTF-8 comes back as
/// `Err(message)`: the caller refuses that line and keeps reading.
///
/// # Errors
/// Any [`io::Error`] from the underlying reader.
pub fn read_capped_line<'a>(
    reader: &mut impl BufRead,
    bytes: &'a mut Vec<u8>,
) -> io::Result<Option<Result<&'a str, String>>> {
    bytes.clear();
    let mut capped = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
    if capped.read_until(b'\n', bytes)? == 0 {
        return Ok(None);
    }
    if bytes.len() > MAX_REQUEST_LINE && !bytes.ends_with(b"\n") {
        reader.skip_until(b'\n')?;
        let refusal = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
        return Ok(Some(Err(refusal)));
    }
    let line = std::str::from_utf8(bytes).map_err(|_| "request line is not UTF-8".to_string());
    Ok(Some(line))
}

/// One `csag-wire v1` session: request lines off `input`, answered in
/// lock-step — one response line per request line, in request order —
/// on `output`, until end of input. A line the reader or the parser
/// refuses is answered `invalid_params` under its line-number id and
/// the session goes on. Returns how many request lines were answered.
///
/// # Errors
/// Any [`io::Error`] from reading `input` or writing `output`.
pub fn serve_session(
    service: &Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<usize> {
    let mut bytes = Vec::new();
    let (mut line_no, mut answered) = (0usize, 0usize);
    while let Some(line) = read_capped_line(&mut input, &mut bytes)? {
        if !matches!(line, Ok(text) if text.trim().is_empty()) {
            let rendered = match line.and_then(|text| parse_wire_request(text, line_no)) {
                Err(msg) => rejection_to_json(&line_no.to_string(), &CsagError::invalid(msg)),
                Ok(wire) => match service.submit(wire.request) {
                    Err(err) => rejection_to_json(&wire.id, &err),
                    Ok(ticket) => response_to_json(&wire.id, &ticket.wait()),
                },
            };
            writeln!(output, "{rendered}")?;
            answered += 1;
        }
        line_no += 1;
    }
    Ok(answered)
}

/// The per-connection reader: parse lines, batch every burst of
/// already-buffered requests into one scheduler submission, and never
/// wait for an answer. Ends at EOF (client closed, or shutdown
/// half-closed the read side); the writer is then joined, which
/// finishes only after the scheduler has answered every in-flight
/// request submitted here.
fn connection_loop(service: &Service, stream: Socket, faults: &FaultPlan) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Outgoing>();
    let spawned = std::thread::Builder::new()
        .name("csag-wire-writer".into())
        .spawn(move || writer_loop(&rx, write_half));
    let Ok(writer) = spawned else { return };

    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    let mut batch: Vec<(Arc<str>, Request)> = Vec::new();
    let mut line_no = 0usize;
    while let Ok(Some(line)) = read_capped_line(&mut reader, &mut bytes) {
        let request = match line {
            Ok(line) if line.trim().is_empty() => None,
            Ok(_) if faults.next_request_drops() => {
                // Scripted connection drop: sever both directions right
                // now — this request and everything pipelined behind it
                // (answered or not) is lost, exactly like a real reset.
                reader.get_ref().shutdown(Shutdown::Both);
                drop(tx);
                let _ = writer.join();
                return;
            }
            line => Some(line.and_then(|line| parse_wire_request(line, line_no))),
        };
        match request {
            None => {}
            Some(Err(msg)) => {
                let _ = tx.send(Outgoing::Reject {
                    id: Arc::from(line_no.to_string().as_str()),
                    error: CsagError::invalid(msg),
                });
            }
            Some(Ok(wire)) => batch.push((Arc::from(wire.id.as_str()), wire.request)),
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
