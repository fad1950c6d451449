//! The system under test, assembled the way `csag serve` assembles it,
//! through public constructors only: a store (plain, durable or
//! sharded) under a one-worker [`Service`] behind a TCP [`Transport`],
//! plus the one client connection that drives it.

use crate::inputs::{Backend, CHECKPOINT_EVERY};
use crate::trace::Trace;
use csag::cluster::{ReadSource, ShardedRouter};
use csag::durability::{FsyncPolicy, WalConfig};
use csag::engine::{GraphStore, GraphUpdate, UpdateReport};
use csag::graph::AttributedGraph;
use csag::service::{Service, ServiceConfig, Transport};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shards, halo radius and replicas per shard of the sharded backend.
pub const SHARDS: (usize, u32, usize) = (3, 1, 0);

/// The durable backend's WAL tuning: every batch fsynced, default
/// segment size, a checkpoint every [`CHECKPOINT_EVERY`] epochs.
pub fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: CHECKPOINT_EVERY,
        ..WalConfig::default()
    }
}

/// Where writes go (reads go through the service).
pub enum Writer {
    Store(Arc<GraphStore>),
    Shards(Arc<ShardedRouter>),
}

impl Writer {
    /// Applies one batch: returns once it is logged (durable backend),
    /// applied and its epoch published.
    pub fn apply(&self, batch: &[GraphUpdate]) -> Result<UpdateReport, String> {
        match self {
            Writer::Store(store) => store.apply(batch),
            Writer::Shards(router) => router.apply(batch),
        }
        .map_err(|e| format!("apply rejected: {e}"))
    }

    /// The epoch reads are served from right now.
    pub fn epoch(&self) -> u64 {
        match self {
            Writer::Store(store) => store.published_epoch(),
            Writer::Shards(router) => router.epoch(),
        }
    }

    /// The store that holds the whole graph (the sharded cluster's
    /// journal).
    pub fn global_store(&self) -> &Arc<GraphStore> {
        match self {
            Writer::Store(store) => store,
            Writer::Shards(router) => router.journal(),
        }
    }

    /// The read topology, as the scheduler sees it.
    pub fn source(&self) -> &dyn ReadSource {
        match self {
            Writer::Store(store) => store.as_ref(),
            Writer::Shards(router) => router.as_ref(),
        }
    }
}

/// Store + service + transport.
pub struct Stack {
    pub writer: Writer,
    pub service: Arc<Service>,
    transport: Transport,
}

impl Stack {
    /// Builds the stack over `graph` and forces the core and truss
    /// decompositions of every engine it starts with, so that no lazy
    /// decomposition lands in a timed pass. `wal_dir` is used by the
    /// durable backend only and must not exist yet.
    pub fn build(
        graph: AttributedGraph,
        backend: Backend,
        wal_dir: &Path,
    ) -> Result<Stack, String> {
        let config = ServiceConfig::default().with_workers(1);
        let (writer, service) = match backend {
            Backend::Solo | Backend::Durable => {
                let store = if backend == Backend::Durable {
                    GraphStore::with_wal_config(graph, wal_dir, wal_config())
                        .map_err(|e| format!("creating the WAL in {}: {e}", wal_dir.display()))?
                } else {
                    GraphStore::new(graph)
                };
                let store = Arc::new(store);
                store.snapshot().engine().node_trussness();
                let service = Service::new(Arc::clone(&store), config);
                (Writer::Store(store), service)
            }
            Backend::Sharded => {
                let (shards, halo, replicas) = SHARDS;
                let router = Arc::new(ShardedRouter::over_graph(graph, shards, halo, replicas));
                let view = router.view();
                view.journal().engine().node_trussness();
                for s in 0..view.shard_count() {
                    view.shard(s).engine().node_trussness();
                }
                let service = Service::over_shards(Arc::clone(&router), config);
                (Writer::Shards(router), service)
            }
        };
        let service = Arc::new(service);
        let transport = Transport::bind_tcp(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("binding the loopback transport: {e}"))?;
        Ok(Stack {
            writer,
            service,
            transport,
        })
    }

    /// Opens the benchmark's one client connection.
    pub fn connect(&self) -> Result<Client, String> {
        let addr = self.transport.local_addr().tcp().expect("bound over TCP");
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    pub fn connections_accepted(&self) -> u64 {
        self.transport.connections_accepted()
    }

    /// Drains and joins the transport, then the service's worker.
    pub fn shutdown(self) {
        self.transport.shutdown();
    }
}

/// Request lines of one pass, rendered ahead of the timed window.
#[derive(Default)]
pub struct Lines {
    pub bytes: Vec<u8>,
    /// End offset of each line in `bytes`.
    pub ends: Vec<usize>,
}

impl Lines {
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn span(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

/// What the client saw of one pass's reads: when each request was
/// written and answered, and every response line verbatim (hashing and
/// verification run on them between passes, outside the timed window).
#[derive(Default)]
pub struct ReadLog {
    pub sent_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    pub responses: Vec<u8>,
    /// `(start, end)` of each read's response line in `responses`
    /// (`(0, 0)` until it arrives).
    pub lines: Vec<(usize, usize)>,
    /// Responses whose id was missing, out of range or a duplicate.
    pub malformed: usize,
    /// `(wall, process cpu)` in nanoseconds at every unit boundary of
    /// the pass: its start, every `chunk` answered reads, the end of
    /// every read run, and (pushed by the pass) the end of every batch.
    pub marks: Vec<(u64, u64)>,
}

impl ReadLog {
    pub fn reset(&mut self, reads: usize) {
        self.sent_ns.clear();
        self.sent_ns.resize(reads, 0);
        self.recv_ns.clear();
        self.recv_ns.resize(reads, 0);
        self.responses.clear();
        // Reserved once, ahead of the first pass: growing by doubling
        // would make peak memory depend on where the reallocations fall.
        self.responses.reserve(reads * 1024);
        self.lines.clear();
        self.lines.resize(reads, (0, 0));
        self.malformed = 0;
        self.marks.clear();
    }

    pub fn response(&self, read: usize) -> &[u8] {
        let (start, end) = self.lines[read];
        &self.responses[start..end]
    }
}

/// The id a response line echoes: the digits after `{"id":`.
fn response_id(line: &[u8]) -> Option<usize> {
    let digits = line.strip_prefix(b"{\"id\":")?;
    let len = digits.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&digits[..len]).ok()?.parse().ok()
}

/// One csag-wire v2 connection driven as a closed loop.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Sends reads `start..end` keeping at most `window` unanswered:
    /// the first `window` lines go out in one write, then each response
    /// read releases the next request. Times are nanoseconds since
    /// `clock`. Every `chunk` answered reads, and when the last response
    /// has arrived, `(wall, process cpu)` is appended to `log.marks`. With
    /// `trace`, each answered request also leaves a `client.window_rtt`
    /// span (request number = its read index), recorded as it arrives.
    pub fn run_reads(
        &mut self,
        lines: &Lines,
        (start, end): (usize, usize),
        (window, chunk): (usize, usize),
        clock: Instant,
        log: &mut ReadLog,
        mut trace: Option<&mut Trace>,
    ) -> io::Result<()> {
        let now = |clock: Instant| clock.elapsed().as_nanos() as u64;
        let mut next = (start + window.max(1)).min(end);
        let t = now(clock);
        log.sent_ns[start..next].fill(t);
        self.writer.write_all(lines.span(start, next))?;
        for answered in 1..=end - start {
            let at = log.responses.len();
            if self.reader.read_until(b'\n', &mut log.responses)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let t = now(clock);
            match response_id(&log.responses[at..]) {
                Some(id) if (start..end).contains(&id) && log.lines[id] == (0, 0) => {
                    log.recv_ns[id] = t;
                    log.lines[id] = (at, log.responses.len());
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push("client.window_rtt", (log.sent_ns[id], t), None, id as u32);
                    }
                }
                _ => log.malformed += 1,
            }
            if next < end {
                log.sent_ns[next] = now(clock);
                self.writer.write_all(lines.span(next, next + 1))?;
                next += 1;
            }
            if answered % chunk.max(1) == 0 || answered == end - start {
                log.marks.push((now(clock), crate::host::process_cpu_ns()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_parse_from_both_envelope_shapes() {
        assert_eq!(
            response_id(b"{\"id\":17,\"epoch\":3,\"result\":{}}\n"),
            Some(17)
        );
        assert_eq!(
            response_id(b"{\"id\":0,\"error\":{\"error\":\"overloaded\"}}\n"),
            Some(0)
        );
        assert_eq!(response_id(b"{\"id\":\"x\",\"epoch\":3}\n"), None);
        assert_eq!(response_id(b"garbage\n"), None);
    }

    #[test]
    fn line_spans_cover_whole_lines() {
        let mut lines = Lines::default();
        for text in ["a\n", "bcd\n", "ef\n"] {
            lines.bytes.extend_from_slice(text.as_bytes());
            lines.ends.push(lines.bytes.len());
        }
        assert_eq!(lines.span(0, 1), b"a\n");
        assert_eq!(lines.span(1, 3), b"bcd\nef\n");
    }
}
