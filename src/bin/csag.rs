//! `csag` — command-line community search on attributed graphs.
//!
//! Every search command routes through the unified [`csag::engine`]: one
//! `Engine` per loaded graph, one `CommunityQuery` per run, typed errors
//! on stderr, and `--json` for machine-readable results.
//!
//! ```text
//! csag stats    <graph.txt>
//! csag query    <graph.txt> --method M --query <id> --k <k> [shared flags] [--json]
//! csag exact    <graph.txt> --query <id> --k <k> [--gamma G] [--truss] [--budget-ms MS] [--json]
//! csag sea      <graph.txt> --query <id> --k <k> [--gamma G] [--truss] [--error E]
//!                           [--confidence C] [--lambda L] [--seed S] [--size L H] [--json]
//! csag baseline <graph.txt> --method acq|atc|vac|evac --query <id> --k <k> [--gamma G] [--json]
//! csag generate --nodes N --communities C --seed S --out <graph.txt>
//! csag update   <graph.txt> --script <updates.txt> [--out <new.txt>] [--wal <dir>] [--json]
//! csag serve    <graph.txt> [--workers N] [--capacity N] [--replicas N] [--wal <dir>]
//!                           [--shards N [--shard-halo R]]
//!                           [--metrics] [--listen <addr>] [--uds <path>]
//!                           [--repl-listen <addr>] [--repl-uds <path>]
//! csag replica  [seed-graph.txt] --follow <addr> [--name N] [--listen <addr>] [--uds <path>]
//! csag serve-churn [--batches N] [--seed S] [--json]
//! csag wal-churn <graph.txt> --wal <dir> [--plan-out <plan.txt>] [--batches N]
//!                           [--seed S] [--sleep-ms MS]
//! csag demo     [--json]
//! ```
//!
//! Graph files use the `csag-graph v1` text format (see `csag::graph::io`);
//! update scripts use the `csag-updates v1` line format (see
//! `csag::graph::update::GraphUpdate::parse_line`). Without a socket
//! flag, `csag serve` reads `csag-wire v1` request lines on stdin and
//! writes one response line per request, in order, on stdout. With
//! `--listen <addr>` (TCP, port 0 for ephemeral) and/or `--uds <path>`
//! (unix-domain socket) it serves the pipelined `csag-wire v2` instead:
//! many concurrent connections, out-of-order responses matched by the
//! client-assigned `id`. Both versions share one request grammar and
//! response envelope (normative spec: `docs/wire-protocol.md`), and the
//! `"result"` object of a response is produced by the same serializer
//! as `csag query --json`.
//!
//! `--repl-listen` / `--repl-uds` additionally serve the `csag-repl v1`
//! replication protocol (normative spec: `docs/replication.md`): a
//! `csag replica` process in another OS process (or on another host)
//! follows the stream through `--follow <addr>`, stays in epoch
//! lockstep, and serves byte-identical answers from its own sockets.
//! In socket mode the primary's stdin doubles as a write feed — one
//! `csag-updates v1` line per batch, `applied <epoch>` echoed back.

use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::paper_examples::{figure1_imdb, FIGURE1_TITLES};
use csag::datasets::{random_updates, ChurnMix};
use csag::engine::{
    error_to_json, CommunityQuery, CommunityResult, CsagError, Engine, GraphStore, GraphUpdate,
    Method, UpdateReport,
};
use csag::graph::io::{load_graph, save_graph};
use csag::graph::stats::graph_stats;
use csag::graph::{AttributedGraph, GraphBuilder};
use csag::json::Writer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::exit;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let result = match cmd.as_str() {
        "stats" => cmd_stats(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "exact" => cmd_search(&args[1..], Method::Exact),
        "sea" => cmd_search(&args[1..], Method::Sea),
        "baseline" => cmd_baseline(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "update" => cmd_update(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "replica" => cmd_replica(&args[1..]),
        "serve-churn" => cmd_serve_churn(&args[1..]),
        "wal-churn" => cmd_wal_churn(&args[1..]),
        "demo" => cmd_demo(&args[1..]),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "csag — community search on attributed graphs\n\
         \n\
         commands:\n\
         \x20 stats    <graph.txt>                      graph statistics\n\
         \x20 query    <graph.txt> --method M --query Q --k K   any method through one command\n\
         \x20 exact    <graph.txt> --query Q --k K      exact CS-AG (δ-optimal community)\n\
         \x20 sea      <graph.txt> --query Q --k K      approximate CS-AG with accuracy guarantee\n\
         \x20 baseline <graph.txt> --method M ...       run acq | atc | vac | evac\n\
         \x20 generate --nodes N --communities C ...    write a synthetic attributed graph\n\
         \x20 update   <graph.txt> --script <u.txt>      apply a GraphUpdate batch via GraphStore\n\
         \x20 serve    <graph.txt>                       csag-wire service: v1 on stdin/stdout, or\n\
         \x20                                            pipelined v2 sockets via --listen / --uds\n\
         \x20 replica  [seed.txt] --follow <addr>        remote replica: follow a primary's --repl-listen\n\
         \x20                                            stream, serve byte-identical reads via --listen/--uds\n\
         \x20 serve-churn [--batches N]                  churn the paper's examples, verify vs fresh engines\n\
         \x20 wal-churn <graph.txt> --wal <dir>          churn a WAL-backed store (crash-recovery smoke driver)\n\
         \x20 demo                                       the paper's Figure-1 IMDB example\n\
         \n\
         common flags: --gamma G (0..1, default 0.5)  --truss  --seed S  --json\n\
         exact flags:  --budget-ms MS (stop early, report best found; unbounded by default)\n\
         sea flags:    --error E (default 0.02)  --confidence C (default 0.95)\n\
         \x20             --lambda L (default 0.2)  --size L H (size-bounded search)\n\
         update flags: --script <updates.txt> (csag-updates v1)  --out <new-graph.txt>\n\
         \x20             --wal <dir> (durably log the batch; recovers the dir first if initialized)\n\
         serve flags:  --workers N  --capacity N (admission bound)  --metrics (snapshot on exit)\n\
         \x20             --shards N (partition the graph into N shard stores behind the\n\
         \x20               scatter-gather router; --shard-halo R sets the ghost radius, default 1;\n\
         \x20               composes with --replicas, which then replicates per shard, and --wal)\n\
         \x20             --replicas N (replicated stores behind the epoch-consistent csag::cluster\n\
         \x20             router; reads balance, `\"epoch\"`-pinned reads stay consistent)\n\
         \x20             --wal <dir> (write-ahead log + checkpoints; an initialized dir is\n\
         \x20             recovered to the exact pre-crash epoch and announced as `recovered {{...}}`\n\
         \x20             before any `listening` line)\n\
         \x20             --listen <ip:port> (TCP csag-wire v2; port 0 = ephemeral, bound address\n\
         \x20             is printed as `listening tcp://...`)  --uds <path> (unix-domain socket)\n\
         \x20             --repl-listen <ip:port> / --repl-uds <path> (csag-repl v1 replication\n\
         \x20             endpoint for `csag replica` followers, printed as `repl-listening ...`;\n\
         \x20             in socket mode stdin becomes a csag-updates v1 write feed)\n\
         replica flags: --follow <addr> (tcp://host:port or a socket path; required)\n\
         \x20             --name N (member name on the primary)  --listen / --uds (serving sockets)\n\
         \x20             [seed-graph.txt] (skip the initial snapshot ship when you have the\n\
         \x20             primary's epoch-0 graph)\n\
         wal-churn flags: --wal <dir>  --plan-out <plan.txt> (every batch written+synced *before*\n\
         \x20             it is applied, so the plan covers the durable prefix after a crash)\n\
         \x20             --batches N  --seed S  --sleep-ms MS (pacing, so a killer lands mid-run)"
    );
}

/// Parses `--flag value` pairs and positional arguments.
struct Flags {
    positional: Vec<String>,
    named: HashMap<String, Vec<String>>,
}

/// A command's flag vocabulary: each `--name` with the number of values
/// it takes.
type FlagSet = &'static [(&'static str, usize)];

/// What [`query_of`] reads — shared by `query`, `exact`, `sea` and
/// `baseline` (`--method` only by the two that take one).
const SEARCH_FLAGS: FlagSet = &[
    ("query", 1),
    ("k", 1),
    ("gamma", 1),
    ("truss", 0),
    ("budget-ms", 1),
    ("error", 1),
    ("confidence", 1),
    ("lambda", 1),
    ("seed", 1),
    ("size", 2),
    ("json", 0),
];
const METHOD_FLAG: FlagSet = &[("method", 1)];
/// The serving sockets and scheduler knobs `serve` and `replica` share.
const SERVING_FLAGS: FlagSet = &[("workers", 1), ("capacity", 1), ("listen", 1), ("uds", 1)];
const REPLICA_FLAGS: FlagSet = &[("follow", 1), ("name", 1)];

/// Parses `args` against the flags `cmd` reads (`sets`, concatenated);
/// any other `--flag` is an error naming the command.
fn parse_flags(cmd: &str, args: &[String], sets: &[FlagSet]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut named: HashMap<String, Vec<String>> = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let &(_, n) = sets
                .iter()
                .flat_map(|set| set.iter())
                .find(|(flag, _)| *flag == name)
                .ok_or_else(|| format!("unknown flag --{name} for {cmd}"))?;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                vals.push(
                    it.next()
                        .ok_or_else(|| format!("--{name} expects {n} value(s)"))?
                        .clone(),
                );
            }
            named.insert(name.to_string(), vals);
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Flags { positional, named })
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.named.get(name) {
            None => Ok(None),
            Some(vals) => vals[0]
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{}`", vals[0])),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.named.contains_key(name)
    }
}

fn load(flags: &Flags) -> Result<AttributedGraph, String> {
    let path = flags
        .positional
        .first()
        .ok_or("a graph file is required (csag-graph v1 format)")?;
    load_graph(path).map_err(|e| format!("loading {path}: {e}"))
}

/// Builds the query shared by `exact` / `sea` / `baseline` from flags.
fn query_of(flags: &Flags, method: Method) -> Result<CommunityQuery, String> {
    let q: u32 = flags.require("query")?;
    let k: u32 = flags.require("k")?;
    let mut query = CommunityQuery::new(method, q).with_k(k);
    if flags.has("truss") {
        query = query.with_model(csag::decomp::CommunityModel::KTruss);
    }
    if let Some(g) = flags.get::<f64>("gamma")? {
        query = query.with_gamma(g);
    }
    if let Some(ms) = flags.get::<u64>("budget-ms")? {
        query = query.with_time_budget(Duration::from_millis(ms));
    }
    if let Some(e) = flags.get::<f64>("error")? {
        query = query.with_error_bound(e);
    }
    if let Some(c) = flags.get::<f64>("confidence")? {
        query = query.with_confidence(c);
    }
    if let Some(l) = flags.get::<f64>("lambda")? {
        query = query.with_lambda(l);
    }
    if let Some(s) = flags.get::<u64>("seed")? {
        query = query.with_seed(s);
    }
    if let Some(vals) = flags.named.get("size") {
        let l: usize = vals[0].parse().map_err(|_| "bad --size lower bound")?;
        let h: usize = vals[1].parse().map_err(|_| "bad --size upper bound")?;
        query = query.with_size_bound(l, h);
        if query.method == Method::Sea {
            query = query.with_method(Method::SeaSizeBounded);
        }
    }
    // Build-time validation: degenerate parameters die here with a
    // precise message (and, in `--json` mode, an error object on stdout),
    // before the graph is even touched.
    query.build().map_err(|e| {
        if flags.has("json") {
            println!("{}", error_to_json(&e));
        }
        e.to_string()
    })
}

fn print_community(g: &AttributedGraph, comm: &[u32]) {
    for &v in comm {
        let tokens: Vec<&str> = g
            .tokens(v)
            .iter()
            .filter_map(|&t| g.interner().name(t))
            .collect();
        println!(
            "  node {v:>6}  [{}]  {:?}",
            tokens.join(","),
            g.numeric_raw(v)
        );
    }
}

fn print_result(g: &AttributedGraph, res: &CommunityResult) {
    print!(
        "{}: community of {} nodes, δ = {:.6}",
        res.provenance.method,
        res.community.len(),
        res.delta
    );
    match &res.certificate {
        Some(c) if c.moe > 0.0 => print!(
            ", CI ± {:.4e} at {:.0}% (certified = {})",
            c.moe,
            c.confidence * 100.0,
            c.certified
        ),
        Some(_) => print!(" (δ-optimal)"),
        None => {
            if let Some(obj) = res.provenance.objective {
                print!(" (own objective {obj:.4})");
            }
        }
    }
    println!(
        "  [{:.1} ms: prepare {:.1} + search {:.1}]",
        res.timings.total.as_secs_f64() * 1000.0,
        res.timings.prepare.as_secs_f64() * 1000.0,
        res.timings.search.as_secs_f64() * 1000.0,
    );
    if res.provenance.rounds > 0 {
        println!(
            "  {} SEA round(s), {} candidate(s), sample {}/{}",
            res.provenance.rounds,
            res.provenance.candidates_examined,
            res.provenance.sample_size,
            res.provenance.population_size
        );
    }
    if res.provenance.states_explored > 0 {
        println!("  {} states explored", res.provenance.states_explored);
    }
    print_community(g, &res.community);
}

/// Runs a built query and renders the outcome (text or `--json`).
/// Exit status is consistent across both modes: success and budget
/// exhaustion *with* a best-effort partial exit 0; every other engine
/// error exits non-zero (in `--json` mode the error object still goes to
/// stdout, with the human-readable message on stderr).
fn run_and_render(g: AttributedGraph, query: &CommunityQuery, json: bool) -> Result<(), String> {
    let engine = Engine::new(g);
    let g = engine.graph();
    match engine.run(query) {
        Ok(res) => {
            if json {
                println!("{}", res.to_json());
            } else {
                print_result(g, &res);
            }
            Ok(())
        }
        Err(CsagError::BudgetExhausted { partial: Some(p) }) => {
            if json {
                let err = CsagError::BudgetExhausted { partial: Some(p) };
                println!("{}", error_to_json(&err));
                return Ok(());
            }
            println!(
                "budget exhausted after {} states — best found so far: {} nodes, δ = {:.6}",
                p.states_explored,
                p.community.len(),
                p.delta
            );
            print_community(g, &p.community);
            Ok(())
        }
        Err(err) => {
            if json {
                println!("{}", error_to_json(&err));
            }
            Err(err.to_string())
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("stats", args, &[])?;
    let g = load(&flags)?;
    let s = graph_stats(&g);
    let engine = Engine::new(g);
    let coreness = engine.coreness();
    let kmax = coreness.iter().copied().max().unwrap_or(0);
    let kavg = coreness.iter().map(|&c| c as f64).sum::<f64>() / coreness.len().max(1) as f64;
    println!("nodes      {}", s.nodes);
    println!("edges      {}", s.edges);
    println!("d_max      {}", s.max_degree);
    println!("d_avg      {:.2}", s.avg_degree);
    println!("k_max      {kmax}");
    println!("k_avg      {kavg:.2}");
    println!("numeric dims {}", engine.graph().attrs().dims());
    Ok(())
}

fn cmd_search(args: &[String], method: Method) -> Result<(), String> {
    let flags = parse_flags(method.name(), args, &[SEARCH_FLAGS])?;
    let g = load(&flags)?;
    let query = query_of(&flags, method)?;
    run_and_render(g, &query, flags.has("json"))
}

/// `csag query`: the unified search command — any method via `--method`
/// (the `exact` / `sea` / `baseline` commands are conveniences over
/// this). `--json` output is the one `CommunityResult` serializer, so
/// it byte-matches the `"result"` object of a `csag serve` response for
/// the same query (timings aside).
fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("query", args, &[SEARCH_FLAGS, METHOD_FLAG])?;
    let g = load(&flags)?;
    let method: String = flags.require("method")?;
    let method: Method = method.parse().map_err(|e: CsagError| e.to_string())?;
    let query = query_of(&flags, method)?;
    run_and_render(g, &query, flags.has("json"))
}

/// `csag serve`: the admission-controlled service on the wire. The
/// default mode speaks `csag-wire v1` over stdin/stdout — one request
/// line in, one response line out, strictly in order. With `--listen
/// <addr>` and/or `--uds <path>` it speaks the pipelined `csag-wire v2`
/// over real sockets instead: many concurrent connections, batched
/// admission, responses written out of order as computations finish and
/// matched by the client-assigned `id`. Either way every request goes
/// through the full `csag::service` path (admission, priorities,
/// deadlines, coalescing); malformed or shed lines answer with an
/// `"error"` envelope instead of killing the session. With `--metrics`
/// (stdin mode), a `csag-service-metrics-v1` snapshot is printed to
/// stdout after EOF (plus a `csag-cluster-metrics-v1` line when
/// `--replicas` is on; stderr always gets a one-line summary).
///
/// `--replicas N` fronts the store with the `csag::cluster` router: N
/// replica stores consume the primary's replication log, unpinned reads
/// balance across whichever are caught up, and a request carrying the
/// `"epoch"` wire key is only answered by a store that has published
/// that epoch.
///
/// `--shards N` partitions the graph into N shard stores behind the
/// `csag::cluster::shard` scatter-gather router (`--shard-halo R` sets
/// the ghost-vertex radius, default 1). Answers stay byte-identical to
/// a single store; pinned reads gate on the *cluster* epoch (published
/// only once every shard applied the batch). Composes with
/// `--replicas` (each shard gets its own replica set) and `--wal` (the
/// journal logs globally, the partition is recomputed at boot).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use csag::cluster::{ReplListener, Router, ShardedRouter};
    use csag::engine::ApplyError;
    use csag::service::{parse_wire_request, rejection_to_json, response_to_json};
    use csag::service::{Service, ServiceConfig};
    use std::io::{BufRead, Write};
    use std::sync::Arc;

    const SERVE_FLAGS: FlagSet = &[
        ("replicas", 1),
        ("shards", 1),
        ("shard-halo", 1),
        ("wal", 1),
        ("metrics", 0),
        ("repl-listen", 1),
        ("repl-uds", 1),
    ];
    let flags = parse_flags("serve", args, &[SERVE_FLAGS, SERVING_FLAGS, REPLICA_FLAGS])?;
    // `--follow` turns this invocation into a replica: the store is fed
    // by a primary's replication stream instead of local writes (and
    // only the replica's own flags apply).
    if flags.has("follow") {
        return cmd_replica(args);
    }
    let g = load(&flags)?;
    let mut config = ServiceConfig::default();
    if let Some(w) = flags.get::<usize>("workers")? {
        config = config.with_workers(w);
    }
    if let Some(c) = flags.get::<usize>("capacity")? {
        config = config.with_capacity(c);
    }
    let replicas = flags.get::<usize>("replicas")?.unwrap_or(0);
    let wal = flags.get::<String>("wal")?;
    let repl_listen = flags.get::<String>("repl-listen")?;
    let repl_uds = flags.get::<String>("repl-uds")?;
    // Offering replication requires the router's write path (remote
    // members hang off it), even with zero in-process replicas.
    let want_repl = repl_listen.is_some() || repl_uds.is_some();
    let shards = flags.get::<usize>("shards")?.unwrap_or(0);
    let shard_halo = flags.get::<u32>("shard-halo")?.unwrap_or(1);
    if shards > 0 && want_repl {
        return Err("--repl-listen/--repl-uds cannot front a sharded cluster; \
             use --replicas N for per-shard replication"
            .to_string());
    }
    // With --wal, an already-initialized directory wins over the
    // positional graph: the server recovers to the exact pre-crash
    // epoch and announces it (`recovered {...}`) before any `listening`
    // line, so restart scripts can read the epoch they came back to.
    let (store, recovered) = wal_backed_store(g, wal.as_deref())?;
    if let Some(report) = recovered {
        println!("recovered {}", report.to_json());
    }
    let store = Arc::new(store);
    let mut repl_listeners = Vec::new();
    // The topology decides three things at once: what the service reads
    // from, what the write feed applies through (a cluster must be
    // written through its router), and what `--metrics` adds.
    type Apply = Box<dyn Fn(&[GraphUpdate]) -> Result<UpdateReport, ApplyError>>;
    type ClusterMetrics = Box<dyn Fn() -> Option<String>>;
    let (service, apply, cluster_metrics): (Service, Apply, ClusterMetrics) = if shards > 0 {
        let sharded = Arc::new(ShardedRouter::from_journal(
            store, shards, shard_halo, replicas,
        ));
        let (writer, reporter) = (Arc::clone(&sharded), Arc::clone(&sharded));
        (
            Service::over_shards(sharded, config),
            Box::new(move |batch| writer.apply(batch)),
            Box::new(move || Some(reporter.metrics().to_json())),
        )
    } else if replicas > 0 || want_repl {
        let router = Arc::new(Router::new(store, replicas));
        // Replication endpoints announce themselves before the serving
        // `listening` lines, so scripts can hand followers the address
        // first.
        if let Some(addr) = &repl_listen {
            let l = ReplListener::bind_tcp(Arc::clone(&router), addr.as_str())
                .map_err(|e| format!("binding repl tcp {addr}: {e}"))?;
            println!("repl-listening {}", l.local_addr());
            repl_listeners.push(l);
        }
        if let Some(path) = &repl_uds {
            #[cfg(unix)]
            {
                let l = ReplListener::bind_uds(Arc::clone(&router), path)
                    .map_err(|e| format!("binding repl uds {path}: {e}"))?;
                println!("repl-listening {}", l.local_addr());
                repl_listeners.push(l);
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("--repl-uds needs a unix platform".to_string());
            }
        }
        let (writer, reporter) = (Arc::clone(&router), Arc::clone(&router));
        (
            Service::over_cluster(router, config),
            Box::new(move |batch| writer.apply(batch)),
            Box::new(move || Some(reporter.metrics().to_json())),
        )
    } else {
        let writer = Arc::clone(&store);
        (
            Service::new(store, config),
            Box::new(move |batch| writer.apply(batch)),
            Box::new(|| None),
        )
    };
    let service = Arc::new(service);

    // Socket mode: serve the bound transports until killed.
    let transports = bind_transports(&flags, &service)?;
    if !transports.is_empty() {
        std::io::stdout()
            .flush()
            .map_err(|e| format!("writing stdout: {e}"))?;
        eprintln!(
            "serve: csag-wire v2 on {} transport(s) — pipelined, responses matched by id; \
             kill the process to stop",
            transports.len()
        );
        // Socket mode keeps stdin as a write feed: each `csag-updates
        // v1` line applies as a one-update batch through the serving
        // store (the router, when replicated — so remote followers see
        // it too), echoing `applied <epoch>` so drivers can pin reads
        // to what they just wrote. EOF closes the feed but the server
        // keeps serving until killed.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("reading stdin: {e}"))?;
            let text = line.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let update = match GraphUpdate::parse_line(text) {
                Ok(u) => u,
                Err(e) => {
                    eprintln!("serve: ignoring malformed update line: {e}");
                    continue;
                }
            };
            match apply(std::slice::from_ref(&update)) {
                Ok(report) => println!("applied {}", report.epoch),
                Err(e) => eprintln!("serve: update feed batch failed: {e}"),
            }
            std::io::stdout()
                .flush()
                .map_err(|e| format!("writing stdout: {e}"))?;
        }
        if flags.has("metrics") {
            println!("{}", service.metrics().to_json());
            if let Some(json) = cluster_metrics() {
                println!("{json}");
            }
            std::io::stdout()
                .flush()
                .map_err(|e| format!("writing stdout: {e}"))?;
        }
        eprintln!("serve: stdin feed closed; still serving — kill the process to stop");
        loop {
            std::thread::park();
        }
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut lines = 0usize;
    for (line_no, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let rendered = match parse_wire_request(&line, line_no) {
            Err(msg) => rejection_to_json(&line_no.to_string(), &CsagError::invalid(msg)),
            Ok(wire) => match service.submit(wire.request) {
                Err(err) => rejection_to_json(&wire.id, &err),
                Ok(ticket) => response_to_json(&wire.id, &ticket.wait()),
            },
        };
        writeln!(out, "{rendered}").map_err(|e| format!("writing stdout: {e}"))?;
    }
    let snapshot = service.metrics();
    if flags.has("metrics") {
        writeln!(out, "{}", snapshot.to_json()).map_err(|e| format!("writing stdout: {e}"))?;
        if let Some(json) = cluster_metrics() {
            writeln!(out, "{json}").map_err(|e| format!("writing stdout: {e}"))?;
        }
    }
    eprintln!(
        "serve: {lines} request line(s) — admitted {}, shed {}, coalesced {}, \
         {} computation(s), warm-hit ratio {:.2}",
        snapshot.admitted,
        snapshot.shed,
        snapshot.coalesced,
        snapshot.executed,
        snapshot.warm_hit_ratio
    );
    Ok(())
}

/// `csag replica`: a remote replica process. Follows a primary's
/// `--repl-listen` / `--repl-uds` endpoint over `csag-repl v1` (an
/// optional positional graph seeds the store so the first handshake
/// can stream instead of shipping a snapshot), keeps its store in
/// epoch lockstep by applying the record stream, and serves reads over
/// its own `csag-wire v2` sockets — answers at epoch `E` are
/// byte-identical to the primary's at `E`. Prints `following <addr>
/// epoch <E>` once synced, then the usual `listening ...` lines.
/// Dropped connections reconnect (and reseed) forever; kill the
/// process to stop.
fn cmd_replica(args: &[String]) -> Result<(), String> {
    use csag::cluster::{Follower, FollowerConfig};
    use csag::service::{Service, ServiceConfig};
    use std::io::Write;
    use std::sync::Arc;

    let flags = parse_flags("replica", args, &[REPLICA_FLAGS, SERVING_FLAGS])?;
    let addr: String = flags.require("follow")?;
    let mut config = FollowerConfig::default();
    if let Some(name) = flags.get::<String>("name")? {
        config.name = name;
    }
    if let Some(path) = flags.positional.first() {
        let g = load_graph(path).map_err(|e| format!("loading {path}: {e}"))?;
        config.seed = Some(Arc::new(g));
    }
    let follower = Follower::start(&addr, config).map_err(|e| format!("following {addr}: {e}"))?;
    // Block until the first session syncs: clients connecting after the
    // `following` line never see the pre-replication empty store.
    while !(follower.synced() && follower.connected()) {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("following {addr} epoch {}", follower.epoch());

    let mut sconfig = ServiceConfig::default().with_epoch_wait(Duration::from_secs(5));
    if let Some(w) = flags.get::<usize>("workers")? {
        sconfig = sconfig.with_workers(w);
    }
    if let Some(c) = flags.get::<usize>("capacity")? {
        sconfig = sconfig.with_capacity(c);
    }
    let service = Arc::new(Service::new(Arc::clone(follower.store()), sconfig));

    let transports = bind_transports(&flags, &service)?;
    if transports.is_empty() {
        return Err("a replica serves csag-wire v2 sockets; pass --listen and/or --uds".into());
    }
    std::io::stdout()
        .flush()
        .map_err(|e| format!("writing stdout: {e}"))?;
    eprintln!(
        "replica: following {addr}, serving csag-wire v2 on {} transport(s); \
         kill the process to stop",
        transports.len()
    );
    loop {
        std::thread::park();
    }
}

/// Binds the `--listen` (TCP) and `--uds` transports a serving command
/// was asked for, announcing each bound address on stdout (scripts read
/// the ephemeral port from the `listening tcp://...` line). Empty when
/// neither flag is given.
fn bind_transports(
    flags: &Flags,
    service: &std::sync::Arc<csag::service::Service>,
) -> Result<Vec<csag::service::Transport>, String> {
    use csag::service::Transport;
    use std::sync::Arc;

    let mut transports = Vec::new();
    if let Some(addr) = flags.get::<String>("listen")? {
        let t = Transport::bind_tcp(Arc::clone(service), addr.as_str())
            .map_err(|e| format!("binding tcp {addr}: {e}"))?;
        println!("listening {}", t.local_addr());
        transports.push(t);
    }
    if let Some(path) = flags.get::<String>("uds")? {
        #[cfg(unix)]
        {
            let t = Transport::bind_uds(Arc::clone(service), &path)
                .map_err(|e| format!("binding uds {path}: {e}"))?;
            println!("listening {}", t.local_addr());
            transports.push(t);
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err("--uds needs a unix platform".to_string());
        }
    }
    Ok(transports)
}

fn cmd_baseline(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("baseline", args, &[SEARCH_FLAGS, METHOD_FLAG])?;
    let g = load(&flags)?;
    let method: String = flags.require("method")?;
    let method: Method = method.parse().map_err(|e: CsagError| e.to_string())?;
    if !matches!(
        method,
        Method::Acq | Method::Atc | Method::Vac | Method::EVac
    ) {
        return Err(format!(
            "`{method}` is not a baseline; use the `exact` / `sea` commands"
        ));
    }
    let query = query_of(&flags, method)?;
    run_and_render(g, &query, flags.has("json"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    const FLAGS: FlagSet = &[("nodes", 1), ("communities", 1), ("seed", 1), ("out", 1)];
    let flags = parse_flags("generate", args, &[FLAGS])?;
    let nodes: usize = flags.require("nodes")?;
    let communities: usize = flags.require("communities")?;
    let seed = flags.get::<u64>("seed")?.unwrap_or(0);
    let out: String = flags.require("out")?;
    let cfg = SyntheticConfig {
        nodes,
        communities,
        ..Default::default()
    };
    let (g, truth) = generate(&cfg, seed);
    save_graph(&g, &out).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} nodes, {} edges, {} planted communities",
        g.n(),
        g.m(),
        truth.len()
    );
    Ok(())
}

fn write_report_json(r: &UpdateReport, w: &mut Writer) {
    w.begin_object();
    w.key("epoch").uint(r.epoch);
    for (key, count) in [
        ("edges_added", r.edges_added),
        ("edges_removed", r.edges_removed),
        ("vertices_added", r.vertices_added),
        ("attributes_set", r.attributes_set),
        ("noops", r.noops),
        ("coreness_changed", r.coreness_changed),
        ("distance_tables_retained", r.distance_tables_retained),
        ("distance_tables_invalidated", r.distance_tables_invalidated),
    ] {
        w.key(key).uint(count as u64);
    }
    w.end_object();
}

/// `csag update`: apply a `csag-updates v1` script to a graph through the
/// evolving-graph store, report what changed, optionally save the new
/// snapshot. With `--wal <dir>` the batch is durably logged first (an
/// initialized directory is recovered before the batch applies; the
/// recovery report goes to stderr so `--json` stdout stays one object).
fn cmd_update(args: &[String]) -> Result<(), String> {
    const FLAGS: FlagSet = &[("script", 1), ("out", 1), ("wal", 1), ("json", 0)];
    let flags = parse_flags("update", args, &[FLAGS])?;
    let g = load(&flags)?;
    let script_path: String = flags.require("script")?;
    let script =
        std::fs::read_to_string(&script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let updates = GraphUpdate::parse_script(&script).map_err(|e| format!("{script_path}: {e}"))?;

    let (store, recovered) = wal_backed_store(g, flags.get::<String>("wal")?.as_deref())?;
    if let Some(report) = recovered {
        // stderr, so `--json` stdout stays one object.
        eprintln!("recovered {}", report.to_json());
    }
    let t = Instant::now();
    let report = store
        .apply(&updates)
        .map_err(|e| format!("applying updates: {e}"))?;
    let elapsed_ms = t.elapsed().as_secs_f64() * 1000.0;
    let snap = store.snapshot();
    if flags.has("json") {
        let mut w = Writer::new();
        w.begin_object();
        w.key("applied").uint(updates.len() as u64);
        w.key("elapsed_ms").fixed(elapsed_ms, 3);
        w.key("nodes").uint(snap.graph().n() as u64);
        w.key("edges").uint(snap.graph().m() as u64);
        write_report_json(&report, w.key("report"));
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "applied {} update(s) in {elapsed_ms:.2} ms → epoch {}: \
             +{} / -{} edges, +{} vertices, {} attribute change(s), {} no-op(s)",
            updates.len(),
            report.epoch,
            report.edges_added,
            report.edges_removed,
            report.vertices_added,
            report.attributes_set,
            report.noops
        );
        println!(
            "now {} nodes / {} edges; {} node(s) changed core number",
            snap.graph().n(),
            snap.graph().m(),
            report.coreness_changed
        );
    }
    if let Some(out) = flags.get::<String>("out")? {
        save_graph(snap.graph(), &out).map_err(|e| format!("writing {out}: {e}"))?;
        if !flags.has("json") {
            println!("updated graph written to {out}");
        }
    }
    Ok(())
}

/// Opens the one store a command runs on: plain when `wal` is `None`;
/// otherwise WAL-backed — recovering the directory when it is already
/// initialized (the report is handed back so the caller chooses the
/// stream it is announced on), creating it seeded from `g` when not.
fn wal_backed_store(
    g: AttributedGraph,
    wal: Option<&str>,
) -> Result<(GraphStore, Option<csag::durability::RecoveryReport>), String> {
    match wal {
        None => Ok((GraphStore::new(g), None)),
        Some(dir) if csag::durability::wal_dir_initialized(dir) => {
            let (store, report) =
                GraphStore::recover(dir).map_err(|e| format!("recovering wal {dir}: {e}"))?;
            Ok((store, Some(report)))
        }
        Some(dir) => GraphStore::with_wal(g, dir)
            .map(|store| (store, None))
            .map_err(|e| format!("initializing wal {dir}: {e}")),
    }
}

/// `csag wal-churn`: churn a WAL-backed store with seeded random update
/// batches. With `--plan-out` every batch is written (and fsynced) to
/// the plan file *before* it is applied, so after a `kill -9` the plan
/// covers at least every batch the log made durable — CI's crash-smoke
/// gate kills this mid-run, restarts with `csag serve --wal`, and
/// byte-diffs the recovered server's answers against a fresh engine fed
/// the plan's first `epoch` batches.
fn cmd_wal_churn(args: &[String]) -> Result<(), String> {
    use std::io::Write;

    const FLAGS: FlagSet = &[
        ("wal", 1),
        ("plan-out", 1),
        ("batches", 1),
        ("seed", 1),
        ("sleep-ms", 1),
    ];
    let flags = parse_flags("wal-churn", args, &[FLAGS])?;
    let batches: usize = flags.get("batches")?.unwrap_or(64);
    let seed: u64 = flags.get("seed")?.unwrap_or(0xC0FFEE);
    let sleep_ms: u64 = flags.get("sleep-ms")?.unwrap_or(0);
    let dir: String = flags.require("wal")?;
    let g = load(&flags)?;
    let (store, recovered) = wal_backed_store(g, Some(&dir))?;
    if let Some(report) = recovered {
        eprintln!("recovered {}", report.to_json());
    }

    let mut plan = match flags.get::<String>("plan-out")? {
        Some(p) => {
            let file = std::fs::File::create(&p).map_err(|e| format!("creating {p}: {e}"))?;
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };
    let start_epoch = store.published_epoch();
    let mut rng = StdRng::seed_from_u64(seed);
    for batch_no in 0..batches {
        let batch = random_updates(store.snapshot().graph(), &mut rng, 5, ChurnMix::MIXED);
        if let Some(out) = &mut plan {
            // Plan-before-apply: the `# batch` header and the batch's
            // csag-updates v1 lines hit the disk before the store (and
            // therefore the WAL) sees them.
            writeln!(out, "# batch {}", start_epoch + batch_no as u64 + 1)
                .map_err(|e| format!("writing plan: {e}"))?;
            for u in &batch {
                writeln!(out, "{}", u.to_line()).map_err(|e| format!("writing plan: {e}"))?;
            }
            out.flush().map_err(|e| format!("flushing plan: {e}"))?;
            out.get_ref()
                .sync_data()
                .map_err(|e| format!("syncing plan: {e}"))?;
        }
        store
            .apply(&batch)
            .map_err(|e| format!("batch {batch_no}: {e}"))?;
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
    }
    println!(
        "wal-churn: {batches} batch(es) applied → epoch {}",
        store.published_epoch()
    );
    Ok(())
}

/// The Figure 2(c)/Figure 3 example graph (γ = 0 queries, q = 5).
fn figure3_graph() -> (AttributedGraph, u32) {
    let mut b = GraphBuilder::new(1);
    for &x in &[1.0, 0.7, 0.6, 0.6, 0.5, 0.0, 0.3] {
        b.add_node(&[], &[x]);
    }
    for (u, v) in [
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 6),
        (4, 5),
        (5, 6),
        (4, 6),
        (1, 5),
    ] {
        b.add_edge(u, v).unwrap();
    }
    (b.build().unwrap(), 5)
}

/// The pinned query set replayed after every churn batch (node ids are
/// clamped into the graph at run time, so late epochs stay covered).
fn churn_queries(q: u32) -> Vec<CommunityQuery> {
    vec![
        CommunityQuery::new(Method::Exact, q).with_k(3),
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_error_bound(0.05)
            .with_seed(11),
        CommunityQuery::new(Method::Exact, q)
            .with_k(2)
            .with_gamma(0.0),
        CommunityQuery::new(Method::Exact, q)
            .with_k(3)
            .with_model(csag::decomp::CommunityModel::KTruss),
    ]
}

/// Renders an engine outcome into a comparable fingerprint: community +
/// exact δ bits on success, the full message on failure.
fn outcome_fingerprint(r: Result<&CommunityResult, &CsagError>) -> String {
    match r {
        Ok(res) => format!("ok:{:?}:{:x}", res.community, res.delta.to_bits()),
        Err(e) => format!("err:{e}"),
    }
}

/// `csag serve-churn`: apply N random update batches to the paper's
/// pinned examples (Figure 1 IMDB, Figure 3) and, after every batch,
/// re-answer the pinned queries *through the serving layer* (a
/// `csag::service::Service` over the evolving store — the same
/// admission/scheduler path `csag serve` uses) and on a fresh engine
/// built from the post-churn graph. Any divergence is a bug; the
/// command exits non-zero (this is CI's churn-smoke gate).
fn cmd_serve_churn(args: &[String]) -> Result<(), String> {
    use csag::service::{Request, Service, ServiceConfig};

    const FLAGS: FlagSet = &[("batches", 1), ("seed", 1), ("json", 0)];
    let flags = parse_flags("serve-churn", args, &[FLAGS])?;
    let batches: usize = flags.get("batches")?.unwrap_or(6);
    let seed: u64 = flags.get("seed")?.unwrap_or(0xC0FFEE);
    let json = flags.has("json");

    let (fig1, q1) = figure1_imdb();
    let (fig3, q3) = figure3_graph();
    let mut total_checks = 0usize;
    let mut mismatches = 0usize;
    let mut epoch_mismatches = 0usize;
    let mut retained = 0usize;
    let mut invalidated = 0usize;
    let mut served = 0u64;
    let mut apply_ms = Vec::new();

    for (name, graph, q) in [("fig1", fig1, q1), ("fig3", fig3, q3)] {
        let store = std::sync::Arc::new(GraphStore::new(graph));
        let service = Service::new(
            std::sync::Arc::clone(&store),
            ServiceConfig::default().with_workers(2),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ q as u64);
        // Warm the store's caches so carry-over is actually exercised.
        for query in churn_queries(q) {
            let _ = service.run(Request::new(query));
        }
        for batch_no in 0..batches {
            let batch = random_updates(store.snapshot().graph(), &mut rng, 5, ChurnMix::MIXED);
            let t = Instant::now();
            let report = store
                .apply(&batch)
                .map_err(|e| format!("{name} batch {batch_no}: {e}"))?;
            apply_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            retained += report.distance_tables_retained;
            invalidated += report.distance_tables_invalidated;

            let snap = store.snapshot();
            let fresh = Engine::new(snap.graph().clone());
            for query in churn_queries(q) {
                let response = service
                    .run(Request::new(query.clone()))
                    .map_err(|e| format!("{name} epoch {}: submit failed: {e}", report.epoch))?;
                let rebuilt = fresh.run(&query);
                total_checks += 1;
                // The service must answer from the freshly published
                // epoch — pinned-at-admission, not a stale snapshot.
                if response.epoch != report.epoch {
                    epoch_mismatches += 1;
                    eprintln!(
                        "EPOCH MISMATCH {name}: served {} but store is at {}",
                        response.epoch, report.epoch
                    );
                }
                let a = outcome_fingerprint(response.outcome.as_ref().map(|arc| arc.as_ref()));
                let b = outcome_fingerprint(rebuilt.as_ref());
                if a != b {
                    mismatches += 1;
                    eprintln!(
                        "MISMATCH {name} epoch {} ({:?}): served {a} vs fresh {b}",
                        report.epoch, query.method
                    );
                }
            }
        }
        served += service.metrics().completed;
    }

    let mean_apply = apply_ms.iter().sum::<f64>() / apply_ms.len().max(1) as f64;
    if json {
        let mut w = Writer::new();
        w.begin_object();
        w.key("batches").uint(batches as u64);
        w.key("checks").uint(total_checks as u64);
        w.key("mismatches").uint(mismatches as u64);
        w.key("epoch_mismatches").uint(epoch_mismatches as u64);
        w.key("served").uint(served);
        w.key("mean_apply_ms").fixed(mean_apply, 3);
        w.key("distance_tables_retained").uint(retained as u64);
        w.key("distance_tables_invalidated")
            .uint(invalidated as u64)
            .end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "serve-churn: {batches} batch(es) × 2 graphs, {total_checks} service answers \
             diffed against fresh engines → {mismatches} mismatch(es), \
             {epoch_mismatches} epoch mismatch(es)"
        );
        println!(
            "mean apply latency {mean_apply:.2} ms; distance tables retained {retained}, \
             invalidated {invalidated}; {served} request(s) served"
        );
    }
    if mismatches + epoch_mismatches > 0 {
        return Err(format!(
            "{} of {total_checks} service answers diverged from a fresh engine",
            mismatches + epoch_mismatches
        ));
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("demo", args, &[&[("json", 0)]])?;
    let (g, q) = figure1_imdb();
    let engine = Engine::new(g);
    let res = engine
        .run(&CommunityQuery::new(Method::Exact, q).with_k(3))
        .map_err(|e| e.to_string())?;
    if flags.has("json") {
        println!("{}", res.to_json());
        return Ok(());
    }
    println!(
        "Figure 1: IMDB snapshot, query = {}",
        FIGURE1_TITLES[q as usize]
    );
    println!("δ-optimal 3-core community (δ = {:.4}):", res.delta);
    for &v in &res.community {
        println!("  {}", FIGURE1_TITLES[v as usize]);
    }
    Ok(())
}
