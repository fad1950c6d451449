//! `csag` — command-line community search on attributed graphs.
//!
//! Every search command routes through the unified [`csag::engine`]: one
//! `Engine` per loaded graph, one `CommunityQuery` per run, typed errors
//! on stderr, and `--json` for machine-readable results. `csag help`
//! lists every command and flag; that text, the parser and the
//! unknown-flag error are all driven by the one command table
//! ([`COMMANDS`]).
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

use csag::cluster::{Follower, FollowerConfig, ReplListener, Router, ShardedRouter};
use csag::datasets::generator::{generate, SyntheticConfig};
use csag::datasets::paper_examples::{figure1_imdb, figure3_graph, FIGURE1_TITLES};
use csag::datasets::{random_updates, ChurnMix};
use csag::engine::{
    error_to_json, outcome_identity, CommunityQuery, CommunityResult, CsagError, Engine,
    GraphStore, GraphUpdate, Method, UpdateReport,
};
use csag::graph::io::{load_graph, save_graph};
use csag::graph::stats::graph_stats;
use csag::graph::AttributedGraph;
use csag::json::Writer;
use csag::service::transport::{read_capped_line, serve_session};
use csag::service::{Request, Service, ServiceConfig, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `--flag`: its name, how many values follow it, and where the
/// parser stores them (typed) in [`Args`].
type Flag = (
    &'static str,
    usize,
    fn(&mut Args, &str, &[String]) -> Result<(), String>,
);

/// Every flag any command reads, declared once; a command's table row
/// lists the names it admits.
const FLAGS: &[Flag] = &[
    ("method", 1, |a, n, v| set(&mut a.method, n, v)),
    ("query", 1, |a, n, v| set(&mut a.query, n, v)),
    ("k", 1, |a, n, v| set(&mut a.k, n, v)),
    ("gamma", 1, |a, n, v| set(&mut a.gamma, n, v)),
    ("truss", 0, |a, _, _| on(&mut a.truss)),
    ("budget-ms", 1, |a, n, v| set(&mut a.budget_ms, n, v)),
    ("error", 1, |a, n, v| set(&mut a.error, n, v)),
    ("confidence", 1, |a, n, v| set(&mut a.confidence, n, v)),
    ("lambda", 1, |a, n, v| set(&mut a.lambda, n, v)),
    ("seed", 1, |a, n, v| set(&mut a.seed, n, v)),
    ("size", 2, |a, _, v| {
        let lower = v[0].parse().map_err(|_| "bad --size lower bound")?;
        let upper = v[1].parse().map_err(|_| "bad --size upper bound")?;
        a.size = Some((lower, upper));
        Ok(())
    }),
    ("json", 0, |a, _, _| on(&mut a.json)),
    ("nodes", 1, |a, n, v| set(&mut a.nodes, n, v)),
    ("communities", 1, |a, n, v| set(&mut a.communities, n, v)),
    ("out", 1, |a, n, v| set(&mut a.out, n, v)),
    ("script", 1, |a, n, v| set(&mut a.script, n, v)),
    ("wal", 1, |a, n, v| set(&mut a.wal, n, v)),
    ("workers", 1, |a, n, v| set(&mut a.workers, n, v)),
    ("capacity", 1, |a, n, v| set(&mut a.capacity, n, v)),
    ("listen", 1, |a, n, v| set(&mut a.listen, n, v)),
    ("uds", 1, |a, n, v| set(&mut a.uds, n, v)),
    ("metrics", 0, |a, _, _| on(&mut a.metrics)),
    ("replicas", 1, |a, n, v| set(&mut a.replicas, n, v)),
    ("shards", 1, |a, n, v| set(&mut a.shards, n, v)),
    ("shard-halo", 1, |a, n, v| set(&mut a.shard_halo, n, v)),
    ("repl-listen", 1, |a, n, v| set(&mut a.repl_listen, n, v)),
    ("repl-uds", 1, |a, n, v| set(&mut a.repl_uds, n, v)),
    ("follow", 1, |a, n, v| set(&mut a.follow, n, v)),
    ("name", 1, |a, n, v| set(&mut a.name, n, v)),
    ("batches", 1, |a, n, v| set(&mut a.batches, n, v)),
    ("plan-out", 1, |a, n, v| set(&mut a.plan_out, n, v)),
    ("sleep-ms", 1, |a, n, v| set(&mut a.sleep_ms, n, v)),
];

fn set<T: std::str::FromStr>(slot: &mut Option<T>, flag: &str, v: &[String]) -> Result<(), String> {
    let unparsed = |_| format!("--{flag}: cannot parse `{}`", v[0]);
    *slot = Some(v[0].parse().map_err(unparsed)?);
    Ok(())
}

fn on(slot: &mut bool) -> Result<(), String> {
    *slot = true;
    Ok(())
}

/// What a search reads — shared by `query`, `exact`, `sea` and
/// `baseline` (`--method` only by the two that take one).
const SEARCH_FLAGS: &[&str] = &[
    "query",
    "k",
    "gamma",
    "truss",
    "budget-ms",
    "error",
    "confidence",
    "lambda",
    "seed",
    "size",
    "json",
];
/// What `serve` and `replica` both take: scheduler knobs, serving
/// sockets, and — `serve --follow` being a replica — whom to follow.
const SERVING_FLAGS: &[&str] = &["workers", "capacity", "listen", "uds", "follow", "name"];
/// What only a primary takes: its topology, its log, its endpoints.
const PRIMARY_FLAGS: &[&str] = &[
    "replicas",
    "shards",
    "shard-halo",
    "wal",
    "metrics",
    "repl-listen",
    "repl-uds",
];

/// One row of the command table.
struct Command {
    name: &'static str,
    /// What follows the name under `commands:` in the usage text.
    synopsis: &'static str,
    /// The command's flags paragraph of the usage text, if it has one.
    help: &'static str,
    /// The [`FLAGS`] it reads; any other `--flag` is an error.
    flags: &'static [&'static [&'static str]],
    run: fn(Args) -> Result<(), String>,
}

/// The command table: dispatch, parsing, the unknown-flag error and
/// [`usage`] all read it.
static COMMANDS: [Command; 12] = [
    Command {
        name: "stats",
        synopsis: "<graph.txt>                      graph statistics",
        help: "",
        flags: &[],
        run: cmd_stats,
    },
    Command {
        name: "query",
        synopsis: "<graph.txt> --method M --query Q --k K   any method through one command",
        help: "common flags: --gamma G (0..1, default 0.5)  --truss  --seed S  --json\n\
               --budget-ms MS (stop early, report best found; unbounded by default)",
        flags: &[SEARCH_FLAGS, &["method"]],
        run: cmd_search,
    },
    Command {
        name: "exact",
        synopsis: "<graph.txt> --query Q --k K      exact CS-AG (δ-optimal community)",
        help: "",
        flags: &[SEARCH_FLAGS],
        run: cmd_search,
    },
    Command {
        name: "sea",
        synopsis: "<graph.txt> --query Q --k K      approximate CS-AG with accuracy guarantee",
        help: "sea flags:    --error E (default 0.02)  --confidence C (default 0.95)\n\
               --lambda L (default 0.2)  --size L H (size-bounded search)",
        flags: &[SEARCH_FLAGS],
        run: cmd_search,
    },
    Command {
        name: "baseline",
        synopsis: "<graph.txt> --method M ...       run acq | atc | vac | evac",
        help: "",
        flags: &[SEARCH_FLAGS, &["method"]],
        run: cmd_search,
    },
    Command {
        name: "generate",
        synopsis: "--nodes N --communities C ...    write a synthetic attributed graph",
        help: "",
        flags: &[&["nodes", "communities", "seed", "out"]],
        run: cmd_generate,
    },
    Command {
        name: "update",
        synopsis: "<graph.txt> --script <u.txt>      apply a GraphUpdate batch via GraphStore",
        help: "update flags: --script <updates.txt> (csag-updates v1)  --out <new-graph.txt>\n\
               --wal <dir> (durably log the batch; recovers the dir first if initialized)",
        flags: &[&["script", "out", "wal", "json"]],
        run: cmd_update,
    },
    Command {
        name: "serve",
        synopsis: "<graph.txt>                       csag-wire service: v1 on stdin/stdout, or\n\
                   pipelined v2 sockets via --listen / --uds",
        help: "serve flags:  --workers N  --capacity N (admission bound)  --metrics (snapshot on exit)\n\
               --shards N (partition the graph into N shard stores; a read the planner\n\
               \x20 cannot prove local runs on the journal; --shard-halo R sets the ghost\n\
               \x20 radius, default 1; composes with --replicas, which then replicates per\n\
               \x20 shard, and --wal)\n\
               --replicas N (replicated stores behind the epoch-consistent csag::cluster\n\
               router; reads balance, `\"epoch\"`-pinned reads stay consistent)\n\
               --wal <dir> (write-ahead log + checkpoints; an initialized dir is\n\
               recovered to the exact pre-crash epoch and announced as `recovered {...}`\n\
               before any `listening` line)\n\
               --listen <ip:port> (TCP csag-wire v2; port 0 = ephemeral, bound address\n\
               is printed as `listening tcp://...`)  --uds <path> (unix-domain socket)\n\
               --repl-listen <ip:port> / --repl-uds <path> (csag-repl v1 replication\n\
               endpoint for `csag replica` followers, printed as `repl-listening ...`;\n\
               in socket mode stdin becomes a csag-updates v1 write feed)",
        flags: &[PRIMARY_FLAGS, SERVING_FLAGS],
        run: cmd_serve,
    },
    Command {
        name: "replica",
        synopsis: "[seed.txt] --follow <addr>        remote replica: follow a primary's --repl-listen\n\
                   stream, serve byte-identical reads via --listen/--uds",
        help: "replica flags: --follow <addr> (tcp://host:port or a socket path; required)\n\
               --name N (member name on the primary)  --listen / --uds (serving sockets)\n\
               [seed-graph.txt] (skip the initial snapshot ship when you have the\n\
               primary's epoch-0 graph)",
        flags: &[SERVING_FLAGS],
        run: cmd_serve,
    },
    Command {
        name: "serve-churn",
        synopsis: "[--batches N]                  churn the paper's examples, verify vs fresh engines",
        help: "",
        flags: &[&["batches", "seed", "json"]],
        run: cmd_serve_churn,
    },
    Command {
        name: "wal-churn",
        synopsis: "<graph.txt> --wal <dir>          churn a WAL-backed store (crash-recovery smoke driver)",
        help: "wal-churn flags: --wal <dir>  --plan-out <plan.txt> (every batch written+synced *before*\n\
               it is applied, so the plan covers the durable prefix after a crash)\n\
               --batches N  --seed S  --sleep-ms MS (pacing, so a killer lands mid-run)",
        flags: &[&["wal", "plan-out", "batches", "seed", "sleep-ms"]],
        run: cmd_wal_churn,
    },
    Command {
        name: "demo",
        synopsis: "                                  the paper's Figure-1 IMDB example",
        help: "",
        flags: &[&["json"]],
        run: cmd_demo,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        usage();
        exit(2);
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => cmd.parse(&args[1..]).and_then(cmd.run),
        None if matches!(name.as_str(), "help" | "--help" | "-h") => {
            usage();
            Ok(())
        }
        None => Err(format!("unknown command `{name}`")),
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        exit(1);
    }
}

/// Prints the usage text: every command's synopsis, then every flags
/// paragraph, in table order (continuation lines hang under the text).
fn usage() {
    eprintln!("csag — community search on attributed graphs\n\ncommands:");
    for cmd in &COMMANDS {
        let synopsis = cmd.synopsis.replace('\n', &format!("\n{:45}", ""));
        eprintln!("  {:<8} {synopsis}", cmd.name);
    }
    eprintln!();
    for cmd in COMMANDS.iter().filter(|cmd| !cmd.help.is_empty()) {
        eprintln!("{}", cmd.help.replace('\n', &format!("\n{:14}", "")));
    }
}

/// A parsed command line — one typed struct for every command: the
/// table admits only the flags a command reads, so the others stay
/// `None` / `false`, and defaults belong to the command that owns them.
#[derive(Default)]
struct Args {
    /// The command's table name (`serve --follow` parses as `replica`).
    cmd: &'static str,
    positional: Vec<String>,
    method: Option<String>,
    query: Option<u32>,
    k: Option<u32>,
    gamma: Option<f64>,
    truss: bool,
    budget_ms: Option<u64>,
    error: Option<f64>,
    confidence: Option<f64>,
    lambda: Option<f64>,
    seed: Option<u64>,
    size: Option<(usize, usize)>,
    json: bool,
    nodes: Option<usize>,
    communities: Option<usize>,
    out: Option<String>,
    script: Option<String>,
    wal: Option<String>,
    workers: Option<usize>,
    capacity: Option<usize>,
    listen: Option<String>,
    uds: Option<String>,
    metrics: bool,
    replicas: Option<usize>,
    shards: Option<usize>,
    shard_halo: Option<u32>,
    repl_listen: Option<String>,
    repl_uds: Option<String>,
    follow: Option<String>,
    name: Option<String>,
    batches: Option<usize>,
    plan_out: Option<String>,
    sleep_ms: Option<u64>,
}

impl Command {
    /// The one parser: positionals, and each `--flag` this command
    /// admits stored — typed — by its [`FLAGS`] row; any other flag is
    /// an error naming the command.
    fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            cmd: self.name,
            ..Args::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                parsed.positional.push(a.clone());
                continue;
            };
            if !self.flags.iter().any(|set| set.contains(&name)) {
                return Err(format!("unknown flag --{name} for {}", self.name));
            }
            let declared = FLAGS.iter().find(|flag| flag.0 == name);
            let &(_, n, store) = declared.expect("every admitted flag is declared");
            let values: Vec<String> = it.by_ref().take(n).cloned().collect();
            if values.len() < n {
                return Err(format!("--{name} expects {n} value(s)"));
            }
            store(&mut parsed, name, &values)?;
        }
        if self.name == "serve" && parsed.follow.is_some() {
            // `serve --follow` is a replica: only its own flags apply.
            let replica = COMMANDS.iter().find(|c| c.name == "replica");
            return replica.expect("in the table").parse(args);
        }
        Ok(parsed)
    }
}

impl Args {
    /// Loads the positional graph file.
    fn graph(&self) -> Result<AttributedGraph, String> {
        let path = self.positional.first();
        let path = path.ok_or("a graph file is required (csag-graph v1 format)")?;
        load_graph(path).map_err(|e| format!("loading {path}: {e}"))
    }
}

/// `value`, or the error a missing `--flag` gets.
fn required<T>(value: Option<T>, flag: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("--{flag} is required"))
}

fn flush_stdout() -> Result<(), String> {
    let flushed = std::io::stdout().flush();
    flushed.map_err(|e| format!("writing stdout: {e}"))
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
        Some(c) if c.certified => print!(" (δ-optimal)"),
        Some(c) => print!(" (stopped; proven error bound {:.4e})", c.error_bound),
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
    if res.provenance.population_size > 0 {
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
    for &v in &res.community {
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

/// Runs a built query and renders the outcome (text or `--json`).
/// Exit status is consistent across both modes: an answer exits 0 (a
/// budget-stopped one included); an engine error exits non-zero (in
/// `--json` mode the error object still goes to stdout, with the
/// human-readable message on stderr).
fn run_and_render(g: AttributedGraph, query: &CommunityQuery, json: bool) -> Result<(), String> {
    let engine = Engine::new(g);
    match engine.run(query) {
        Ok(res) => {
            if json {
                println!("{}", res.to_json());
            } else {
                print_result(engine.graph(), &res);
            }
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

fn cmd_stats(args: Args) -> Result<(), String> {
    let g = args.graph()?;
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

/// `csag query` and its conveniences `exact` / `sea` (the method is the
/// command) and `baseline`: one search through the engine. `--json`
/// output is the one `CommunityResult` serializer, so it byte-matches
/// the `"result"` object of a `csag serve` response for the same query
/// (timings aside).
fn cmd_search(args: Args) -> Result<(), String> {
    let g = args.graph()?;
    let method = match args.cmd {
        "exact" => Method::Exact,
        "sea" => Method::Sea,
        _ => required(args.method.as_deref(), "method")?
            .parse()
            .map_err(|e: CsagError| e.to_string())?,
    };
    let baseline = matches!(
        method,
        Method::Acq | Method::Atc | Method::Vac | Method::EVac
    );
    if args.cmd == "baseline" && !baseline {
        return Err(format!(
            "`{method}` is not a baseline; use the `exact` / `sea` commands"
        ));
    }
    let (q, k) = (required(args.query, "query")?, required(args.k, "k")?);
    let mut query = CommunityQuery::new(method, q).with_k(k);
    if args.truss {
        query = query.with_model(csag::decomp::CommunityModel::KTruss);
    }
    if let Some(g) = args.gamma {
        query = query.with_gamma(g);
    }
    if let Some(ms) = args.budget_ms {
        query = query.with_time_budget(Duration::from_millis(ms));
    }
    if let Some(e) = args.error {
        query = query.with_error_bound(e);
    }
    if let Some(c) = args.confidence {
        query = query.with_confidence(c);
    }
    if let Some(l) = args.lambda {
        query = query.with_lambda(l);
    }
    if let Some(s) = args.seed {
        query = query.with_seed(s);
    }
    if let Some((l, h)) = args.size {
        query = query.with_size_bound(l, h);
        if query.method == Method::Sea {
            query = query.with_method(Method::SeaSizeBounded);
        }
    }
    // Build-time validation: degenerate parameters die here with a
    // precise message (and, in `--json` mode, an error object on
    // stdout) before the search starts.
    let query = query.build().map_err(|e| {
        if args.json {
            println!("{}", error_to_json(&e));
        }
        e.to_string()
    })?;
    run_and_render(g, &query, args.json)
}

fn cmd_generate(args: Args) -> Result<(), String> {
    let cfg = SyntheticConfig {
        nodes: required(args.nodes, "nodes")?,
        communities: required(args.communities, "communities")?,
        ..Default::default()
    };
    let out = required(args.out, "out")?;
    let (g, truth) = generate(&cfg, args.seed.unwrap_or(0));
    save_graph(&g, &out).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} nodes, {} edges, {} planted communities",
        g.n(),
        g.m(),
        truth.len()
    );
    Ok(())
}

/// `csag update`: apply a `csag-updates v1` script to a graph through the
/// evolving-graph store, report what changed, optionally save the new
/// snapshot. With `--wal <dir>` the batch is durably logged first (an
/// initialized directory is recovered before the batch applies; the
/// recovery report goes to stderr so `--json` stdout stays one object).
fn cmd_update(args: Args) -> Result<(), String> {
    let g = args.graph()?;
    let script_path = required(args.script.as_deref(), "script")?;
    let script =
        std::fs::read_to_string(script_path).map_err(|e| format!("reading {script_path}: {e}"))?;
    let updates = GraphUpdate::parse_script(&script).map_err(|e| format!("{script_path}: {e}"))?;

    let (store, recovered) = wal_backed_store(g, args.wal.as_deref())?;
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
    if args.json {
        let mut w = Writer::new();
        w.begin_object();
        w.key("applied").uint(updates.len() as u64);
        w.key("elapsed_ms").fixed(elapsed_ms, 3);
        w.key("nodes").uint(snap.graph().n() as u64);
        w.key("edges").uint(snap.graph().m() as u64);
        w.key("report").raw(&report.to_json());
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
    if let Some(out) = &args.out {
        save_graph(snap.graph(), out).map_err(|e| format!("writing {out}: {e}"))?;
        if !args.json {
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

/// What a serving process stands up behind its sockets. The variant
/// decides three things at once: what the service reads from, what the
/// write feed applies through (a cluster must be written through its
/// router, or its members permanently lag), and what `--metrics` adds.
enum Topology {
    Solo(Arc<GraphStore>),
    /// `--replicas N` and/or a replication endpoint (the listeners live
    /// as long as the router they feed from).
    Replicated {
        router: Arc<Router>,
        _listeners: Vec<ReplListener>,
    },
    /// `--shards N`; the partition is recomputed from the journal at boot.
    Sharded(Arc<ShardedRouter>),
    /// `--follow <addr>`: a store only the primary's stream writes.
    Follower(Follower),
}

impl Topology {
    /// The one place a topology is built. Announces on stdout, in the
    /// order scripts wait for them: `recovered {...}` (an initialized
    /// `--wal` directory wins over the positional graph and comes back
    /// at the exact pre-crash epoch), each `repl-listening <addr>`, or
    /// `following <addr> epoch <E>` once a replica's first session has
    /// synced — all before any serving `listening` line.
    fn build(args: &Args) -> Result<Topology, String> {
        if args.cmd == "replica" {
            let addr = required(args.follow.as_deref(), "follow")?;
            let mut config = FollowerConfig::default();
            if let Some(name) = &args.name {
                config.name = name.clone();
            }
            if !args.positional.is_empty() {
                // A seed lets the first handshake stream instead of
                // shipping a snapshot.
                config.seed = Some(Arc::new(args.graph()?));
            }
            let follower =
                Follower::start(addr, config).map_err(|e| format!("following {addr}: {e}"))?;
            // Clients connecting after the `following` line never see
            // the pre-replication empty store.
            follower.wait_connected(Duration::MAX);
            println!("following {addr} epoch {}", follower.epoch());
            return Ok(Topology::Follower(follower));
        }
        let g = args.graph()?;
        // Offering replication requires the router's write path (remote
        // members hang off it), even with zero in-process replicas.
        let want_repl = args.repl_listen.is_some() || args.repl_uds.is_some();
        let (shards, replicas) = (args.shards.unwrap_or(0), args.replicas.unwrap_or(0));
        if shards > 0 && want_repl {
            return Err("--repl-listen/--repl-uds cannot front a sharded cluster; \
                 use --replicas N for per-shard replication"
                .to_string());
        }
        let (store, recovered) = wal_backed_store(g, args.wal.as_deref())?;
        if let Some(report) = recovered {
            println!("recovered {}", report.to_json());
        }
        let store = Arc::new(store);
        if shards > 0 {
            let halo = args.shard_halo.unwrap_or(1);
            let sharded = ShardedRouter::from_journal(store, shards, halo, replicas);
            return Ok(Topology::Sharded(Arc::new(sharded)));
        }
        if replicas == 0 && !want_repl {
            return Ok(Topology::Solo(store));
        }
        let router = Arc::new(Router::new(store, replicas));
        let mut listeners = Vec::new();
        if let Some(addr) = &args.repl_listen {
            let l = ReplListener::bind_tcp(Arc::clone(&router), addr.as_str())
                .map_err(|e| format!("binding repl tcp {addr}: {e}"))?;
            println!("repl-listening {}", l.local_addr());
            listeners.push(l);
        }
        if let Some(path) = &args.repl_uds {
            #[cfg(unix)]
            {
                let l = ReplListener::bind_uds(Arc::clone(&router), path)
                    .map_err(|e| format!("binding repl uds {path}: {e}"))?;
                println!("repl-listening {}", l.local_addr());
                listeners.push(l);
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("--repl-uds needs a unix platform".to_string());
            }
        }
        Ok(Topology::Replicated {
            router,
            _listeners: listeners,
        })
    }

    /// The read side: a service over whatever this topology reads from.
    fn service(&self, config: ServiceConfig) -> Service {
        match self {
            Topology::Solo(store) => Service::new(Arc::clone(store), config),
            Topology::Replicated { router, .. } => {
                Service::over_cluster(Arc::clone(router), config)
            }
            Topology::Sharded(sharded) => Service::over_shards(Arc::clone(sharded), config),
            Topology::Follower(follower) => Service::new(
                Arc::clone(follower.store()),
                config.with_epoch_wait(Duration::from_secs(5)),
            ),
        }
    }

    /// The write side (a follower has none: only its primary's stream
    /// writes its store).
    fn apply(&self, batch: &[GraphUpdate]) -> Result<UpdateReport, String> {
        let applied = match self {
            Topology::Solo(store) => store.apply(batch),
            Topology::Replicated { router, .. } => router.apply(batch),
            Topology::Sharded(sharded) => sharded.apply(batch),
            Topology::Follower(_) => return Err("a replica takes no writes".into()),
        };
        applied.map_err(|e| e.to_string())
    }

    /// The `csag-cluster-metrics-v2` line `--metrics` adds, if any.
    fn cluster_metrics(&self) -> Option<String> {
        match self {
            Topology::Replicated { router, .. } => Some(router.metrics().to_json()),
            Topology::Sharded(sharded) => Some(sharded.metrics().to_json()),
            Topology::Solo(_) | Topology::Follower(_) => None,
        }
    }
}

/// `csag serve` / `csag replica`: the admission-controlled service on
/// the wire, over whichever [`Topology`] the flags ask for — v1 on
/// stdin/stdout, or v2 on the sockets until killed. Either way every
/// request takes the full `csag::service` path (admission, priorities,
/// deadlines, coalescing); a malformed or shed line answers with an
/// `"error"` envelope instead of killing the session; and `--metrics`
/// prints the service snapshot (plus the topology's cluster line) once
/// stdin closes.
fn cmd_serve(args: Args) -> Result<(), String> {
    let topology = Topology::build(&args)?;
    let mut config = ServiceConfig::default();
    if let Some(w) = args.workers {
        config = config.with_workers(w);
    }
    if let Some(c) = args.capacity {
        config = config.with_capacity(c);
    }
    let service = Arc::new(topology.service(config));
    let print_metrics = || {
        println!("{}", service.metrics().to_json());
        if let Some(json) = topology.cluster_metrics() {
            println!("{json}");
        }
    };

    let transports = bind_transports(&args, &service)?;
    if let Some(addr) = &args.follow {
        if transports.is_empty() {
            return Err("a replica serves csag-wire v2 sockets; pass --listen and/or --uds".into());
        }
        flush_stdout()?;
        eprintln!(
            "replica: following {addr}, serving csag-wire v2 on {} transport(s); \
             kill the process to stop",
            transports.len()
        );
    } else if transports.is_empty() {
        let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
        let lines = serve_session(&service, stdin.lock(), stdout.lock())
            .map_err(|e| format!("csag-wire v1 session: {e}"))?;
        let snapshot = service.metrics();
        if args.metrics {
            print_metrics();
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
        return Ok(());
    } else {
        flush_stdout()?;
        eprintln!(
            "serve: csag-wire v2 on {} transport(s) — pipelined, responses matched by id; \
             kill the process to stop",
            transports.len()
        );
        write_feed(&topology)?;
        if args.metrics {
            print_metrics();
            flush_stdout()?;
        }
        eprintln!("serve: stdin feed closed; still serving — kill the process to stop");
    }
    loop {
        std::thread::park();
    }
}

/// Socket mode keeps stdin as a write feed: each `csag-updates v1` line
/// applies as a one-update batch through the topology's write path (the
/// router, when replicated — so remote followers see it too), echoing
/// `applied <epoch>` so drivers can pin reads to what they just wrote.
/// Returns at EOF; the server keeps serving.
fn write_feed(topology: &Topology) -> Result<(), String> {
    let mut stdin = std::io::stdin().lock();
    let mut bytes = Vec::new();
    loop {
        let line = read_capped_line(&mut stdin, &mut bytes);
        let Some(line) = line.map_err(|e| format!("reading stdin: {e}"))? else {
            return Ok(());
        };
        let update = match line.map(str::trim) {
            Ok(text) if text.is_empty() || text.starts_with('#') => continue,
            line => line.and_then(GraphUpdate::parse_line),
        };
        match update.map(|u| topology.apply(&[u])) {
            Err(e) => eprintln!("serve: ignoring malformed update line: {e}"),
            Ok(Ok(report)) => println!("applied {}", report.epoch),
            Ok(Err(e)) => eprintln!("serve: update feed batch failed: {e}"),
        }
        flush_stdout()?;
    }
}

/// Binds the `--listen` (TCP) and `--uds` transports a serving command
/// was asked for, announcing each bound address on stdout (scripts read
/// the ephemeral port from the `listening tcp://...` line). Empty when
/// neither flag is given.
fn bind_transports(args: &Args, service: &Arc<Service>) -> Result<Vec<Transport>, String> {
    let mut transports = Vec::new();
    if let Some(addr) = &args.listen {
        let t = Transport::bind_tcp(Arc::clone(service), addr.as_str())
            .map_err(|e| format!("binding tcp {addr}: {e}"))?;
        println!("listening {}", t.local_addr());
        transports.push(t);
    }
    if let Some(path) = &args.uds {
        #[cfg(unix)]
        {
            let t = Transport::bind_uds(Arc::clone(service), path)
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

/// `csag wal-churn`: churn a WAL-backed store with seeded random update
/// batches. With `--plan-out` every batch is written (and fsynced) to
/// the plan file *before* it is applied, so after a `kill -9` the plan
/// covers at least every batch the log made durable — CI's crash-smoke
/// gate kills this mid-run, restarts with `csag serve --wal`, and
/// byte-diffs the recovered server's answers against a fresh engine fed
/// the plan's first `epoch` batches.
fn cmd_wal_churn(args: Args) -> Result<(), String> {
    let (batches, sleep_ms) = (args.batches.unwrap_or(64), args.sleep_ms.unwrap_or(0));
    let dir = required(args.wal.as_deref(), "wal")?;
    let (store, recovered) = wal_backed_store(args.graph()?, Some(dir))?;
    if let Some(report) = recovered {
        eprintln!("recovered {}", report.to_json());
    }

    let mut plan = match &args.plan_out {
        Some(p) => {
            let file = std::fs::File::create(p).map_err(|e| format!("creating {p}: {e}"))?;
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };
    let start_epoch = store.published_epoch();
    let mut rng = StdRng::seed_from_u64(args.seed.unwrap_or(0xC0FFEE));
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

/// The step budget of `churn_queries`' Exact rows: unbudgeted, the
/// k = 2, γ = 0 row goes exponential as the churned graph grows (49 s at
/// epoch 27). A step budget stops at the same step on every engine, so
/// served and fresh answers stay byte-comparable.
const CHURN_EXACT_STEPS: u64 = 2_000;

/// The pinned query set replayed after every churn batch (node ids are
/// clamped into the graph at run time, so late epochs stay covered).
fn churn_queries(q: u32) -> Vec<CommunityQuery> {
    vec![
        CommunityQuery::new(Method::Exact, q)
            .with_k(3)
            .with_step_budget(CHURN_EXACT_STEPS),
        CommunityQuery::new(Method::Sea, q)
            .with_k(3)
            .with_error_bound(0.05)
            .with_seed(11),
        CommunityQuery::new(Method::Exact, q)
            .with_k(2)
            .with_gamma(0.0)
            .with_step_budget(CHURN_EXACT_STEPS),
        CommunityQuery::new(Method::Exact, q)
            .with_k(3)
            .with_model(csag::decomp::CommunityModel::KTruss)
            .with_step_budget(CHURN_EXACT_STEPS),
        CommunityQuery::new(Method::Acq, q)
            .with_k(3)
            .with_model(csag::decomp::CommunityModel::KTruss),
        CommunityQuery::new(Method::Vac, q)
            .with_k(3)
            .with_model(csag::decomp::CommunityModel::KTruss),
    ]
}

/// `csag serve-churn`: apply N random update batches to the paper's
/// pinned examples (Figure 1 IMDB, Figure 3) and, after every batch,
/// re-answer the pinned queries *through the serving layer* (a
/// `csag::service::Service` over the evolving store — the same
/// admission/scheduler path `csag serve` uses) and on a fresh engine
/// built from the post-churn graph. Any divergence is a bug; the
/// command exits non-zero (this is CI's churn-smoke gate).
fn cmd_serve_churn(args: Args) -> Result<(), String> {
    let (batches, seed) = (args.batches.unwrap_or(6), args.seed.unwrap_or(0xC0FFEE));

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
        let store = Arc::new(GraphStore::new(graph));
        let service = Service::new(Arc::clone(&store), ServiceConfig::default().with_workers(2));
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
                // A fresh engine answers at epoch 0.
                let a = outcome_identity(&response.outcome, true);
                let b = outcome_identity(&rebuilt, true);
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
    if args.json {
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

fn cmd_demo(args: Args) -> Result<(), String> {
    let (g, q) = figure1_imdb();
    let engine = Engine::new(g);
    let res = engine
        .run(&CommunityQuery::new(Method::Exact, q).with_k(3))
        .map_err(|e| e.to_string())?;
    if args.json {
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
