//! The traced run (`--trace 1`): the same op list, measured layer by
//! layer, all from the benchmark's side of the public API.
//!
//! Three parts, in this order:
//!
//! 1. **Windowed passes** through the socket, alternating untraced and
//!    traced (the client records a `client.window_rtt` span per answered request inside
//!    the timed window): round trips under the workload's window, queue
//!    waits, service counters, and what tracing itself costs.
//! 2. **The peel**: one lock-step replay of the op list in which every
//!    read goes through the socket, then `Service::run`, then
//!    `route_read` + `RoutedSnapshot::run_with_workspace`, then
//!    `Engine::run_with_workspace` on a plain twin store — a layer's
//!    time is the difference between two levels — and every batch is
//!    applied to the live writer, to the twin, and piecewise to a
//!    `MutableGraph`, a `CoreMaintainer` and `patch_node_trussness`.
//!    The order of the four levels
//!    rotates from read to read, so none of them always finds the
//!    caches the way another left them.
//! 3. **Probes** of single layers on fresh twins: cold against warm
//!    distance tables, full decompositions, graph load, script parse,
//!    BLB, a WAL store against a plain one, a sharded router against a
//!    solo store.
//!
//! Every probe runs on every workload with that workload's own reads
//! and batches, so the metric set is the same everywhere and a layer
//! that idles on a workload reads as such.

use crate::estimate::{median, percentile, quartiles};
use crate::inputs::{script, Backend, Inputs, ReadOp, Spec, Step, READ_K};
use crate::json::Json;
use crate::metrics::Values;
use crate::run::{
    pass, prepare, render, setup, unit_layout, Best, Outcome, Prepared, Primed, Scratch, GRAPH_FILE,
};
use crate::stack::{wal_config, Lines, ReadLog, Writer, SHARDS};
use crate::trace::Trace;
use crate::verify::{self, classify, number_after, query_of, Answer};
use csag::cluster::{LogRecord, ReadSource, ShardedRouter};
use csag::core::distance::{DistanceParams, QueryDistances};
use csag::core::sea::grow_neighborhood;
use csag::decomp::{core_decomposition, node_max_trussness, patch_node_trussness, CoreMaintainer};
use csag::engine::{CommunityResult, Engine, GraphStore, GraphUpdate};
use csag::graph::alloc_counter::allocation_count;
use csag::graph::{Applied, MutableGraph, NodeId, QueryWorkspace};
use csag::service::{parse_wire_request, response_to_json};
use csag::stats::{min_population_size, Blb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Reads of one run that the peel takes (the light workload's 32 768
/// would spend minutes in lock-step).
const PEEL_READS: usize = 4_096;
/// Distinct reads a probe samples.
const PROBE_READS: usize = 16;
/// Request trees written to the trace file (totals cover all).
const TRACE_FILE_REQUESTS: usize = 64;
/// Request numbers of batch trees start here, clear of read indices.
const APPLY_REQUESTS: u32 = 1 << 30;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

pub fn run_traced(spec: &Spec, seed: u64, out: &Path, host: &Json) -> Result<Outcome, String> {
    let prepared = prepare(spec, seed);
    let inputs = &prepared.inputs;
    let scratch = Scratch::new(out)?;
    let mut values = Values::default();
    let mut trace = Trace::default();
    let mut lines = Lines::default();
    let mut log = ReadLog::default();
    let mut primed = setup(spec, &prepared, scratch.path(), 0, &mut lines, &mut log)?;
    let (reference_hash, mut failed) = verify::check_pass(inputs, &log, 0);

    // 1. Windowed passes.
    let before = primed.stack.service.metrics();
    let mut plain = Best::default();
    let mut traced = Best::default();
    let mut walls = Vec::new();
    let mut hash_mismatches = 0;
    // As many windowed passes as the end-to-end run makes (an even
    // number): half untraced, half traced, alternating.
    for _ in 0..spec.passes {
        let tracing = plain.passes > traced.passes;
        let stats = pass(
            &mut primed,
            spec,
            inputs,
            &mut lines,
            &mut log,
            tracing.then_some(&mut trace),
        )?;
        let (hash, pass_failed) = verify::check_pass(inputs, &log, stats.base_epoch);
        failed += pass_failed;
        hash_mismatches += usize::from(hash != reference_hash);
        walls.push(stats.wall_ns as f64);
        if tracing { &mut traced } else { &mut plain }.absorb(&stats);
    }
    failed += hash_mismatches;
    let after = primed.stack.service.metrics();
    let reads = inputs.reads.len();
    let layout = unit_layout(spec, inputs);
    // The client's view from the untraced half of the passes: printed
    // here for the timing metrics that are per-layer metrics on this
    // host (README.md, "Bounds").
    values.set("read_qps", plain.read_qps(&layout));
    values.set("read_p50_ms", plain.read_p50_ms());
    values.set("read_p90_ms", plain.read_p90_ms());
    values.set("write_p50_ms", plain.write_p50_ms(&layout));
    values.set("cpu_ms_per_op", plain.cpu_ms_per_op(inputs.ops_per_pass()));
    values.set("client.rtt_ms_p50", traced.read_p50_ms());
    let (q1, q2, q3) = quartiles(&walls);
    values.set("client.pass_spread", ratio(q3 - q1, q2));
    values.set(
        "trace.overhead_ratio",
        ratio(traced.read_qps(&layout), plain.read_qps(&layout)),
    );
    let read_ms = reads as f64 / plain.read_qps(&layout) * 1e3;
    values.set(
        "trace.apply_share_of_pass",
        ratio(plain.write_ms(&layout), plain.write_ms(&layout) + read_ms),
    );
    // From the last pass's responses (every pass answers the same).
    let responses = (0..reads).map(|i| log.response(i));
    let queue: Vec<f64> = responses
        .clone()
        .filter_map(|l| number_after(l, b"\"queue_ms\":"))
        .collect();
    values.set("service.queue_ms_p50", median(&queue));
    values.set(
        "wire.response_bytes_mean",
        mean(
            &responses
                .clone()
                .map(|l| l.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let refused = responses
        .filter(|l| classify(l) == Answer::Error("no_community"))
        .count();
    values.set("engine.no_community_ratio", refused as f64 / reads as f64);
    values.set(
        "service.wakes_per_admit",
        ratio(
            (after.wakes - before.wakes) as f64,
            (after.admitted - before.admitted) as f64,
        ),
    );
    values.set(
        "service.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
    values.set("service.shed", (after.shed - before.shed) as f64);
    values.set(
        "engine.warm_hit_ratio",
        ratio(
            (after.warm_hits - before.warm_hits) as f64,
            (after.executed - before.executed) as f64,
        ),
    );
    values.set(
        "engine.cached_query_nodes",
        cached_query_nodes(&primed) as f64,
    );
    values.set(
        "transport.connections_accepted",
        primed.stack.connections_accepted() as f64,
    );

    // 2. The peel.
    let population = peel(
        &mut primed,
        spec,
        &prepared,
        &mut lines,
        &mut log,
        &mut trace,
        &mut values,
    )?;
    primed.teardown();

    // 3. Probes on fresh twins.
    probe_engine(&prepared, population, &mut values);
    probe_substrate(&prepared, &scratch.path().join(GRAPH_FILE), &mut values)?;
    probe_durability(&prepared, &scratch.path().join("wal-probe"), &mut values)?;
    probe_shards(&prepared, &mut values)?;

    let totals = trace.layer_totals();
    let total_of = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    values.set("trace.rtt_coverage", trace.coverage("client.rtt"));
    values.set(
        "trace.engine_share_of_rtt",
        ratio(total_of("engine"), total_of("client.rtt")),
    );

    let file = out.join(format!("trace-{}-{seed}.json", spec.name));
    let header = vec![
        ("workload".to_string(), Json::Str(spec.name.into())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("host".to_string(), host.clone()),
    ];
    std::fs::write(&file, trace.to_json(header, TRACE_FILE_REQUESTS).render())
        .map_err(|e| format!("writing {}: {e}", file.display()))?;

    let mut notes = vec![
        format!(
            "windowed passes: {} untraced, {} traced; trace written to {}",
            plain.passes,
            traced.passes,
            file.display()
        ),
        "layer                          spans     total_ms      self_ms".to_string(),
    ];
    notes.extend(totals.iter().map(|(name, t)| {
        format!(
            "{name:<28} {:>7} {:>12.3} {:>12.3}",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
    }));
    if hash_mismatches > 0 {
        notes.push(format!(
            "PROBLEM {hash_mismatches} passes answered differently from the warm-up pass"
        ));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: (plain.passes + traced.passes) * inputs.ops_per_pass(),
        failed,
        values,
        notes,
    })
}

/// Distance tables resident on the engines that serve reads.
fn cached_query_nodes(primed: &Primed) -> usize {
    match &primed.stack.writer {
        Writer::Store(store) => store.snapshot().engine().cached_query_nodes(),
        Writer::Shards(router) => {
            let view = router.view();
            (0..view.shard_count())
                .map(|s| view.shard(s).engine().cached_query_nodes())
                .sum()
        }
    }
}

/// Per-read samples of the peel.
#[derive(Default)]
struct ReadSamples {
    rtt_us: Vec<f64>,
    parse_us: Vec<f64>,
    serialize_us: Vec<f64>,
    service_us: Vec<f64>,
    route_us: Vec<f64>,
    routed_us: Vec<f64>,
    engine_ms: Vec<f64>,
    kcore_ms: Vec<f64>,
    ktruss_ms: Vec<f64>,
    allocs: Vec<f64>,
    /// Engine time of the first read behind a batch, and of the rest.
    first_ms: Vec<f64>,
    later_ms: Vec<f64>,
    answered: Vec<CommunityResult>,
}

/// Per-batch samples of the peel.
#[derive(Default)]
struct ApplySamples {
    twin_ms: Vec<f64>,
    carry_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    truss_patch_ms: Vec<f64>,
    mutable_us: Vec<f64>,
    core_ns: u64,
    updates: usize,
    coreness_changed: Vec<f64>,
    retained: usize,
    invalidated: usize,
}

/// The lock-step replay (see the module docs). Returns the sampling
/// population size SEA reported, for the growth probe.
fn peel(
    primed: &mut Primed,
    spec: &Spec,
    prepared: &Prepared,
    lines: &mut Lines,
    log: &mut ReadLog,
    trace: &mut Trace,
    values: &mut Values,
) -> Result<usize, String> {
    let inputs = &prepared.inputs;
    let base_epoch = primed.stack.writer.epoch();
    render(inputs, Some(base_epoch), lines);
    log.reset(inputs.reads.len());
    // The twin: a plain store over the same graph, decompositions
    // forced like the live one's, fed the same batches and reads.
    let twin = GraphStore::new(prepared.graph.clone());
    twin.snapshot().engine().node_trussness();
    let mut mutable = MutableGraph::from_graph(&prepared.graph);
    let mut core = CoreMaintainer::new(&prepared.graph);
    let mut trussness = node_max_trussness(&prepared.graph);
    let (mut ws_routed, mut ws_engine) = (QueryWorkspace::new(), QueryWorkspace::new());
    let mut r = ReadSamples::default();
    let mut a = ApplySamples::default();
    let clock = Instant::now();
    let now = |clock: Instant| clock.elapsed().as_nanos() as u64;
    let mut behind_batch = false;
    let mut applies = 0u32;

    let engine_read = |read: &ReadOp, first: bool, r: &mut ReadSamples, ws: &mut QueryWorkspace| {
        let snapshot = twin.snapshot();
        let allocs = allocation_count();
        let (result, took) = timed(|| snapshot.engine().run_with_workspace(&query_of(read), ws));
        r.allocs.push((allocation_count() - allocs) as f64);
        r.engine_ms.push(ms(took));
        if read.truss {
            &mut r.ktruss_ms
        } else {
            &mut r.kcore_ms
        }
        .push(ms(took));
        if first {
            &mut r.first_ms
        } else {
            &mut r.later_ms
        }
        .push(ms(took));
        if let Ok(result) = result {
            r.answered.push(result);
        }
    };

    for step in &inputs.steps {
        match *step {
            Step::Apply { index } => {
                let batch = &inputs.batches[index];
                let start = now(clock);
                primed.stack.writer.apply(batch)?;
                let end = now(clock);
                let (report, twin_took) = timed(|| twin.apply(batch));
                let report = report.map_err(|e| format!("twin rejected batch {index}: {e}"))?;
                let (mut mutable_ns, mut core_ns) = (0u64, 0u64);
                let mut touched: Vec<NodeId> = Vec::new();
                for update in batch {
                    let (applied, took) = timed(|| mutable.apply(update));
                    a.mutable_us.push(us(took));
                    mutable_ns += took.as_nanos() as u64;
                    let (_, took) = timed(|| match applied {
                        Ok(Applied::EdgeAdded(u, v)) => core.insert_edge(&mutable, u, v),
                        Ok(Applied::EdgeRemoved(u, v)) => core.remove_edge(&mutable, u, v),
                        _ => {}
                    });
                    core_ns += took.as_nanos() as u64;
                    if let Ok(Applied::EdgeAdded(u, v) | Applied::EdgeRemoved(u, v)) = applied {
                        touched.extend([u, v]);
                    }
                }
                let (published, snapshot_took) = timed(|| mutable.snapshot());
                let (patched, patch_took) =
                    timed(|| patch_node_trussness(&published, &trussness, &touched));
                trussness = patched;
                let parts = [
                    mutable_ns,
                    core_ns,
                    snapshot_took.as_nanos() as u64,
                    patch_took.as_nanos() as u64,
                ];
                a.twin_ms.push(ms(twin_took));
                a.carry_ms.push(
                    (twin_took.as_nanos() as u64).saturating_sub(parts.iter().sum()) as f64 / 1e6,
                );
                a.snapshot_ms.push(ms(snapshot_took));
                a.truss_patch_ms.push(ms(patch_took));
                a.core_ns += core_ns;
                a.updates += batch.len();
                a.coreness_changed.push(report.coreness_changed as f64);
                a.retained += report.distance_tables_retained;
                a.invalidated += report.distance_tables_invalidated;

                let root = trace.push("store.apply", (start, end), None, APPLY_REQUESTS + applies);
                // What the live writer pays beyond a plain store: the
                // log append, or the fan-out to the shards.
                let beyond = (end - start).saturating_sub(twin_took.as_nanos() as u64);
                let mut children = match spec.backend {
                    Backend::Durable => vec![("durability.append", beyond)],
                    Backend::Sharded => vec![("shard.fanout", beyond)],
                    Backend::Solo => Vec::new(),
                };
                children.extend([
                    ("graph.mutable_apply", parts[0]),
                    ("decomp.incremental", parts[1]),
                    ("graph.snapshot", parts[2]),
                    ("decomp.truss_patch", parts[3]),
                ]);
                trace.push_sequence(root, &children);
                applies += 1;
                behind_batch = true;
            }
            Step::Reads { start, end } => {
                for i in start..end.min(start + PEEL_READS) {
                    let read = &inputs.reads[i];
                    let line = std::str::from_utf8(
                        &lines.bytes[if i == 0 { 0 } else { lines.ends[i - 1] }..lines.ends[i]],
                    )
                    .expect("rendered as utf-8")
                    .trim_end();
                    let mut rtt = (0, 0);
                    let (mut parse, mut service, mut serialize) = (0, 0, 0);
                    let (mut route, mut routed) = (0, 0);
                    let mut timings = None;
                    for level in (0..4).map(|l| (l + i) % 4) {
                        match level {
                            0 => {
                                primed
                                    .client
                                    .run_reads(lines, (i, i + 1), (1, 1), clock, log, None)
                                    .map_err(|e| format!("transport error: {e}"))?;
                                rtt = (log.sent_ns[i], log.recv_ns[i]);
                                r.rtt_us.push((rtt.1 - rtt.0) as f64 / 1e3);
                            }
                            1 => {
                                let (wire, took) = timed(|| parse_wire_request(line, i));
                                let wire =
                                    wire.map_err(|e| format!("own request line refused: {e}"))?;
                                parse = took.as_nanos() as u64;
                                let (response, took) =
                                    timed(|| primed.stack.service.run(wire.request));
                                let response = response
                                    .map_err(|e| format!("in-process submit refused: {e}"))?;
                                service = took.as_nanos() as u64;
                                let (_, took) = timed(|| {
                                    std::hint::black_box(response_to_json(&wire.id, &response))
                                });
                                serialize = took.as_nanos() as u64;
                                r.parse_us.push(parse as f64 / 1e3);
                                r.service_us.push(service as f64 / 1e3);
                                r.serialize_us.push(serialize as f64 / 1e3);
                            }
                            2 => {
                                let pin = (read.applies_before > 0)
                                    .then_some(base_epoch + read.applies_before);
                                let source = primed.stack.writer.source();
                                let (target, took) =
                                    timed(|| source.route_read(pin, Duration::from_millis(250)));
                                let target = target.map_err(|e| format!("route refused: {e}"))?;
                                route = took.as_nanos() as u64;
                                let (result, took) = timed(|| {
                                    target.run_with_workspace(&query_of(read), &mut ws_routed)
                                });
                                routed = took.as_nanos() as u64;
                                timings = result.ok().map(|res| res.timings);
                                r.route_us.push(route as f64 / 1e3);
                                r.routed_us.push(routed as f64 / 1e3);
                            }
                            _ => engine_read(
                                read,
                                std::mem::take(&mut behind_batch),
                                &mut r,
                                &mut ws_engine,
                            ),
                        }
                    }
                    // The request's tree, laid inside the measured
                    // round trip from pieces measured one level down.
                    let root = trace.push("client.rtt", rtt, None, i as u32);
                    let transport = trace.push("transport", rtt, Some(root), i as u32);
                    let ids = trace.push_sequence(
                        transport,
                        &[
                            ("wire.parse", parse),
                            ("service", service),
                            ("wire.serialize", serialize),
                        ],
                    );
                    let ids = trace
                        .push_sequence(ids[1], &[("cluster.route", route), ("engine", routed)]);
                    if let Some(t) = timings {
                        let ns = |d: Duration| d.as_nanos() as u64;
                        trace.push_sequence(
                            ids[1],
                            &[
                                ("engine.prepare", ns(t.prepare)),
                                ("core.sampling", ns(t.sampling)),
                                ("core.estimation", ns(t.estimation)),
                                ("core.incremental", ns(t.incremental)),
                            ],
                        );
                    }
                }
            }
        }
    }
    if behind_batch {
        // The list ends on a batch: its first reader is the next
        // pass's first read.
        engine_read(&inputs.reads[0], true, &mut r, &mut ws_engine);
    }

    // Differences are taken per request and then the median: the four
    // levels of one request see the same query, so what is left is the
    // layer and not the spread between queries.
    let per_read = |f: &dyn Fn(usize) -> f64| (0..r.rtt_us.len()).map(f).collect::<Vec<f64>>();
    values.set(
        "transport.overhead_us_p50",
        median(&per_read(&|i| {
            r.rtt_us[i] - r.service_us[i] - r.parse_us[i] - r.serialize_us[i]
        })),
    );
    values.set("wire.parse_us_p50", median(&r.parse_us));
    values.set("wire.serialize_us_p50", median(&r.serialize_us));
    values.set(
        "service.overhead_us_p50",
        median(&per_read(&|i| {
            r.service_us[i] - r.route_us[i] - r.routed_us[i]
        })),
    );
    values.set("cluster.route_us_p50", median(&r.route_us));
    values.set("engine.total_ms_p50", median(&r.engine_ms));
    values.set("engine.total_ms_p90", percentile(&r.engine_ms, 0.9));
    values.set("engine.kcore_ms_p50", median(&r.kcore_ms));
    values.set("engine.ktruss_ms_p50", median(&r.ktruss_ms));
    values.set("engine.allocs_per_query", mean(&r.allocs));
    values.set(
        "store.first_read_penalty_ms",
        median(&r.first_ms) - median(&r.later_ms),
    );
    let of = |f: &dyn Fn(&CommunityResult) -> f64| r.answered.iter().map(f).collect::<Vec<f64>>();
    values.set(
        "engine.prepare_ms_p50",
        median(&of(&|x| ms(x.timings.prepare))),
    );
    values.set(
        "core.sampling_ms_p50",
        median(&of(&|x| ms(x.timings.sampling))),
    );
    values.set(
        "core.estimation_ms_p50",
        median(&of(&|x| ms(x.timings.estimation))),
    );
    values.set(
        "core.incremental_ms_p50",
        median(&of(&|x| ms(x.timings.incremental))),
    );
    values.set(
        "core.population_mean",
        mean(&of(&|x| x.provenance.population_size as f64)),
    );
    values.set(
        "core.sample_size_mean",
        mean(&of(&|x| x.provenance.sample_size as f64)),
    );
    values.set(
        "core.rounds_mean",
        mean(&of(&|x| x.provenance.rounds as f64)),
    );
    values.set(
        "core.candidates_mean",
        mean(&of(&|x| x.provenance.candidates_examined as f64)),
    );
    values.set(
        "core.certified_ratio",
        mean(&of(&|x| {
            f64::from(u8::from(x.certificate.is_some_and(|c| c.certified)))
        })),
    );
    values.set("core.delta_mean", mean(&of(&|x| x.delta)));
    values.set("store.apply_ms_p50", median(&a.twin_ms));
    values.set("store.apply_ms_p90", percentile(&a.twin_ms, 0.9));
    values.set("store.carry_ms_p50", median(&a.carry_ms));
    values.set(
        "store.tables_retained_ratio",
        ratio(a.retained as f64, (a.retained + a.invalidated) as f64),
    );
    values.set("graph.snapshot_ms_p50", median(&a.snapshot_ms));
    values.set("decomp.truss_patch_ms_p50", median(&a.truss_patch_ms));
    values.set("graph.mutable_apply_us_p50", median(&a.mutable_us));
    values.set(
        "decomp.incremental_us_per_update",
        ratio(a.core_ns as f64 / 1e3, a.updates as f64),
    );
    values.set("decomp.coreness_changed_mean", mean(&a.coreness_changed));
    Ok(r.answered
        .first()
        .map_or(0, |x| x.provenance.population_size))
}

/// The distinct `(q, model)` reads the probes sample, as `k = 3` reads
/// whatever the workload asks at (the light workload's nodes too).
fn probe_reads(inputs: &Inputs) -> Vec<ReadOp> {
    let mut seen = Vec::new();
    inputs
        .reads
        .iter()
        .filter(|read| {
            let fresh = !seen.contains(&read.q);
            seen.push(read.q);
            fresh
        })
        .take(PROBE_READS)
        .map(|read| ReadOp {
            k: READ_K,
            ..read.clone()
        })
        .collect()
}

/// Cold against warm distance tables (engine and bare growth), the
/// coreness screen, and BLB on a fixed sample.
fn probe_engine(prepared: &Prepared, population: usize, values: &mut Values) {
    let g = &prepared.graph;
    let engine = Engine::new(g.clone());
    engine.node_trussness();
    let mut ws = QueryWorkspace::new();
    let reads = probe_reads(&prepared.inputs);
    // One throwaway query sizes the workspace, so the first sample does
    // not pay for it.
    let _ = engine.run_with_workspace(&query_of(&reads[reads.len() - 1]), &mut ws);
    let (mut cold, mut warm, mut screen) = (Vec::new(), Vec::new(), Vec::new());
    for read in &reads[..reads.len() - 1] {
        let query = query_of(read);
        cold.push(ms(timed(|| engine.run_with_workspace(&query, &mut ws)).1));
        warm.push(ms(timed(|| engine.run_with_workspace(&query, &mut ws)).1));
        let unreachable = query_of(&ReadOp {
            k: 50,
            ..read.clone()
        });
        screen.push(us(timed(|| {
            engine.run_with_workspace(&unreachable, &mut ws)
        })
        .1));
    }
    values.set("engine.cold_penalty_ms", median(&cold) - median(&warm));
    values.set("engine.screen_us_p50", median(&screen));

    let size = if population > 0 {
        population
    } else {
        min_population_size(READ_K as usize + 1, g.n(), 0.05, 0.05)
    };
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for read in &reads {
        let table = QueryDistances::new(read.q, g.n(), DistanceParams::default());
        cold.push(ms(timed(|| {
            std::hint::black_box(grow_neighborhood(g, read.q, size, &table))
        })
        .1));
        warm.push(ms(timed(|| {
            std::hint::black_box(grow_neighborhood(g, read.q, size, &table))
        })
        .1));
    }
    values.set("core.grow_cold_ms_p50", median(&cold));
    values.set("core.grow_warm_ms_p50", median(&warm));

    let mut rng = StdRng::seed_from_u64(300);
    let mut mix = crate::inputs::SplitMix64::new(300);
    let sample: Vec<f64> = (0..300).map(|_| mix.unit()).collect();
    let blb = Blb::default();
    let took: Vec<f64> = (0..64)
        .map(|_| us(timed(|| std::hint::black_box(blb.estimate(&sample, 1.96, &mut rng))).1))
        .collect();
    values.set("stats.blb_us_p50", median(&took));
}

/// Full decompositions, graph load and script parse.
fn probe_substrate(
    prepared: &Prepared,
    graph_file: &Path,
    values: &mut Values,
) -> Result<(), String> {
    let g = &prepared.graph;
    let repeat =
        |f: &dyn Fn()| median(&(0..3).map(|_| timed(f).1.as_secs_f64()).collect::<Vec<_>>());
    values.set(
        "decomp.core_full_ms",
        1e3 * repeat(&|| drop(std::hint::black_box(core_decomposition(g)))),
    );
    values.set(
        "decomp.truss_full_ms",
        1e3 * repeat(&|| drop(std::hint::black_box(node_max_trussness(g)))),
    );
    csag::graph::io::load_graph(graph_file).map_err(|e| format!("reading the graph: {e}"))?;
    values.set(
        "graph.load_s",
        repeat(&|| {
            drop(std::hint::black_box(csag::graph::io::load_graph(
                graph_file,
            )))
        }),
    );
    let text = prepared.inputs.updates_txt();
    let updates: usize = prepared.inputs.batches.iter().map(Vec::len).sum();
    let parse_s = median(
        &(0..16)
            .map(|_| {
                timed(|| std::hint::black_box(GraphUpdate::parse_script(&text)))
                    .1
                    .as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    values.set(
        "graph.parse_script_us_per_update",
        ratio(parse_s * 1e6, updates as f64),
    );
    Ok(())
}

/// A WAL store (the durable backend's tuning) against a plain one over
/// the workload's batches, replayed until a checkpoint has fallen and
/// two more batches sit in the log behind it; then recovery.
fn probe_durability(prepared: &Prepared, dir: &Path, values: &mut Values) -> Result<(), String> {
    let inputs = &prepared.inputs;
    let per_pass = inputs.applies_per_pass() as usize;
    // Whole passes, so the graph is back at its start when it ends.
    let applies = (crate::inputs::CHECKPOINT_EVERY as usize + 2).div_ceil(per_pass) * per_pass;
    let order: Vec<usize> = inputs
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Apply { index } => Some(*index),
            Step::Reads { .. } => None,
        })
        .cycle()
        .take(applies)
        .collect();
    let plain = GraphStore::new(prepared.graph.clone());
    let durable = GraphStore::with_wal_config(prepared.graph.clone(), dir, wal_config())
        .map_err(|e| format!("creating the probe WAL: {e}"))?;
    let (mut plain_ms, mut durable_ms) = (Vec::new(), Vec::new());
    let (mut log_bytes, mut script_bytes) = (0usize, 0usize);
    for (n, &index) in order.iter().enumerate() {
        let batch = &inputs.batches[index];
        plain_ms.push(ms(timed(|| plain.apply(batch)).1));
        let (outcome, took) = timed(|| durable.apply(batch));
        outcome.map_err(|e| format!("probe WAL refused a batch: {e}"))?;
        durable_ms.push(ms(took));
        let record = LogRecord::new(n as u64 + 1, batch.clone());
        log_bytes += csag::graph::wal::frame(record.to_wire().as_bytes()).len();
        script_bytes += script(batch).len();
    }
    values.set(
        "durability.wal_overhead_ms_p50",
        median(&durable_ms) - median(&plain_ms),
    );
    let slowest = durable_ms.iter().copied().fold(0.0, f64::max);
    values.set(
        "durability.checkpoint_stall_ms_max",
        slowest - median(&durable_ms),
    );
    values.set(
        "durability.write_amp",
        ratio(log_bytes as f64, script_bytes as f64),
    );
    let status = durable.wal_status().expect("built with a WAL");
    values.set("durability.fsyncs", status.fsyncs as f64);
    values.set("durability.checkpoints", status.checkpoints as f64);
    values.set("durability.rotations", status.rotations as f64);
    drop(durable);
    let (recovered, took) = timed(|| GraphStore::recover(dir));
    let (_, report) = recovered.map_err(|e| format!("probe recovery failed: {e}"))?;
    values.set("durability.recover_s", took.as_secs_f64());
    values.set(
        "durability.recover_replayed",
        report.records_replayed as f64,
    );
    Ok(())
}

/// The sharded router against a solo store: partitioning, the same
/// sampled reads through both, one batch pair through the fan-out.
fn probe_shards(prepared: &Prepared, values: &mut Values) -> Result<(), String> {
    let (shards, halo, replicas) = SHARDS;
    let (router, took) =
        timed(|| ShardedRouter::over_graph(prepared.graph.clone(), shards, halo, replicas));
    values.set("shard.partition_s", took.as_secs_f64());
    let solo = GraphStore::new(prepared.graph.clone());
    let mut ws = QueryWorkspace::new();
    let wait = Duration::from_millis(250);
    // The workload's own reads (at their own k), distinct nodes.
    let reads: Vec<ReadOp> = {
        let k_of = |q: NodeId| {
            prepared
                .inputs
                .reads
                .iter()
                .find(|r| r.q == q)
                .map_or(READ_K, |r| r.k)
        };
        probe_reads(&prepared.inputs)
            .into_iter()
            .map(|r| ReadOp { k: k_of(r.q), ..r })
            .collect()
    };
    let (mut solo_s, mut sharded_s) = (0.0, 0.0);
    for read in &reads {
        let query = query_of(read);
        let through = |source: &dyn ReadSource, ws: &mut QueryWorkspace| -> Result<f64, String> {
            let (outcome, took) = timed(|| {
                source
                    .route_read(None, wait)
                    .map(|target| target.run_with_workspace(&query, ws))
            });
            outcome
                .map(|_answer| took.as_secs_f64())
                .map_err(|e| format!("route refused: {e}"))
        };
        solo_s += through(&solo, &mut ws)?;
        sharded_s += through(&router, &mut ws)?;
    }
    values.set("shard.vs_solo_qps_ratio", ratio(solo_s, sharded_s));
    let metrics = router.metrics();
    let sum = |f: &dyn Fn(&csag::cluster::ShardSectionMetrics) -> f64| {
        metrics.shards.iter().map(f).sum::<f64>()
    };
    let (local, gathers) = (sum(&|s| s.local_hits as f64), sum(&|s| s.gathers as f64));
    values.set("shard.local_hit_ratio", ratio(local, local + gathers));
    values.set("shard.gathers", gathers);
    values.set("shard.gather_ms_mean", ratio(sum(&|s| s.merge_ms), gathers));
    values.set(
        "shard.resident_ratio",
        ratio(
            sum(&|s| (s.owned + s.halo) as f64),
            prepared.graph.n() as f64,
        ),
    );
    let mut publish = Vec::new();
    for step in &prepared.inputs.steps {
        if let Step::Apply { index } = step {
            let (outcome, took) = timed(|| router.apply(&prepared.inputs.batches[*index]));
            outcome.map_err(|e| format!("probe fan-out refused a batch: {e}"))?;
            publish.push(ms(took));
        }
    }
    values.set("shard.publish_ms_p50", median(&publish));
    Ok(())
}
