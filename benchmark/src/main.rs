//! `csag-benchmark`: the repo's benchmark (see README.md).
//!
//! ```text
//! csag-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!                [--out <dir>] [--record <file>] [--dump-inputs <dir>]
//! csag-benchmark compare <setA.jsonl> <setB.jsonl> [--bounds <BENCHMARK.json>] [--json]
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//!
//! `--seconds` is accepted, because the driver's command line carries
//! it, and ignored: a run's work is fixed by count (`inputs::SPECS`).

mod compare;
mod estimate;
mod host;
mod inputs;
mod json;
mod layers;
mod metrics;
mod run;
mod stack;
mod trace;
mod verify;

use json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

// Counts heap allocations for `engine.allocs_per_query` (one relaxed
// atomic increment per allocation; see `csag::graph::alloc_counter`).
#[global_allocator]
static ALLOCATOR: csag::graph::alloc_counter::CountingAllocator =
    csag::graph::alloc_counter::CountingAllocator;

const USAGE: &str =
    "usage: csag-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] \
[--out <dir>] [--record <file>] [--dump-inputs <dir>]\n       \
csag-benchmark compare <setA.jsonl> <setB.jsonl> [--bounds <BENCHMARK.json>] [--json]";

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    out: PathBuf,
    record: Option<PathBuf>,
    dump_inputs: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        record: None,
        dump_inputs: None,
    };
    let mut seen_seed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a u64"))?;
                seen_seed = true;
            }
            // Checked, then ignored: work is fixed by count.
            "--seconds" => {
                value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{value}` is not a duration"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is neither 0 nor 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            "--record" => parsed.record = Some(PathBuf::from(value)),
            "--dump-inputs" => parsed.dump_inputs = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.workload.is_empty() || !seen_seed {
        return Err("--workload and --seed are required".into());
    }
    Ok(parsed)
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let spec = inputs::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = inputs::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{}` (one of: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    if let Some(dir) = &args.dump_inputs {
        let prepared = run::prepare(spec, args.seed);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        std::fs::write(dir.join("requests.jsonl"), prepared.inputs.requests_jsonl())
            .map_err(|e| e.to_string())?;
        std::fs::write(dir.join("updates.txt"), prepared.inputs.updates_txt())
            .map_err(|e| e.to_string())?;
        println!("wrote requests.jsonl and updates.txt to {}", dir.display());
        return Ok(true);
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let host = Json::obj([
        ("nproc", Json::Num(host::nproc() as f64)),
        ("pinned_cpu", Json::Str(host::allowed_cpus())),
        (
            "rustc",
            Json::Str(std::env::var("CSAG_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
    ]);
    println!(
        "workload {} ({}) seed {} trace {} passes {} nproc {} pinned_cpu {}",
        spec.name,
        spec.why,
        args.seed,
        u8::from(args.trace),
        spec.passes,
        host::nproc(),
        host::allowed_cpus()
    );
    let outcome = if args.trace {
        layers::run_traced(spec, args.seed, &args.out, &host)?
    } else {
        run::run(spec, args.seed, &args.out)?
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value) in outcome.values.iter() {
        println!(
            "{name:<36} {value:>16.6} {}",
            metrics::unit_of(name).unwrap_or("")
        );
    }
    let names: Vec<&str> = if args.trace {
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.0).collect()
    };
    let metrics = outcome.values.to_json(names.into_iter())?;
    if let Some(path) = &args.record {
        // A recorded run keeps everything this mode measured, so that
        // `compare` also shows the timing metrics whose spread on this
        // host keeps them out of the end-to-end set.
        let measured = outcome.values.iter().map(|(name, _)| name);
        let record = Json::obj([
            ("workload", Json::Str(spec.name.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Bool(args.trace)),
            ("host", host),
            ("correct", Json::Bool(outcome.correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", outcome.values.to_json(measured)?),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        writeln!(file, "{}", record.render()).map_err(|e| e.to_string())?;
    }
    // The result line: exactly these four keys, last on stdout.
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.render()
    );
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => compare::main(&args[1..]),
        Some(_) => parse_args(&args).and_then(|parsed| run_workload(&parsed)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("csag-benchmark: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
