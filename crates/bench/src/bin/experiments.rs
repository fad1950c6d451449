//! Experiment driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--threads N] <id>... | all | list
//! experiments [--quick] load --socket <addr>
//! experiments load (--socket <addr> --requests <file> | --responses <file>)
//!                  --expect <id>=<query.json>... [--ignore epoch]
//! ```
//!
//! `experiments list` prints the ids ([`csag_bench::EXPERIMENTS`], paper
//! order). Output is github-flavored markdown on stdout.
//!
//! `load --socket <addr>` drives an already-running `csag serve
//! --listen` server over TCP with the sequential-vs-pipelined
//! closed-loop comparison (CI's transport, cluster and shard smokes).
//! Performance is measured by `benchmark/run.sh`, not here.
//!
//! With `--expect` it is the answer check of every CI smoke instead
//! ([`csag_bench::load::Check`]): the response echoing `<id>` must
//! carry the same answer as the `csag query --json` output in
//! `<query.json>`, or the run exits 1 naming the id and the first
//! differing path.

use csag_bench::config::Scale;
use csag_bench::load::Check;
use csag_bench::{run_experiment, EXPERIMENTS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut ids: Vec<String> = Vec::new();
    let mut socket: Option<String> = None;
    let (mut requests, mut responses) = (None, None);
    let mut check = Check {
        expects: Vec::new(),
        ignore_epoch: false,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print_help();
                return;
            }
            "--quick" => scale.quick = true,
            "--socket" => {
                socket = Some(
                    iter.next()
                        .unwrap_or_else(|| die("--socket needs an address (host:port)"))
                        .clone(),
                );
            }
            "--requests" => requests = Some(value_of(&mut iter, arg)),
            "--responses" => responses = Some(value_of(&mut iter, arg)),
            "--expect" => match value_of(&mut iter, arg).split_once('=') {
                Some((id, path)) => check.expects.push((id.into(), path.into())),
                None => die("--expect takes <id>=<csag-query.json>"),
            },
            "--ignore" => match value_of(&mut iter, arg).as_str() {
                "epoch" => check.ignore_epoch = true,
                _ => die("--ignore takes `epoch` (the one optional part of an answer)"),
            },
            "--threads" => {
                let n = iter
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
                scale.threads = n.max(1);
            }
            "list" => {
                for (id, _) in EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(EXPERIMENTS.map(|(id, _)| id.to_string())),
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if (socket.is_some() || responses.is_some()) && !ids.is_empty() && ids != ["load"] {
        die("--socket / --responses only apply to the `load` experiment");
    }
    let checked = match (&socket, &requests, &responses) {
        (Some(addr), Some(file), None) => Some(check.over_socket(addr, file)),
        (None, None, Some(file)) => Some(check.over_file(file)),
        // No check asked for: the plain socket drive or an experiment run.
        (_, None, None) if check.expects.is_empty() && !check.ignore_epoch => None,
        _ => die("the check takes --socket <addr> --requests <file>, or --responses <file>"),
    };
    match checked {
        Some(Ok(summary)) => return println!("{summary}"),
        Some(Err(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        None => {}
    }
    if let Some(addr) = socket {
        println!(
            "# SEA serving-layer socket drive ({} mode)\n",
            if scale.quick { "quick" } else { "full" }
        );
        println!("## load --socket\n");
        println!("{}", csag_bench::load::drive_socket(&addr, &scale));
        return;
    }
    if ids.is_empty() {
        die("no experiments requested; try `experiments list` or `experiments all`");
    }
    ids.dedup();

    println!(
        "# SEA reproduction experiments ({} mode, {} threads)\n",
        if scale.quick { "quick" } else { "full" },
        scale.threads
    );
    for id in &ids {
        let t = Instant::now();
        eprintln!("[experiments] running {id} ...");
        match run_experiment(id, &scale) {
            Some(md) => {
                println!("## {id}\n");
                println!("{md}");
                eprintln!(
                    "[experiments] {id} done in {:.1}s",
                    t.elapsed().as_secs_f64()
                );
            }
            None if matches!(id.as_str(), "perf" | "churn" | "load") => die(&format!(
                "`{id}` was retired; measure with `benchmark/run.sh --workload <name>` \
                 (`load --socket <addr>` still drives a running server)"
            )),
            None => die(&format!("unknown experiment id `{id}`")),
        }
    }
}

/// The value following `flag`.
fn value_of<'a>(iter: &mut impl Iterator<Item = &'a String>, flag: &str) -> String {
    iter.next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        .clone()
}

fn print_help() {
    println!("experiments — regenerate the paper's tables and figures");
    println!();
    println!("Usage: experiments [--quick] [--threads N] <id>... | all | list");
    println!("       experiments [--quick] load --socket <addr>");
    println!("       experiments load (--socket <addr> --requests <file> | --responses <file>)");
    println!("                        --expect <id>=<query.json>... [--ignore epoch]");
    println!();
    println!("  --quick        smaller query sets / budgets (CI-friendly)");
    println!("  --threads N    worker threads for per-query parallelism");
    println!("  --socket ADDR  drive a running `csag serve --listen` server at");
    println!("                 ADDR (host:port) closed-loop (only with `load`)");
    println!("  --requests F   check mode: send F's csag-wire lines to --socket");
    println!("  --responses F  check mode: read a recorded csag-wire v1 session instead");
    println!("  --expect ID=J  the response echoing ID carries the answer in J (the output");
    println!("                 of `csag query --json`), timings_ms aside; repeatable");
    println!("  --ignore epoch also set the answer's epoch aside (offline reference graph)");
    println!("  list           print every experiment id and exit");
    println!("  all            run every experiment");
    println!();
    println!("Ids:");
    for (id, _) in EXPERIMENTS {
        println!("  {id}");
    }
    println!();
    println!("Output is github-flavored markdown on stdout.");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
