//! Experiment driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick] [--threads N] <id>... | all | list
//! experiments [--quick] load --socket <addr>
//! ```
//!
//! Ids: fig5 tab2 tab3 fig6 tab4 tab5 fig7 fig8 fig9 fig10.
//! Output is github-flavored markdown on stdout (tee it into
//! EXPERIMENTS.md sections).
//!
//! `load --socket <addr>` drives an already-running `csag serve
//! --listen` server over TCP with the sequential-vs-pipelined
//! closed-loop comparison (CI's transport, cluster and shard smokes).
//! Performance is measured by `benchmark/run.sh`, not here.

use csag_bench::config::Scale;
use csag_bench::{all_ids, run_experiment};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut ids: Vec<String> = Vec::new();
    let mut socket: Option<String> = None;
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
            "--threads" => {
                let n = iter
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
                scale.threads = n.max(1);
            }
            "list" => {
                for id in all_ids() {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(all_ids().iter().map(|s| s.to_string())),
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    if let Some(addr) = socket {
        if !ids.is_empty() && ids != ["load"] {
            die("--socket only applies to the `load` experiment");
        }
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

fn print_help() {
    println!("experiments — regenerate the paper's tables and figures");
    println!();
    println!("Usage: experiments [--quick] [--threads N] <id>... | all | list");
    println!("       experiments [--quick] load --socket <addr>");
    println!();
    println!("  --quick        smaller query sets / budgets (CI-friendly)");
    println!("  --threads N    worker threads for per-query parallelism");
    println!("  --socket ADDR  drive a running `csag serve --listen` server at");
    println!("                 ADDR (host:port) closed-loop (only with `load`)");
    println!("  list           print every experiment id and exit");
    println!("  all            run every experiment");
    println!();
    println!("Ids:");
    for id in all_ids() {
        println!("  {id}");
    }
    println!();
    println!("Output is github-flavored markdown on stdout.");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
