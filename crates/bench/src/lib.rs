//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§VII). See DESIGN.md §5 for the experiment index.
//!
//! Run via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p csag-bench --bin experiments -- all
//! cargo run --release -p csag-bench --bin experiments -- fig5 tab4 --quick
//! ```
//!
//! Engineering measurements (throughput, latency, per-layer costs) are
//! not here:
//! they live in `benchmark/` (`benchmark/run.sh --workload <name>`).
//! [`load`] keeps only the socket smoke client behind
//! `experiments load --socket <addr>`.

pub mod config;
pub mod fig10;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod load;
pub mod runner;
pub mod tab1;
pub mod tab2;
pub mod tab3;
pub mod tab4;
pub mod tab5;
pub mod table;

use config::Scale;

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: [&str; 10] = [
    "tab1", "fig5", "tab2", "tab3", "fig6", "tab4", "tab5", "fig7", "fig8", "fig9",
];

/// Runs one experiment by id (every id of [`all_ids`]). Returns the
/// rendered markdown, or `None` for an unknown id.
pub fn run_experiment(id: &str, scale: &Scale) -> Option<String> {
    let out = match id {
        "tab1" => tab1::run(scale),
        "fig5" => fig5::run(scale),
        "tab2" => tab2::run(scale),
        "tab3" => tab3::run(scale),
        "fig6" => tab3::run_fig6(scale),
        "tab4" => tab4::run(scale),
        "tab5" => tab5::run(scale),
        "fig7" => fig7::run(scale),
        "fig8" => fig8::run(scale),
        "fig9" => fig9::run(scale),
        "fig10" => fig10::run(scale),
        _ => return None,
    };
    Some(out)
}

/// Every experiment id: the paper-order list plus fig10.
pub fn all_ids() -> Vec<&'static str> {
    let mut ids = EXPERIMENT_IDS.to_vec();
    ids.push("fig10");
    ids
}
