//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§VII); [`EXPERIMENTS`] is the experiment index. The
//! comparison tables share one method lineup ([`runner::Lineup`]).
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

/// An experiment: renders its tables as markdown at a scale.
pub type Experiment = fn(&Scale) -> String;

/// Every experiment, by id, in paper order (`fig10` last): the one list
/// behind `experiments list`, `all`, `--help` and [`run_experiment`].
pub const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("tab1", tab1::run),
    ("fig5", fig5::run),
    ("tab2", tab2::run),
    ("tab3", tab3::run),
    ("fig6", tab3::run_fig6),
    ("tab4", tab4::run),
    ("tab5", tab5::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
];

/// Runs one experiment of [`EXPERIMENTS`] by id. Returns the rendered
/// markdown, or `None` for an unknown id.
pub fn run_experiment(id: &str, scale: &Scale) -> Option<String> {
    let (_, run) = EXPERIMENTS.iter().find(|(name, _)| *name == id)?;
    Some(run(scale))
}
