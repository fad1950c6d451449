//! Experiment scaling knobs.
//!
//! The paper runs 200 queries per dataset on a dedicated server; the
//! harness defaults to a laptop-scale protocol (fewer queries, bounded
//! exact searches) and provides `--quick` for smoke runs. Every experiment
//! prints the scale it actually used.

use csag::engine::{CommunityQuery, Method};
use csag_core::sea::SeaParams;
use csag_core::CommunityModel;
use std::time::Duration;

/// Global experiment scale.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Quick mode: tiny datasets/query counts for smoke testing.
    pub quick: bool,
    /// Worker threads for query-level parallelism.
    pub threads: usize,
}

impl Scale {
    /// Full (default) scale.
    pub fn full() -> Self {
        Scale {
            quick: false,
            threads: available_threads(),
        }
    }

    /// Quick smoke-test scale.
    pub fn quick() -> Self {
        Scale {
            quick: true,
            threads: available_threads(),
        }
    }

    /// Queries per dataset, shrinking with dataset size (the exact ground
    /// truth dominates the budget on big graphs).
    pub fn queries_for(&self, n_nodes: usize) -> usize {
        let full = match n_nodes {
            0..=5_000 => 30,
            5_001..=15_000 => 20,
            15_001..=30_000 => 14,
            30_001..=60_000 => 10,
            _ => 8,
        };
        if self.quick {
            (full / 4).max(2)
        } else {
            full
        }
    }

    /// Per-query time budget for the exact ground truth.
    pub fn exact_budget(&self) -> Duration {
        if self.quick {
            Duration::from_secs(2)
        } else {
            Duration::from_secs(10)
        }
    }

    /// State budget for E-VAC.
    pub fn evac_budget(&self) -> u64 {
        if self.quick {
            2_000
        } else {
            20_000
        }
    }

    /// Whether E-VAC is feasible on a graph of this size (the paper only
    /// reports it on Facebook/GitHub).
    pub fn evac_allowed(&self, n_nodes: usize) -> bool {
        n_nodes <= 15_000
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Harness-wide SEA parameters.
///
/// The library default Hoeffding ϵ = 0.05 reproduces the paper's setting
/// on its million-node corpora, where the Theorem-10 minimum |Gq| is a few
/// percent of the graph. On the scaled-down stand-ins that same ϵ forces
/// |Gq| past the whole graph, which breaks the "Gq is a focused, mostly
/// relevant neighborhood" premise of the sampling step. ϵ = 0.18 restores
/// the paper's |Gq|/|V| regime (≈2–10%) at our scale; everything else is
/// the paper's default.
pub fn sea_params(k: u32) -> SeaParams {
    SeaParams::default().with_k(k).with_hoeffding(0.18, 0.95)
}

/// SEA parameters for the k-truss model: triangles survive node sampling
/// with probability ~λ³, so the truss pipeline samples at λ = 0.5.
pub fn sea_params_truss(k: u32) -> SeaParams {
    sea_params(k)
        .with_model(CommunityModel::KTruss)
        .with_lambda(0.5)
}

/// The engine-facing twin of [`sea_params`]: a SEA `CommunityQuery`
/// template (query node and seed filled in per run) for the homogeneous
/// experiments, with the same harness-wide Hoeffding rescaling.
pub fn sea_query(k: u32) -> CommunityQuery {
    CommunityQuery::new(Method::Sea, 0)
        .with_k(k)
        .with_hoeffding(0.18, 0.95)
}

/// Fixed seed shared by all experiments so reruns are identical.
pub const QUERY_SEED: u64 = 0x5EA_C5A6;

/// Fixed base seed for SEA's sampling RNG.
pub const SEA_SEED: u64 = 0x5EA_5EED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_shrink_with_size() {
        let s = Scale::full();
        assert!(s.queries_for(4_000) > s.queries_for(50_000));
        assert!(Scale::quick().queries_for(4_000) < s.queries_for(4_000));
        assert!(Scale::quick().exact_budget() < s.exact_budget());
        assert!(s.evac_allowed(4_000));
        assert!(!s.evac_allowed(100_000));
    }
}
