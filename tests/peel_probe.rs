//! A timing probe of the restricted k-truss peel; it prints and asserts
//! only that the peels answer. Run it in a release build:
//!
//! ```text
//! cargo test --release --test peel_probe -- --ignored --nocapture
//! ```
//!
//! Every time is the median of per-node medians (five timed peels after
//! one warm-up) through `Maintainer::maximal_within_into` or
//! `Maintainer::maximal` on one pooled `QueryWorkspace`, on the graph the
//! benchmark reads (`G5`: 5 000 nodes, ≈ 40 k edges) unless a line says
//! otherwise. Three groups:
//!
//! - *samples*: a weighted draw of 1 000, 2 000 and 4 000 nodes around q
//!   (A-Res keys, weight `1 − f(v, q)`, as SEA's sampler draws), peeled at
//!   k = 3 and 4 — the S1 peel of a read;
//! - *covered*: subsets the truss walk reaches most of — q's root and
//!   the root less its last node at k = 3–5, and the root of the
//!   `dblp-like` projection at its default k — and LocATC's
//!   `local_seed` ball (1 500 nodes, of which the walk reaches a part);
//! - *roots*: `Maintainer::maximal` at k = 3–5.

use csag::baselines::local_seed;
use csag::core::distance::{DistanceParams, QueryDistances};
use csag::datasets::{generate, standins, SyntheticConfig};
use csag::decomp::{CommunityModel, EpochIndex, Maintainer};
use csag::graph::{AttributedGraph, NodeId, QueryWorkspace};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

/// The benchmark's `G5` (`benchmark/src/inputs.rs`).
fn g5() -> AttributedGraph {
    let config = SyntheticConfig {
        nodes: 5_000,
        communities: 55,
        intra_degree: 6,
        inter_degree: 1.5,
        personal_pool: 500,
        ..SyntheticConfig::default()
    };
    generate(&config, 20).0
}

/// Microseconds of one call of `f`: the median of five after a warm-up.
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

/// `size` nodes drawn around `q` without replacement, weighted by
/// `1 − f(v, q)`; q first.
fn weighted_sample(g: &AttributedGraph, q: NodeId, size: usize, seed: u64) -> Vec<NodeId> {
    let dist = QueryDistances::new(q, g.n(), DistanceParams::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keyed: Vec<(f64, NodeId)> = (0..g.n() as NodeId)
        .filter(|&v| v != q)
        .map(|v| {
            let w = (1.0 - dist.get(g, v)).max(1e-9);
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (u.ln() / w, v)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut sample = vec![q];
    sample.extend(keyed.iter().take(size - 1).map(|&(_, v)| v));
    sample
}

/// Peels `subset` at `(q, k)`; returns the peel's median µs and the
/// community size (0 for none).
fn peel_us(
    g: &AttributedGraph,
    index: &EpochIndex,
    ws: &mut QueryWorkspace,
    k: u32,
    q: NodeId,
    subset: &[NodeId],
) -> (f64, usize) {
    let mut m = Maintainer::in_workspace(g, index, CommunityModel::KTruss, k, ws);
    let mut out = Vec::new();
    let size = if m.maximal_within_into(q, subset, &mut out) {
        out.len()
    } else {
        0
    };
    let us = time_us(|| {
        m.maximal_within_into(q, subset, &mut out);
    });
    m.release(ws);
    (us, size)
}

/// Query nodes: every 96th node whose node trussness reaches `k`.
fn queries(trussness: &[u32], k: u32) -> Vec<NodeId> {
    (0..trussness.len() as NodeId)
        .step_by(96)
        .filter(|&v| trussness[v as usize] >= k)
        .collect()
}

#[test]
#[ignore = "a timing probe; run in release with --ignored --nocapture"]
fn truss_peel_times() {
    let g = g5();
    let index = EpochIndex::new();
    let trussness = index.node_trussness(&g).to_vec();
    let mut ws = QueryWorkspace::new();
    let root = |ws: &mut QueryWorkspace, k: u32, q: NodeId| {
        let mut m = Maintainer::in_workspace(&g, &index, CommunityModel::KTruss, k, ws);
        let r = m.maximal(q);
        m.release(ws);
        r
    };

    println!("samples (G5, weighted draw around q; 16 nodes per cell):");
    for size in [1_000, 2_000, 4_000] {
        for k in [3, 4] {
            let (mut us, mut sizes) = (Vec::new(), Vec::new());
            for (i, &q) in queries(&trussness, k).iter().take(16).enumerate() {
                let sample = weighted_sample(&g, q, size, i as u64);
                let (t, s) = peel_us(&g, &index, &mut ws, k, q, &sample);
                us.push(t);
                sizes.push(s as f64);
            }
            let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
            println!(
                "  sample {size:>5} k={k}: {:>8.1} µs, mean truss {mean:.1} nodes",
                median(us)
            );
        }
    }

    println!("covered subsets (G5 unless named):");
    for k in [3, 4, 5] {
        let (mut whole, mut less, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
        for q in queries(&trussness, k) {
            let r = root(&mut ws, k, q).expect("node trussness reaches k");
            whole.push(peel_us(&g, &index, &mut ws, k, q, &r).0);
            let v = *r
                .iter()
                .rev()
                .find(|&&v| v != q)
                .expect("a root has an edge");
            let less_v: Vec<NodeId> = r.iter().copied().filter(|&x| x != v).collect();
            less.push(peel_us(&g, &index, &mut ws, k, q, &less_v).0);
            sizes.push(r.len() as f64);
        }
        println!(
            "  root k={k} ({} nodes, median {} members): {:>8.1} µs; root − v {:>8.1} µs",
            whole.len(),
            median(sizes),
            median(whole),
            median(less)
        );
    }
    let d = standins::dblp_like();
    let p = d.graph.project(&d.meta_path).graph;
    let pindex = EpochIndex::new();
    let (pk, pt) = (d.default_k, pindex.node_trussness(&p).to_vec());
    let mut pus = Vec::new();
    let mut psize = 0;
    for q in (0..p.n() as NodeId)
        .step_by(800)
        .filter(|&v| pt[v as usize] >= pk)
    {
        let mut m = Maintainer::in_workspace(&p, &pindex, CommunityModel::KTruss, pk, &mut ws);
        let r = m.maximal(q).expect("node trussness reaches k");
        m.release(&mut ws);
        psize = psize.max(r.len());
        pus.push(peel_us(&p, &pindex, &mut ws, pk, q, &r).0);
    }
    println!(
        "  dblp-like projection root k={pk} ({} nodes of {}, largest root {psize}): {:>8.1} µs",
        pus.len(),
        p.n(),
        median(pus)
    );
    for k in [3, 4] {
        let (mut us, mut sizes) = (Vec::new(), Vec::new());
        for q in queries(&trussness, k) {
            let ball = local_seed(&g, q);
            us.push(peel_us(&g, &index, &mut ws, k, q, &ball).0);
            sizes.push(ball.len() as f64);
        }
        println!(
            "  local_seed ball k={k} (median {} nodes): {:>8.1} µs",
            median(sizes),
            median(us)
        );
    }

    println!("roots (G5, Maintainer::maximal):");
    for k in [3, 4, 5] {
        let qs = queries(&trussness, k);
        let us: Vec<f64> = qs
            .iter()
            .map(|&q| {
                time_us(|| {
                    root(&mut ws, k, q).expect("node trussness reaches k");
                })
            })
            .collect();
        println!("  k={k} ({} nodes): {:>8.1} µs", qs.len(), median(us));
    }
}
