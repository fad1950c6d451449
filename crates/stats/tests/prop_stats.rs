//! Property tests for the statistical substrate.

use csag_stats::{
    bootstrap_std_sized, incremental_sample_size, min_population_size, normal_cdf, normal_quantile,
    required_moe, satisfies_error_bound, weighted_sample_without_replacement,
    weighted_sample_without_replacement_into, Blb, ConfidenceInterval,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Reference: BLB as it allocated per call — `s` subsamples of size `b`
/// drawn by partial Fisher–Yates over a fresh `0..n` permutation, the
/// inner bootstrap at the full length `n`, and the mean of the margins.
fn reference_blb(blb: &Blb, data: &[f64], z: f64, rng: &mut StdRng) -> (f64, f64, f64, usize) {
    let n = data.len();
    let point = if n == 0 {
        0.0
    } else {
        data.iter().sum::<f64>() / n as f64
    };
    if n < 2 {
        return (point, 0.0, 0.0, n);
    }
    let b = blb.subsample_size(n);
    let s = blb.subsamples.min((n / b).max(1));
    let mut moes = Vec::new();
    let mut indices: Vec<usize> = (0..n).collect();
    for _ in 0..s {
        for i in 0..b {
            let j = rng.gen_range(i..n);
            indices.swap(i, j);
        }
        let subsample: Vec<f64> = indices[..b].iter().map(|&i| data[i]).collect();
        moes.push(z * bootstrap_std_sized(&subsample, n, blb.resamples, rng));
    }
    let moe = moes.iter().sum::<f64>() / moes.len() as f64;
    (point, moe, if z > 0.0 { moe / z } else { 0.0 }, s * b)
}

/// Reference: A-Res with `exp`-space keys `u^{1/w}` kept in a size-`k`
/// min-heap, then a partial Fisher–Yates top-up over the non-positive
/// weights.
fn reference_sample(weights: &[f64], k: usize, rng: &mut StdRng) -> Vec<usize> {
    struct Item(f64, usize);
    impl PartialEq for Item {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> Ordering {
            other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
        }
    }
    let k = k.min(weights.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap = BinaryHeap::with_capacity(k + 1);
    let mut zero_weight = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 && w.is_finite() {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            let key = (u.max(f64::MIN_POSITIVE).ln() / w).exp();
            if heap.len() < k {
                heap.push(Item(key, i));
            } else if heap.peek().is_some_and(|top| key > top.0) {
                heap.pop();
                heap.push(Item(key, i));
            }
        } else {
            zero_weight.push(i);
        }
    }
    let mut chosen: Vec<usize> = heap.into_iter().map(|h| h.1).collect();
    if chosen.len() < k && !zero_weight.is_empty() {
        let need = k - chosen.len();
        let m = zero_weight.len();
        for i in 0..need.min(m) {
            let j = rng.gen_range(i..m);
            zero_weight.swap(i, j);
            chosen.push(zero_weight[i]);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Weights of every kind the sampler distinguishes. Positive weights stay
/// ≥ 0.05, where no `exp`-space key of the reference underflows, so its
/// keys tie only with negligible probability and both orders agree.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0u32..10, 0.05f64..10.0).prop_map(|(kind, w)| match kind {
            0 => 0.0,
            1 => -w,
            2 => f64::NAN,
            3 => f64::INFINITY,
            _ => w,
        }),
        0..90,
    )
}

proptest! {
    /// Φ and Φ⁻¹ are inverse over a wide range of p.
    #[test]
    fn quantile_cdf_roundtrip(p in 0.0005f64..0.9995) {
        let q = normal_quantile(p);
        let back = normal_cdf(q);
        prop_assert!((back - p).abs() < 1e-6, "p={p} q={q} back={back}");
    }

    /// Theorem 11, as an algebraic property: whenever the gate passes, every
    /// δ inside the interval has relative error ≤ e.
    #[test]
    fn theorem11_gate_implies_bounded_error(
        delta_star in 0.01f64..2.0,
        e in 0.001f64..0.5,
        frac in 0.0f64..1.0,
        slack in 0.0f64..1.0,
    ) {
        // Choose an ε at or below the Theorem-11 threshold.
        let moe = required_moe(delta_star, e) * slack;
        prop_assert!(satisfies_error_bound(moe, delta_star, e));
        // Any δ the CI covers:
        let delta = (delta_star - moe) + 2.0 * moe * frac;
        let rel = (delta_star - delta).abs() / delta;
        prop_assert!(rel <= e + 1e-9, "rel={rel} e={e}");
    }

    /// The incremental sample size is 0 iff the gate already passes, and
    /// monotone in the MoE.
    #[test]
    fn incremental_sampling_monotone(
        delta_star in 0.01f64..1.0,
        e in 0.005f64..0.2,
        moe1 in 1e-6f64..0.5,
        bump in 1.0f64..4.0,
    ) {
        let s1 = incremental_sample_size(1000, moe1, delta_star, e, 0.6);
        let s2 = incremental_sample_size(1000, moe1 * bump, delta_star, e, 0.6);
        prop_assert!(s2 >= s1, "ΔS must grow with ε: {s1} vs {s2}");
        prop_assert_eq!(s1 == 0, satisfies_error_bound(moe1, delta_star, e));
    }

    /// Hoeffding bound is monotone: more confidence or less tolerance needs
    /// a larger population, and the bound is capped by n.
    #[test]
    fn hoeffding_monotonicity(
        m in 1usize..100,
        n in 1000usize..2_000_000,
        eps_idx in 1usize..10,
        beta_idx in 1usize..10,
    ) {
        let eps = eps_idx as f64 * 0.01;
        let beta = beta_idx as f64 * 0.02;
        let base = min_population_size(m, n, eps, beta);
        prop_assert!(base <= n);
        let tighter_eps = min_population_size(m, n, eps * 0.5, beta);
        prop_assert!(tighter_eps >= base);
        let tighter_beta = min_population_size(m, n, eps, beta * 0.5);
        prop_assert!(tighter_beta >= base);
    }

    /// Weighted sampling returns sorted distinct indices of the right size.
    #[test]
    fn sampling_shape(
        weights in prop::collection::vec(0.0f64..10.0, 1..200),
        k in 0usize..250,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = weighted_sample_without_replacement(&weights, k, &mut rng);
        prop_assert_eq!(s.len(), k.min(weights.len()));
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(s.iter().all(|&i| i < weights.len()));
    }

    /// The selection sampler picks what the heap reference picks and
    /// leaves the RNG where the reference leaves it, at every `k`; its
    /// `_into` twin does the same over the kept positions of a skip mask,
    /// as the reference does on the copied-out complement.
    #[test]
    fn sampler_matches_the_heap_reference(
        (weights, mask) in arb_weights().prop_flat_map(|w| {
            let n = w.len();
            (Just(w), prop::collection::vec(any::<bool>(), n))
        }),
        seed in any::<u64>(),
    ) {
        let kept: Vec<usize> = (0..weights.len()).filter(|&i| !mask[i]).collect();
        let sub: Vec<f64> = kept.iter().map(|&i| weights[i]).collect();
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        for k in 0..=weights.len() + 1 {
            let mut want = StdRng::seed_from_u64(seed);
            let mut got = StdRng::seed_from_u64(seed);
            prop_assert_eq!(
                weighted_sample_without_replacement(&weights, k, &mut got),
                reference_sample(&weights, k, &mut want),
                "k = {}", k
            );
            prop_assert_eq!(got.next_u64(), want.next_u64(), "RNG state at k = {}", k);

            let mut want = StdRng::seed_from_u64(seed);
            let mut got = StdRng::seed_from_u64(seed);
            let expect: Vec<u32> = reference_sample(&sub, k, &mut want)
                .into_iter()
                .map(|p| kept[p] as u32)
                .collect();
            weighted_sample_without_replacement_into(
                &weights, |i| mask[i], k, &mut got, &mut keys, &mut out,
            );
            prop_assert_eq!(&out, &expect, "skip mask, k = {}", k);
            prop_assert_eq!(got.next_u64(), want.next_u64(), "RNG state, skip mask, k = {}", k);
        }
    }

    /// BLB MoE is nonnegative and finite; the point estimate equals the
    /// data mean exactly.
    #[test]
    fn blb_sanity(data in prop::collection::vec(0.0f64..1.0, 0..300), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let est = Blb::default().estimate(&data, 1.96, &mut rng);
        prop_assert!(est.moe >= 0.0 && est.moe.is_finite());
        let mean = if data.is_empty() { 0.0 } else { data.iter().sum::<f64>() / data.len() as f64 };
        prop_assert!((est.point - mean).abs() < 1e-9);
        prop_assert!(est.blb_sample_size <= data.len().max(1));
    }

    /// `Blb::estimate_into` on pooled buffers — dirty from the previous
    /// call, of another size — returns bit for bit what BLB computed when
    /// it allocated per call, and leaves the RNG at the same next draw.
    #[test]
    fn blb_estimate_into_matches_the_allocating_estimate(
        calls in prop::collection::vec(
            (prop::collection::vec(0.0f64..1.0, 0..200), 1usize..30, 0.5f64..0.99, 2usize..60, 0u64..1000),
            1..4,
        ),
    ) {
        let (mut values, mut indices) = (Vec::new(), Vec::new());
        for (data, s, m, r, seed) in calls {
            let blb = Blb::new(s, m, r);
            let (mut got, mut want) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let est = blb.estimate_into(&data, 1.96, &mut got, &mut values, &mut indices);
            let (point, moe, sigma, size) = reference_blb(&blb, &data, 1.96, &mut want);
            prop_assert_eq!(est.point.to_bits(), point.to_bits());
            prop_assert_eq!(est.moe.to_bits(), moe.to_bits());
            prop_assert_eq!(est.sigma.to_bits(), sigma.to_bits());
            prop_assert_eq!(est.blb_sample_size, size);
            prop_assert_eq!(got.next_u64(), want.next_u64(), "RNG state, n = {}", data.len());
        }
    }

    /// ConfidenceInterval::covers agrees with endpoint arithmetic.
    #[test]
    fn ci_covers(center in -5.0f64..5.0, moe in 0.0f64..2.0, x in -8.0f64..8.0) {
        let ci = ConfidenceInterval { center, moe, confidence: 0.95 };
        prop_assert_eq!(ci.covers(x), x >= ci.lo() - 1e-12 && x <= ci.hi() + 1e-12);
    }
}
