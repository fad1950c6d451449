//! Weighted sampling without replacement (attribute-aware sampling, §V-A).
//!
//! SEA samples `|S| = λ·|V_Gq|` distinct nodes from the neighborhood `Gq`,
//! with probability proportional to `1 − f(v, q)` (Eq. 5). We use the
//! Efraimidis–Spirakis A-Res scheme: draw `key(v) = u_v^{1/w_v}` with
//! `u_v ~ U(0,1)` and keep the `k` largest keys, which realizes weighted
//! sampling without replacement in one pass. Keys are compared as
//! `ln u_v / w_v`, which orders like `u_v^{1/w_v}` without an `exp` per
//! item (and keeps apart keys whose `exp` would round to one value), and
//! the `k` largest are found by selection rather than a heap.

use rand::Rng;

/// Draws `k` distinct indices from `0..weights.len()` with probability
/// proportional to `weights[i]`, without replacement.
///
/// * Zero/negative/NaN/infinite weights are treated as "never sample"
///   unless fewer than `k` positive weights exist, in which case the
///   positive-weight items are exhausted first and the remainder is filled
///   uniformly from the others (so the requested sample size is always
///   honored when possible).
/// * Returns fewer than `k` indices only if `weights.len() < k`.
/// * The result is sorted.
///
/// Runs in O(n) expected time. The random draws are one `gen_range` per
/// positive finite weight in index order, then one per top-up pick.
pub fn weighted_sample_without_replacement<R: Rng + ?Sized>(
    weights: &[f64],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut picks = Vec::new();
    weighted_sample_without_replacement_into(
        weights,
        |_| false,
        k,
        rng,
        &mut Vec::new(),
        &mut picks,
    );
    picks.into_iter().map(|i| i as usize).collect()
}

/// [`weighted_sample_without_replacement`] over the positions for which
/// `skip` returns `false`, with caller-owned buffers: it draws exactly as the
/// allocating form does on the subsequence of kept weights, and writes
/// the chosen *original* positions, ascending, to `out` (cleared first).
/// `keys` is scratch. With warm buffers this allocates nothing — SEA's
/// incremental rounds draw over the unsampled part of the population
/// this way without copying it out.
///
/// # Panics
/// If `weights` has more than `u32::MAX` entries.
pub fn weighted_sample_without_replacement_into<R: Rng + ?Sized>(
    weights: &[f64],
    skip: impl Fn(usize) -> bool,
    k: usize,
    rng: &mut R,
    keys: &mut Vec<(f64, u32)>,
    out: &mut Vec<u32>,
) {
    keys.clear();
    out.clear();
    if k == 0 {
        return;
    }
    assert!(
        u32::try_from(weights.len()).is_ok(),
        "positions must fit in u32"
    );
    // A-Res keys of the positive weights; the other kept positions form
    // the top-up pool, collected in `out` until the picks replace them.
    for (i, &w) in weights.iter().enumerate() {
        if skip(i) {
            continue;
        }
        if w > 0.0 && w.is_finite() {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            keys.push((u.max(f64::MIN_POSITIVE).ln() / w, i as u32));
        } else {
            out.push(i as u32);
        }
    }
    if keys.len() > k {
        keys.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
        keys.truncate(k);
    }
    // Top up uniformly from the pool: a partial Fisher–Yates leaves the
    // drawn items at its front.
    let pool = out.len();
    let need = (k - keys.len()).min(pool);
    for i in 0..need {
        let j = rng.gen_range(i..pool);
        out.swap(i, j);
    }
    out.truncate(need);
    out.extend(keys.iter().map(|&(_, i)| i));
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_is_distinct_and_right_sized() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let s = weighted_sample_without_replacement(&weights, 20, &mut rng);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted & distinct");
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn oversampling_returns_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let weights = [1.0, 2.0, 3.0];
        let s = weighted_sample_without_replacement(&weights, 10, &mut rng);
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn zero_k_is_empty() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(weighted_sample_without_replacement(&[1.0, 2.0], 0, &mut rng).is_empty());
        assert!(weighted_sample_without_replacement(&[], 5, &mut rng).is_empty());
    }

    #[test]
    fn heavier_items_are_sampled_more_often() {
        // Item 9 has weight 10, item 0 has weight 1; over many draws of a
        // single item, item 9 must appear far more often.
        let weights: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        for _ in 0..4000 {
            let s = weighted_sample_without_replacement(&weights, 1, &mut rng);
            counts[s[0]] += 1;
        }
        // Expected ratio 10:1; allow generous slack.
        assert!(
            counts[9] > counts[0] * 4,
            "heavy item drawn {} vs light {}",
            counts[9],
            counts[0]
        );
        // Expected frequency of item 9 is 10/55 ≈ 18%; check within ±6%.
        let f9 = counts[9] as f64 / 4000.0;
        assert!((f9 - 10.0 / 55.0).abs() < 0.06, "frequency {f9}");
    }

    #[test]
    fn zero_weights_fill_only_when_needed() {
        let mut rng = StdRng::seed_from_u64(5);
        let weights = [0.0, 5.0, 0.0, 5.0];
        // k=2: both positive items must be chosen (they're the only
        // positively-weighted ones and k equals their count)... note A-Res
        // picks among positive first.
        let s = weighted_sample_without_replacement(&weights, 2, &mut rng);
        assert_eq!(s, vec![1, 3]);
        // k=3: one zero-weight item joins.
        let s = weighted_sample_without_replacement(&weights, 3, &mut rng);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&1) && s.contains(&3));
    }

    #[test]
    fn nan_and_negative_weights_are_never_preferred() {
        let mut rng = StdRng::seed_from_u64(6);
        let weights = [f64::NAN, -3.0, 2.0];
        let s = weighted_sample_without_replacement(&weights, 1, &mut rng);
        assert_eq!(s, vec![2]);
    }

    #[test]
    fn deterministic_under_seed() {
        let weights: Vec<f64> = (1..=30).map(|i| (i % 7 + 1) as f64).collect();
        let a = weighted_sample_without_replacement(&weights, 10, &mut StdRng::seed_from_u64(42));
        let b = weighted_sample_without_replacement(&weights, 10, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
