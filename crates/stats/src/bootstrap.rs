//! Bootstrap and Bag of Little Bootstraps (BLB) estimator-quality
//! machinery (paper §V-B).
//!
//! SEA needs the standard deviation of the mean-like estimator δ⋆ to form
//! a confidence interval `δ⋆ ± z_{α/2}·σ_{δ⋆}`. The classic bootstrap
//! resamples the full data; BLB (Kleiner et al.) instead draws `s` small
//! subsamples of size `⌊n^m⌋` (`m ∈ [0.5, 1)`), bootstraps *resamples of
//! the full size `n`* out of each subsample, and averages the resulting
//! Margins of Error. This keeps the estimation cost almost independent of
//! the community size while estimating the `σ/√n`-scale error of the
//! full-data estimator.
//!
//! Note: the SEA paper's §V-B text says resamples "having size |Sᵢ|";
//! that deviates from the published BLB procedure and would estimate the
//! uncertainty of a `⌊n^m⌋`-sized estimator (orders of magnitude wider,
//! making the Theorem-11 gate unreachable for any community below ~10⁵
//! nodes at e = 2%). We follow the original BLB.

use crate::describe::{mean, std_dev};
use rand::Rng;

/// Standard deviation of the sample-mean estimator of `data`, estimated by
/// `resamples` bootstrap resamples of size `data.len()` drawn with
/// replacement (paper Eq. 11, with the conventional square root).
///
/// Returns 0 for data with fewer than two elements.
pub fn bootstrap_std<R: Rng + ?Sized>(data: &[f64], resamples: usize, rng: &mut R) -> f64 {
    bootstrap_std_sized(data, data.len(), resamples, rng)
}

/// Like [`bootstrap_std`] but each resample has `resample_len` elements
/// drawn (with replacement) from `data` — the BLB inner bootstrap, where
/// `data` is a small subsample but the estimator of interest averages the
/// full `n` observations.
pub fn bootstrap_std_sized<R: Rng + ?Sized>(
    data: &[f64],
    resample_len: usize,
    resamples: usize,
    rng: &mut R,
) -> f64 {
    if data.len() < 2 || resample_len < 2 || resamples < 2 {
        return 0.0;
    }
    resampled_std(data, resample_len, &mut vec![0.0; resamples], rng)
}

/// [`bootstrap_std_sized`] with one resample per entry of `means`, which
/// holds the resample means afterwards.
fn resampled_std<R: Rng + ?Sized>(
    data: &[f64],
    resample_len: usize,
    means: &mut [f64],
    rng: &mut R,
) -> f64 {
    if data.len() < 2 || resample_len < 2 || means.len() < 2 {
        return 0.0;
    }
    let b = data.len();
    for m in means.iter_mut() {
        let mut sum = 0.0;
        for _ in 0..resample_len {
            sum += data[rng.gen_range(0..b)];
        }
        *m = sum / resample_len as f64;
    }
    std_dev(means)
}

/// Bag of Little Bootstraps configuration.
///
/// Defaults match the paper's setup: `s = 20` subsamples of size
/// `⌊n^0.6⌋`, `r = 100` resamples per subsample.
#[derive(Clone, Copy, Debug)]
pub struct Blb {
    /// Number of subsamples `s`.
    pub subsamples: usize,
    /// Scale-factor exponent `m ∈ [0.5, 1)`: subsample size is `⌊n^m⌋`.
    pub scale_exponent: f64,
    /// Bootstrap resamples per subsample `r`.
    pub resamples: usize,
}

impl Default for Blb {
    fn default() -> Self {
        Blb {
            subsamples: 20,
            scale_exponent: 0.6,
            resamples: 100,
        }
    }
}

/// Result of a BLB estimation round.
#[derive(Clone, Copy, Debug)]
pub struct BlbEstimate {
    /// Point estimate δ⋆ (mean over the full data).
    pub point: f64,
    /// Margin of Error `ε = mean_i(z·σ_i)` at the requested confidence.
    pub moe: f64,
    /// Estimated standard deviation of the estimator (moe / z).
    pub sigma: f64,
    /// Total number of observations used across subsamples, `|S_blb|`
    /// (needed by the Eq.-12 incremental sampling rule).
    pub blb_sample_size: usize,
}

impl Blb {
    /// Creates a configuration, clamping `scale_exponent` into `[0.5, 1)`.
    pub fn new(subsamples: usize, scale_exponent: f64, resamples: usize) -> Self {
        Blb {
            subsamples: subsamples.max(1),
            scale_exponent: scale_exponent.clamp(0.5, 0.999),
            resamples: resamples.max(2),
        }
    }

    /// Subsample size `b = ⌊n^m⌋` for data of length `n`, at least 2 (a
    /// 1-element subsample would make the bootstrap variance degenerate
    /// and certify trivially) and at most `n`, additionally honoring the
    /// paper's constraint `s · b ≤ n` when possible.
    pub fn subsample_size(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let b = (n as f64).powf(self.scale_exponent).floor() as usize;
        b.clamp(2.min(n), n)
    }

    /// Runs BLB on `data`, producing the point estimate and MoE at the
    /// given `z` critical value.
    ///
    /// Subsamples are drawn without replacement within each subsample
    /// (distinct indices), independently across subsamples; the inner
    /// bootstrap draws resamples of the *full* length `n` out of each
    /// subsample, per the original BLB.
    pub fn estimate<R: Rng + ?Sized>(&self, data: &[f64], z: f64, rng: &mut R) -> BlbEstimate {
        self.estimate_into(data, z, rng, &mut Vec::new(), &mut Vec::new())
    }

    /// Allocation-free twin of [`Blb::estimate`]: the per-subsample
    /// margins, the subsample and the resample means live in `values`, and
    /// the index permutation in `indices` (both overwritten; a query
    /// thread passes pooled buffers). It makes the same draws from `rng`
    /// and returns a bit-identical estimate.
    ///
    /// # Panics
    /// When `data` holds more than `u32::MAX` values.
    pub fn estimate_into<R: Rng + ?Sized>(
        &self,
        data: &[f64],
        z: f64,
        rng: &mut R,
        values: &mut Vec<f64>,
        indices: &mut Vec<u32>,
    ) -> BlbEstimate {
        let n = data.len();
        let point = mean(data);
        if n < 2 {
            return BlbEstimate {
                point,
                moe: 0.0,
                sigma: 0.0,
                blb_sample_size: n,
            };
        }
        let b = self.subsample_size(n);
        // Honor s·b <= n when the data is large enough to afford disjointish
        // subsamples; for small data fall back to fewer subsamples.
        let s = self.subsamples.min((n / b).max(1));

        values.clear();
        values.resize(s + b + self.resamples, 0.0);
        let (moes, rest) = values.split_at_mut(s);
        let (subsample, means) = rest.split_at_mut(b);
        indices.clear();
        indices.extend(0..u32::try_from(n).expect("BLB data fits u32 indices"));
        for moe in moes.iter_mut() {
            // Partial Fisher-Yates: the first b entries become the
            // subsample indices, drawn without replacement.
            for i in 0..b {
                let j = rng.gen_range(i..n);
                indices.swap(i, j);
            }
            for (slot, &idx) in subsample.iter_mut().zip(&indices[..b]) {
                *slot = data[idx as usize];
            }
            *moe = z * resampled_std(subsample, n, means, rng);
        }
        let moe = mean(moes);
        BlbEstimate {
            point,
            moe,
            sigma: if z > 0.0 { moe / z } else { 0.0 },
            blb_sample_size: s * b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    #[test]
    fn bootstrap_std_tracks_clt_rate() {
        // For iid uniform(0,1), sd of the mean ≈ sqrt(1/12)/sqrt(n).
        let mut rng = StdRng::seed_from_u64(7);
        let data = uniform_data(400, 42);
        let est = bootstrap_std(&data, 400, &mut rng);
        let expect = (1.0f64 / 12.0).sqrt() / (400.0f64).sqrt();
        assert!(
            (est - expect).abs() < expect * 0.35,
            "bootstrap sd {est} vs CLT {expect}"
        );
    }

    #[test]
    fn bootstrap_std_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(bootstrap_std(&[], 100, &mut rng), 0.0);
        assert_eq!(bootstrap_std(&[1.0], 100, &mut rng), 0.0);
        assert_eq!(bootstrap_std(&[1.0, 2.0], 1, &mut rng), 0.0);
        // Constant data has zero variance.
        assert_eq!(bootstrap_std(&[3.0; 50], 100, &mut rng), 0.0);
    }

    #[test]
    fn blb_point_estimate_is_exact_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let est = Blb::default().estimate(&data, 1.96, &mut rng);
        assert!((est.point - 2.5).abs() < 1e-12);
    }

    #[test]
    fn blb_moe_shrinks_with_more_data() {
        let mut rng = StdRng::seed_from_u64(11);
        let small = Blb::default().estimate(&uniform_data(100, 5), 1.96, &mut rng);
        let large = Blb::default().estimate(&uniform_data(10_000, 5), 1.96, &mut rng);
        assert!(
            large.moe < small.moe,
            "MoE should shrink: {} -> {}",
            small.moe,
            large.moe
        );
    }

    #[test]
    fn blb_interval_covers_true_mean_usually() {
        // Repeated draws: the 95% CI should cover the true mean (0.5) most
        // of the time. With 40 trials, ≥ 30 covers is a very safe bound.
        let mut covered = 0;
        for trial in 0..40 {
            let data = uniform_data(500, 1000 + trial);
            let mut rng = StdRng::seed_from_u64(trial);
            let est = Blb::default().estimate(&data, 1.96, &mut rng);
            if (est.point - 0.5).abs() <= est.moe + 1e-9 {
                covered += 1;
            }
        }
        assert!(
            covered >= 30,
            "only {covered}/40 intervals covered the mean"
        );
    }

    #[test]
    fn blb_sample_size_respects_budget() {
        let blb = Blb::default();
        let data = uniform_data(1000, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let est = blb.estimate(&data, 1.96, &mut rng);
        let b = blb.subsample_size(1000); // 1000^0.6 ≈ 63
        assert_eq!(b, 63);
        assert!(est.blb_sample_size <= 1000, "s*b ≤ n");
        assert_eq!(est.blb_sample_size % b, 0);
    }

    #[test]
    fn blb_tiny_data_is_safe() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in 0..6 {
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let est = Blb::default().estimate(&data, 1.96, &mut rng);
            assert!(est.moe.is_finite());
            assert!(est.moe >= 0.0);
        }
    }

    #[test]
    fn new_clamps_parameters() {
        let blb = Blb::new(0, 0.1, 0);
        assert_eq!(blb.subsamples, 1);
        assert!(blb.scale_exponent >= 0.5);
        assert!(blb.resamples >= 2);
        let blb = Blb::new(10, 1.5, 50);
        assert!(blb.scale_exponent < 1.0);
    }
}
