//! The exact binomial tail — the one-sided test behind the certificate
//! coverage check: with `v` violations among `n` certified answers, is
//! "violation rate ≤ α" still tenable?

/// `P[X ≥ k]` for `X ~ Binomial(n, p)`: the p-value of the one-sided
/// exact test of "success probability ≤ `p`" after seeing `k` successes
/// in `n` trials. Summed term by term from a log-space recurrence, so
/// `(1 − p)^n` underflowing for large `n` costs nothing.
///
/// # Panics
/// When `p` is outside `[0, 1]`.
pub fn binomial_tail(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "binomial_tail: p out of [0, 1]");
    if k == 0 {
        return 1.0;
    }
    if k > n || p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let log_odds = p.ln() - (-p).ln_1p();
    // ln pmf(0) = n·ln(1 − p); pmf(i + 1) = pmf(i)·(n − i)/(i + 1)·p/(1 − p).
    let mut log_pmf = n as f64 * (-p).ln_1p();
    let mut tail = 0.0;
    for i in 0..=n {
        if i >= k {
            tail += log_pmf.exp();
        }
        if i < n {
            log_pmf += ((n - i) as f64).ln() - ((i + 1) as f64).ln() + log_odds;
        }
    }
    tail.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64) {
        assert!((got - want).abs() <= 1e-12 + 1e-9 * want, "{got} vs {want}");
    }

    #[test]
    fn tail_matches_hand_values() {
        // (45 + 10 + 1) / 1024.
        close(binomial_tail(10, 8, 0.5), 0.0546875);
        // 1 − 0.9⁵.
        close(binomial_tail(5, 1, 0.1), 0.40951);
        // Exact rational sums, evaluated offline.
        close(binomial_tail(20, 3, 0.05), 0.07548367378849634);
        close(binomial_tail(200, 18, 0.05), 0.012089443730889564);
        close(binomial_tail(200, 19, 0.05), 0.005823557967790665);
        close(binomial_tail(200, 10, 0.05), 0.5452901913191807);
        // 0.95⁴⁰⁰⁰ is ~1e-89: the recurrence runs in logs.
        close(binomial_tail(4000, 250, 0.05), 0.0002562478665033626);
    }

    #[test]
    fn tail_edges() {
        assert_eq!(binomial_tail(7, 0, 0.3), 1.0);
        assert_eq!(binomial_tail(7, 8, 0.3), 0.0);
        assert_eq!(binomial_tail(7, 1, 0.0), 0.0);
        assert_eq!(binomial_tail(7, 7, 1.0), 1.0);
        close(binomial_tail(7, 7, 0.5), 0.5f64.powi(7));
        close(binomial_tail(0, 0, 0.5), 1.0);
        // Monotone in k: more observed violations are never less surprising.
        let tails: Vec<f64> = (0..=30).map(|k| binomial_tail(30, k, 0.05)).collect();
        assert!(tails.windows(2).all(|w| w[0] >= w[1]));
    }
}
