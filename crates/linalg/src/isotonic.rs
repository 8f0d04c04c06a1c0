//! Weighted isotonic regression (pool adjacent violators).

/// Weighted isotonic regression with a non-decreasing constraint.
///
/// Returns the vector `ŷ` minimizing `Σ wᵢ (ŷᵢ − yᵢ)²` subject to
/// `ŷ₀ ≤ ŷ₁ ≤ … ≤ ŷₙ₋₁`, computed with the pool-adjacent-violators
/// algorithm (PAVA) in `O(n)`.
///
/// Step 2 of the paper's estimator (Eq. 12) constrains the per-frequency
/// voltage estimates to be monotone in frequency
/// (`∀ f_{x1} > f_{x2}: V̄_{x1} ≥ V̄_{x2}`); after the per-configuration
/// unconstrained fits, the estimator projects each voltage sequence onto
/// the monotone cone with this routine, weighting by the configurations'
/// Gauss–Newton curvature.
///
/// Zero weights are allowed (such points adopt the pooled value of their
/// block). Empty input yields an empty output.
///
/// # Panics
///
/// Panics if `y.len() != w.len()` or any weight is negative/non-finite —
/// caller-side programming errors rather than data conditions.
///
/// # Example
///
/// ```
/// use gpm_linalg::isotonic_increasing;
///
/// let y = [1.0, 3.0, 2.0, 4.0];
/// let w = [1.0, 1.0, 1.0, 1.0];
/// let fit = isotonic_increasing(&y, &w);
/// assert_eq!(fit, vec![1.0, 2.5, 2.5, 4.0]);
/// ```
pub fn isotonic_increasing(y: &[f64], w: &[f64]) -> Vec<f64> {
    let mut ws = IsotonicWorkspace::new();
    let mut out = Vec::new();
    isotonic_increasing_into(y, w, &mut ws, &mut out);
    out
}

/// Reusable PAVA block storage for [`isotonic_increasing_into`].
#[derive(Debug, Default)]
pub struct IsotonicWorkspace {
    vals: Vec<f64>,
    wts: Vec<f64>,
    counts: Vec<usize>,
}

impl IsotonicWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        IsotonicWorkspace::default()
    }
}

/// [`isotonic_increasing`] reusing caller-owned block and output buffers.
///
/// `out` is cleared and refilled; allocation-free once both the workspace
/// and `out` have grown to the sequence length.
///
/// # Panics
///
/// Same conditions as [`isotonic_increasing`].
pub fn isotonic_increasing_into(
    y: &[f64],
    w: &[f64],
    ws: &mut IsotonicWorkspace,
    out: &mut Vec<f64>,
) {
    assert_eq!(
        y.len(),
        w.len(),
        "values and weights must have equal length"
    );
    assert!(
        w.iter().all(|&wi| wi >= 0.0 && wi.is_finite()),
        "weights must be non-negative and finite"
    );
    let n = y.len();
    out.clear();
    if n == 0 {
        return;
    }

    // Each block stores (pooled value, total weight, count). Blocks merge
    // whenever the monotonicity between adjacent blocks is violated.
    let IsotonicWorkspace { vals, wts, counts } = ws;
    vals.clear();
    wts.clear();
    counts.clear();

    for i in 0..n {
        vals.push(y[i]);
        wts.push(w[i]);
        counts.push(1);
        while vals.len() > 1 {
            let k = vals.len();
            if vals[k - 2] <= vals[k - 1] {
                break;
            }
            // Pool the last two blocks (weighted mean; plain mean when the
            // pooled weight is zero so zero-weight points stay finite).
            let wsum = wts[k - 2] + wts[k - 1];
            let pooled = if wsum > 0.0 {
                (vals[k - 2] * wts[k - 2] + vals[k - 1] * wts[k - 1]) / wsum
            } else {
                let csum = (counts[k - 2] + counts[k - 1]) as f64;
                (vals[k - 2] * counts[k - 2] as f64 + vals[k - 1] * counts[k - 1] as f64) / csum
            };
            vals[k - 2] = pooled;
            wts[k - 2] = wsum;
            counts[k - 2] += counts[k - 1];
            vals.pop();
            wts.pop();
            counts.pop();
        }
    }

    for (v, c) in vals.iter().zip(&*counts) {
        out.extend(std::iter::repeat_n(*v, *c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_monotone_is_unchanged() {
        let y = [1.0, 2.0, 3.0];
        let w = [1.0, 1.0, 1.0];
        assert_eq!(isotonic_increasing(&y, &w), y.to_vec());
    }

    #[test]
    fn single_violation_pools_pair() {
        let fit = isotonic_increasing(&[2.0, 1.0], &[1.0, 1.0]);
        assert_eq!(fit, vec![1.5, 1.5]);
    }

    #[test]
    fn weights_bias_the_pool() {
        let fit = isotonic_increasing(&[2.0, 1.0], &[3.0, 1.0]);
        assert_eq!(fit, vec![1.75, 1.75]);
    }

    #[test]
    fn cascade_merge() {
        // Strictly decreasing input pools into one global block.
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        let w = [1.0; 5];
        let fit = isotonic_increasing(&y, &w);
        for v in &fit {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(isotonic_increasing(&[], &[]).is_empty());
        assert_eq!(isotonic_increasing(&[7.0], &[2.0]), vec![7.0]);
    }

    #[test]
    fn zero_weight_points_follow_block() {
        let fit = isotonic_increasing(&[3.0, 0.0, 4.0], &[1.0, 0.0, 1.0]);
        // The zero-weight middle point pools with its violating neighbor
        // but contributes nothing to the level.
        assert!(fit.windows(2).all(|p| p[0] <= p[1] + 1e-12));
        assert_eq!(fit[0], 3.0);
        assert_eq!(fit[1], 3.0);
        assert_eq!(fit[2], 4.0);
    }

    #[test]
    fn into_variant_matches_allocating_version() {
        let mut ws = IsotonicWorkspace::new();
        let mut out = Vec::new();
        let cases: [&[f64]; 4] = [
            &[1.0, 3.0, 2.0, 4.0],
            &[5.0, 4.0, 3.0, 2.0, 1.0],
            &[7.0],
            &[],
        ];
        for y in cases {
            let w = vec![1.0; y.len()];
            isotonic_increasing_into(y, &w, &mut ws, &mut out);
            assert_eq!(out, isotonic_increasing(y, &w));
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        isotonic_increasing(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        isotonic_increasing(&[1.0], &[-1.0]);
    }

    mod prop {
        use super::*;

        #[test]
        fn output_is_monotone() {
            gpm_check::check("output_is_monotone", |g| {
                let y = g.vec_f64(0..40, -100.0, 100.0);
                let w = vec![1.0; y.len()];
                let fit = isotonic_increasing(&y, &w);
                assert_eq!(fit.len(), y.len());
                for p in fit.windows(2) {
                    assert!(p[0] <= p[1] + 1e-9);
                }
            });
        }

        #[test]
        fn weighted_mean_is_preserved() {
            gpm_check::check("weighted_mean_is_preserved", |g| {
                let y = g.vec_f64(1..30, -50.0, 50.0);
                let wseed = g.u64_in(1..100);
                let w: Vec<f64> = (0..y.len())
                    .map(|i| ((i as u64 * wseed) % 5 + 1) as f64)
                    .collect();
                let fit = isotonic_increasing(&y, &w);
                let m0: f64 = y.iter().zip(&w).map(|(v, wi)| v * wi).sum();
                let m1: f64 = fit.iter().zip(&w).map(|(v, wi)| v * wi).sum();
                assert!((m0 - m1).abs() < 1e-6 * (1.0 + m0.abs()));
            });
        }

        #[test]
        fn idempotent() {
            gpm_check::check("idempotent", |g| {
                let y = g.vec_f64(0..25, -10.0, 10.0);
                let w = vec![1.0; y.len()];
                let once = isotonic_increasing(&y, &w);
                let twice = isotonic_increasing(&once, &w);
                for (a, b) in once.iter().zip(&twice) {
                    assert!((a - b).abs() < 1e-9);
                }
            });
        }

        #[test]
        fn no_worse_than_any_constant() {
            gpm_check::check("no_worse_than_any_constant", |g| {
                // The isotonic fit must have SSE no worse than the best
                // constant (a feasible monotone solution).
                let y = g.vec_f64(1..20, -10.0, 10.0);
                let c = g.f64_in(-10.0, 10.0);
                let w = vec![1.0; y.len()];
                let fit = isotonic_increasing(&y, &w);
                let sse_fit: f64 = fit.iter().zip(&y).map(|(f, v)| (f - v) * (f - v)).sum();
                let sse_c: f64 = y.iter().map(|v| (c - v) * (c - v)).sum();
                assert!(sse_fit <= sse_c + 1e-9);
            });
        }
    }
}
