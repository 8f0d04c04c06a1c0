//! Randomized property tests for the constrained-regression kernels
//! (satellite of the gpm-obs observability PR). Failures print a
//! `GPM_CHECK_SEED=...` replay command; see the gpm-check docs.

use gpm_check::check;
use gpm_linalg::{isotonic_increasing, nnls, Matrix};

/// Pool-adjacent-violators output must be non-decreasing, match the
/// input length, and stay within the input's value range (it is a
/// weighted projection, so it cannot extrapolate).
#[test]
fn isotonic_regression_output_is_monotone() {
    check("isotonic_regression_output_is_monotone", |g| {
        let n = g.usize_in(1..24);
        let y = g.vec_f64(n..n + 1, -100.0, 100.0);
        let w: Vec<f64> = (0..n).map(|_| g.f64_in(0.1, 10.0)).collect();
        let fit = isotonic_increasing(&y, &w);
        assert_eq!(fit.len(), n);
        for pair in fit.windows(2) {
            assert!(
                pair[0] <= pair[1] + 1e-9,
                "non-monotone step {} -> {} in {fit:?}",
                pair[0],
                pair[1]
            );
        }
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &fit {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
        }
    });
}

/// NNLS must return finite, non-negative coefficients for random
/// well-posed systems, and its residual can never beat the
/// unconstrained optimum by construction — here we only require that
/// it reproduces a non-negative ground truth closely when one exists.
#[test]
fn nnls_output_is_non_negative_on_well_posed_systems() {
    check("nnls_output_is_non_negative_on_well_posed_systems", |g| {
        let cols = g.usize_in(1..5);
        let rows = cols + g.usize_in(2..8);
        // Diagonally-boosted random design: well-conditioned with high
        // probability, so the solver exercises its full pivoting path.
        let a = Matrix::from_fn(rows, cols, |i, j| {
            let base = g.f64_in(-1.0, 1.0);
            if i == j {
                base + 3.0
            } else {
                base
            }
        });
        let truth: Vec<f64> = (0..cols).map(|_| g.f64_in(0.0, 5.0)).collect();
        let b = a.mat_vec(&truth).expect("dimensions agree");
        let x = nnls(&a, &b).expect("well-posed system solves");
        assert_eq!(x.len(), cols);
        for &v in &x {
            assert!(v >= 0.0, "negative coefficient {v} in {x:?}");
            assert!(v.is_finite(), "non-finite coefficient in {x:?}");
        }
        // Exact data with a feasible (non-negative) truth: the KKT
        // point must reproduce it.
        for (xi, ti) in x.iter().zip(&truth) {
            assert!((xi - ti).abs() < 1e-6, "{x:?} vs truth {truth:?}");
        }
    });
}

/// NNLS clamps actively-negative directions at zero rather than
/// returning small negative values.
#[test]
fn nnls_never_returns_negative_even_when_truth_is_negative() {
    check(
        "nnls_never_returns_negative_even_when_truth_is_negative",
        |g| {
            let cols = g.usize_in(1..4);
            let rows = cols + 4;
            let a = Matrix::from_fn(rows, cols, |i, j| {
                let base = g.f64_in(-1.0, 1.0);
                if i == j {
                    base + 3.0
                } else {
                    base
                }
            });
            // Mixed-sign truth: some coordinates should hit the boundary.
            let truth: Vec<f64> = (0..cols).map(|_| g.f64_in(-5.0, 5.0)).collect();
            let b = a.mat_vec(&truth).expect("dimensions agree");
            let x = nnls(&a, &b).expect("well-posed system solves");
            for &v in &x {
                assert!(v >= 0.0, "negative coefficient {v} in {x:?}");
            }
        },
    );
}
