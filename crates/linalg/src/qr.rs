//! Householder-QR least squares.

use crate::{LinalgError, Matrix};

/// Reusable scratch for [`lstsq_with`] / [`ridge_lstsq_with`].
///
/// Owns every buffer the Householder solve touches (the in-place `R`
/// factor, the transformed right-hand side, the reflection vector, the
/// per-column reflection factors, the solution, and the ridge-augmented
/// system), so repeated solves of same-shaped problems perform no heap
/// allocation after the first call.
#[derive(Debug, Default)]
pub struct LstsqWorkspace {
    r: Matrix,
    y: Vec<f64>,
    v: Vec<f64>,
    f: Vec<f64>,
    x: Vec<f64>,
    aug: Matrix,
    rhs: Vec<f64>,
}

impl LstsqWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LstsqWorkspace::default()
    }
}

/// The Householder-QR solve on explicit scratch buffers.
///
/// Each reflection is applied in one sweep over the rows of the trailing
/// block (and `y`), not one strided walk per column, and every row is
/// reached as a slice of `R`, not by bounds-checked `(i, j)` indexing.
/// Every column's dot product still sums in row order and every update is
/// the same product, so the result is bit-identical to reflecting column
/// by column.
fn lstsq_core(
    a: &Matrix,
    b: &[f64],
    r: &mut Matrix,
    y: &mut Vec<f64>,
    v: &mut Vec<f64>,
    f: &mut Vec<f64>,
    x: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {m}"),
            got: format!("length {}", b.len()),
        });
    }
    if m < n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("at least {n} rows"),
            got: format!("{m} rows"),
        });
    }
    if !a.is_finite() || b.iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NotFinite);
    }

    // Working copies: R starts as A, y as b; Householder reflections are
    // applied to both in lockstep.
    r.copy_from(a);
    y.clear();
    y.extend_from_slice(b);
    let scale = r.max_abs().max(1e-300);

    let data = r.as_mut_slice();
    for k in 0..n {
        // The Householder vector for column k below the diagonal, read
        // down the column one row at a time.
        v.clear();
        v.extend(data[k * n + k..].iter().step_by(n));
        let norm = v.iter().fold(0.0, |s, &rik| s + rik * rik).sqrt();
        if norm <= scale * 1e-13 {
            return Err(LinalgError::Singular);
        }
        let alpha = if v[0] >= 0.0 { -norm } else { norm };
        v[0] -= alpha;
        let vtv: f64 = v.iter().map(|x| x * x).sum();
        if vtv <= 0.0 {
            // Column already triangular.
            continue;
        }
        // Apply H = I - 2 v vᵀ / (vᵀv) to the trailing block of R and to
        // y: f[j] = 2 vᵀ(column k + j) / vᵀv, and fy the same for y.
        f.clear();
        f.resize(n - k, 0.0);
        let mut fy = 0.0;
        for ((row, &yi), &vi) in data[k * n..].chunks_exact(n).zip(&y[k..]).zip(&*v) {
            for (fj, &rij) in f.iter_mut().zip(&row[k..]) {
                *fj += vi * rij;
            }
            fy += vi * yi;
        }
        for fj in f.iter_mut() {
            *fj = 2.0 * *fj / vtv;
        }
        let fy = 2.0 * fy / vtv;
        for ((row, yi), &vi) in data[k * n..].chunks_exact_mut(n).zip(&mut y[k..]).zip(&*v) {
            for (rij, &fj) in row[k..].iter_mut().zip(&*f) {
                *rij -= fj * vi;
            }
            *yi -= fy * vi;
        }
    }

    // Back substitution on the n x n upper triangle.
    x.clear();
    x.resize(n, 0.0);
    for k in (0..n).rev() {
        let mut s = y[k];
        for j in (k + 1)..n {
            s -= r[(k, j)] * x[j];
        }
        let d = r[(k, k)];
        if d.abs() <= scale * 1e-13 {
            return Err(LinalgError::Singular);
        }
        x[k] = s / d;
    }
    Ok(())
}

/// [`lstsq`] reusing a caller-owned [`LstsqWorkspace`].
///
/// Returns the solution as a slice borrowed from the workspace; copy it out
/// before the next solve. Allocation-free once the workspace buffers have
/// grown to the problem size.
///
/// # Errors
///
/// Same conditions as [`lstsq`].
pub fn lstsq_with<'ws>(
    a: &Matrix,
    b: &[f64],
    ws: &'ws mut LstsqWorkspace,
) -> Result<&'ws [f64], LinalgError> {
    let LstsqWorkspace { r, y, v, f, x, .. } = ws;
    lstsq_core(a, b, r, y, v, f, x)?;
    Ok(x)
}

/// [`ridge_lstsq`] reusing a caller-owned [`LstsqWorkspace`].
///
/// # Errors
///
/// Same conditions as [`ridge_lstsq`].
pub fn ridge_lstsq_with<'ws>(
    a: &Matrix,
    b: &[f64],
    lambda: f64,
    ws: &'ws mut LstsqWorkspace,
) -> Result<&'ws [f64], LinalgError> {
    if !lambda.is_finite() || lambda < 0.0 {
        return Err(LinalgError::NotFinite);
    }
    if lambda == 0.0 {
        return lstsq_with(a, b, ws);
    }
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {m}"),
            got: format!("length {}", b.len()),
        });
    }
    let sqrt_l = lambda.sqrt();
    let LstsqWorkspace {
        r,
        y,
        v,
        f,
        x,
        aug,
        rhs,
    } = ws;
    // Same entries, in the same (i, j) order, as the `Matrix::from_fn`
    // construction in `ridge_lstsq`.
    aug.reshape(m + n, n);
    for i in 0..m + n {
        for j in 0..n {
            aug[(i, j)] = if i < m {
                a[(i, j)]
            } else if i - m == j {
                sqrt_l
            } else {
                0.0
            };
        }
    }
    rhs.clear();
    rhs.extend_from_slice(b);
    rhs.extend(std::iter::repeat_n(0.0, n));
    lstsq_core(aug, rhs, r, y, v, f, x)?;
    Ok(x)
}

/// Solves the least-squares problem `min ||A x - b||₂` via Householder QR.
///
/// Requires `A` to have at least as many rows as columns and full column
/// rank; for rank-deficient designs (which arise legitimately in step 1 of
/// the paper's estimator, where the core and memory static-power columns
/// coincide) use [`ridge_lstsq`].
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] if `b.len() != A.rows()` or
///   `A.rows() < A.cols()`;
/// - [`LinalgError::NotFinite`] if any input entry is NaN/infinite;
/// - [`LinalgError::Singular`] if a diagonal of `R` vanishes relative to
///   the matrix scale (rank deficiency).
///
/// # Example
///
/// ```
/// use gpm_linalg::{lstsq, Matrix};
///
/// // Overdetermined: y ≈ 3x fitted from noisy-free redundant rows.
/// let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]])?;
/// let x = lstsq(&a, &[3.0, 6.0, 9.0])?;
/// assert!((x[0] - 3.0).abs() < 1e-12);
/// # Ok::<(), gpm_linalg::LinalgError>(())
/// ```
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut ws = LstsqWorkspace::new();
    lstsq_with(a, b, &mut ws).map(<[f64]>::to_vec)
}

/// Tikhonov-regularized least squares: `min ||A x - b||² + λ ||x||²`.
///
/// Implemented by QR on the augmented system `[A; √λ·I] x = [b; 0]`, which
/// is full rank for any `λ > 0` and therefore returns the *minimum-norm*
/// solution in the limit of small `λ` even when `A` is rank deficient.
///
/// The estimator uses this with a tiny `λ` in step 1 (Section III-D),
/// where the static-power columns of the two domains are identical by
/// construction: the minimum-norm solution splits the aggregate constant
/// evenly between `β0` and `β2`, and subsequent iterations (with distinct
/// per-domain voltages) disambiguate them.
///
/// # Errors
///
/// Same conditions as [`lstsq`], plus `λ` must be non-negative and finite
/// ([`LinalgError::NotFinite`] otherwise).
pub fn ridge_lstsq(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, LinalgError> {
    let mut ws = LstsqWorkspace::new();
    ridge_lstsq_with(a, b, lambda, &mut ws).map(<[f64]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mat_vec(x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(p, m)| (p - m) * (p - m))
            .sum::<f64>()
            .sqrt()
    }

    /// The reference Householder solve: each reflection walks the
    /// trailing columns one at a time, with stride `n` down each column.
    /// `lstsq_core`'s row sweep must match it bit for bit.
    fn column_loop_lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = a.rows();
        let n = a.cols();
        if b.len() != m || m < n {
            return Err(LinalgError::DimensionMismatch {
                expected: String::new(),
                got: String::new(),
            });
        }
        if !a.is_finite() || b.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NotFinite);
        }
        let mut r = a.clone();
        let mut y = b.to_vec();
        let scale = r.max_abs().max(1e-300);
        for k in 0..n {
            let mut norm = 0.0;
            for i in k..m {
                norm += r[(i, k)] * r[(i, k)];
            }
            let norm = norm.sqrt();
            if norm <= scale * 1e-13 {
                return Err(LinalgError::Singular);
            }
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m - k];
            v[0] = r[(k, k)] - alpha;
            for i in (k + 1)..m {
                v[i - k] = r[(i, k)];
            }
            let vtv: f64 = v.iter().map(|x| x * x).sum();
            if vtv <= 0.0 {
                continue;
            }
            for j in k..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i - k] * r[(i, j)];
                }
                let f = 2.0 * dot / vtv;
                for i in k..m {
                    r[(i, j)] -= f * v[i - k];
                }
            }
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i - k] * y[i];
            }
            let f = 2.0 * dot / vtv;
            for i in k..m {
                y[i] -= f * v[i - k];
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = y[k];
            for j in (k + 1)..n {
                s -= r[(k, j)] * x[j];
            }
            let d = r[(k, k)];
            if d.abs() <= scale * 1e-13 {
                return Err(LinalgError::Singular);
            }
            x[k] = s / d;
        }
        Ok(x)
    }

    #[test]
    fn solves_square_system_exactly() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = lstsq(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_matches_normal_equations() {
        // 5 points on y = 1.5x - 2 with symmetric perturbations: the LS
        // fit is still exactly (1.5, -2).
        let xs = [0.0f64, 1.0, 2.0, 3.0, 4.0];
        let noise = [0.1f64, -0.1, 0.0, 0.1, -0.1];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let a = Matrix::from_rows(&rows).unwrap();
        let b: Vec<f64> = xs
            .iter()
            .zip(noise)
            .map(|(&x, n)| 1.5 * x - 2.0 + n)
            .collect();
        let sol = lstsq(&a, &b).unwrap();
        // Verify against explicitly solved normal equations.
        let at = a.transpose();
        let ata = at.matmul(&a).unwrap();
        let atb = at.mat_vec(&b).unwrap();
        let expected = lstsq(&ata, &atb).unwrap();
        assert!((sol[0] - expected[0]).abs() < 1e-10);
        assert!((sol[1] - expected[1]).abs() < 1e-10);
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.5],
            vec![2.0, -1.0],
            vec![0.5, 2.0],
            vec![3.0, 1.0],
        ])
        .unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = lstsq(&a, &b).unwrap();
        let pred = a.mat_vec(&x).unwrap();
        let resid: Vec<f64> = pred.iter().zip(b).map(|(p, m)| m - p).collect();
        for j in 0..a.cols() {
            let dot: f64 = a.col(j).iter().zip(&resid).map(|(c, r)| c * r).sum();
            assert!(dot.abs() < 1e-10, "column {j} not orthogonal: {dot}");
        }
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        assert_eq!(lstsq(&a, &[1.0, 2.0, 3.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn ridge_handles_duplicate_columns_with_even_split() {
        // Two identical columns: ridge returns the minimum-norm solution,
        // splitting the coefficient evenly — exactly the step-1 situation
        // for the β0/β2 static-power columns.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let b = [2.0, 4.0, 6.0];
        let x = ridge_lstsq(&a, &b, 1e-10).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-4, "{x:?}");
        assert!((x[1] - 1.0).abs() < 1e-4, "{x:?}");
        assert!(residual_norm(&a, &x, &b) < 1e-4);
    }

    #[test]
    fn ridge_with_zero_lambda_is_plain_lstsq() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = [2.0, 4.0];
        assert_eq!(ridge_lstsq(&a, &b, 0.0).unwrap(), lstsq(&a, &b).unwrap());
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let b = [1.0, 1.0];
        let x0 = ridge_lstsq(&a, &b, 1e-12).unwrap()[0];
        let x1 = ridge_lstsq(&a, &b, 10.0).unwrap()[0];
        assert!(x1 < x0);
        assert!(x1 > 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        // Underdetermined.
        assert!(lstsq(&a, &[1.0]).is_err());
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        // RHS length mismatch.
        assert!(lstsq(&a, &[1.0]).is_err());
        // Non-finite entries.
        let bad = Matrix::from_rows(&[vec![f64::NAN], vec![1.0]]).unwrap();
        assert_eq!(lstsq(&bad, &[1.0, 1.0]), Err(LinalgError::NotFinite));
        assert_eq!(
            ridge_lstsq(&a, &[1.0, 2.0], f64::NAN),
            Err(LinalgError::NotFinite)
        );
        assert_eq!(
            ridge_lstsq(&a, &[1.0, 2.0], -1.0),
            Err(LinalgError::NotFinite)
        );
    }

    #[test]
    fn solves_ill_conditioned_but_full_rank() {
        // Vandermonde-ish system with modest conditioning.
        let xs = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x, x * x]).collect();
        let a = Matrix::from_rows(&rows).unwrap();
        let truth = [0.3, -1.2, 2.5];
        let b = a.mat_vec(&truth).unwrap();
        let x = lstsq(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(truth) {
            assert!((xi - ti).abs() < 1e-8, "{x:?}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_shapes() {
        let mut ws = LstsqWorkspace::new();
        // Alternate between two differently-shaped systems so the reused
        // buffers shrink and grow; every solve must equal the fresh path.
        let a1 = Matrix::from_fn(6, 3, |i, j| ((i * 5 + j * 2) % 7) as f64 + 0.25);
        let b1: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let a2 = Matrix::from_fn(4, 2, |i, j| (i + j) as f64 + 0.5);
        let b2: Vec<f64> = (0..4).map(|i| 1.5 * i as f64).collect();
        for _ in 0..3 {
            let x1 = lstsq_with(&a1, &b1, &mut ws).unwrap().to_vec();
            assert_eq!(x1, lstsq(&a1, &b1).unwrap());
            let x2 = ridge_lstsq_with(&a2, &b2, 1e-6, &mut ws).unwrap().to_vec();
            assert_eq!(x2, ridge_lstsq(&a2, &b2, 1e-6).unwrap());
        }
    }

    #[test]
    fn workspace_variant_reports_same_errors() {
        let mut ws = LstsqWorkspace::new();
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        assert_eq!(
            lstsq_with(&a, &[1.0, 2.0, 3.0], &mut ws).err(),
            Some(LinalgError::Singular)
        );
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(
            ridge_lstsq_with(&a, &[1.0, 2.0], -1.0, &mut ws).err(),
            Some(LinalgError::NotFinite)
        );
        assert!(ridge_lstsq_with(&a, &[1.0], 1e-3, &mut ws).is_err());
    }

    mod prop {
        use super::*;

        fn bits(r: Result<Vec<f64>, LinalgError>) -> Result<Vec<u64>, LinalgError> {
            r.map(|x| x.iter().map(|v| v.to_bits()).collect())
        }

        #[test]
        fn row_sweep_matches_the_column_loop_bit_for_bit() {
            gpm_check::check("row_sweep_matches_the_column_loop_bit_for_bit", |g| {
                let n = *g.choose(&[1usize, 1, 2, 3, 5, 8, 11]);
                let m = n + *g.choose(&[0usize, 0, 1, 3, 9, 40]);
                let mut a = Matrix::from_fn(m, n, |_, _| g.f64_in(-2.0, 2.0));
                if n > 1 && g.usize_in(0..4) == 0 {
                    // A repeated column: both paths must fail the same way.
                    for i in 0..m {
                        a[(i, n - 1)] = a[(i, 0)];
                    }
                }
                let b = g.vec_f64(m..m + 1, -5.0, 5.0);
                assert_eq!(
                    bits(lstsq(&a, &b)),
                    bits(column_loop_lstsq(&a, &b)),
                    "lstsq {m}x{n}"
                );
                let lambda = g.f64_in(1e-9, 1.0);
                let aug = Matrix::from_fn(m + n, n, |i, j| {
                    if i < m {
                        a[(i, j)]
                    } else if i - m == j {
                        lambda.sqrt()
                    } else {
                        0.0
                    }
                });
                let mut rhs = b.clone();
                rhs.resize(m + n, 0.0);
                assert_eq!(
                    bits(ridge_lstsq(&a, &b, lambda)),
                    bits(column_loop_lstsq(&aug, &rhs)),
                    "ridge_lstsq {m}x{n}"
                );
            });
        }

        #[test]
        fn lstsq_recovers_planted_solution() {
            gpm_check::check("lstsq_recovers_planted_solution", |g| {
                let coefs: Vec<f64> = (0..3).map(|_| g.f64_in(-5.0, 5.0)).collect();
                let rows = g.usize_in(6..20);
                let seed = g.u64_in(0..1000);
                // Deterministic pseudo-random full-rank design.
                let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                };
                let a =
                    Matrix::from_fn(rows, 3, |i, j| next() + if i % 3 == j { 2.0 } else { 0.0 });
                let b = a.mat_vec(&coefs).unwrap();
                if let Ok(x) = lstsq(&a, &b) {
                    for (xi, ci) in x.iter().zip(&coefs) {
                        assert!((xi - ci).abs() < 1e-6);
                    }
                }
            });
        }

        #[test]
        fn ridge_solution_norm_decreases_with_lambda() {
            gpm_check::check("ridge_solution_norm_decreases_with_lambda", |g| {
                let seed = g.u64_in(0..500);
                let mut state = seed
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                let mut next = || {
                    state = state
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(3037000493);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                };
                let a = Matrix::from_fn(8, 3, |_, _| next());
                let b: Vec<f64> = (0..8).map(|_| next() * 3.0).collect();
                let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
                let small = ridge_lstsq(&a, &b, 1e-6);
                let large = ridge_lstsq(&a, &b, 100.0);
                if let (Ok(s), Ok(l)) = (small, large) {
                    assert!(norm(&l) <= norm(&s) + 1e-9);
                }
            });
        }
    }
}
