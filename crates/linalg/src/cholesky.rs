//! Cholesky factorization and SPD inversion.
//!
//! Used to turn a fitted design matrix into per-coefficient standard
//! errors (`σ²·(AᵀA)⁻¹`), which tell a modeler *which* component
//! coefficients the training suite actually pinned down.

use crate::{LinalgError, Matrix};

/// Writes the lower-triangular Cholesky factor `L` with `L·Lᵀ = A` of a
/// symmetric positive-definite matrix into `l`. Allocation-free once
/// `l`'s backing store has grown to `n x n`.
///
/// # Errors
///
/// As [`spd_inverse_with`].
fn cholesky_into(a: &Matrix, l: &mut Matrix) -> Result<(), LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("{n}x{n}"),
            got: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let scale = a.max_abs().max(1e-300);
    l.reshape(n, n);
    l.as_mut_slice().fill(0.0);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= scale * 1e-14 {
                    return Err(LinalgError::Singular);
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(())
}

/// Reusable scratch for [`spd_inverse_with`]: the Cholesky factor and the
/// two substitution vectors.
#[derive(Debug, Default)]
pub struct SpdInverseWorkspace {
    l: Matrix,
    y: Vec<f64>,
    x: Vec<f64>,
}

impl SpdInverseWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SpdInverseWorkspace::default()
    }
}

/// Inverts a symmetric positive-definite matrix via its Cholesky factor,
/// writing into a reused output matrix and workspace.
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] if `A` is not square;
/// - [`LinalgError::NotFinite`] for NaN/infinite entries;
/// - [`LinalgError::Singular`] if `A` is not positive definite to
///   working precision.
pub fn spd_inverse_with(
    a: &Matrix,
    inv: &mut Matrix,
    ws: &mut SpdInverseWorkspace,
) -> Result<(), LinalgError> {
    let SpdInverseWorkspace { l, y, x } = ws;
    cholesky_into(a, l)?;
    let n = a.rows();
    // Solve L·Lᵀ·X = I column by column (forward + back substitution).
    inv.reshape(n, n);
    inv.as_mut_slice().fill(0.0);
    for col in 0..n {
        // Forward: L·y = e_col.
        y.clear();
        y.resize(n, 0.0);
        for i in 0..n {
            let mut s = if i == col { 1.0 } else { 0.0 };
            for k in 0..i {
                s -= l[(i, k)] * y[k];
            }
            y[i] = s / l[(i, i)];
        }
        // Back: Lᵀ·x = y.
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= l[(k, i)] * x[k];
            }
            x[i] = s / l[(i, i)];
        }
        for i in 0..n {
            inv[(i, col)] = x[i];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // B·Bᵀ + n·I is SPD for any B.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(12345);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_the_matrix() {
        let a = spd(5, 7);
        let mut l = Matrix::default();
        cholesky_into(&a, &mut l).unwrap();
        let r = l.matmul(&l.transpose()).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        // L is lower triangular with positive diagonal.
        for i in 0..5 {
            assert!(l[(i, i)] > 0.0);
            for j in (i + 1)..5 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd(6, 11);
        let mut inv = Matrix::default();
        spd_inverse_with(&a, &mut inv, &mut SpdInverseWorkspace::new()).unwrap();
        let id = a.matmul(&inv).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (id[(i, j)] - want).abs() < 1e-9,
                    "({i},{j}) = {}",
                    id[(i, j)]
                );
            }
        }
    }

    #[test]
    fn rejects_non_spd_inputs() {
        let mut l = Matrix::default();
        let not_square = Matrix::zeros(2, 3);
        assert!(cholesky_into(&not_square, &mut l).is_err());
        let indefinite = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert_eq!(
            cholesky_into(&indefinite, &mut l),
            Err(LinalgError::Singular)
        );
        let mut nan = Matrix::identity(2);
        nan[(0, 0)] = f64::NAN;
        assert_eq!(cholesky_into(&nan, &mut l), Err(LinalgError::NotFinite));
    }

    #[test]
    fn identity_is_its_own_factor_and_inverse() {
        let id = Matrix::identity(4);
        let mut l = Matrix::default();
        cholesky_into(&id, &mut l).unwrap();
        assert_eq!(l, id);
        let mut inv = Matrix::default();
        spd_inverse_with(&id, &mut inv, &mut SpdInverseWorkspace::new()).unwrap();
        assert_eq!(inv, id);
    }

    mod prop {
        use super::*;

        #[test]
        fn random_spd_round_trips() {
            gpm_check::check("random_spd_round_trips", |g| {
                let seed = g.u64_in(0..200);
                let n = g.usize_in(2..8);
                let a = spd(n, seed);
                let mut l = Matrix::default();
                cholesky_into(&a, &mut l).unwrap();
                let r = l.matmul(&l.transpose()).unwrap();
                for i in 0..n {
                    for j in 0..n {
                        assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8 * a.max_abs());
                    }
                }
            });
        }
    }
}
