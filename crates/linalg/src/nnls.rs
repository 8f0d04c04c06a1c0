//! Lawson–Hanson non-negative least squares, on a design or on its
//! Gram form.

use crate::batch::dot;
use crate::{lstsq_with, LinalgError, LstsqWorkspace, Matrix};

/// The active-set state of one Lawson–Hanson solve: the iterate, the
/// passive set, the negated gradient, the passive column indices and
/// the passive-set least-squares solutions.
#[derive(Debug, Default)]
struct ActiveSet {
    x: Vec<f64>,
    passive: Vec<bool>,
    w: Vec<f64>,
    idx: Vec<usize>,
    z_sub: Vec<f64>,
    z: Vec<f64>,
}

/// Reusable scratch for [`nnls_with`].
///
/// Owns the active-set bookkeeping, the gradient, the passive-column
/// submatrix, and a nested [`LstsqWorkspace`], so repeated solves of
/// same-shaped problems perform no heap allocation after the first call.
#[derive(Debug, Default)]
pub struct NnlsWorkspace {
    set: ActiveSet,
    sub: Matrix,
    lstsq: LstsqWorkspace,
}

impl NnlsWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        NnlsWorkspace::default()
    }
}

/// [`nnls`] from the starting passive set `start` (column indices),
/// reusing a caller-owned [`NnlsWorkspace`].
///
/// The solve first does least squares on `start`, dropping every
/// coordinate that is not strictly positive until the solution is, and
/// falls back to the empty set if a subset is singular. The
/// Lawson–Hanson loop then runs from that feasible point. It returns the
/// same KKT point as the cold solve [`nnls`], and because Lawson–Hanson
/// always returns the least-squares solution on its final passive set,
/// the result is bit-identical to the cold solve whenever that point's
/// support is unique. With full column rank the solution is unique, and
/// so is its support unless a coordinate sits at zero with a zero
/// gradient (within the solver's tolerances). A start set near the final
/// one saves most of the active-set steps.
///
/// Returns the solution as a slice borrowed from the workspace; copy it
/// out before the next solve.
///
/// # Errors
///
/// Same conditions as [`nnls`], plus
/// [`LinalgError::DimensionMismatch`] if a start index is not a column.
pub fn nnls_with<'ws>(
    a: &Matrix,
    b: &[f64],
    start: &[usize],
    ws: &'ws mut NnlsWorkspace,
) -> Result<&'ws [f64], LinalgError> {
    let m = a.rows();
    let n = a.cols();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {m}"),
            got: format!("length {}", b.len()),
        });
    }
    check_start(start, n)?;
    if !a.is_finite() || b.iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NotFinite);
    }
    let NnlsWorkspace { set, sub, lstsq } = ws;
    let tol = 1e-10 * a.max_abs().max(1.0) * b.iter().fold(1.0f64, |s, v| s.max(v.abs()));
    lawson_hanson(
        n,
        tol,
        start,
        set,
        |x, w| residual_gradient_into(a, b, x, w),
        |idx, z| {
            let sol = lstsq_with(passive_cols(a, idx, sub), b, lstsq)?;
            z.clear();
            z.extend_from_slice(sol);
            Ok(())
        },
    )
}

/// Rejects a start index that is not one of the `n` columns.
fn check_start(start: &[usize], n: usize) -> Result<(), LinalgError> {
    match start.iter().find(|&&j| j >= n) {
        Some(&j) => Err(LinalgError::DimensionMismatch {
            expected: format!("start columns below {n}"),
            got: format!("column {j}"),
        }),
        None => Ok(()),
    }
}

/// The Lawson–Hanson active-set loop over `n` columns, shared by
/// [`nnls_with`] and [`nnls_gram_with`]: `gradient(x, w)` writes the
/// negated gradient `Aᵀ(b − Ax)` at `x`, and `solve(idx, z)` the
/// least-squares solution on the passive columns `idx`, failing with
/// [`LinalgError::Singular`] when they are linearly dependent. `tol` is
/// the KKT tolerance on the gradient.
fn lawson_hanson<'s>(
    n: usize,
    tol: f64,
    start: &[usize],
    set: &'s mut ActiveSet,
    mut gradient: impl FnMut(&[f64], &mut Vec<f64>),
    mut solve: impl FnMut(&[usize], &mut Vec<f64>) -> Result<(), LinalgError>,
) -> Result<&'s [f64], LinalgError> {
    let ActiveSet {
        x,
        passive,
        w,
        idx,
        z_sub,
        z,
    } = set;
    x.clear();
    x.resize(n, 0.0);
    passive.clear();
    passive.resize(n, false);
    let positive = tol.min(1e-12);
    let max_outer = 3 * n + 30;

    // Warm start: least squares on the start set, shrunk to its strictly
    // positive coordinates, gives a feasible point with x > 0 exactly on
    // the passive set, which is all the loop below assumes.
    for &j in start {
        passive[j] = true;
    }
    loop {
        idx.clear();
        idx.extend((0..n).filter(|&j| passive[j]));
        if idx.is_empty() {
            break;
        }
        if solve(idx, z_sub).is_err() {
            // A singular (or wider than tall) subset: start cold.
            passive.fill(false);
            break;
        }
        if z_sub.iter().all(|&v| v > positive) {
            for (&j, &v) in idx.iter().zip(&*z_sub) {
                x[j] = v;
            }
            break;
        }
        for (&j, &v) in idx.iter().zip(&*z_sub) {
            if v <= positive {
                passive[j] = false;
            }
        }
    }

    for _ in 0..max_outer {
        gradient(x, w);

        // Most-improving inactive coordinate.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if !passive[j] && w[j] > tol && best.is_none_or(|(_, bw)| w[j] > bw) {
                best = Some((j, w[j]));
            }
        }
        let Some((j_star, _)) = best else {
            return Ok(x); // KKT satisfied.
        };
        passive[j_star] = true;

        // Inner loop: solve the unconstrained problem on the passive set,
        // stepping back whenever a passive coordinate would go negative.
        let max_inner = 3 * n + 30;
        let mut inner_ok = false;
        for _ in 0..max_inner {
            idx.clear();
            idx.extend((0..n).filter(|&j| passive[j]));
            match solve(idx, z_sub) {
                Ok(()) => {}
                Err(LinalgError::Singular) => {
                    // The newly added column is linearly dependent on the
                    // passive set; drop it and accept the current iterate.
                    passive[j_star] = false;
                    inner_ok = true;
                    break;
                }
                Err(e) => return Err(e),
            }
            z.clear();
            z.resize(n, 0.0);
            for (&j, &v) in idx.iter().zip(&*z_sub) {
                z[j] = v;
            }
            if idx.iter().all(|&j| z[j] > positive) {
                std::mem::swap(x, z);
                inner_ok = true;
                break;
            }
            // Step from x toward z, stopping at the first zero crossing.
            let mut alpha = 1.0f64;
            for &j in &*idx {
                if z[j] <= 0.0 && x[j] > z[j] {
                    alpha = alpha.min(x[j] / (x[j] - z[j]));
                }
            }
            for j in 0..n {
                x[j] += alpha * (z[j] - x[j]);
                if passive[j] && x[j] <= positive {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
        }
        if !inner_ok {
            return Err(LinalgError::NoConvergence {
                routine: "nnls inner loop",
                iterations: max_inner,
            });
        }
    }
    Err(LinalgError::NoConvergence {
        routine: "nnls",
        iterations: max_outer,
    })
}

/// The negated gradient of ½‖Ax − b‖², `w = Aᵀ(b − Ax)`, in one pass over
/// A's rows without forming Aᵀ. Each residual is `b[i]` minus the row's
/// dot product, summed as [`Matrix::mat_vec`] sums it, and each `w[j]`
/// adds its terms in row order from −0.0, the start value of
/// `Iterator::sum`, so every bit, the sign of a zero included, matches
/// `a.transpose().mat_vec(&resid)`.
fn residual_gradient_into(a: &Matrix, b: &[f64], x: &[f64], w: &mut Vec<f64>) {
    w.clear();
    w.resize(a.cols(), -0.0);
    for (i, &bi) in b.iter().enumerate() {
        let row = a.row(i);
        let ri = bi - row.iter().zip(x).map(|(aij, xj)| aij * xj).sum::<f64>();
        for (wj, &aij) in w.iter_mut().zip(row) {
            *wj += aij * ri;
        }
    }
}

/// The passive columns of `a` as a design: `a` itself when every column
/// is passive, otherwise a copy of the columns `idx` in `sub`.
fn passive_cols<'m>(a: &'m Matrix, idx: &[usize], sub: &'m mut Matrix) -> &'m Matrix {
    if idx.len() == a.cols() {
        a
    } else {
        a.select_cols_into(idx, sub);
        sub
    }
}

/// A passive-set pivot at or below this fraction of its diagonal entry
/// marks the passive columns as linearly dependent. Forming `AᵀA`
/// squares `A`'s condition number, so the Gram form resolves a column's
/// independent part only down to about `√ε` of its norm; this test flags
/// exact and near-exact duplicates (pivot ratios of a few ε) with a wide
/// margin while leaving condition numbers up to ~1e6 alone.
const GRAM_PIVOT_TOL: f64 = 1e-12;

/// Reusable scratch for [`nnls_gram_with`]: the active-set bookkeeping,
/// the gradient, and the passive block's Cholesky factor, so repeated
/// solves perform no heap allocation after the first call.
#[derive(Debug, Default)]
pub struct NnlsGramWorkspace {
    set: ActiveSet,
    l: Vec<f64>,
}

impl NnlsGramWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        NnlsGramWorkspace::default()
    }
}

/// [`nnls_with`] on the normal equations: minimizes `‖Ax − b‖²` over
/// `x ≥ 0` given only the Gram matrix `gram = AᵀA` and `atb = Aᵀb`.
///
/// The Lawson–Hanson loop is the one [`nnls_with`] runs, from the
/// starting passive set `start`, with the gradient `Aᵀb − AᵀA·x` and each
/// passive-set least-squares solve done by Cholesky on the passive block
/// of `gram`. The design behind the Gram form is not available, so the
/// caller passes the largest `|A|` and `|b|` entries: the KKT tolerance is
/// `1e-10·max(a_max, 1)·max(b_max, 1)`, exactly as [`nnls_with`] derives
/// it from `A` and `b`. A passive block whose Cholesky pivot falls to
/// `1e-12` of its diagonal entry is treated as singular, as [`nnls_with`]
/// treats a rank-deficient QR: an entering column that is linearly
/// dependent on the passive set is dropped again, and a singular start
/// set falls back to the cold solve.
///
/// Because the result is always the Cholesky solve on the final passive
/// set, a warm start that reaches the same set returns the same bits as
/// the cold solve (an empty `start`). Forming `AᵀA` squares the
/// condition number, so against [`nnls_with`] on the design itself the
/// answer agrees to roughly `κ(A)²·ε` relative.
///
/// Returns the solution as a slice borrowed from the workspace; copy it
/// out before the next solve.
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] if `gram` is not square, `atb`
///   does not match it, or a start index is not a column;
/// - [`LinalgError::NotFinite`] on NaN/infinite inputs;
/// - [`LinalgError::NoConvergence`] if the active-set loop exceeds its
///   iteration cap (does not occur for well-posed problems).
pub fn nnls_gram_with<'ws>(
    gram: &Matrix,
    atb: &[f64],
    a_max: f64,
    b_max: f64,
    start: &[usize],
    ws: &'ws mut NnlsGramWorkspace,
) -> Result<&'ws [f64], LinalgError> {
    let n = gram.cols();
    if gram.rows() != n || atb.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("{n}x{n} Gram matrix and rhs of length {n}"),
            got: format!("{}x{n} and length {}", gram.rows(), atb.len()),
        });
    }
    check_start(start, n)?;
    if !gram.is_finite() || atb.iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NotFinite);
    }
    if !a_max.is_finite() || !b_max.is_finite() {
        return Err(LinalgError::NotFinite);
    }
    let NnlsGramWorkspace { set, l } = ws;
    lawson_hanson(
        n,
        1e-10 * a_max.max(1.0) * b_max.max(1.0),
        start,
        set,
        |x, w| {
            w.clear();
            w.extend((0..n).map(|j| atb[j] - dot(gram.row(j), x)));
        },
        |idx, z| passive_solve(gram, atb, idx, l, z),
    )
}

/// Solves `G[P, P]·z = h[P]` for the passive columns `P = idx` by
/// Cholesky, factoring into `l` (packed row-major `k x k`) and writing
/// `z` in `idx` order. A pivot at or below [`GRAM_PIVOT_TOL`] of its
/// diagonal entry reports [`LinalgError::Singular`].
fn passive_solve(
    g: &Matrix,
    h: &[f64],
    idx: &[usize],
    l: &mut Vec<f64>,
    z: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let k = idx.len();
    l.clear();
    l.resize(k * k, 0.0);
    for (i, &gi) in idx.iter().enumerate() {
        for (j, &gj) in idx[..=i].iter().enumerate() {
            let mut sum = g[(gi, gj)];
            for p in 0..j {
                sum -= l[i * k + p] * l[j * k + p];
            }
            if i == j {
                if sum <= GRAM_PIVOT_TOL * g[(gi, gi)] || sum <= 0.0 {
                    return Err(LinalgError::Singular);
                }
                l[i * k + i] = sum.sqrt();
            } else {
                l[i * k + j] = sum / l[j * k + j];
            }
        }
    }
    // Forward substitution L·y = h[P], then back substitution Lᵀ·z = y.
    z.clear();
    for (i, &gi) in idx.iter().enumerate() {
        let mut s = h[gi];
        for p in 0..i {
            s -= l[i * k + p] * z[p];
        }
        z.push(s / l[i * k + i]);
    }
    for i in (0..k).rev() {
        let mut s = z[i];
        for p in i + 1..k {
            s -= l[p * k + i] * z[p];
        }
        z[i] = s / l[i * k + i];
    }
    Ok(())
}

/// Solves `min ||A x - b||₂` subject to `x ≥ 0` (Lawson–Hanson active set).
///
/// The power-model coefficients `β` and `ω` of Eqs. 6-7 are physically
/// non-negative (capacitances, leakage conductances): allowing negative
/// values lets measurement noise produce models where raising a
/// utilization *lowers* predicted power. The estimator therefore fits the
/// coefficient vector with NNLS by default (a plain least-squares mode is
/// kept for the ablation study).
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] on shape mismatch;
/// - [`LinalgError::NotFinite`] on NaN/infinite inputs;
/// - [`LinalgError::NoConvergence`] if the active-set loop exceeds its
///   iteration cap (does not occur for well-posed problems).
///
/// This is the cold solve, from an empty passive set; [`nnls_with`]
/// starts from a given set and reaches the same point.
///
/// # Example
///
/// ```
/// use gpm_linalg::{nnls, Matrix};
///
/// // Unconstrained solution would need a negative coefficient; NNLS
/// // clamps it and re-optimizes the rest.
/// let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]])?;
/// let x = nnls(&a, &[1.0, -0.5, 1.0])?;
/// assert!(x.iter().all(|&v| v >= 0.0));
/// # Ok::<(), gpm_linalg::LinalgError>(())
/// ```
pub fn nnls(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    nnls_with(a, b, &[], &mut NnlsWorkspace::new()).map(<[f64]>::to_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq;

    /// The transpose-based solve `nnls_with` replaced: it forms Aᵀ for the
    /// gradient, computes the residual in a buffer of its own, and copies
    /// the passive columns even when they are every column of A.
    /// `nnls_with` must match it bit for bit.
    fn transpose_nnls(a: &Matrix, b: &[f64], start: &[usize]) -> Result<Vec<f64>, LinalgError> {
        let n = a.cols();
        if b.len() != a.rows() || start.iter().any(|&j| j >= n) {
            return Err(LinalgError::DimensionMismatch {
                expected: String::new(),
                got: String::new(),
            });
        }
        if !a.is_finite() || b.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NotFinite);
        }
        let at = a.transpose();
        let mut x = vec![0.0; n];
        let mut passive = vec![false; n];
        let tol = 1e-10 * a.max_abs().max(1.0) * b.iter().fold(1.0f64, |s, v| s.max(v.abs()));
        let positive = tol.min(1e-12);
        let passive_idx = |passive: &[bool]| (0..n).filter(|&j| passive[j]).collect::<Vec<_>>();
        for &j in start {
            passive[j] = true;
        }
        loop {
            let idx = passive_idx(&passive);
            if idx.is_empty() {
                break;
            }
            let Ok(z_sub) = lstsq(&a.select_cols(&idx), b) else {
                passive.fill(false);
                break;
            };
            if z_sub.iter().all(|&v| v > positive) {
                for (&j, &v) in idx.iter().zip(&z_sub) {
                    x[j] = v;
                }
                break;
            }
            for (&j, &v) in idx.iter().zip(&z_sub) {
                if v <= positive {
                    passive[j] = false;
                }
            }
        }
        for _ in 0..3 * n + 30 {
            let ax = a.mat_vec(&x)?;
            let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let w = at.mat_vec(&resid)?;
            let mut best: Option<(usize, f64)> = None;
            for j in 0..n {
                if !passive[j] && w[j] > tol && best.is_none_or(|(_, bw)| w[j] > bw) {
                    best = Some((j, w[j]));
                }
            }
            let Some((j_star, _)) = best else {
                return Ok(x);
            };
            passive[j_star] = true;
            let mut inner_ok = false;
            for _ in 0..3 * n + 30 {
                let idx = passive_idx(&passive);
                let z_sub = match lstsq(&a.select_cols(&idx), b) {
                    Ok(z) => z,
                    Err(LinalgError::Singular) => {
                        passive[j_star] = false;
                        inner_ok = true;
                        break;
                    }
                    Err(e) => return Err(e),
                };
                let mut z = vec![0.0; n];
                for (k, &j) in idx.iter().enumerate() {
                    z[j] = z_sub[k];
                }
                if idx.iter().all(|&j| z[j] > positive) {
                    x = z;
                    inner_ok = true;
                    break;
                }
                let mut alpha = 1.0f64;
                for &j in &idx {
                    if z[j] <= 0.0 && x[j] > z[j] {
                        alpha = alpha.min(x[j] / (x[j] - z[j]));
                    }
                }
                for j in 0..n {
                    x[j] += alpha * (z[j] - x[j]);
                    if passive[j] && x[j] <= positive {
                        x[j] = 0.0;
                        passive[j] = false;
                    }
                }
            }
            if !inner_ok {
                return Err(LinalgError::NoConvergence {
                    routine: "nnls inner loop",
                    iterations: 3 * n + 30,
                });
            }
        }
        Err(LinalgError::NoConvergence {
            routine: "nnls",
            iterations: 3 * n + 30,
        })
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        let mut ws = NnlsWorkspace::new();
        let a1 = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let b1 = [1.0, -0.5, 1.0];
        let a2 = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) % 5) as f64 + 0.5);
        let b2: Vec<f64> = (0..6).map(|i| i as f64 - 1.0).collect();
        for _ in 0..3 {
            let x1 = nnls_with(&a1, &b1, &[], &mut ws).unwrap().to_vec();
            assert_eq!(x1, nnls(&a1, &b1).unwrap());
            let x2 = nnls_with(&a2, &b2, &[], &mut ws).unwrap().to_vec();
            assert_eq!(x2, nnls(&a2, &b2).unwrap());
        }
    }

    #[test]
    fn matches_unconstrained_when_solution_is_positive() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ])
        .unwrap();
        let truth = [1.5, 0.7];
        let b = a.mat_vec(&truth).unwrap();
        let x = nnls(&a, &b).unwrap();
        let free = lstsq(&a, &b).unwrap();
        for i in 0..2 {
            assert!((x[i] - truth[i]).abs() < 1e-8);
            assert!((x[i] - free[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn clamps_negative_coordinates() {
        // b points opposite to the second column.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let x = nnls(&a, &[2.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let x = nnls(&a, &[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn handles_duplicate_columns_without_diverging() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let b = [2.0, 4.0, 6.0];
        let x = nnls(&a, &b).unwrap();
        // Any split with x0 + x1 = 2 and x >= 0 is optimal.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-8, "{x:?}");
        assert!(x.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn rejects_shape_and_nan() {
        let a = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(nnls(&a, &[1.0, 2.0]).is_err());
        let bad = Matrix::from_rows(&[vec![f64::INFINITY]]).unwrap();
        assert_eq!(nnls(&bad, &[1.0]), Err(LinalgError::NotFinite));
    }

    #[test]
    fn wide_problem_with_many_actives() {
        // 3 observations, 5 unknowns: solution must still be non-negative
        // with small residual achievable.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 1.0, 0.5],
            vec![0.0, 1.0, 0.0, 1.0, 0.5],
            vec![0.0, 0.0, 1.0, 1.0, 0.5],
        ])
        .unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = nnls(&a, &b).unwrap();
        assert!(x.iter().all(|&v| v >= 0.0));
        let r: f64 = a
            .mat_vec(&x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(p, m)| (p - m) * (p - m))
            .sum();
        assert!(r < 1e-12, "residual {r}, x = {x:?}");
    }

    #[test]
    fn start_sets_that_cannot_be_solved_fall_back_to_the_cold_start() {
        let mut ws = NnlsWorkspace::new();
        // More start columns than rows: no least-squares solution.
        let wide = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 1.0, 0.5],
            vec![0.0, 1.0, 0.0, 1.0, 0.5],
            vec![0.0, 0.0, 1.0, 1.0, 0.5],
        ])
        .unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = nnls_with(&wide, &b, &[0, 1, 2, 3, 4], &mut ws).unwrap();
        assert_eq!(x, nnls(&wide, &b).unwrap());
        // A start column outside the design is a shape error.
        assert!(matches!(
            nnls_with(&wide, &b, &[5], &mut ws),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    mod prop {
        use super::*;
        use gpm_check::Gen;

        fn bits(x: &[f64]) -> Vec<u64> {
            x.iter().map(|v| v.to_bits()).collect()
        }

        fn support(x: &[f64]) -> Vec<usize> {
            (0..x.len()).filter(|&j| x[j] > 0.0).collect()
        }

        /// Entries in [-1, 1] plus 3 on a repeating diagonal: full
        /// column rank, and so is every column subset.
        fn full_rank_design(g: &mut Gen, rows: usize, cols: usize) -> Matrix {
            Matrix::from_fn(rows, cols, |i, j| {
                g.f64_in(-1.0, 1.0) + if i % cols == j { 3.0 } else { 0.0 }
            })
        }

        /// `b = A·truth + noise`, with `truth` drawn from [-0.5, 2] so
        /// some coordinates end on the boundary.
        fn noisy_rhs(g: &mut Gen, a: &Matrix, truth: &[f64]) -> Vec<f64> {
            let mut b = a.mat_vec(truth).unwrap();
            for v in &mut b {
                *v += g.f64_in(-0.01, 0.01);
            }
            b
        }

        /// `x ≥ 0`, zero gradient on the support and no descent direction
        /// off it.
        fn assert_kkt(a: &Matrix, b: &[f64], x: &[f64]) {
            assert!(x.iter().all(|&v| v >= 0.0), "infeasible {x:?}");
            let ax = a.mat_vec(x).unwrap();
            let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let w = a.transpose().mat_vec(&resid).unwrap();
            let scale = a.max_abs() * b.iter().fold(1.0f64, |s, v| s.max(v.abs()));
            for (j, &wj) in w.iter().enumerate() {
                if x[j] > 1e-9 {
                    assert!(wj.abs() <= 1e-6 * scale.max(1.0), "passive grad {wj}");
                } else {
                    assert!(wj <= 1e-6 * scale.max(1.0), "active grad {wj}");
                }
            }
        }

        #[test]
        fn warm_starts_match_the_cold_solve_bit_for_bit() {
            gpm_check::check("warm_starts_match_the_cold_solve_bit_for_bit", |g| {
                let cols = g.usize_in(1..12);
                let rows = cols + g.usize_in(1..40);
                let a = full_rank_design(g, rows, cols);
                // Half the cases plant a clearly negative coordinate, so
                // the full start set is infeasible.
                let negative = (cols > 1 && g.bool()).then(|| g.usize_in(0..cols));
                let truth: Vec<f64> = (0..cols)
                    .map(|j| {
                        if Some(j) == negative {
                            -g.f64_in(0.5, 2.0)
                        } else {
                            g.f64_in(-0.5, 2.0)
                        }
                    })
                    .collect();
                let b = noisy_rhs(g, &a, &truth);
                if let Some(j) = negative {
                    let free = crate::lstsq(&a, &b).unwrap();
                    assert!(free[j] < 0.0, "full start set should be infeasible");
                }
                let cold = nnls(&a, &b).unwrap();
                let starts = [
                    Vec::new(),
                    (0..cols).collect(),
                    (0..cols).filter(|_| g.bool()).collect(),
                    support(&cold),
                    (0..cols).filter(|&j| cold[j] == 0.0).collect(),
                ];
                let mut ws = NnlsWorkspace::new();
                for start in &starts {
                    let warm = nnls_with(&a, &b, start, &mut ws).unwrap();
                    assert_eq!(bits(warm), bits(&cold), "start {start:?}");
                }

                // A run of slowly drifting designs, each solve started
                // from the previous solution's support, as the
                // estimator's alternation does.
                let drift = Matrix::from_fn(rows, cols, |_, _| g.f64_in(-2e-3, 2e-3));
                let mut a_t = a.clone();
                let mut prev = cold;
                for _ in 0..8 {
                    for i in 0..rows {
                        for j in 0..cols {
                            a_t[(i, j)] += drift[(i, j)];
                        }
                    }
                    let cold_t = nnls(&a_t, &b).unwrap();
                    let warm_t = nnls_with(&a_t, &b, &support(&prev), &mut ws).unwrap();
                    assert_eq!(bits(warm_t), bits(&cold_t), "drifting run");
                    prev = cold_t;
                }
            });
        }

        fn bits_of(r: Result<&[f64], LinalgError>) -> Result<Vec<u64>, LinalgError> {
            r.map(bits)
        }

        #[test]
        fn nnls_with_matches_the_transpose_solve_bit_for_bit() {
            gpm_check::check("nnls_with_matches_the_transpose_solve_bit_for_bit", |g| {
                let cols = g.usize_in(1..12);
                let rows = cols + g.usize_in(0..40);
                let a = Matrix::from_fn(rows, cols, |_, _| g.f64_in(-2.0, 2.0));
                let truth: Vec<f64> = (0..cols).map(|_| g.f64_in(-0.5, 2.0)).collect();
                let b = match g.usize_in(0..4) {
                    // Exact fits: a non-negative truth, or none at all
                    // (b ≡ 0), leave residuals at or near zero.
                    0 => a.mat_vec(&truth.iter().map(|t| t.max(0.0)).collect::<Vec<_>>()),
                    1 => Ok(vec![0.0; rows]),
                    _ => Ok(noisy_rhs(g, &a, &truth)),
                }
                .unwrap();
                let starts = [
                    Vec::new(),
                    (0..cols).collect(),
                    (0..cols).filter(|_| g.bool()).collect::<Vec<_>>(),
                ];
                let mut ws = NnlsWorkspace::new();
                for start in &starts {
                    assert_eq!(
                        bits_of(nnls_with(&a, &b, start, &mut ws)),
                        transpose_nnls(&a, &b, start).map(|x| bits(&x)),
                        "{rows}x{cols} from {start:?}"
                    );
                }
            });
        }

        #[test]
        fn residual_gradient_matches_the_transpose_bit_for_bit() {
            gpm_check::check("residual_gradient_matches_the_transpose_bit_for_bit", |g| {
                let cols = g.usize_in(1..12);
                let rows = g.usize_in(1..50);
                let mut a = Matrix::from_fn(rows, cols, |_, _| g.f64_in(-2.0, 2.0));
                let negative = g.bool().then(|| g.usize_in(0..cols));
                if let Some(c) = negative {
                    for i in 0..rows {
                        a[(i, c)] = -g.f64_in(0.1, 2.0);
                    }
                }
                let x: Vec<f64> = (0..cols)
                    .map(|_| if g.bool() { 0.0 } else { g.f64_in(0.0, 3.0) })
                    .collect();
                // A third of the cases take b = Ax exactly, so r ≡ +0.
                let exact = g.usize_in(0..3) == 0;
                let b = if exact {
                    a.mat_vec(&x).unwrap()
                } else {
                    g.vec_f64(rows..rows + 1, -5.0, 5.0)
                };
                let ax = a.mat_vec(&x).unwrap();
                let resid: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
                let reference = a.transpose().mat_vec(&resid).unwrap();
                let mut w = Vec::new();
                residual_gradient_into(&a, &b, &x, &mut w);
                assert_eq!(bits(&w), bits(&reference), "{rows}x{cols}");
                if let (true, Some(c)) = (exact, negative) {
                    // Sums of -0.0 products stay -0.0 only from a -0.0
                    // start.
                    assert!(w[c] == 0.0 && w[c].is_sign_negative(), "w[{c}] = {}", w[c]);
                }
            });
        }

        #[test]
        fn warm_starts_on_duplicate_columns_stay_feasible_and_kkt() {
            gpm_check::check(
                "warm_starts_on_duplicate_columns_stay_feasible_and_kkt",
                |g| {
                    let cols = g.usize_in(2..8);
                    let rows = cols + g.usize_in(1..20);
                    let mut a = full_rank_design(g, rows, cols);
                    let c = g.usize_in(0..cols);
                    let d = (c + g.usize_in(1..cols)) % cols;
                    for i in 0..rows {
                        a[(i, d)] = a[(i, c)];
                    }
                    let truth: Vec<f64> = (0..cols).map(|_| g.f64_in(-0.5, 2.0)).collect();
                    let b = noisy_rhs(g, &a, &truth);
                    let mut start: Vec<usize> = (0..cols).filter(|_| g.bool()).collect();
                    let singular = g.bool();
                    if singular {
                        start.extend([c, d]);
                    }
                    let mut ws = NnlsWorkspace::new();
                    let x = nnls_with(&a, &b, &start, &mut ws).unwrap();
                    // The split between the two copies is not unique, so
                    // only optimality is asserted ...
                    assert_kkt(&a, &b, x);
                    if singular {
                        // ... except from a singular start set, which
                        // falls back to the cold solve.
                        assert_eq!(bits(x), bits(&nnls(&a, &b).unwrap()));
                    }
                },
            );
        }

        /// `nnls_gram_with` on `(AᵀA, Aᵀb)` with `A`'s and `b`'s largest
        /// entries, from `start`.
        fn gram_solve(
            a: &Matrix,
            b: &[f64],
            start: &[usize],
            ws: &mut NnlsGramWorkspace,
        ) -> Result<Vec<f64>, LinalgError> {
            let gram = a.transpose().matmul(a).unwrap();
            let atb = a.transpose().mat_vec(b).unwrap();
            let b_max = b.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            nnls_gram_with(&gram, &atb, a.max_abs(), b_max, start, ws).map(<[f64]>::to_vec)
        }

        #[test]
        fn gram_form_matches_the_qr_solve_and_warm_starts_its_cold_solve() {
            gpm_check::check(
                "gram_form_matches_the_qr_solve_and_warm_starts_its_cold_solve",
                |g| {
                    let cols = g.usize_in(1..12);
                    let rows = cols + g.usize_in(1..40);
                    let a = full_rank_design(g, rows, cols);
                    let truth: Vec<f64> = (0..cols).map(|_| g.f64_in(-0.5, 2.0)).collect();
                    let b = noisy_rhs(g, &a, &truth);
                    let qr = nnls(&a, &b).unwrap();
                    let mut ws = NnlsGramWorkspace::new();
                    let cold = gram_solve(&a, &b, &[], &mut ws).unwrap();
                    let scale = qr.iter().fold(1e-300f64, |s, v| s.max(v.abs()));
                    for (j, (c, q)) in cold.iter().zip(&qr).enumerate() {
                        assert!(
                            (c - q).abs() <= 1e-9 * scale,
                            "x[{j}]: Gram form {c} vs QR {q} ({cold:?} vs {qr:?})"
                        );
                    }
                    assert_kkt(&a, &b, &cold);
                    let starts = [
                        (0..cols).collect(),
                        (0..cols).filter(|_| g.bool()).collect(),
                        support(&cold),
                        (0..cols).filter(|&j| cold[j] == 0.0).collect::<Vec<_>>(),
                    ];
                    for start in &starts {
                        let warm = gram_solve(&a, &b, start, &mut ws).unwrap();
                        assert_eq!(bits(&warm), bits(&cold), "start {start:?}");
                    }
                },
            );
        }

        #[test]
        fn gram_form_on_duplicate_columns_stays_feasible_and_kkt() {
            gpm_check::check(
                "gram_form_on_duplicate_columns_stays_feasible_and_kkt",
                |g| {
                    let cols = g.usize_in(2..8);
                    let rows = cols + g.usize_in(1..20);
                    let mut a = full_rank_design(g, rows, cols);
                    let c = g.usize_in(0..cols);
                    let d = (c + g.usize_in(1..cols)) % cols;
                    for i in 0..rows {
                        a[(i, d)] = a[(i, c)];
                    }
                    let truth: Vec<f64> = (0..cols).map(|_| g.f64_in(-0.5, 2.0)).collect();
                    let b = noisy_rhs(g, &a, &truth);
                    let mut start: Vec<usize> = (0..cols).filter(|_| g.bool()).collect();
                    let singular = g.bool();
                    if singular {
                        start.extend([c, d]);
                    }
                    let mut ws = NnlsGramWorkspace::new();
                    let x = gram_solve(&a, &b, &start, &mut ws).unwrap();
                    assert_kkt(&a, &b, &x);
                    assert!(
                        x[c] == 0.0 || x[d] == 0.0,
                        "a duplicate pair never shares the support: {x:?}"
                    );
                    if singular {
                        // A singular start set falls back to the cold solve.
                        let cold = gram_solve(&a, &b, &[], &mut ws).unwrap();
                        assert_eq!(bits(&x), bits(&cold));
                    }
                },
            );
        }

        fn pseudo_matrix(seed: u64, rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99991);
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 // in [0, 2)
            };
            let a = Matrix::from_fn(rows, cols, |_, _| next());
            let b: Vec<f64> = (0..rows).map(|_| next() * 4.0 - 4.0).collect();
            (a, b)
        }

        #[test]
        fn output_is_nonnegative_and_kkt_holds() {
            gpm_check::check("output_is_nonnegative_and_kkt_holds", |g| {
                let seed = g.u64_in(0..400);
                let rows = g.usize_in(4..12);
                let cols = g.usize_in(1..6);
                let (a, b) = pseudo_matrix(seed, rows, cols);
                if let Ok(x) = nnls(&a, &b) {
                    assert_kkt(&a, &b, &x);
                }
            });
        }

        #[test]
        fn never_beats_unconstrained_but_close_when_truth_nonneg() {
            gpm_check::check(
                "never_beats_unconstrained_but_close_when_truth_nonneg",
                |g| {
                    let seed = g.u64_in(0..200);
                    let (a, _) = pseudo_matrix(seed, 10, 3);
                    let truth = [0.5, 1.0, 2.0];
                    let b = a.mat_vec(&truth).unwrap();
                    let x = nnls(&a, &b).unwrap();
                    for (xi, ti) in x.iter().zip(truth) {
                        assert!((xi - ti).abs() < 1e-6);
                    }
                },
            );
        }
    }
}
