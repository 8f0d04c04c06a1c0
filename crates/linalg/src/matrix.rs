//! Row-major dense matrix.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// Sized for the regression problems of the power-model estimator
/// (hundreds to a few thousand rows, around a dozen columns), so the
/// implementation favours clarity over blocking/SIMD.
///
/// # Example
///
/// ```
/// use gpm_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// let b = a.matmul(&Matrix::identity(2))?;
/// assert_eq!(a, b);
/// # Ok::<(), gpm_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if there are no rows or the first row
    /// is empty, and [`LinalgError::DimensionMismatch`] if rows have
    /// different lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        if nrows == 0 || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinalgError::DimensionMismatch {
                    expected: format!("{nrows}x{ncols}"),
                    got: format!("row of length {}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns a new matrix keeping only the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, cols.len(), |i, j| self[(i, cols[j])])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{}x_", self.cols),
                got: format!("{}x{}", other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols()`.
    pub fn mat_vec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                got: format!("length {}", v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute entry (0 for an all-zero matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a zero-sized shape and
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{rows}x{cols}"),
                got: format!("flat buffer of length {}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Borrows the row-major backing store.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the row-major backing store.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Resizes to `rows x cols` in place, reusing the backing allocation.
    ///
    /// Entry values after a reshape are unspecified (a mix of stale data and
    /// zeros); callers are expected to overwrite every entry.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into `self`, reusing the backing allocation.
    ///
    /// Unlike the derived `Clone::clone_from`, this never reallocates once
    /// capacity has been established (the derived impl falls back to
    /// `*self = src.clone()`).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Copies a flat row-major buffer into `self`, reusing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn copy_from_flat(&mut self, rows: usize, cols: usize, data: &[f64]) {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// [`Matrix::select_cols`] writing into a reused output matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols_into(&self, cols: &[usize], out: &mut Matrix) {
        out.reshape(self.rows, cols.len());
        for i in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                out.data[i * cols.len() + j] = self[(i, c)];
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|x| format!("{x:>10.4}")).collect();
            writeln!(f, "  {}", row.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validates() {
        assert_eq!(Matrix::from_rows(&[]), Err(LinalgError::Empty));
        let ragged = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
        assert!(matches!(ragged, Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.matmul(&Matrix::identity(3)).unwrap(), a);
        assert_eq!(Matrix::identity(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 5);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn mat_vec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]).unwrap();
        let v = vec![3.0, 4.0];
        assert_eq!(a.mat_vec(&v).unwrap(), vec![-1.0, 8.0]);
        assert!(a.mat_vec(&[1.0]).is_err());
    }

    #[test]
    fn select_cols_reorders() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let s = a.select_cols(&[2, 0]);
        assert_eq!(
            s,
            Matrix::from_rows(&[vec![3.0, 1.0], vec![6.0, 4.0]]).unwrap()
        );
    }

    #[test]
    fn col_extraction() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn finiteness_and_max_abs() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.is_finite());
        assert_eq!(a.max_abs(), 0.0);
        a[(0, 1)] = -7.5;
        assert_eq!(a.max_abs(), 7.5);
        a[(1, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let a = Matrix::zeros(1, 1);
        let _ = a[(1, 0)];
    }

    #[test]
    fn display_contains_shape() {
        let a = Matrix::zeros(2, 3);
        assert!(a.to_string().contains("[2x3]"));
    }

    #[test]
    fn from_flat_validates_shape() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(
            m,
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
        );
        assert_eq!(Matrix::from_flat(0, 2, vec![]), Err(LinalgError::Empty));
        assert!(matches!(
            Matrix::from_flat(2, 2, vec![1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn copy_from_matches_clone_without_reallocating() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let mut b = Matrix::zeros(4, 3);
        b.copy_from(&a);
        assert_eq!(a, b);
        let cap = b.data.capacity();
        b.copy_from(&a);
        assert_eq!(b.data.capacity(), cap);
    }

    #[test]
    fn copy_from_flat_roundtrips() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let mut b = Matrix::zeros(1, 1);
        b.copy_from_flat(2, 3, a.as_slice());
        assert_eq!(a, b);
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 11 + j * 3) as f64 - 7.0);
        let mut sel = Matrix::zeros(1, 1);
        a.select_cols_into(&[3, 1], &mut sel);
        assert_eq!(sel, a.select_cols(&[3, 1]));
    }
}
