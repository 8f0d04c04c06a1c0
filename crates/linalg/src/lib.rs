//! Dense linear algebra and constrained regression for GPU power modeling.
//!
//! Implements, from scratch, every numerical routine the iterative
//! estimator of Guerreiro et al. (HPCA 2018, Section III-D) needs:
//!
//! - [`Matrix`] and Householder-QR [`lstsq`]/[`ridge_lstsq`] for linear
//!   least squares. The tiny ridge variant handles rank-deficient
//!   designs such as step 1's, where the `β0`/`β2` columns coincide while
//!   all normalized voltages are 1;
//! - Lawson–Hanson [`nnls`] for physically non-negative coefficients, on
//!   the design itself or, as [`nnls_gram_with`], on its Gram form
//!   `(AᵀA, Aᵀb)`: the estimator's coefficient steps (Eq. 11) solve the
//!   Gram form, assembled from per-configuration moments, and the QR
//!   solve is its reference;
//! - weighted pool-adjacent-violators [`isotonic_increasing`] for the
//!   voltage monotonicity constraint of Eq. 12;
//! - closed-form [`cubic_roots`] — the per-configuration voltage objective
//!   is quartic in each voltage, so coordinate descent can use exact
//!   stationary points;
//! - descriptive [`stats`] (MAE, MAPE, RMSE, R², medians) used throughout
//!   the evaluation.
//!
//! # Example
//!
//! ```
//! use gpm_linalg::{Matrix, lstsq};
//!
//! // Fit y = 2x + 1 from three exact samples.
//! let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]])?;
//! let x = lstsq(&a, &[1.0, 3.0, 5.0])?;
//! assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! # Ok::<(), gpm_linalg::LinalgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod cholesky;
mod cubic;
mod error;
mod isotonic;
mod matrix;
mod nnls;
mod qr;
pub mod stats;

pub use batch::{dot, PanelModel, VfPoint};
pub use cholesky::{spd_inverse_with, SpdInverseWorkspace};
pub use cubic::{cubic_roots, cubic_roots_into, quadratic_roots, quadratic_roots_into};
pub use error::LinalgError;
pub use isotonic::{isotonic_increasing, isotonic_increasing_into, IsotonicWorkspace};
pub use matrix::Matrix;
pub use nnls::{nnls, nnls_gram_with, nnls_with, NnlsGramWorkspace, NnlsWorkspace};
pub use qr::{lstsq, lstsq_with, ridge_lstsq, ridge_lstsq_with, LstsqWorkspace};
