//! Hooks for `gpm-bench`: the two halves of the estimator's moment
//! form, which the `solvers` bench times on a workspace that a fit has
//! prepared, and the Eq. 6/7 design row with its parameter count and
//! voltage bounds, which the joint solve of the reproduction shares.
//! `#[doc(hidden)]` because they are bench plumbing rather than API
//! surface.

pub use crate::estimator::{design_row, NUM_PARAMS, V_BOUNDS};
use crate::{Estimator, FitWorkspace, ModelError};

/// Rebuilds the per-configuration moments of `ws`'s observations under
/// `estimator`'s weights: the part of the moment form a fit pays once.
pub fn build_moments(estimator: &Estimator, ws: &mut FitWorkspace) {
    estimator.build_base_moments(ws);
}

/// One coefficient step at `ws`'s current voltages, as each iteration
/// runs it: the Gram form assembled from the moments, then Lawson–Hanson
/// from the support of `x`, which receives the solution.
///
/// # Errors
///
/// As the estimator's coefficient step.
pub fn coefficient_step(
    estimator: &Estimator,
    ws: &mut FitWorkspace,
    x: &mut [f64; 11],
) -> Result<(), ModelError> {
    estimator.solve_coefficients_ws(ws, None, &mut 0, x)
}
