//! Baseline models for accuracy comparison (Section VI).
//!
//! Two families of prior work are reimplemented so the paper's
//! comparisons can be reproduced:
//!
//! - [`LinearFreqModel`] — the linear-in-frequency regression of
//!   Abe et al. \[14\] (no voltage terms, optional 3 x 3 frequency-subset
//!   fit), the approach the paper directly compares against;
//! - [`ScalingClusterModel`] — a clustering approach in the spirit of
//!   Wu et al. \[15\]: group training kernels by their utilization
//!   signature, learn each cluster's *power scaling surface* across the
//!   V-F grid, and predict a new application by nearest-cluster lookup.
//!
//! The constant-voltage *ablation* of the paper's own model is available
//! via [`EstimatorConfig::estimate_voltages`](gpm_core::EstimatorConfig).

mod cluster;
mod linear;

pub use cluster::{ClusterSummary, ScalingClusterModel};
pub use linear::{BaselineFitStrategy, LinearFreqModel};
