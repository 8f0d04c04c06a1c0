//! DVFS-aware GPU power model (the paper's primary contribution).
//!
//! Implements, from measurements alone, the complete methodology of
//! Guerreiro et al., *GPGPU Power Modeling for Multi-Domain
//! Voltage-Frequency Scaling* (HPCA 2018):
//!
//! 1. **Metrics & utilizations** ([`events`], [`Utilizations`]) — raw
//!    CUPTI-style event counts (Table I) are aggregated into `ACycles`,
//!    achieved bandwidths and warp counts, then converted to
//!    per-component utilizations via Eqs. 8-10, including the
//!    instruction-ratio split of the fused INT/SP events and the
//!    experimental discovery of the L2 peak bandwidth.
//! 2. **Model** ([`PowerModel`]) — the two-domain formulation of
//!    Eqs. 5-7: `P(Dk) = β₀V̄ + V̄²f(β₁ + Σ ωᵢUᵢ)`, with per-configuration
//!    normalized voltages `V̄` that the driver does not expose.
//! 3. **Estimation** ([`Estimator`]) — the iterative heuristic of
//!    Section III-D: a rank-deficient bootstrap at `V̄ ≡ 1` over three
//!    configurations, alternating exact per-configuration voltage fits
//!    (coordinate descent on closed-form cubic stationary points, with the
//!    Eq. 12 monotonicity constraint enforced by isotonic regression) and
//!    full non-negative least-squares coefficient refits, until
//!    convergence.
//! 4. **Prediction** — total power, per-component [`PowerBreakdown`]
//!    (Figs. 5B/10), recovered voltage curves (Fig. 6) and TDP-aware
//!    frequency fallback (Fig. 9), for any V-F configuration, from events
//!    measured at a *single* reference configuration.
//!
//! The Section VI baselines and a joint solve of the estimation problem,
//! which only the reproduction compares against, live in `gpm-bench`.
//!
//! This crate never touches the simulator: it depends only on
//! measurements, exactly like the paper's tool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod bench_support;
mod breakdown;
mod coverage;
mod crossval;
mod dataset;
mod error;
mod estimator;
pub mod events;
mod model;
mod report;
mod timings;
mod utilization;
mod workspace;

pub use breakdown::PowerBreakdown;
pub use coverage::{ComponentCoverage, CoverageReport, COVERAGE_THRESHOLD};
pub use crossval::{cross_validate, CvReport};
pub use dataset::{AppProfile, MicrobenchSample, TrainingSet};
pub use error::ModelError;
pub use estimator::{Estimator, EstimatorConfig, FitReport};
pub use model::{DomainParams, PowerModel, VoltageTable};
pub use report::{AccuracyEntry, AccuracyReport};
pub use timings::{PhaseTiming, PhaseTimings};
pub use utilization::{l2_peak_from_profiles, Utilizations};
pub use workspace::FitWorkspace;
