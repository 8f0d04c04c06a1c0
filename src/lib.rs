//! # gpm — DVFS-aware GPU power modeling
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of Guerreiro et al., *GPGPU Power Modeling for Multi-Domain
//! Voltage-Frequency Scaling* (HPCA 2018).
//!
//! The paper predicts GPU power consumption across the full core/memory
//! voltage-frequency grid from performance events gathered at a *single*
//! reference configuration, while jointly estimating the (driver-hidden)
//! voltage curve of each domain. Since no NVIDIA hardware is available in
//! this environment, the hardware substrate (power sensor, CUPTI event
//! counters, clock control) is a calibrated simulator ([`sim`]) with hidden
//! ground-truth physics; the model itself ([`core`]) only ever sees what
//! the paper's tool saw.
//!
//! Module map:
//! - [`spec`] — device specifications (paper Table II) and event tables (Table I)
//! - [`linalg`] — dense least squares, NNLS, isotonic regression, statistics
//! - [`sim`] — the simulated GPU: roofline performance model, hidden
//!   voltage/power physics, NVML-like sensor, CUPTI-like counters
//! - [`workloads`] — the 83-microbenchmark training suite and the 26
//!   validation applications (Table III)
//! - [`profiler`] — measurement orchestration over V-F grids
//! - [`core`] — the DVFS-aware power model: utilizations (Eqs. 8-10), the
//!   iterative estimator (Section III-D), prediction and per-component
//!   power breakdown (the baselines it is compared against live in the
//!   `gpm-bench` reproduction)
//! - [`dvfs`] — an online DVFS governor on top of the fitted model (the
//!   paper's future-work direction)
//! - [`obs`] — structured observability: metrics registry, hierarchical
//!   tracing spans, and golden-trace conformance tooling
//! - [`faults`] — deterministic, seed-driven fault injection between the
//!   simulator and the profiler, exercising the resilient campaign path
//!   ([`profiler::ResilientProfiler`]) and the robust estimator mode
//! - [`serve`] — a batched, backpressured prediction service over a
//!   persistent, versioned model registry
//! - [`fleet`] — datacenter-scale fleet simulation: thousands of modeled
//!   nodes under a power-capped, deadline-aware cluster governor
//!
//! # Quickstart
//!
//! ```
//! use gpm::prelude::*;
//!
//! // A simulated GTX Titan X with the paper's measurement protocol.
//! let mut gpu = SimulatedGpu::new(gpm::spec::devices::gtx_titan_x(), 42);
//!
//! // Profile the microbenchmark training suite over the V-F grid
//! // (events only at the reference configuration, as in the paper).
//! let suite = microbenchmark_suite(gpu.spec());
//! let training = Profiler::new(&mut gpu).profile_suite(&suite)?;
//!
//! // Fit the DVFS-aware power model.
//! let model = Estimator::new().fit(&training)?;
//!
//! // Predict an unseen application's power anywhere on the grid.
//! let app = &validation_suite(gpu.spec())[0];
//! let profile = Profiler::new(&mut gpu).profile_at_reference(app)?;
//! let low_mem = FreqConfig::from_mhz(975, 810);
//! let p = model.predict(&profile.utilizations, low_mem)?;
//! assert!(p > 0.0 && p < gpu.spec().tdp_w());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use gpm_core as core;
pub use gpm_dvfs as dvfs;
pub use gpm_faults as faults;
pub use gpm_fleet as fleet;
pub use gpm_json as json;
pub use gpm_linalg as linalg;
pub use gpm_obs as obs;
pub use gpm_par as par;
pub use gpm_profiler as profiler;
pub use gpm_serve as serve;
pub use gpm_sim as sim;
pub use gpm_spec as spec;
pub use gpm_workloads as workloads;

/// Convenience re-exports of the types used in almost every program.
pub mod prelude {
    pub use gpm_core::{
        Estimator, EstimatorConfig, PowerBreakdown, PowerModel, TrainingSet, Utilizations,
    };
    pub use gpm_faults::{FaultPlan, FaultyGpu};
    pub use gpm_profiler::{
        CampaignCheckpoint, CampaignOutcome, Profiler, ResilientProfiler, RetryPolicy,
    };
    pub use gpm_sim::{GpuDevice, SimulatedGpu};
    pub use gpm_spec::{Component, DeviceSpec, Domain, FreqConfig, Mhz};
    pub use gpm_workloads::{microbenchmark_suite, validation_suite, KernelDesc};
}
