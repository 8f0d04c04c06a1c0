//! Shared helpers for the paper-reproduction binaries.
//!
//! Every `fig*`/`table*` binary in this crate regenerates one table or
//! figure of Guerreiro et al. (HPCA 2018) end to end: simulate the GPU,
//! run the measurement campaign, fit the model, evaluate, and print the
//! same rows/series the paper reports.

use gpm_core::{AccuracyReport, AppProfile, Estimator, FitReport, PowerModel, TrainingSet};
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_spec::{DeviceSpec, FreqConfig};
use gpm_workloads::{microbenchmark_suite, validation_suite};
use std::collections::BTreeMap;

/// The seed used by all reproduction binaries, so every figure is
/// generated from the *same* three simulated cards.
pub const REPRO_SEED: u64 = 42;

/// A fully fitted device: the simulated card, its training campaign and
/// the estimated power model.
pub struct FittedDevice {
    /// The simulated GPU (holds the hidden ground truth for scoring).
    pub gpu: SimulatedGpu,
    /// The training dataset (83 microbenchmarks, full V-F grid).
    pub training: TrainingSet,
    /// The fitted DVFS-aware power model.
    pub model: PowerModel,
    /// Estimator diagnostics.
    pub report: FitReport,
}

/// Runs the complete paper pipeline for one device.
///
/// # Panics
///
/// Panics on any pipeline failure — reproduction binaries treat that as
/// fatal.
pub fn fit_device(spec: DeviceSpec) -> FittedDevice {
    let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
    let suite = microbenchmark_suite(&spec);
    let training = Profiler::new(&mut gpu)
        .profile_suite(&suite)
        .expect("training campaign succeeds");
    let (model, report) = Estimator::new()
        .fit_with_report(&training)
        .expect("estimation succeeds");
    FittedDevice {
        gpu,
        training,
        model,
        report,
    }
}

/// Validation measurements of one device: each unseen application of the
/// validation suite, profiled at the reference configuration and
/// measured over the whole V-F grid. Index `i` of every field belongs
/// to the same application, in suite order.
pub struct ValidationData {
    /// Application names.
    pub names: Vec<String>,
    /// Reference profiles (the utilizations a prediction takes).
    pub profiles: Vec<AppProfile>,
    /// Measured power in watts at every configuration.
    pub grids: Vec<BTreeMap<FreqConfig, f64>>,
}

impl ValidationData {
    /// Scores `predict` (watts for an application's reference profile at
    /// a configuration) against every measurement, labelled by
    /// application, in application then configuration order.
    pub fn report(
        &self,
        mut predict: impl FnMut(&AppProfile, FreqConfig) -> f64,
    ) -> AccuracyReport {
        let mut report = AccuracyReport::new();
        for ((name, profile), grid) in self.names.iter().zip(&self.profiles).zip(&self.grids) {
            for (&config, &watts) in grid {
                report.add(name.as_str(), config, predict(profile, config), watts);
            }
        }
        report
    }
}

/// Measures the validation suite on a fresh instance of `spec`'s card:
/// seed `REPRO_SEED + 1000`, so its measurement noise is independent of
/// the training campaign's. Profiles are taken at `reference`, which
/// must be the reference of the model they feed (usually
/// `spec.default_config()`).
///
/// # Panics
///
/// Panics if `reference` is off the device's grid, or on any profiling
/// failure.
pub fn collect_validation(spec: &DeviceSpec, reference: FreqConfig) -> ValidationData {
    let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED + 1000);
    let mut profiler = Profiler::new(&mut gpu);
    profiler
        .set_reference(reference)
        .expect("validation reference is on the device grid");
    let mut data = ValidationData {
        names: Vec::new(),
        profiles: Vec::new(),
        grids: Vec::new(),
    };
    for app in validation_suite(spec) {
        data.names.push(app.name().to_string());
        data.profiles.push(
            profiler
                .profile_at_reference(&app)
                .expect("validation profile succeeds"),
        );
        data.grids.push(
            profiler
                .measure_power_grid(&app)
                .expect("validation grid measurement succeeds"),
        );
    }
    data
}

/// Validation MAPE (%) of `model` over every application and
/// configuration of `data`.
///
/// # Panics
///
/// Panics if `data` is empty or holds a configuration off the model's
/// grid.
pub fn validation_mape(model: &PowerModel, data: &ValidationData) -> f64 {
    data.report(|profile, config| {
        model
            .predict(&profile.utilizations, config)
            .expect("validation configurations are on the fitted grid")
    })
    .mape()
    .expect("validation set is not empty")
}

/// Renders a horizontal ASCII bar of `value` against `max`, `width`
/// characters wide.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize
    } else {
        0
    };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Prints a section heading in a consistent style.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Minimal wall-clock benchmarking harness for the `harness = false`
/// benches: a warmup pass followed by timed iterations, reporting mean
/// and best per-iteration time. Set `GPM_BENCH_ITERS` to override the
/// iteration count (e.g. `GPM_BENCH_ITERS=1` for a smoke run).
pub mod harness {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Outcome of one [`bench`] run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct BenchResult {
        /// Benchmark label.
        pub label: String,
        /// Timed iterations.
        pub iters: u32,
        /// Mean per-iteration wall-clock time.
        pub mean: Duration,
        /// Best per-iteration wall-clock time.
        pub min: Duration,
    }

    fn iteration_count(default: u32) -> u32 {
        std::env::var("GPM_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    }

    /// Times `f` over `default_iters` iterations (after one warmup call)
    /// and prints one aligned result line.
    pub fn bench<R>(label: &str, default_iters: u32, mut f: impl FnMut() -> R) -> BenchResult {
        let iters = iteration_count(default_iters);
        black_box(f());
        let mut min = Duration::MAX;
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let start = Instant::now();
            black_box(f());
            let elapsed = start.elapsed();
            min = min.min(elapsed);
            total += elapsed;
        }
        let result = BenchResult {
            label: label.to_string(),
            iters,
            mean: total / iters,
            min,
        };
        println!(
            "{:<40} {:>12.3} ms/iter (best {:>10.3} ms, {} iters)",
            result.label,
            result.mean.as_secs_f64() * 1e3,
            result.min.as_secs_f64() * 1e3,
            result.iters
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.0, 1.0, 4), "....");
        assert_eq!(bar(0.5, 1.0, 4), "##..");
        assert_eq!(bar(2.0, 1.0, 4), "####");
        assert_eq!(bar(1.0, 0.0, 3), "...");
    }

    #[test]
    fn fit_device_produces_usable_model() {
        let fitted = fit_device(gpm_spec::devices::tesla_k40c());
        assert_eq!(fitted.training.samples.len(), 83);
        assert!(fitted.report.training_mape < 15.0);
    }
}
