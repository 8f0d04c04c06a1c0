//! The reproduction of Guerreiro et al. (HPCA 2018) and the timing
//! harness around the pipeline.
//!
//! [`repro`] regenerates every table, figure and study of the paper end
//! to end (simulate the GPU, run the measurement campaign, fit the
//! model, evaluate) and the `repro` binary prints it. [`baseline`] and
//! [`joint`] are the models it compares against: the prior work of
//! Section VI and a joint solve of the paper's estimation problem. The
//! helpers below serve it, the timing binaries and the cargo benches.

pub mod baseline;
pub mod joint;
pub mod repro;

use gpm_core::{AppProfile, Estimator, EstimatorConfig, FitReport, PowerModel, TrainingSet};
use gpm_json::impl_json;
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_spec::{DeviceSpec, Domain};
use gpm_workloads::{microbenchmark_suite, validation_suite};

/// The seed of the reproduction, so every figure is generated from the
/// *same* three simulated cards.
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
/// Panics on any pipeline failure — the reproduction treats that as
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

/// Iteration budgets of [`fit_truth_study`]: below, at and above the
/// paper's 50-iteration cap.
pub const TRUTH_BUDGETS: [usize; 3] = [20, 50, 150];

/// One device class fitted at one iteration budget and scored against
/// the simulator's hidden ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthRow {
    /// Device-class slug (`gpm_fleet::CLASS_SLUGS`).
    pub class: String,
    /// `EstimatorConfig::max_iterations` of the fit.
    pub max_iterations: usize,
    /// Outer iterations the fit ran.
    pub iterations: usize,
    /// Whether it stopped by the RMSE rule rather than the budget.
    pub converged: bool,
    /// Held-out MAPE (%) of the validation applications' grid
    /// predictions against true power.
    pub truth_mape_pct: f64,
    /// Mean `|V̄core − truth|` over the V-F grid.
    pub vcore_abs_err: f64,
}

impl_json!(struct TruthRow {
    class,
    max_iterations,
    iterations,
    converged,
    truth_mape_pct,
    vcore_abs_err,
});

/// The fit-versus-truth study: for each class in `slugs`, fits the
/// microbenchmark campaign of `SimulatedGpu::new(spec, REPRO_SEED)` at
/// every budget in `budgets` and scores it against the simulator's
/// hidden truth. The held-out MAPE covers every validation application
/// (profiled once at the reference, on the training card) at every grid
/// configuration, against `truth().true_power` of the application's
/// execution there; the voltage error compares the fitted `V̄core` with
/// `truth().normalized_voltage` at every grid configuration. Rows come
/// in class, then budget order.
///
/// # Panics
///
/// Panics on an unknown class slug or any pipeline failure.
pub fn fit_truth_study(slugs: &[&str], budgets: &[usize]) -> Vec<TruthRow> {
    let mut rows = Vec::with_capacity(slugs.len() * budgets.len());
    for &slug in slugs {
        let spec = gpm_fleet::class_spec(slug).expect("known device class");
        let grid = spec.vf_grid();
        let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        let apps = validation_suite(&spec);
        let (training, profiles) = {
            let mut profiler = Profiler::new(&mut gpu);
            let training = profiler
                .profile_suite(&microbenchmark_suite(&spec))
                .expect("training campaign succeeds");
            let profiles: Vec<AppProfile> = apps
                .iter()
                .map(|app| {
                    profiler
                        .profile_at_reference(app)
                        .expect("validation profile succeeds")
                })
                .collect();
            (training, profiles)
        };
        let mut true_power = Vec::with_capacity(apps.len() * grid.len());
        for app in &apps {
            for &config in &grid {
                gpu.set_clocks(config).expect("grid configuration");
                let exec = gpu.execute(app);
                true_power.push(gpu.truth().true_power(config, &exec.utilizations));
            }
        }
        let reference = training.reference;
        for &max_iterations in budgets {
            let (model, report) = Estimator::with_config(EstimatorConfig {
                max_iterations,
                ..EstimatorConfig::default()
            })
            .fit_with_report(&training)
            .expect("estimation succeeds");
            let mut predicted = Vec::with_capacity(true_power.len());
            for profile in &profiles {
                predicted.extend(
                    model
                        .predict_batch(&profile.utilizations, &grid)
                        .expect("validation configurations are on the fitted grid"),
                );
            }
            let vcore_err: f64 = grid
                .iter()
                .map(|&c| {
                    let fitted = model
                        .voltage_table()
                        .voltage(Domain::Core, c)
                        .expect("grid configuration is fitted");
                    (fitted - gpu.truth().normalized_voltage(Domain::Core, c, reference)).abs()
                })
                .sum();
            rows.push(TruthRow {
                class: slug.to_string(),
                max_iterations,
                iterations: report.iterations,
                converged: report.converged,
                truth_mape_pct: gpm_linalg::stats::mape(&predicted, &true_power)
                    .expect("true power is positive"),
                vcore_abs_err: vcore_err / grid.len() as f64,
            });
        }
    }
    rows
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
    fn truth_study_scores_each_budget_against_ground_truth() {
        let rows = fit_truth_study(&["tesla-k40c"], &[1, 3]);
        assert_eq!(rows.len(), 2);
        for (row, budget) in rows.iter().zip([1, 3]) {
            assert_eq!(row.class, "tesla-k40c");
            assert_eq!(row.max_iterations, budget);
            assert!(row.iterations <= budget);
            assert!(
                row.truth_mape_pct > 0.0 && row.truth_mape_pct < 20.0,
                "{row:?}"
            );
            assert!(
                row.vcore_abs_err >= 0.0 && row.vcore_abs_err < 0.5,
                "{row:?}"
            );
        }
    }

    #[test]
    fn fit_device_produces_usable_model() {
        let fitted = fit_device(gpm_spec::devices::tesla_k40c());
        assert_eq!(fitted.training.samples.len(), 83);
        assert!(fitted.report.training_mape < 15.0);
    }
}
