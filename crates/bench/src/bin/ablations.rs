//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. non-negative least squares vs. plain ridge regression,
//! 2. voltage estimation vs. the constant-voltage (`V̄ ≡ 1`) model,
//! 3. the Eq. 12 monotonicity (isotonic) projection on/off,
//! 4. training-suite size (stratified subsets of the 83 microbenchmarks),
//! 5. prediction-error growth with distance from the reference
//!    configuration.
//!
//! All studies run on the GTX Titan X (the device with the widest V-F
//! grid) and evaluate on the 26 validation applications.

use gpm_bench::{
    collect_validation, fit_device, heading, validation_mape, FittedDevice, REPRO_SEED,
};
use gpm_core::{fit_joint, Estimator, EstimatorConfig, JointFitConfig, PowerModel, TrainingSet};
use gpm_linalg::stats;
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_spec::{devices, FreqConfig};
use std::collections::BTreeMap;

fn fit_variant(training: &TrainingSet, config: EstimatorConfig) -> PowerModel {
    Estimator::with_config(config).fit(training).unwrap()
}

fn main() {
    let spec = devices::gtx_titan_x();
    let fitted: FittedDevice = fit_device(spec.clone());
    let data = collect_validation(&spec, spec.default_config());
    let default_mape = validation_mape(&fitted.model, &data);

    heading("Ablation 1: NNLS vs plain ridge least squares");
    let ridge_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            nonnegative: false,
            ..EstimatorConfig::default()
        },
    );
    println!("  NNLS (default):      {default_mape:.2}%");
    println!(
        "  ridge (unconstrained): {:.2}%",
        validation_mape(&ridge_model, &data)
    );
    let negs = ridge_model
        .core_params()
        .omegas
        .iter()
        .filter(|&&w| w < 0.0)
        .count();
    println!("  unconstrained fit produced {negs} negative core coefficients");

    heading("Ablation 2: voltage estimation vs constant voltage (V = 1)");
    let flat_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            estimate_voltages: false,
            ..EstimatorConfig::default()
        },
    );
    println!("  DVFS-aware (default):   {default_mape:.2}%");
    println!(
        "  constant-voltage:       {:.2}%",
        validation_mape(&flat_model, &data)
    );

    heading("Ablation 3: Eq. 12 monotonicity projection on/off");
    let free_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            enforce_monotonic_voltage: false,
            ..EstimatorConfig::default()
        },
    );
    println!("  isotonic (default):     {default_mape:.2}%");
    println!(
        "  unconstrained voltages: {:.2}%",
        validation_mape(&free_model, &data)
    );
    let curve = free_model
        .voltage_table()
        .core_curve(spec.default_config().mem);
    let violations = curve.windows(2).filter(|w| w[0].1 > w[1].1 + 1e-9).count();
    println!("  unconstrained voltage curve has {violations} monotonicity violations");

    heading("Ablation 4: training-suite size");
    // Each subset fit is independent: run the sweep through the parallel
    // engine and print the (order-preserved) results afterwards.
    let sizes = [12usize, 21, 28, 42, 83];
    for line in gpm_par::par_map(&sizes, |&keep| {
        // Stratified subset: every k-th sample keeps the category mix.
        let stride = fitted.training.samples.len().div_ceil(keep);
        let mut subset = fitted.training.clone();
        subset.samples = fitted
            .training
            .samples
            .iter()
            .step_by(stride.max(1))
            .cloned()
            .collect();
        match Estimator::new().fit(&subset) {
            Ok(model) => format!(
                "  {:>2} microbenchmarks -> validation MAPE {:.2}%",
                subset.samples.len(),
                validation_mape(&model, &data)
            ),
            Err(e) => format!(
                "  {:>2} microbenchmarks -> fit failed: {e}",
                subset.samples.len()
            ),
        }
    }) {
        println!("{line}");
    }

    heading("Ablation 5: error vs distance from the reference configuration");
    let reference = spec.default_config();
    let mut bins: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (profile, grid) in data.profiles.iter().zip(&data.grids) {
        for (&config, &watts) in grid {
            let dist = config.core.as_u32().abs_diff(reference.core.as_u32()) / 100;
            let entry = bins.entry(dist).or_default();
            entry
                .0
                .push(fitted.model.predict(&profile.utilizations, config).unwrap());
            entry.1.push(watts);
        }
    }
    for (bin, (pred, meas)) in bins {
        println!(
            "  |fcore - ref| in [{:>4}, {:>4}) MHz -> MAPE {:.2}%  ({} points)",
            bin * 100,
            (bin + 1) * 100,
            stats::mape(&pred, &meas).unwrap(),
            pred.len()
        );
    }

    heading("Ablation 5b: refitting with a different reference configuration");
    // Each reference placement runs a full campaign on its own simulated
    // GPU, so the three studies parallelize without sharing state.
    let references = [
        FreqConfig::from_mhz(975, 3505),  // device default (paper)
        FreqConfig::from_mhz(1164, 4005), // fast corner
        FreqConfig::from_mhz(595, 810),   // slow corner
    ];
    for line in gpm_par::par_map(&references, |&reference| {
        let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        let suite = gpm_workloads::microbenchmark_suite(&spec);
        let mut profiler = Profiler::new(&mut gpu);
        profiler.set_reference(reference).unwrap();
        let training = profiler.profile_suite(&suite).unwrap();
        let model = Estimator::new().fit(&training).unwrap();
        // Validation profiles must come from the same reference; the
        // study scores the first 12 applications.
        let mut data = collect_validation(&spec, reference);
        data.names.truncate(12);
        data.profiles.truncate(12);
        data.grids.truncate(12);
        format!(
            "  reference {reference} -> validation MAPE {:.2}%",
            validation_mape(&model, &data)
        )
    }) {
        println!("{line}");
    }

    heading("Ablation 6: absolute vs relative (percentage) error objective");
    let rel_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            relative_error: true,
            ..EstimatorConfig::default()
        },
    );
    println!("  absolute watts (paper):  {default_mape:.2}%");
    println!(
        "  relative (1/P weighted): {:.2}%",
        validation_mape(&rel_model, &data)
    );

    heading("Ablation 7: alternating heuristic vs joint Levenberg-Marquardt");
    let t0 = std::time::Instant::now();
    let (joint_model, joint_report) =
        fit_joint(&fitted.training, &JointFitConfig::default()).unwrap();
    println!(
        "  alternating (paper): val MAPE {default_mape:.2}%  (train {:.2}%)",
        fitted.report.training_mape
    );
    println!(
        "  joint LM:            val MAPE {:.2}%  (train {:.2}%, {} iterations, {:.1}s)",
        validation_mape(&joint_model, &data),
        joint_report.training_mape,
        joint_report.iterations,
        t0.elapsed().as_secs_f64()
    );
}
