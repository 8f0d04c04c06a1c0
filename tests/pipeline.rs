//! End-to-end reproduction tests: the full paper pipeline on every
//! device, asserting the headline accuracy bands hold.

use gpm::linalg::stats;
use gpm::prelude::*;
use gpm::spec::devices;
use gpm_bench::baseline::{BaselineFitStrategy, LinearFreqModel};

/// Runs the full pipeline with reduced measurement repeats (keeps CI
/// fast; the reproduction uses the paper's 10).
fn run_pipeline(spec: &DeviceSpec, seed: u64) -> (SimulatedGpu, TrainingSet, PowerModel) {
    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let suite = microbenchmark_suite(spec);
    let training = Profiler::with_repeats(&mut gpu, 2)
        .profile_suite(&suite)
        .expect("campaign succeeds");
    let model = Estimator::new()
        .fit(&training)
        .expect("estimation succeeds");
    (gpu, training, model)
}

/// Validation MAPE over a subset of the unseen applications and the full
/// V-F grid.
fn validation_mape(spec: &DeviceSpec, model: &PowerModel, napps: usize) -> f64 {
    let mut gpu = SimulatedGpu::new(spec.clone(), 12345);
    let mut profiler = Profiler::with_repeats(&mut gpu, 2);
    let mut pred = Vec::new();
    let mut meas = Vec::new();
    for app in validation_suite(spec).iter().take(napps) {
        let profile = profiler
            .profile_at_reference(app)
            .expect("profiling succeeds");
        for (config, watts) in profiler.measure_power_grid(app).expect("grid succeeds") {
            pred.push(
                model
                    .predict(&profile.utilizations, config)
                    .expect("prediction"),
            );
            meas.push(watts);
        }
    }
    stats::mape(&pred, &meas).expect("mape")
}

#[test]
fn gtx_titan_x_reproduces_the_paper_band() {
    let spec = devices::gtx_titan_x();
    let (_, training, model) = run_pipeline(&spec, 42);
    assert_eq!(training.samples.len(), 83);
    assert_eq!(training.configs().len(), 64);
    let mape = validation_mape(&spec, &model, 10);
    // Paper: 6.0%. Band: comfortably under the linear-baseline regime.
    assert!(mape < 10.0, "validation MAPE {mape:.1}% out of band");
}

#[test]
fn titan_xp_reproduces_the_paper_band() {
    let spec = devices::titan_xp();
    let (_, _, model) = run_pipeline(&spec, 42);
    let mape = validation_mape(&spec, &model, 8);
    assert!(mape < 10.0, "validation MAPE {mape:.1}% out of band");
}

#[test]
fn tesla_k40c_is_the_least_accurate_device() {
    // Paper: 12.4% on the K40c vs ~6-7% on the Titans, attributed to
    // unreliable undisclosed events. Shape check: K40c strictly worse
    // than the Titan X under identical protocols.
    let tx = devices::gtx_titan_x();
    let (_, _, tx_model) = run_pipeline(&tx, 42);
    let tx_mape = validation_mape(&tx, &tx_model, 12);

    let k40 = devices::tesla_k40c();
    let (_, _, k40_model) = run_pipeline(&k40, 42);
    let k40_mape = validation_mape(&k40, &k40_model, 12);

    assert!(
        k40_mape > tx_mape,
        "K40c ({k40_mape:.1}%) should be worse than Titan X ({tx_mape:.1}%)"
    );
    assert!(k40_mape < 25.0, "K40c MAPE {k40_mape:.1}% is out of band");
}

#[test]
fn model_beats_the_linear_frequency_baseline() {
    // The paper's central comparison (Section VI): voltage-aware beats
    // linear-in-frequency on devices with wide voltage ranges.
    let spec = devices::gtx_titan_x();
    let (_, training, model) = run_pipeline(&spec, 42);
    let baseline =
        LinearFreqModel::fit(&training, BaselineFitStrategy::Subset3x3).expect("baseline fits");

    let mut gpu = SimulatedGpu::new(spec.clone(), 999);
    let mut profiler = Profiler::with_repeats(&mut gpu, 2);
    let mut model_pred = Vec::new();
    let mut base_pred = Vec::new();
    let mut meas = Vec::new();
    for app in validation_suite(&spec).iter().take(10) {
        let profile = profiler.profile_at_reference(app).expect("profiling");
        for (config, watts) in profiler.measure_power_grid(app).expect("grid") {
            model_pred.push(
                model
                    .predict(&profile.utilizations, config)
                    .expect("prediction"),
            );
            base_pred.push(baseline.predict(&profile.utilizations, config));
            meas.push(watts);
        }
    }
    let model_mape = stats::mape(&model_pred, &meas).expect("mape");
    let base_mape = stats::mape(&base_pred, &meas).expect("mape");
    assert!(
        model_mape < base_mape,
        "model {model_mape:.1}% should beat baseline {base_mape:.1}%"
    );
}

#[test]
fn voltage_curve_recovery_matches_ground_truth_shape() {
    // Fig. 6: two regions, accurate recovery. Score against the hidden
    // truth the estimator never saw.
    let spec = devices::gtx_titan_x();
    let (gpu, _, model) = run_pipeline(&spec, 42);
    let reference = spec.default_config();
    let curve = model.voltage_table().core_curve(reference.mem);
    assert_eq!(curve.len(), spec.core_freqs().len());

    let mut errs = Vec::new();
    for (f, v) in &curve {
        let truth = gpu.truth().core_voltage.normalized_at(*f, reference.core);
        errs.push(((v - truth) / truth).abs());
        // Monotone non-decreasing (Eq. 12 constraint).
    }
    for w in curve.windows(2) {
        assert!(w[0].1 <= w[1].1 + 1e-9, "voltage curve must be monotone");
    }
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    assert!(
        mean_err < 0.10,
        "mean voltage error {:.1}%",
        mean_err * 100.0
    );
    // Two-regime shape: top-of-range voltage clearly above the plateau.
    let plateau = curve[0].1;
    let top = curve.last().expect("non-empty").1;
    assert!(top > plateau * 1.1, "plateau {plateau:.3} -> top {top:.3}");
}

#[test]
fn error_grows_away_from_the_reference_memory_level() {
    // The Fig. 8 pattern: the 810 MHz panel is the worst on the Titan X.
    let spec = devices::gtx_titan_x();
    let (_, _, model) = run_pipeline(&spec, 42);
    let mut gpu = SimulatedGpu::new(spec.clone(), 777);
    let mut profiler = Profiler::with_repeats(&mut gpu, 2);

    let mut near_pred = Vec::new();
    let mut near_meas = Vec::new();
    let mut far_pred = Vec::new();
    let mut far_meas = Vec::new();
    for app in validation_suite(&spec).iter().take(10) {
        let profile = profiler.profile_at_reference(app).expect("profiling");
        for (config, watts) in profiler.measure_power_grid(app).expect("grid") {
            let p = model
                .predict(&profile.utilizations, config)
                .expect("prediction");
            if config.mem.as_u32() == 810 {
                far_pred.push(p);
                far_meas.push(watts);
            } else if config.mem.as_u32() == 3505 {
                near_pred.push(p);
                near_meas.push(watts);
            }
        }
    }
    let near = stats::mape(&near_pred, &near_meas).expect("mape");
    let far = stats::mape(&far_pred, &far_meas).expect("mape");
    assert!(
        far > near,
        "error at the far memory level ({far:.1}%) should exceed the reference level ({near:.1}%)"
    );
}
