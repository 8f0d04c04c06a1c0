//! Workspace-reuse conformance: reusing a `FitWorkspace` across
//! `Estimator::fit_with` calls is a pure performance feature — it must
//! produce byte-identical `PowerModel` JSON and identical diagnostics vs.
//! a fresh workspace per fit, for cold fits, warm-refit chains (including
//! a workspace adopted mid-stream), robust/degraded fits, and at any
//! gpm-par thread count.

use gpm::core::{
    Estimator, EstimatorConfig, FitWorkspace, MicrobenchSample, TrainingSet, Utilizations,
};
use gpm::spec::{devices, Component, FreqConfig};
use gpm_check::Gen;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Thread-count changes are process-global; tests that set them hold
/// this lock.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// A randomized but physically valid training set: powers from an exact
/// Eq. 5-7 model with per-observation multiplicative ripple, and the
/// SFU column identically zero so robust fits auto-degrade it.
fn random_training(g: &mut Gen, n_samples: usize) -> TrainingSet {
    let spec = devices::gtx_titan_x();
    let reference = spec.default_config();
    let vbar = |c: FreqConfig| -> f64 {
        let v = |f: f64| {
            if f <= 810.0 {
                0.85
            } else {
                0.85 + 0.00075 * (f - 810.0)
            }
        };
        v(c.core.as_f64()) / v(reference.core.as_f64())
    };
    let mut samples = Vec::new();
    for i in 0..n_samples {
        let u = Utilizations::from_values([
            g.f64_in(0.05, 0.9),
            g.f64_in(0.0, 0.8),
            0.0,
            g.f64_in(0.0, 0.5),
            g.f64_in(0.0, 0.6),
            g.f64_in(0.1, 0.9),
            g.f64_in(0.05, 0.9),
        ])
        .unwrap();
        let mut power_by_config = BTreeMap::new();
        for config in spec.vf_grid() {
            let vc = vbar(config);
            let fc = config.core.as_f64() / 1000.0;
            let fm = config.mem.as_f64() / 1000.0;
            let core_act = 20.0
                + 18.0 * u.get(Component::Int)
                + 24.0 * u.get(Component::Sp)
                + 15.0 * u.get(Component::SharedMem)
                + 17.0 * u.get(Component::L2Cache);
            let p = (15.0 * vc
                + vc * vc * fc * core_act
                + 10.0
                + fm * (11.0 + 26.0 * u.get(Component::Dram)))
                * (1.0 + 0.01 * g.f64_in(-1.0, 1.0));
            power_by_config.insert(config, p);
        }
        samples.push(MicrobenchSample {
            name: format!("ws_{i}"),
            utilizations: u,
            power_by_config,
        });
    }
    TrainingSet {
        device: spec,
        reference,
        l2_bytes_per_cycle: 640.0,
        samples,
    }
}

/// A drifted re-measurement of the same suite: every power scaled by a
/// small random factor, as a recalibration campaign would see.
fn perturbed(g: &mut Gen, base: &TrainingSet) -> TrainingSet {
    let mut next = base.clone();
    for s in &mut next.samples {
        for w in s.power_by_config.values_mut() {
            *w *= 1.0 + 0.02 * g.f64_in(-1.0, 1.0);
        }
    }
    next
}

/// The property: for random training data, thread counts 1/4/8, robust
/// on/off and explicit column drops, the workspace path (cold fit, then
/// a warm refit through the same reused workspace, then a warm refit
/// through a workspace adopted mid-stream) is byte-identical to the
/// fresh-workspace path.
#[test]
fn workspace_paths_are_bit_identical_for_random_fits() {
    let _guard = THREADS_LOCK.lock().unwrap();
    for case in 0..6u32 {
        gpm_check::check_case("workspace_paths_are_bit_identical", case, |g| {
            gpm::par::set_threads(Some([1usize, 4, 8][case as usize % 3]));
            let config = EstimatorConfig {
                max_iterations: 8,
                robust: case % 2 == 1,
                drop_components: if case % 3 == 2 {
                    vec![Component::SharedMem]
                } else {
                    Vec::new()
                },
                ..EstimatorConfig::default()
            };
            let estimator = Estimator::with_config(config);
            let t0 = random_training(g, 8 + 2 * (case as usize % 3));
            let t1 = perturbed(g, &t0);

            // Path A: a fresh workspace per fit, cold fit + warm refit.
            let (m0, r0) = estimator.fit_with_report(&t0).unwrap();
            let (m1, r1) = estimator
                .fit_with(&t1, Some(&m0), &mut FitWorkspace::new())
                .unwrap();

            // Path B: one workspace reused across the whole chain.
            let mut ws = FitWorkspace::new();
            let (m0b, r0b) = estimator.fit_with(&t0, None, &mut ws).unwrap();
            let (m1b, r1b) = estimator.fit_with(&t1, Some(&m0b), &mut ws).unwrap();
            assert_eq!(m0.to_json().unwrap(), m0b.to_json().unwrap());
            assert_eq!(m1.to_json().unwrap(), m1b.to_json().unwrap());
            assert_eq!(r0.rmse_history, r0b.rmse_history);
            assert_eq!(r1.rmse_history, r1b.rmse_history);
            assert_eq!(r0.coefficient_sigma, r0b.coefficient_sigma);
            assert_eq!(r0.degraded_components, r0b.degraded_components);
            assert_eq!(r1.robust_reweights, r1b.robust_reweights);

            // Path C: a fresh workspace adopted mid-stream must join the
            // chain without disturbing it.
            let mut late_ws = FitWorkspace::new();
            let (m1c, _) = estimator.fit_with(&t1, Some(&m0), &mut late_ws).unwrap();
            assert_eq!(m1.to_json().unwrap(), m1c.to_json().unwrap());
        });
    }
    gpm::par::set_threads(None);
}

/// Cross-thread invariance through the workspace entry points on one
/// fixed dataset: 4- and 8-thread fits must match the 1-thread fit
/// byte-for-byte, with the workspace reused across thread-count changes.
#[test]
fn workspace_fits_are_thread_count_independent() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let mut g = Gen::new(7);
    let training = random_training(&mut g, 10);
    let estimator = Estimator::with_config(EstimatorConfig {
        max_iterations: 8,
        ..EstimatorConfig::default()
    });

    gpm::par::set_threads(Some(1));
    let mut ws = FitWorkspace::new();
    let (model_seq, _) = estimator.fit_with(&training, None, &mut ws).unwrap();
    let (warm_seq, _) = estimator
        .fit_with(&training, Some(&model_seq), &mut ws)
        .unwrap();
    let seq_json = model_seq.to_json().unwrap();
    let warm_json = warm_seq.to_json().unwrap();

    for threads in [4usize, 8] {
        gpm::par::set_threads(Some(threads));
        let (model, _) = estimator.fit_with(&training, None, &mut ws).unwrap();
        assert_eq!(
            model.to_json().unwrap(),
            seq_json,
            "workspace fit diverged at {threads} threads"
        );
        let (warm, _) = estimator
            .fit_with(&training, Some(&model), &mut ws)
            .unwrap();
        assert_eq!(
            warm.to_json().unwrap(),
            warm_json,
            "warm workspace refit diverged at {threads} threads"
        );
    }
    gpm::par::set_threads(None);
}
