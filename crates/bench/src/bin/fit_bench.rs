//! Wall-clock + allocation benchmark for the zero-allocation fit
//! pipeline (`gpm-core::FitWorkspace`).
//!
//! Fits the GTX Titan X model through four routes — cold fit with a
//! fresh workspace per call, cold fit over a reused workspace, warm
//! refit over a reused workspace (the periodic-recalibration path), and
//! a robust (Huber IRLS) fit — plus a 5-fold cross-validation run, and
//! reports observations/sec for each.
//!
//! Conformance comes before speed: fits through a reused workspace must
//! produce model JSON byte-identical to fits through a fresh one (a
//! fast wrong fit must fail the bench, not win it), and the steady-state
//! allocations per alternation iteration are measured with a counting
//! global allocator by differencing a 5-iteration against a
//! 15-iteration warm refit, at 1 and at 4 `gpm-par` threads — the
//! difference must be zero at both.
//!
//! The warm-refit route is *matched quality*: a recalibration only has
//! to re-achieve the previous model's training RMSE, so the bench finds
//! the smallest warm iteration budget that does (verified, not
//! assumed), times that, and gates on it — cold fits run the default
//! 50-iteration budget from the Eq. 11 bootstrap.
//!
//! Results go to `BENCH_fit.json`; beside it, `BENCH_fit_truth.json`
//! holds the fit-versus-truth study (`gpm_bench::fit_truth_study`): every
//! fleet device class fitted at 20, 50 and 150 iterations and scored
//! against the simulator's hidden truth. `GPM_BENCH_REPEATS` overrides the
//! timing repeats (best-of is reported). `--gate` runs the CI subset:
//! conformance, the allocation check, and the warm-refit floor
//! (`warm refit >= GPM_FIT_MIN_RATIO x cold fit`, default 3.0) without
//! writing the artifact.

use gpm_bench::{fit_truth_study, heading, REPRO_SEED, TRUTH_BUDGETS};
use gpm_core::{cross_validate, Estimator, EstimatorConfig, FitWorkspace};
use gpm_fleet::CLASS_SLUGS;
use gpm_json::impl_json;
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_spec::devices;
use gpm_workloads::microbenchmark_suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations (not bytes) so steady-state behaviour can be
/// asserted by differencing two runs of different iteration counts.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const GATE_DEFAULT: f64 = 3.0;
const CV_FOLDS: usize = 5;

fn repeats(gate: bool) -> usize {
    std::env::var("GPM_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(if gate { 3 } else { 10 })
}

/// Best-of-N wall time for `f`; the returned float keeps the optimizer
/// honest.
fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct FitRow {
    path: String,
    best_s: f64,
    /// Observations processed per second (`n_obs x iterations / time`);
    /// 0 where the iteration count is not reported (cross-validation).
    mobs_per_s: f64,
    speedup_vs_cold: f64,
}

impl_json!(struct FitRow { path, best_s, mobs_per_s, speedup_vs_cold });

struct FitBenchReport {
    device: String,
    available_parallelism: usize,
    samples: usize,
    configs: usize,
    observations: usize,
    repeats: usize,
    cv_folds: usize,
    /// Heap allocations per alternation iteration at steady state
    /// (reused workspace, the worse of 1 and 4 threads) — the
    /// zero-allocation claim.
    steady_state_allocs_per_iteration: f64,
    /// The acceptance-gate number: cold fit time / warm refit time,
    /// where the warm refit runs the smallest budget that re-achieves
    /// the cold fit's training RMSE.
    warm_refit_speedup: f64,
    cold_iterations: usize,
    warm_iterations: usize,
    rows: Vec<FitRow>,
}

impl_json!(struct FitBenchReport {
    device, available_parallelism, samples, configs, observations, repeats, cv_folds,
    steady_state_allocs_per_iteration, warm_refit_speedup,
    cold_iterations, warm_iterations, rows
});

fn main() {
    let gate_mode = std::env::args().any(|a| a == "--gate");
    let spec = devices::gtx_titan_x();
    heading(&format!("fit pipeline bench: {}", spec.name()));

    // One fast training campaign; the bench times only the estimation.
    let training = {
        let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        let suite = microbenchmark_suite(&spec);
        Profiler::with_repeats(&mut gpu, 1)
            .profile_suite(&suite)
            .expect("training campaign")
    };
    let n_obs: usize = training
        .samples
        .iter()
        .map(|s| s.power_by_config.len())
        .sum();
    let n_cfg = training.configs().len();
    let reps = repeats(gate_mode);
    println!(
        "{} microbenchmarks x {n_cfg} configs = {n_obs} observations, best of {reps} repeats",
        training.samples.len()
    );

    let estimator = Estimator::new();
    let mut ws = FitWorkspace::new();

    // --- Conformance before speed -------------------------------------
    // Fits through the shared workspace must be byte-identical to fits
    // through a fresh one, on first use and on reuse, cold and warm.
    let (fresh_model, fresh_report) = estimator.fit_with_report(&training).expect("cold fit");
    let fresh_json = fresh_model.to_json().expect("model serializes");
    for pass in ["first use", "reused"] {
        let (m, r) = estimator
            .fit_with(&training, None, &mut ws)
            .expect("workspace fit");
        assert!(
            m.to_json().expect("model serializes") == fresh_json
                && r.rmse_history == fresh_report.rmse_history
                && r.coefficient_sigma == fresh_report.coefficient_sigma,
            "workspace fit ({pass}) diverged from Estimator::fit — refusing to time a wrong fit"
        );
    }
    let warm_json = estimator
        .fit_with(&training, Some(&fresh_model), &mut FitWorkspace::new())
        .expect("warm fit")
        .0
        .to_json()
        .expect("model serializes");
    let (warm_model, _) = estimator
        .fit_with(&training, Some(&fresh_model), &mut ws)
        .expect("warm workspace fit");
    assert_eq!(
        warm_model.to_json().expect("model serializes"),
        warm_json,
        "warm refit through the reused workspace diverged from a fresh-workspace refit"
    );
    println!("conformance: reused-workspace fits byte-identical to fresh-workspace fits");

    // --- Matched-quality warm budget -----------------------------------
    // A recalibration is done once it re-achieves the previous model's
    // training quality. Find the smallest warm iteration budget whose
    // final RMSE is no worse than the cold fit's, and verify it.
    let cold_rmse = *fresh_report
        .rmse_history
        .last()
        .expect("cold fit records RMSE");
    let mut warm_est = None;
    let mut warm_iterations = 0;
    for budget in 1..=estimator.config().max_iterations {
        let est = Estimator::with_config(EstimatorConfig {
            max_iterations: budget,
            ..EstimatorConfig::default()
        });
        let (_, r) = est
            .fit_with(&training, Some(&fresh_model), &mut ws)
            .expect("warm budget probe");
        if *r.rmse_history.last().expect("warm fit records RMSE") <= cold_rmse {
            warm_iterations = r.iterations;
            warm_est = Some(est);
            break;
        }
    }
    let warm_est = warm_est.expect("a warm refit within the cold budget matches cold quality");
    println!(
        "warm refit matches cold training RMSE ({cold_rmse:.4} W) after {warm_iterations} \
         iteration(s); cold takes {}",
        fresh_report.iterations
    );

    // --- Steady-state allocations per iteration ------------------------
    // Difference a 5- against a 15-iteration warm refit (negative
    // tolerance so neither converges early): everything per-fit cancels,
    // leaving exactly the per-iteration allocations. The alternation runs
    // on the calling thread, so the count must be zero at any thread
    // count; 1 and 4 are probed.
    let probe = Estimator::with_config(EstimatorConfig {
        tolerance: -1.0,
        ..EstimatorConfig::default()
    });
    let mut count_fit = |max_iterations: usize| -> (u64, usize) {
        let est = Estimator::with_config(EstimatorConfig {
            max_iterations,
            ..probe.config().clone()
        });
        // Warm the buffers to this shape first, then count.
        est.fit_with(&training, Some(&fresh_model), &mut ws)
            .expect("sizing fit");
        let before = ALLOCS.load(Ordering::Relaxed);
        let (_, r) = est
            .fit_with(&training, Some(&fresh_model), &mut ws)
            .expect("counted fit");
        (ALLOCS.load(Ordering::Relaxed) - before, r.iterations)
    };
    let mut allocs_per_iter = 0.0f64;
    for threads in [1, 4] {
        gpm_par::set_threads(Some(threads));
        let (allocs_short, iters_short) = count_fit(5);
        let (allocs_long, iters_long) = count_fit(15);
        gpm_par::set_threads(None);
        assert_eq!(
            (iters_short, iters_long),
            (5, 15),
            "allocation probe must run the full iteration budget"
        );
        let per_iter =
            (allocs_long as f64 - allocs_short as f64) / (iters_long - iters_short) as f64;
        println!(
            "allocations at {threads} thread(s): {allocs_short} @ {iters_short} iters, \
             {allocs_long} @ {iters_long} iters -> {per_iter} per steady-state iteration"
        );
        assert_eq!(
            allocs_long, allocs_short,
            "fit alternation loop allocates at steady state at {threads} thread(s) \
             ({per_iter} per iteration)"
        );
        allocs_per_iter = allocs_per_iter.max(per_iter);
    }

    // --- Timing --------------------------------------------------------
    heading("end-to-end fits");
    let cold_s = best_of(reps, || {
        estimator
            .fit_with_report(&training)
            .expect("cold fit")
            .1
            .training_mape
    });
    let cold_ws_s = best_of(reps, || {
        estimator
            .fit_with(&training, None, &mut ws)
            .expect("workspace fit")
            .1
            .training_mape
    });
    let warm_s = best_of(reps, || {
        warm_est
            .fit_with(&training, Some(&fresh_model), &mut ws)
            .expect("warm refit")
            .1
            .training_mape
    });
    let mut rows = vec![
        (
            "cold fit (fresh workspace)".to_string(),
            cold_s,
            fresh_report.iterations,
        ),
        (
            "cold fit (reused workspace)".to_string(),
            cold_ws_s,
            fresh_report.iterations,
        ),
        (
            format!("warm refit (matched quality, {warm_iterations} it)"),
            warm_s,
            warm_iterations,
        ),
    ];

    if !gate_mode {
        let robust_est = Estimator::with_config(EstimatorConfig {
            robust: true,
            ..EstimatorConfig::default()
        });
        let mut robust_ws = FitWorkspace::new();
        let robust_iters = robust_est
            .fit_with(&training, None, &mut robust_ws)
            .expect("robust fit")
            .1
            .iterations;
        let robust_s = best_of(reps, || {
            robust_est
                .fit_with(&training, None, &mut robust_ws)
                .expect("robust fit")
                .1
                .training_mape
        });
        rows.push((
            "robust fit (reused workspace)".to_string(),
            robust_s,
            robust_iters,
        ));
        let cv_s = best_of(reps.min(3), || {
            cross_validate(&training, &EstimatorConfig::default(), CV_FOLDS)
                .expect("cross-validation")
                .overall_mape
        });
        rows.push((format!("{CV_FOLDS}-fold cross-validation"), cv_s, 0));
    }

    let fit_rows: Vec<FitRow> = rows
        .into_iter()
        .map(|(path, best_s, iters)| FitRow {
            path,
            best_s,
            mobs_per_s: (n_obs * iters) as f64 / best_s / 1e6,
            speedup_vs_cold: cold_s / best_s,
        })
        .collect();
    for r in &fit_rows {
        println!(
            "  {:<32} {:>9.1} ms   {:>7.2} Mobs/s   {:>6.2}x vs cold",
            r.path,
            r.best_s * 1e3,
            r.mobs_per_s,
            r.speedup_vs_cold
        );
    }

    let warm_refit_speedup = cold_s / warm_s;
    let floor: f64 = std::env::var("GPM_FIT_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(GATE_DEFAULT);

    if !gate_mode {
        let report = FitBenchReport {
            device: spec.name().to_string(),
            available_parallelism: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            samples: training.samples.len(),
            configs: n_cfg,
            observations: n_obs,
            repeats: reps,
            cv_folds: CV_FOLDS,
            steady_state_allocs_per_iteration: allocs_per_iter,
            warm_refit_speedup,
            cold_iterations: fresh_report.iterations,
            warm_iterations,
            rows: fit_rows,
        };
        let json = gpm_json::to_string(&report).expect("report serializes");
        std::fs::write("BENCH_fit.json", &json).expect("write BENCH_fit.json");
        println!("\nwrote BENCH_fit.json");

        heading("fit against ground truth, by class and iteration budget");
        let truth = fit_truth_study(&CLASS_SLUGS, &TRUTH_BUDGETS);
        for r in &truth {
            println!(
                "  {:<12} budget {:>3}: {:>3} it{}  truth MAPE {:>5.2}%  mean |V̄core - truth| {:.3}",
                r.class,
                r.max_iterations,
                r.iterations,
                if r.converged { " (converged)" } else { "" },
                r.truth_mape_pct,
                r.vcore_abs_err
            );
        }
        let json = gpm_json::to_string(&truth).expect("truth study serializes");
        std::fs::write("BENCH_fit_truth.json", &json).expect("write BENCH_fit_truth.json");
        println!("\nwrote BENCH_fit_truth.json");
    }

    assert!(
        warm_refit_speedup >= floor,
        "warm refit speedup {warm_refit_speedup:.2}x is below the {floor:.1}x acceptance floor"
    );
    println!("acceptance: warm refit {warm_refit_speedup:.2}x over cold fit (floor {floor:.1}x)");
}
