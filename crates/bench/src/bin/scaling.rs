//! Thread-scaling study of the parallel estimation engine (gpm-par).
//!
//! Runs the same k-fold cross-validation workload at 1, 2, 4 and 8
//! worker threads, prints a threads-vs-wall-clock table and writes the
//! raw numbers to `BENCH_scaling.json`. Cross-validation is the
//! estimator's one parallel level: its folds fan out over `gpm-par`, and
//! each fold's fit runs sequentially on its worker.
//!
//! The reproducibility contract holds throughout: every run checks that
//! its `CvReport` is identical to the single-threaded one.

use gpm_bench::{fit_device, heading, REPRO_SEED};
use gpm_core::{cross_validate, EstimatorConfig};
use gpm_json::impl_json;
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_spec::devices;
use gpm_workloads::microbenchmark_suite;
use std::time::Instant;

const FOLDS: usize = 6;
const RUNS: u32 = 3;

/// One measured point of the scaling sweep.
struct ScalingPoint {
    threads: usize,
    best_s: f64,
    mean_s: f64,
    speedup: f64,
}

impl_json!(struct ScalingPoint { threads, best_s, mean_s, speedup });

/// The artifact written to `BENCH_scaling.json`.
struct ScalingReport {
    device: String,
    folds: usize,
    runs_per_point: u32,
    available_parallelism: usize,
    points: Vec<ScalingPoint>,
}

impl_json!(struct ScalingReport { device, folds, runs_per_point, available_parallelism, points });

fn main() {
    let spec = devices::gtx_titan_x();
    heading(&format!(
        "gpm-par scaling: {FOLDS}-fold cross-validation on {} ({} microbenchmarks)",
        spec.name(),
        microbenchmark_suite(&spec).len()
    ));

    // One fast training campaign (repeats=1 keeps the setup cheap; the
    // sweep itself times only the estimation side).
    let training = {
        let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        let suite = microbenchmark_suite(&spec);
        Profiler::with_repeats(&mut gpu, 1)
            .profile_suite(&suite)
            .expect("training campaign")
    };
    let config = EstimatorConfig::default();

    gpm_par::set_threads(Some(1));
    let baseline_cv = cross_validate(&training, &config, FOLDS).expect("baseline CV");

    let mut points = Vec::new();
    let mut baseline_best = 0.0f64;
    println!(
        "{:>8} {:>12} {:>12} {:>9}  identical",
        "threads", "best", "mean", "speedup"
    );
    for &threads in &[1usize, 2, 4, 8] {
        gpm_par::set_threads(Some(threads));
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        let mut identical = true;
        for _ in 0..RUNS {
            let t0 = Instant::now();
            let cv = cross_validate(&training, &config, FOLDS).expect("CV run");
            let dt = t0.elapsed().as_secs_f64();
            best = best.min(dt);
            total += dt;
            identical &= cv == baseline_cv;
        }
        let mean = total / f64::from(RUNS);
        if threads == 1 {
            baseline_best = best;
        }
        let speedup = baseline_best / best;
        println!(
            "{threads:>8} {:>10.1}ms {:>10.1}ms {speedup:>8.2}x  {identical}",
            best * 1e3,
            mean * 1e3
        );
        assert!(identical, "CV output diverged at {threads} threads");
        points.push(ScalingPoint {
            threads,
            best_s: best,
            mean_s: mean,
            speedup,
        });
    }
    gpm_par::set_threads(None);

    let report = ScalingReport {
        device: spec.name().to_string(),
        folds: FOLDS,
        runs_per_point: RUNS,
        available_parallelism: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        points,
    };
    let json = gpm_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("\nwrote BENCH_scaling.json");

    // Per-phase wall-clock of one full fit, for orientation.
    heading("estimation phase timings (single fit, current machine)");
    let fitted = fit_device(spec);
    print!("{}", fitted.report.timings);
}
