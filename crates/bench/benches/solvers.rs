//! Benchmarks for the numerical kernels of the estimator: least
//! squares, NNLS, the moment-form coefficient step, isotonic regression
//! and cubic roots. Run with `cargo bench -p gpm-bench --bench solvers`.
//!
//! The 5,312-row cases are the GTX Titan X coefficient step's shape (83
//! microbenchmarks x 64 configurations, 11 coefficients). Two solve it
//! on the explicit design, as the QR reference does: one Householder
//! solve, and a warm-started NNLS solve from the full support. Two time
//! the estimator's moment form on a real Titan X campaign: the
//! per-configuration moments a fit builds once, and the Gram assembly
//! plus Lawson–Hanson solve each iteration runs.

use gpm_bench::harness::bench;
use gpm_bench::REPRO_SEED;
use gpm_core::{bench_support, Estimator, FitWorkspace};
use gpm_linalg::{cubic_roots, isotonic_increasing, lstsq, nnls, nnls_with, Matrix, NnlsWorkspace};
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_spec::devices;
use gpm_workloads::microbenchmark_suite;

/// Rows of the GTX Titan X coefficient step.
const FIT_ROWS: usize = 5312;

fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let a = Matrix::from_fn(rows, cols, |i, j| {
        next() + if i % cols == j { 1.0 } else { 0.0 }
    });
    let b: Vec<f64> = (0..rows).map(|_| next() * 100.0).collect();
    (a, b)
}

fn main() {
    for &rows in &[64usize, 512, 4096, FIT_ROWS] {
        let (a, b) = deterministic_matrix(rows, 11, 7);
        bench(&format!("lstsq/{rows}"), 20, || lstsq(&a, &b).unwrap());
    }
    for &rows in &[64usize, 512, 4096] {
        let (a, b) = deterministic_matrix(rows, 11, 11);
        bench(&format!("nnls/{rows}"), 20, || nnls(&a, &b).unwrap());
    }
    // A warm solve whose start set is every column, as the estimator's
    // is when the previous iterate is strictly positive: one QR on the
    // design itself plus one gradient pass. The right-hand side is a
    // positive combination of the columns, perturbed, so the full set
    // is the solution's support.
    let (a, noise) = deterministic_matrix(FIT_ROWS, 11, 11);
    let b: Vec<f64> = a
        .mat_vec(&[1.0; 11])
        .unwrap()
        .iter()
        .zip(&noise)
        .map(|(p, e)| p + 0.01 * e)
        .collect();
    let full: Vec<usize> = (0..11).collect();
    let mut ws = NnlsWorkspace::new();
    assert!(
        nnls_with(&a, &b, &full, &mut ws)
            .unwrap()
            .iter()
            .all(|&x| x > 0.0),
        "the full start set must be the solution's support"
    );
    bench(
        &format!("nnls_with/{FIT_ROWS} (full start set)"),
        20,
        || nnls_with(&a, &b, &full, &mut ws).unwrap()[0],
    );
    moment_form_rows();
    for &n in &[16usize, 256, 4096] {
        let y: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        let w = vec![1.0; n];
        bench(&format!("isotonic/{n}"), 50, || isotonic_increasing(&y, &w));
    }
    bench("cubic_roots", 1000, || cubic_roots(2.0, -12.0, 22.0, -12.0));
}

/// The moment-form rows: a GTX Titan X campaign fitted once through a
/// workspace, whose moments and final voltages the two rows then reuse.
fn moment_form_rows() {
    let spec = devices::gtx_titan_x();
    let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
    let training = Profiler::with_repeats(&mut gpu, 1)
        .profile_suite(&microbenchmark_suite(&spec))
        .expect("training campaign");
    let rows: usize = training
        .samples
        .iter()
        .map(|s| s.power_by_config.len())
        .sum();
    assert_eq!(rows, FIT_ROWS, "the Titan X campaign has the bench's shape");
    let estimator = Estimator::new();
    let mut ws = FitWorkspace::new();
    estimator
        .fit_with(&training, None, &mut ws)
        .expect("Titan X fit");
    bench(&format!("moments/{FIT_ROWS} (once per fit)"), 50, || {
        bench_support::build_moments(&estimator, &mut ws)
    });
    let mut x = [0.0; 11];
    bench_support::coefficient_step(&estimator, &mut ws, &mut x).expect("cold step");
    assert!(
        x.iter().filter(|&&v| v > 0.0).count() > 1,
        "the fitted support seeds the timed steps"
    );
    bench(
        &format!("gram+nnls/{FIT_ROWS} (per iteration)"),
        200,
        || {
            bench_support::coefficient_step(&estimator, &mut ws, &mut x).expect("coefficient step");
            x[0]
        },
    );
}
