//! Benchmarks for the numerical kernels the estimator relies on: least
//! squares, NNLS, isotonic regression and cubic roots. Run with
//! `cargo bench -p gpm-bench --bench solvers`.
//!
//! The 5,312-row cases are the GTX Titan X coefficient step's shape (83
//! microbenchmarks x 64 configurations, 11 coefficients): one Householder
//! solve, and the warm-started NNLS solve from the full support that the
//! estimator runs on most iterations.

use gpm_bench::harness::bench;
use gpm_linalg::{cubic_roots, isotonic_increasing, lstsq, nnls, nnls_with, Matrix, NnlsWorkspace};

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
    for &n in &[16usize, 256, 4096] {
        let y: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        let w = vec![1.0; n];
        bench(&format!("isotonic/{n}"), 50, || isotonic_increasing(&y, &w));
    }
    bench("cubic_roots", 1000, || cubic_roots(2.0, -12.0, 22.0, -12.0));
}
