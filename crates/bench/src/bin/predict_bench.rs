//! Microbenchmark for the batched prediction kernels (`gpm-linalg::batch`).
//!
//! Fits the GTX Titan X model once, tiles its 64-configuration V-F grid
//! to a ~10k-point sweep, and measures points/sec through two routes:
//!
//! - **end-to-end**: per-point `PowerModel::predict` in a loop (what
//!   every grid sweep did before batching) vs. one
//!   `PowerModel::predict_batch` call (voltage resolution + blocked
//!   panels) — the number the ≥4x acceptance gate reads;
//! - **kernel-level**: the raw `predict_scalar_into` oracle vs. the
//!   blocked `predict_into` on prebuilt points, isolating the panel
//!   arithmetic from table lookups.
//!
//! Every measured route is asserted bit-identical to the scalar oracle
//! before timing — a fast wrong kernel must fail the bench, not win it.
//! Results go to `BENCH_predict.json`; `GPM_BENCH_REPEATS` overrides
//! the timing repeats (best-of is reported).

use gpm_bench::{fit_device, heading};
use gpm_core::Utilizations;
use gpm_json::impl_json;
use gpm_linalg::batch::{self, PanelModel, VfPoint};
use gpm_spec::{devices, Component, FreqConfig};
use std::time::Instant;

/// Sweep size: the 64-config grid tiled past 10k points.
const TARGET_POINTS: usize = 10_000;

fn repeats() -> usize {
    std::env::var("GPM_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(30)
}

/// Best-of-N wall time for `f`, which must return something observable
/// (the checksum keeps the optimizer honest).
fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        sink = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, sink)
}

struct BenchRow {
    path: String,
    best_s: f64,
    mpoints_per_s: f64,
    speedup_vs_scalar: f64,
}

impl_json!(struct BenchRow { path, best_s, mpoints_per_s, speedup_vs_scalar });

struct PredictReport {
    device: String,
    grid_configs: usize,
    points: usize,
    repeats: usize,
    end_to_end: Vec<BenchRow>,
    kernel: Vec<BenchRow>,
}

impl_json!(struct PredictReport {
    device, grid_configs, points, repeats, end_to_end, kernel
});

fn rows_from(points: usize, timings: Vec<(String, f64)>) -> Vec<BenchRow> {
    let scalar_s = timings[0].1;
    timings
        .into_iter()
        .map(|(path, best_s)| BenchRow {
            path,
            best_s,
            mpoints_per_s: points as f64 / best_s / 1e6,
            speedup_vs_scalar: scalar_s / best_s,
        })
        .collect()
}

fn print_rows(rows: &[BenchRow]) {
    for r in rows {
        println!(
            "  {:<28} {:>9.2} Mpts/s   {:>6.2}x",
            r.path, r.mpoints_per_s, r.speedup_vs_scalar
        );
    }
}

fn main() {
    let spec = devices::gtx_titan_x();
    heading(&format!("batched prediction microbench: {}", spec.name()));
    let fitted = fit_device(spec);
    let model = &fitted.model;
    let reps = repeats();

    let u = Utilizations::from_values([0.35, 0.6, 0.05, 0.15, 0.4, 0.5, 0.7])
        .expect("bench utilizations");
    let grid = model.spec().vf_grid();
    let tiles = TARGET_POINTS.div_ceil(grid.len());
    let configs: Vec<FreqConfig> = grid
        .iter()
        .cycle()
        .take(grid.len() * tiles)
        .copied()
        .collect();
    let n = configs.len();
    println!(
        "{n} points ({} grid configs x {tiles} tiles), best of {reps} repeats\n",
        grid.len()
    );

    // Conformance before speed: every route must equal the scalar oracle.
    let scalar_ref: Vec<f64> = configs
        .iter()
        .map(|&c| model.predict(&u, c).expect("on-grid predict"))
        .collect();
    let batched = model.predict_batch(&u, &configs).expect("batched predict");
    assert!(
        scalar_ref
            .iter()
            .zip(&batched)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "predict_batch diverged from scalar predict — refusing to time a wrong kernel"
    );

    heading("end-to-end (voltage lookups included)");
    let (scalar_s, _) = best_of(reps, || {
        let mut acc = 0.0;
        for &c in &configs {
            acc += model.predict(&u, c).expect("on-grid predict");
        }
        acc
    });
    let mut out = vec![0.0; n];
    let (batch_s, _) = best_of(reps, || {
        model
            .predict_batch_into(&u, &configs, &mut out)
            .expect("batched predict");
        out[n - 1]
    });
    let end_to_end = rows_from(
        n,
        vec![
            ("predict (per point)".to_string(), scalar_s),
            ("predict_batch".to_string(), batch_s),
        ],
    );
    print_rows(&end_to_end);

    // Kernel-level: prebuilt points, identical inputs for all paths.
    heading("kernel-level (prebuilt V-F points)");
    let table = model.voltage_table();
    let points: Vec<VfPoint> = configs
        .iter()
        .map(|&c| {
            let (vc, vm) = table.voltages(c).expect("on-grid voltages");
            VfPoint {
                vc,
                fc: c.core.as_f64() / 1000.0,
                vm,
                fm: c.mem.as_f64() / 1000.0,
            }
        })
        .collect();
    let core = model.core_params();
    let mem = model.mem_params();
    let core_terms: Vec<(f64, f64)> = Component::CORE
        .iter()
        .enumerate()
        .map(|(i, c)| (core.omegas[i], u.get(*c)))
        .collect();
    let panel = PanelModel {
        core_static: core.static_coef,
        core_idle: core.idle_dyn,
        core_terms: &core_terms,
        mem_static: mem.static_coef,
        mem_idle: mem.idle_dyn,
        mem_term: (mem.omegas[0], u.get(Component::Dram)),
    };
    let mut oracle = vec![0.0; n];
    batch::predict_scalar_into(&panel, &points, &mut oracle);
    let mut check = vec![0.0; n];
    batch::predict_into(&panel, &points, &mut check);
    assert!(
        oracle
            .iter()
            .zip(&check)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "blocked kernel diverged from the scalar oracle"
    );

    let mut buf = vec![0.0; n];
    let (oracle_s, _) = best_of(reps, || {
        batch::predict_scalar_into(&panel, &points, &mut buf);
        buf[n - 1]
    });
    let (blocked_s, _) = best_of(reps, || {
        batch::predict_into(&panel, &points, &mut buf);
        buf[n - 1]
    });
    let kernel = rows_from(
        n,
        vec![
            ("scalar oracle".to_string(), oracle_s),
            ("blocked panels".to_string(), blocked_s),
        ],
    );
    print_rows(&kernel);

    let report = PredictReport {
        device: model.spec().name().to_string(),
        grid_configs: grid.len(),
        points: n,
        repeats: reps,
        end_to_end,
        kernel,
    };
    let json = gpm_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_predict.json", &json).expect("write BENCH_predict.json");
    println!("\nwrote BENCH_predict.json");

    let gate = report.end_to_end[1].speedup_vs_scalar;
    assert!(
        gate >= 4.0,
        "batched sweep speedup {gate:.2}x is below the 4x acceptance floor"
    );
    println!("acceptance: predict_batch {gate:.2}x over per-point scalar (floor 4x)");
}
