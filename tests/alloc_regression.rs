//! Allocation-regression gate for the fit pipeline: once a
//! [`FitWorkspace`]'s buffers have grown to the problem size, the
//! estimator's alternation loop must perform **zero** heap allocations
//! per iteration.
//!
//! The proof is differential, with a counting global allocator: two
//! warm refits through the same sized workspace, identical except for
//! their iteration budget (5 vs. 15, with a negative tolerance so
//! convergence can never cut either short), must allocate *exactly* the
//! same number of times — so the 10 extra iterations allocated nothing.
//! Per-fit setup allocations (RMSE history, timing report, the model)
//! cancel in the difference.
//!
//! The contract holds at every thread count: the alternation loop runs
//! on the calling thread, so the differential runs at 1 and at 4
//! `gpm-par` threads.

use gpm::core::{Estimator, EstimatorConfig, FitWorkspace, MicrobenchSample, TrainingSet};
use gpm::prelude::Utilizations;
use gpm::spec::{devices, Component, FreqConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (not bytes); `realloc` counts too since a
/// growing buffer is exactly the regression this test exists to catch.
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

/// Small exact-model training set (12 samples over the Titan X grid).
fn synthetic_training() -> TrainingSet {
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
    for i in 0..12 {
        let t = i as f64 / 11.0;
        let u = Utilizations::from_values([
            0.1 + 0.4 * t,
            0.5 * (1.0 - t),
            0.0,
            0.2 * t,
            0.3 * (1.0 - t),
            0.2 + 0.5 * t * (1.0 - t),
            (0.8 - 0.7 * t).max(0.05),
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
            let p = 15.0 * vc
                + vc * vc * fc * core_act
                + 10.0
                + fm * (11.0 + 26.0 * u.get(Component::Dram));
            power_by_config.insert(config, p);
        }
        samples.push(MicrobenchSample {
            name: format!("alloc_{i}"),
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

/// Heap allocations of a 5- and a 15-iteration warm refit through one
/// sized workspace.
fn short_and_long_refit_allocations(training: &TrainingSet) -> (u64, u64) {
    let seed_model = Estimator::with_config(EstimatorConfig {
        max_iterations: 8,
        ..EstimatorConfig::default()
    })
    .fit(training)
    .expect("seed fit");

    let mut ws = FitWorkspace::new();
    let mut counted_refit = |max_iterations: usize| -> (u64, usize) {
        let estimator = Estimator::with_config(EstimatorConfig {
            max_iterations,
            // Never converge early: both runs must spend their full
            // budget or the difference would be vacuous.
            tolerance: -1.0,
            ..EstimatorConfig::default()
        });
        // Size the buffers for this exact shape, then count.
        estimator
            .fit_with(training, Some(&seed_model), &mut ws)
            .expect("sizing refit");
        let before = ALLOCS.load(Ordering::Relaxed);
        let (_, report) = estimator
            .fit_with(training, Some(&seed_model), &mut ws)
            .expect("counted refit");
        (ALLOCS.load(Ordering::Relaxed) - before, report.iterations)
    };

    let (allocs_short, iters_short) = counted_refit(5);
    let (allocs_long, iters_long) = counted_refit(15);
    assert_eq!(
        (iters_short, iters_long),
        (5, 15),
        "the negative tolerance must force the full iteration budget"
    );
    (allocs_short, allocs_long)
}

#[test]
fn steady_state_fit_iterations_allocate_nothing() {
    let training = synthetic_training();
    for threads in [1, 4] {
        gpm::par::set_threads(Some(threads));
        let (allocs_short, allocs_long) = short_and_long_refit_allocations(&training);
        gpm::par::set_threads(None);
        assert_eq!(
            allocs_long,
            allocs_short,
            "{} heap allocations leaked into 10 extra alternation iterations at {threads} threads",
            allocs_long.saturating_sub(allocs_short)
        );
    }
}
