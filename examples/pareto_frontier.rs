//! Time/energy Pareto frontiers: the full trade-off view behind every
//! DVFS decision. For each application, print the non-dominated V-F
//! configurations with their runtime, predicted power and energy — how
//! much energy each unit of slowdown buys.
//!
//! Run with: `cargo run --release --example pareto_frontier`

use gpm::dvfs::pareto_frontier;
use gpm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = gpm::spec::devices::gtx_titan_x();
    let mut gpu = SimulatedGpu::new(spec.clone(), 42);
    let suite = microbenchmark_suite(&spec);
    let training = Profiler::new(&mut gpu).profile_suite(&suite)?;
    let model = Estimator::new().fit(&training)?;

    let apps = validation_suite(&spec);
    for name in ["LBM", "GEMM", "HOTS"] {
        let app = apps
            .iter()
            .find(|k| k.name() == name)
            .expect("app in validation suite");
        let profile = Profiler::with_repeats(&mut gpu, 1).profile_at_reference(app)?;
        let frontier = pareto_frontier(&mut gpu, &model, app, &profile.utilizations)?;
        println!(
            "\n{name}: {} Pareto-optimal configurations (of {}):",
            frontier.len(),
            spec.vf_grid().len()
        );
        println!(
            "{:>26} {:>10} {:>9} {:>10}",
            "configuration", "time", "power", "energy"
        );
        let fastest = frontier[0];
        for p in &frontier {
            println!(
                "{:>26} {:>8.2}ms {:>7.1} W {:>9.3} J  ({:+.0}% time, {:+.0}% energy)",
                p.config.to_string(),
                p.time_s * 1e3,
                p.power_w,
                p.energy_j(),
                100.0 * (p.time_s / fastest.time_s - 1.0),
                100.0 * (p.energy_j() / fastest.energy_j() - 1.0),
            );
        }
    }
    println!(
        "\nMemory-bound kernels expose long frontiers (core downclocks are \
         nearly free); compute-bound kernels collapse to a few points."
    );
    Ok(())
}
