//! Time/energy Pareto frontier over the V-F grid.
//!
//! Every governor objective is a point on (or a selection over) the
//! kernel's time-energy trade-off curve. Computing the whole frontier
//! once makes the trade-off explicit — how much energy each millisecond
//! of slowdown buys — which is the view an operator wants before picking
//! an objective.

use crate::GovernorError;
use gpm_core::{PowerModel, Utilizations};
use gpm_json::impl_json;
use gpm_sim::SimulatedGpu;
use gpm_spec::FreqConfig;
use gpm_workloads::KernelDesc;

/// One V-F configuration's position on the time/energy plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: FreqConfig,
    /// Measured per-launch runtime in seconds.
    pub time_s: f64,
    /// Model-predicted average power in watts.
    pub power_w: f64,
}

impl_json!(struct ParetoPoint { config, time_s, power_w });

impl ParetoPoint {
    /// Predicted energy per launch in joules.
    pub fn energy_j(&self) -> f64 {
        self.power_w * self.time_s
    }

    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy_j() * self.time_s
    }
}

/// Computes the kernel's time/energy Pareto frontier: the configurations
/// not dominated in *both* runtime and energy, sorted by strictly
/// ascending runtime (and therefore strictly descending energy).
/// Runtime is measured by executing the kernel at each configuration
/// (no power sensor needed); power comes from the model at the kernel's
/// reference-configuration `utilizations` (its
/// [`gpm_profiler::Profiler::profile_at_reference`] profile).
///
/// # Errors
///
/// Propagates clock and prediction failures.
pub fn pareto_frontier(
    gpu: &mut SimulatedGpu,
    model: &PowerModel,
    kernel: &KernelDesc,
    utilizations: &Utilizations,
) -> Result<Vec<ParetoPoint>, GovernorError> {
    let spec = gpu.spec().clone();

    // Runtimes need the simulated device (clock changes mutate its
    // state), but power is a pure function of the model — so time the
    // grid in one pass, then evaluate the whole sweep as a single
    // batched prediction instead of 64+ scalar calls.
    let configs = spec.vf_grid();
    let mut times = Vec::with_capacity(configs.len());
    for &config in &configs {
        gpu.set_clocks(config)?;
        times.push(gpu.execute(kernel).duration_s);
    }
    gpu.set_clocks(spec.default_config())?;
    let powers = model.predict_batch(utilizations, &configs)?;
    let mut points: Vec<ParetoPoint> = configs
        .iter()
        .zip(&times)
        .zip(&powers)
        .map(|((&config, &time_s), &power_w)| ParetoPoint {
            config,
            time_s,
            power_w,
        })
        .collect();

    // Sort by runtime, cheapest first among equal runtimes, then sweep
    // keeping strictly improving energy. Runtimes tie across the clock
    // of the domain a kernel is not bound by; of a tied group only the
    // cheapest point can be undominated.
    points.sort_by(|a, b| {
        a.time_s
            .partial_cmp(&b.time_s)
            .expect("runtimes are finite")
            .then(a.energy_j().total_cmp(&b.energy_j()))
    });
    let mut frontier: Vec<ParetoPoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in points {
        if p.energy_j() < best_energy - 1e-12 {
            best_energy = p.energy_j();
            frontier.push(p);
        }
    }
    Ok(frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::Estimator;
    use gpm_profiler::Profiler;
    use gpm_spec::devices;
    use gpm_workloads::{microbenchmark_suite, validation_suite};

    /// The frontier of `kernel`, profiled at the reference first.
    fn frontier(
        gpu: &mut SimulatedGpu,
        model: &PowerModel,
        kernel: &KernelDesc,
    ) -> Vec<ParetoPoint> {
        let profile = Profiler::with_repeats(gpu, 1)
            .profile_at_reference(kernel)
            .unwrap();
        pareto_frontier(gpu, model, kernel, &profile.utilizations).unwrap()
    }

    fn setup() -> (SimulatedGpu, PowerModel) {
        let spec = devices::gtx_titan_x();
        let mut gpu = SimulatedGpu::new(spec.clone(), 23);
        let training = Profiler::with_repeats(&mut gpu, 1)
            .profile_suite(&microbenchmark_suite(&spec))
            .unwrap();
        let model = Estimator::new().fit(&training).unwrap();
        (gpu, model)
    }

    #[test]
    fn frontier_is_monotone_in_both_axes() {
        let (mut gpu, model) = setup();
        let apps = validation_suite(gpu.spec());
        let app = apps.iter().find(|k| k.name() == "SRAD_1").unwrap();
        let frontier = frontier(&mut gpu, &model, app);
        assert!(
            frontier.len() >= 2,
            "a real kernel has a non-trivial frontier"
        );
        for w in frontier.windows(2) {
            assert!(w[0].time_s < w[1].time_s);
            assert!(w[0].energy_j() > w[1].energy_j());
        }
    }

    #[test]
    fn frontier_contains_the_fastest_configuration() {
        // The minimum-runtime point is never dominated.
        let (mut gpu, model) = setup();
        let apps = validation_suite(gpu.spec());
        let app = apps.iter().find(|k| k.name() == "GEMM").unwrap();
        let frontier = frontier(&mut gpu, &model, app);
        let spec = gpu.spec().clone();
        gpu.set_clocks(spec.fastest_config()).unwrap();
        let fastest_time = gpu.execute(app).duration_s;
        assert!(
            (frontier[0].time_s - fastest_time).abs() / fastest_time < 1e-9,
            "frontier starts at the fastest configuration"
        );
    }

    #[test]
    fn frontier_points_dominate_everything_slower_and_hungrier() {
        let (mut gpu, model) = setup();
        let apps = validation_suite(gpu.spec());
        let app = apps.iter().find(|k| k.name() == "LBM").unwrap();
        let frontier = frontier(&mut gpu, &model, app);
        // Re-evaluate the full grid and verify no point dominates a
        // frontier point: none is at least as fast and cheaper, or
        // faster and at most as hungry. Equal runtime counts as fast.
        let profile = Profiler::with_repeats(&mut gpu, 1)
            .profile_at_reference(app)
            .unwrap();
        let spec = gpu.spec().clone();
        for config in spec.vf_grid() {
            gpu.set_clocks(config).unwrap();
            let t = gpu.execute(app).duration_s;
            let e = model.predict(&profile.utilizations, config).unwrap() * t;
            for f in &frontier {
                let dominates = (t <= f.time_s && e < f.energy_j() - 1e-9)
                    || (t < f.time_s - 1e-12 && e <= f.energy_j());
                assert!(
                    !dominates,
                    "{config} dominates frontier point {:?}",
                    f.config
                );
            }
        }
    }

    #[test]
    fn point_metrics_are_consistent() {
        let p = ParetoPoint {
            config: FreqConfig::from_mhz(975, 3505),
            time_s: 0.5,
            power_w: 100.0,
        };
        assert_eq!(p.energy_j(), 50.0);
        assert_eq!(p.edp(), 25.0);
    }
}
