//! The simulated GPU facade: clock control, power measurement and event
//! collection — the NVML + CUPTI surface the paper's tool drives.

use crate::counters::emit_events;
use crate::rng::SimRng;
use crate::{Execution, GroundTruth, PerfModel, PowerSensor, SimError, ThermalModel};
use gpm_spec::{DeviceSpec, EventId, FreqConfig};
use gpm_workloads::KernelDesc;
use std::collections::BTreeMap;
use std::fmt;

/// One averaged power reading for a kernel run (Section V-A protocol).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMeasurement {
    /// Average power over the measurement window, in watts.
    pub watts: f64,
    /// Number of sensor samples aggregated.
    pub samples: u32,
    /// Total window duration (kernel repeated as needed), in seconds.
    pub duration_s: f64,
    /// Kernel repetitions executed to fill the window.
    pub repetitions: u32,
    /// The clocks the kernel actually ran at. Equals the applied clocks
    /// unless power capping stepped the core frequency down (the
    /// behaviour the Fig. 9 footnote describes: "an automatic frequency
    /// decrease to the closest frequency level that does not violate
    /// TDP").
    pub effective_clocks: FreqConfig,
}

/// What every sensor window of one kernel at one clock setting shares:
/// the clocks it runs at, the repetitions that fill it, its duration and
/// the true draw before thermal feedback.
#[derive(Clone, Copy)]
struct Window {
    duration_s: f64,
    true_watts: f64,
    repetitions: u32,
    effective_clocks: FreqConfig,
}

/// Raw performance events collected for one profiled kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The configuration the events were collected at.
    pub config: FreqConfig,
    /// Raw event counts, keyed exactly as CUPTI would report them.
    pub counts: BTreeMap<EventId, u64>,
}

/// A simulated GPU device.
///
/// Provides the three hardware capabilities the paper's methodology
/// needs — [`SimulatedGpu::set_clocks`] (NVML clock control),
/// [`SimulatedGpu::measure_power`] (NVML power sensor with the repetition
/// protocol) and [`SimulatedGpu::collect_events`] (CUPTI counters) — on
/// top of hidden [`GroundTruth`] physics.
///
/// # Example
///
/// ```
/// use gpm_sim::SimulatedGpu;
/// use gpm_spec::{devices, FreqConfig};
/// use gpm_workloads::validation_suite;
///
/// let mut gpu = SimulatedGpu::new(devices::gtx_titan_x(), 11);
/// let app = validation_suite(gpu.spec())[0].clone();
///
/// gpu.set_clocks(FreqConfig::from_mhz(595, 810))?;
/// let low = gpu.measure_power(&app)?;
/// gpu.set_clocks(FreqConfig::from_mhz(1164, 4005))?;
/// let high = gpu.measure_power(&app)?;
/// assert!(high.watts > low.watts);
/// # Ok::<(), gpm_sim::SimError>(())
/// ```
#[derive(Clone)]
pub struct SimulatedGpu {
    spec: DeviceSpec,
    truth: GroundTruth,
    perf: PerfModel,
    sensor: PowerSensor,
    clocks: FreqConfig,
    power_capping: bool,
    thermal: Option<(ThermalModel, f64)>,
    seed: u64,
    rng: SimRng,
}

impl fmt::Debug for SimulatedGpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulatedGpu")
            .field("spec", &self.spec.name())
            .field("clocks", &self.clocks)
            .finish_non_exhaustive()
    }
}

impl SimulatedGpu {
    /// Creates a device instance with seeded physics jitter and
    /// measurement noise streams; clocks start at the default
    /// configuration. The same `(spec, seed)` pair always produces an
    /// identical device.
    pub fn new(spec: DeviceSpec, seed: u64) -> Self {
        let truth = GroundTruth::for_device(&spec, seed);
        SimulatedGpu::with_truth(spec, truth, seed)
    }

    /// Creates a device with explicit ground truth (tests; noise-free
    /// setups).
    pub fn with_truth(spec: DeviceSpec, truth: GroundTruth, seed: u64) -> Self {
        let perf = PerfModel::new(spec.clone(), truth.l2_bytes_per_cycle);
        let sensor = PowerSensor::new(spec.power_refresh_ms(), truth.sensor_noise_sd);
        let clocks = spec.default_config();
        SimulatedGpu {
            spec,
            truth,
            perf,
            sensor,
            clocks,
            power_capping: false,
            thermal: None,
            seed,
            rng: SimRng::seed_from_u64(seed.wrapping_mul(0x5851_F42D_4C95_7F2D)),
        }
    }

    /// Rewinds the measurement-noise stream to a state that is a pure
    /// function of `(seed, label)`, independent of how many measurements
    /// were taken before. Checkpoint/resume relies on this: re-deriving
    /// the stream before each campaign cell makes the cell's readings
    /// identical whether the campaign ran straight through or restarted.
    pub fn reseed_measurements(&mut self, label: u64) {
        self.rng =
            SimRng::seed_from_u64(self.seed.wrapping_mul(0x5851_F42D_4C95_7F2D)).derive(label);
    }

    /// Enables the opt-in thermal model: the die heats with dissipated
    /// power and leakage grows with temperature, so long measurement
    /// campaigns see a realistic warm-up drift. Disabled by default.
    pub fn set_thermal_model(&mut self, model: Option<ThermalModel>) {
        self.thermal = model.map(|m| (m, m.ambient_c));
    }

    /// Current die temperature in °C (`None` when the thermal model is
    /// disabled).
    pub fn temperature_c(&self) -> Option<f64> {
        self.thermal.as_ref().map(|(_, t)| *t)
    }

    /// Enables or disables TDP power capping. When enabled, a kernel that
    /// would draw more than TDP runs at the closest lower core level that
    /// respects the cap — the hardware behaviour behind the Fig. 9
    /// footnote. Disabled by default so measurement campaigns observe the
    /// unclamped physics (the paper's sweeps stay under TDP).
    pub fn set_power_capping(&mut self, enabled: bool) {
        self.power_capping = enabled;
    }

    /// Whether TDP power capping is active.
    pub fn power_capping(&self) -> bool {
        self.power_capping
    }

    /// The clocks a kernel would *actually* run at: the applied clocks,
    /// or the stepped-down level selected by power capping.
    pub fn effective_clocks_for(&self, kernel: &KernelDesc) -> FreqConfig {
        if !self.power_capping {
            return self.clocks;
        }
        let mut candidate = self.clocks;
        loop {
            let exec = self.perf.execute(kernel, candidate);
            let watts = self.truth.true_power(candidate, &exec.utilizations);
            if watts <= self.spec.tdp_w() {
                return candidate;
            }
            match self
                .spec
                .core_freqs()
                .iter()
                .copied()
                .find(|&f| f < candidate.core)
            {
                Some(next) => candidate = FreqConfig::new(next, candidate.mem),
                None => return candidate, // floor reached; hardware would thermal-trip
            }
        }
    }

    /// The device specification (public knowledge).
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The hidden physics. **For tests and benches only** — using this in
    /// an estimator defeats the purpose of the reproduction; the paper's
    /// tool had no access to these values.
    pub fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// The currently applied clock configuration.
    pub fn clocks(&self) -> FreqConfig {
        self.clocks
    }

    /// Applies a clock configuration, as `nvmlDeviceSetApplicationsClocks`
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedClocks`] for configurations outside
    /// the device's frequency tables (the driver rejects those).
    pub fn set_clocks(&mut self, config: FreqConfig) -> Result<(), SimError> {
        if !self.spec.supports(config) {
            return Err(SimError::UnsupportedClocks(config));
        }
        self.clocks = config;
        Ok(())
    }

    /// Executes one kernel launch at the current clocks, returning its
    /// duration, true utilizations and bottleneck. (Timing a kernel is
    /// observable on real hardware; the true utilizations inside the
    /// [`Execution`] are not, and only tests should inspect them.)
    pub fn execute(&self, kernel: &KernelDesc) -> Execution {
        self.perf.execute(kernel, self.clocks)
    }

    /// Measures the kernel's average power at the current clocks using
    /// the paper's protocol: repeat the kernel until the window reaches
    /// one second *at the fastest configuration*, then average all sensor
    /// samples in the (possibly longer) actual window.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WindowTooShort`] only for degenerate sensors
    /// (refresh period above one second).
    pub fn measure_power(&mut self, kernel: &KernelDesc) -> Result<PowerMeasurement, SimError> {
        let window = self.window(kernel);
        self.read_window(window)
    }

    /// Appends `n` consecutive window readings of `kernel` at the current
    /// clocks to `readings`, in watts: the same readings, die temperature
    /// and stream position as `n` calls of
    /// [`measure_power`](SimulatedGpu::measure_power), with the window's
    /// clocks, repetitions, execution and true power computed once.
    ///
    /// # Errors
    ///
    /// As [`measure_power`](SimulatedGpu::measure_power), at the first
    /// window that fails; the readings before it stay appended.
    pub fn measure_power_repeated(
        &mut self,
        kernel: &KernelDesc,
        n: u32,
        readings: &mut Vec<f64>,
    ) -> Result<(), SimError> {
        let window = self.window(kernel);
        for _ in 0..n {
            readings.push(self.read_window(window)?.watts);
        }
        Ok(())
    }

    /// The part of a power reading that every window of `kernel` at the
    /// current clocks shares; it draws nothing and changes no state.
    fn window(&self, kernel: &KernelDesc) -> Window {
        let effective_clocks = self.effective_clocks_for(kernel);
        let repetitions = self.perf.repetitions_for_window(kernel, 1.0);
        let exec = self.perf.execute(kernel, effective_clocks);
        Window {
            duration_s: exec.duration_s * f64::from(repetitions),
            true_watts: self.truth.true_power(effective_clocks, &exec.utilizations),
            repetitions,
            effective_clocks,
        }
    }

    /// Reads one window: advances the die temperature over it, then
    /// samples the sensor from the measurement stream.
    fn read_window(&mut self, window: Window) -> Result<PowerMeasurement, SimError> {
        let Window {
            duration_s,
            true_watts,
            repetitions,
            effective_clocks,
        } = window;
        // Thermal feedback: the die warms over the window and leakage
        // scales the static share of the draw.
        let true_watts = match &mut self.thermal {
            None => true_watts,
            Some((model, temp)) => {
                let static_w = self.truth.static_power(effective_clocks);
                // Integrate the window in a few sub-steps so long windows
                // track the RC curve instead of jumping to steady state.
                let steps = 8;
                let dt = duration_s / f64::from(steps);
                let mut acc = 0.0;
                for _ in 0..steps {
                    let p = true_watts + static_w * (model.leakage_factor(*temp) - 1.0);
                    acc += p * dt;
                    *temp = model.step(*temp, p, dt);
                }
                acc / duration_s
            }
        };
        let (watts, samples) = self
            .sensor
            .sample_window(&mut self.rng, true_watts, duration_s)?;
        Ok(PowerMeasurement {
            watts,
            samples,
            duration_s,
            repetitions,
            effective_clocks,
        })
    }

    /// Profiles one kernel launch at the current clocks, returning the
    /// raw Table I event counts (with this device's event noise applied).
    pub fn collect_events(&mut self, kernel: &KernelDesc) -> EventRecord {
        let exec = self.perf.execute(kernel, self.clocks);
        let counts = emit_events(
            &self.spec,
            kernel,
            &exec,
            self.clocks,
            &self.truth,
            &mut self.rng,
        );
        EventRecord {
            config: self.clocks,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_spec::{devices, Component, Domain};
    use gpm_workloads::{microbenchmark_suite, validation_suite};

    fn gpu() -> SimulatedGpu {
        SimulatedGpu::new(devices::gtx_titan_x(), 42)
    }

    #[test]
    fn clocks_default_to_reference_and_validate() {
        let mut g = gpu();
        assert_eq!(g.clocks(), FreqConfig::from_mhz(975, 3505));
        assert!(g.set_clocks(FreqConfig::from_mhz(595, 810)).is_ok());
        assert_eq!(g.clocks(), FreqConfig::from_mhz(595, 810));
        let err = g.set_clocks(FreqConfig::from_mhz(600, 810)).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedClocks(_)));
        // Failed set leaves clocks untouched.
        assert_eq!(g.clocks(), FreqConfig::from_mhz(595, 810));
    }

    #[test]
    fn power_measurements_are_physically_plausible() {
        let mut g = gpu();
        let suite = microbenchmark_suite(g.spec());
        for k in suite.iter().take(20) {
            let m = g.measure_power(k).unwrap();
            assert!(m.watts > 30.0, "{}: {} W", k.name(), m.watts);
            assert!(
                m.watts < g.spec().tdp_w() * 1.05,
                "{}: {} W",
                k.name(),
                m.watts
            );
            assert!(m.duration_s >= 0.9);
            assert!(m.samples >= 9);
        }
    }

    #[test]
    fn memory_bound_apps_lose_more_power_from_memory_downclock() {
        // The Fig. 2 contrast: BlackScholes (DRAM-heavy) drops ~52%,
        // CUTCP (compute-heavy) only ~24%.
        let mut g = gpu();
        let apps = validation_suite(g.spec());
        let blcksc = apps.iter().find(|k| k.name() == "BLCKSC").unwrap();
        let cutcp = apps.iter().find(|k| k.name() == "CUTCP").unwrap();
        let hi = FreqConfig::from_mhz(975, 3505);
        let lo = FreqConfig::from_mhz(975, 810);

        g.set_clocks(hi).unwrap();
        let b_hi = g.measure_power(blcksc).unwrap().watts;
        let c_hi = g.measure_power(cutcp).unwrap().watts;
        g.set_clocks(lo).unwrap();
        let b_lo = g.measure_power(blcksc).unwrap().watts;
        let c_lo = g.measure_power(cutcp).unwrap().watts;

        let b_drop = 1.0 - b_lo / b_hi;
        let c_drop = 1.0 - c_lo / c_hi;
        assert!(b_drop > 0.35, "BlackScholes drop {b_drop:.2}");
        assert!(c_drop < 0.30, "CUTCP drop {c_drop:.2}");
        assert!(b_drop > c_drop + 0.1);
    }

    #[test]
    fn higher_clocks_mean_higher_power_for_compute_kernels() {
        let mut g = gpu();
        let suite = microbenchmark_suite(g.spec());
        let k = suite.iter().find(|k| k.name() == "SP_n512").unwrap();
        let mut prev = 0.0;
        for f in [595, 785, 975, 1164] {
            g.set_clocks(FreqConfig::from_mhz(f, 3505)).unwrap();
            let w = g.measure_power(k).unwrap().watts;
            assert!(w > prev, "{f} MHz: {w} W");
            prev = w;
        }
    }

    #[test]
    fn measurements_are_reproducible_for_same_seed() {
        let suite = microbenchmark_suite(&devices::gtx_titan_x());
        let mut a = SimulatedGpu::new(devices::gtx_titan_x(), 7);
        let mut b = SimulatedGpu::new(devices::gtx_titan_x(), 7);
        assert_eq!(
            a.measure_power(&suite[3]).unwrap(),
            b.measure_power(&suite[3]).unwrap()
        );
        assert_eq!(a.collect_events(&suite[3]), b.collect_events(&suite[3]));
    }

    #[test]
    fn different_seeds_produce_different_devices() {
        let suite = microbenchmark_suite(&devices::gtx_titan_x());
        let mut a = SimulatedGpu::new(devices::gtx_titan_x(), 1);
        let mut b = SimulatedGpu::new(devices::gtx_titan_x(), 2);
        let wa = a.measure_power(&suite[3]).unwrap().watts;
        let wb = b.measure_power(&suite[3]).unwrap().watts;
        assert_ne!(wa, wb);
        // ... but within family tolerance.
        assert!((wa - wb).abs() / wa < 0.2);
    }

    #[test]
    fn event_records_carry_the_collection_config() {
        let mut g = gpu();
        let suite = microbenchmark_suite(g.spec());
        g.set_clocks(FreqConfig::from_mhz(785, 3300)).unwrap();
        let rec = g.collect_events(&suite[0]);
        assert_eq!(rec.config, FreqConfig::from_mhz(785, 3300));
        assert!(!rec.counts.is_empty());
    }

    #[test]
    fn idle_power_approximates_constant_part() {
        let mut g = SimulatedGpu::with_truth(
            devices::gtx_titan_x(),
            GroundTruth::nominal(gpm_spec::Architecture::Maxwell),
            0,
        );
        let suite = microbenchmark_suite(g.spec());
        let idle = suite.iter().find(|k| k.name() == "Idle").unwrap();
        let w = g.measure_power(idle).unwrap().watts;
        assert!((w - 84.0).abs() < 5.0, "idle power {w} W");
    }

    #[test]
    fn true_normalized_voltage_has_two_regimes_on_maxwell() {
        let g = gpu();
        let reference = g.spec().default_config();
        let low1 =
            g.truth()
                .normalized_voltage(Domain::Core, FreqConfig::from_mhz(595, 3505), reference);
        let low2 =
            g.truth()
                .normalized_voltage(Domain::Core, FreqConfig::from_mhz(709, 3505), reference);
        let high =
            g.truth()
                .normalized_voltage(Domain::Core, FreqConfig::from_mhz(1164, 3505), reference);
        assert_eq!(low1, low2, "plateau region");
        assert!(high > 1.1, "linear region reaches {high}");
    }

    #[test]
    fn power_capping_steps_clocks_down_for_hot_kernels() {
        let spec = devices::gtx_titan_x();
        // A power virus: every component near saturation simultaneously.
        let hot = gpm_workloads::power_virus(&spec);
        let mut gpu = SimulatedGpu::with_truth(
            spec.clone(),
            GroundTruth::nominal(gpm_spec::Architecture::Maxwell),
            3,
        );
        let top = spec.fastest_config();
        gpu.set_clocks(top).unwrap();

        // Without capping the virus exceeds TDP.
        let uncapped = gpu.measure_power(&hot).unwrap();
        assert_eq!(uncapped.effective_clocks, top);
        assert!(
            uncapped.watts > spec.tdp_w(),
            "virus should exceed TDP uncapped: {} W",
            uncapped.watts
        );

        // With capping, the core steps down and power respects the cap.
        gpu.set_power_capping(true);
        assert!(gpu.power_capping());
        let capped = gpu.measure_power(&hot).unwrap();
        assert!(capped.effective_clocks.core < top.core);
        assert_eq!(capped.effective_clocks.mem, top.mem);
        assert!(
            capped.watts <= spec.tdp_w() * 1.02,
            "capped power {} W exceeds TDP",
            capped.watts
        );
        // The applied clocks are untouched; only the effective ones move.
        assert_eq!(gpu.clocks(), top);
    }

    #[test]
    fn thermal_model_adds_warmup_drift_and_extra_leakage() {
        let spec = devices::gtx_titan_x();
        let suite = microbenchmark_suite(&spec);
        let hot_kernel = suite.iter().find(|k| k.name() == "MIX_full").unwrap();

        let mut cold = SimulatedGpu::with_truth(
            spec.clone(),
            GroundTruth::nominal(gpm_spec::Architecture::Maxwell),
            3,
        );
        assert_eq!(cold.temperature_c(), None);
        let baseline = cold.measure_power(hot_kernel).unwrap().watts;

        let mut warm = SimulatedGpu::with_truth(
            spec.clone(),
            GroundTruth::nominal(gpm_spec::Architecture::Maxwell),
            3,
        );
        warm.set_thermal_model(Some(ThermalModel::default()));
        let first = warm.measure_power(hot_kernel).unwrap().watts;
        // Run several windows back-to-back: the die heats, power climbs.
        let mut last = first;
        for _ in 0..30 {
            last = warm.measure_power(hot_kernel).unwrap().watts;
        }
        assert!(
            warm.temperature_c().unwrap() > 60.0,
            "{:?}",
            warm.temperature_c()
        );
        assert!(
            last > first,
            "warm {last} W should exceed cold-start {first} W"
        );
        assert!(last > baseline, "thermal leakage should add power");
        // ... but only by the leakage share (a few percent).
        assert!(last < baseline * 1.10, "{last} vs {baseline}");
    }

    #[test]
    fn idle_gpu_cools_back_toward_ambient() {
        let spec = devices::gtx_titan_x();
        let suite = microbenchmark_suite(&spec);
        let hot_kernel = suite.iter().find(|k| k.name() == "MIX_full").unwrap();
        let idle = suite.iter().find(|k| k.name() == "Idle").unwrap();
        let mut gpu = SimulatedGpu::new(spec, 3);
        gpu.set_thermal_model(Some(ThermalModel::default()));
        for _ in 0..20 {
            gpu.measure_power(hot_kernel).unwrap();
        }
        let hot_temp = gpu.temperature_c().unwrap();
        for _ in 0..40 {
            gpu.measure_power(idle).unwrap();
        }
        let cooled = gpu.temperature_c().unwrap();
        // The idle draw (~84 W) keeps the die warm, but well below the
        // loaded temperature.
        assert!(cooled < hot_temp - 3.0, "{hot_temp} -> {cooled}");
        let idle_steady = ThermalModel::default().steady_state_c(90.0);
        assert!(cooled > ThermalModel::default().ambient_c);
        assert!(cooled < idle_steady + 10.0);
    }

    #[test]
    fn power_capping_leaves_cool_kernels_alone() {
        let spec = devices::gtx_titan_x();
        let suite = microbenchmark_suite(&spec);
        let mut gpu = SimulatedGpu::new(spec.clone(), 4);
        gpu.set_power_capping(true);
        let idle = suite.iter().find(|k| k.name() == "Idle").unwrap();
        let m = gpu.measure_power(idle).unwrap();
        assert_eq!(m.effective_clocks, spec.default_config());
    }

    #[test]
    fn execute_exposes_durations_but_consistent_utilizations() {
        let g = gpu();
        let suite = microbenchmark_suite(g.spec());
        let k = suite.iter().find(|k| k.name() == "DRAM_n0_w4").unwrap();
        let exec = g.execute(k);
        assert!(exec.duration_s > 0.0);
        assert!(exec.utilization(Component::Dram) > 0.8);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use gpm_spec::devices;
    use gpm_workloads::{microbenchmark_suite, random_kernel};

    #[test]
    fn repeated_windows_read_what_per_window_calls_read() {
        // A cell's window is computed once and read n times; the reads
        // must match n full measurements bit for bit: every reading, the
        // die temperature after them and the stream position, which the
        // next event draw exposes.
        let specs = devices::all();
        let suites: Vec<Vec<KernelDesc>> = specs.iter().map(microbenchmark_suite).collect();
        gpm_check::check("repeated_windows_read_what_per_window_calls_read", |g| {
            let which = g.usize_in(0..specs.len());
            let spec = &specs[which];
            let kernel = if g.bool() {
                g.choose(&suites[which]).clone()
            } else {
                random_kernel(spec, g.u64_any())
            };
            let seed = g.u64_any();
            let mut truth = GroundTruth::for_device(spec, seed);
            let noiseless = g.bool() && g.bool();
            if noiseless {
                truth.sensor_noise_sd = 0.0;
            }
            let mut gpu = SimulatedGpu::with_truth(spec.clone(), truth, seed);
            let capping = g.bool();
            gpu.set_power_capping(capping);
            let thermal = g.bool();
            if thermal {
                gpu.set_thermal_model(Some(ThermalModel::default()));
            }
            gpu.set_clocks(*g.choose(&spec.vf_grid())).unwrap();
            // Earlier windows warm the die and move the stream.
            for _ in 0..g.usize_in(0..3) {
                gpu.measure_power(&kernel).unwrap();
            }
            let n = g.u64_in(1..13) as u32;
            let label = format!(
                "{} {} n {n}, capping {capping}, thermal {thermal}, noiseless {noiseless}",
                spec.name(),
                kernel.name()
            );

            let mut per_window = gpu.clone();
            let mut repeated = Vec::new();
            let result = gpu.measure_power_repeated(&kernel, n, &mut repeated);
            let mut expected = Vec::new();
            let mut expected_result = Ok(());
            for _ in 0..n {
                match per_window.measure_power(&kernel) {
                    Ok(m) => expected.push(m.watts),
                    Err(e) => {
                        expected_result = Err(e);
                        break;
                    }
                }
            }
            assert_eq!(result, expected_result, "{label}");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&repeated), bits(&expected), "{label}");
            assert_eq!(
                gpu.temperature_c().map(f64::to_bits),
                per_window.temperature_c().map(f64::to_bits),
                "{label}"
            );
            assert_eq!(
                gpu.collect_events(&kernel),
                per_window.collect_events(&kernel),
                "{label}"
            );
        });
    }
}
