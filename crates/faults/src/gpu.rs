//! The fault-injecting device decorator.

use crate::FaultPlan;
use gpm_sim::{EventRecord, Execution, GpuDevice, PowerMeasurement, SimError, SimRng};
use gpm_spec::{DeviceSpec, EventTable, FreqConfig};
use gpm_workloads::KernelDesc;

/// Counts of every fault the decorator injected so far.
///
/// The same counts are mirrored into `gpm-obs` counters (`faults.*`)
/// when a recorder is installed, but only at injection time — a campaign
/// that hits no faults emits no `faults.*` metrics, so clean golden
/// traces are unaffected by this crate's existence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient counter-read failures returned to the caller.
    pub counter_failures: u64,
    /// Power readings replaced by a sensor dropout error.
    pub dropouts: u64,
    /// Power readings replaced by a NaN error.
    pub nans: u64,
    /// Power readings silently multiplied by the spike magnitude.
    pub spikes: u64,
    /// Clock requests silently ignored.
    pub stuck_clocks: u64,
    /// Measurements taken while thermally throttled.
    pub throttled_windows: u64,
}

impl FaultStats {
    /// Total number of injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.counter_failures
            + self.dropouts
            + self.nans
            + self.spikes
            + self.stuck_clocks
            + self.throttled_windows
    }
}

/// A [`GpuDevice`] decorator that injects the faults of a [`FaultPlan`].
///
/// Fault draws come from the decorator's own `SimRng`, seeded from
/// `plan.seed` and re-derived on [`reseed_measurements`], so fault
/// placement is a pure function of `(plan, label sequence)` — the same
/// campaign hits the same faults on every run and after every resume.
/// The draw order per call is fixed (throttle, dropout, NaN, spike for
/// measurements), and a fault type whose probability is zero consumes no
/// draws, so a benign plan leaves the stream untouched.
#[derive(Debug, Clone)]
pub struct FaultyGpu<G: GpuDevice> {
    inner: G,
    plan: FaultPlan,
    rng: SimRng,
    throttle_left: u32,
    stats: FaultStats,
}

impl<G: GpuDevice> FaultyGpu<G> {
    /// Wraps `inner` with the given plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — an invalid
    /// probability is a programming or configuration error, not a
    /// recoverable campaign condition.
    pub fn new(inner: G, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        let rng = SimRng::seed_from_u64(plan.seed);
        FaultyGpu {
            inner,
            plan,
            rng,
            throttle_left: 0,
            stats: FaultStats::default(),
        }
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counts so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped device.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> G {
        self.inner
    }

    /// Draws a fault of probability `p`, consuming randomness only when
    /// the fault is actually enabled (`p > 0`).
    fn fires(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.next_f64() < p
    }

    /// The next lower core frequency at the same memory clock, or the
    /// current configuration when already at the bottom step.
    fn throttled_config(&self) -> FreqConfig {
        let applied = self.inner.clocks();
        let below = self
            .inner
            .spec()
            .core_freqs()
            .iter()
            .copied()
            .filter(|&f| f < applied.core)
            .max();
        match below {
            Some(core) => FreqConfig::new(core, applied.mem),
            None => applied,
        }
    }
}

impl<G: GpuDevice> GpuDevice for FaultyGpu<G> {
    fn spec(&self) -> &DeviceSpec {
        self.inner.spec()
    }

    fn clocks(&self) -> FreqConfig {
        self.inner.clocks()
    }

    fn set_clocks(&mut self, config: FreqConfig) -> Result<(), SimError> {
        // Validate against the frequency tables even when stuck: a stuck
        // driver still rejects impossible requests.
        self.inner
            .spec()
            .check_config(config)
            .map_err(|_| SimError::UnsupportedClocks(config))?;
        if self.fires(self.plan.stuck_clocks) {
            self.stats.stuck_clocks += 1;
            gpm_obs::counter_add("faults.stuck_clocks", 1);
            return Ok(()); // ACKed but not applied.
        }
        self.inner.set_clocks(config)
    }

    fn measure_power(&mut self, kernel: &KernelDesc) -> Result<PowerMeasurement, SimError> {
        // Fixed draw order keeps fault placement deterministic.
        let throttled = if self.throttle_left > 0 {
            self.throttle_left -= 1;
            true
        } else if self.fires(self.plan.thermal_throttle) {
            self.throttle_left = self.plan.throttle_burst.saturating_sub(1);
            true
        } else {
            false
        };
        if self.fires(self.plan.sensor_dropout) {
            self.stats.dropouts += 1;
            gpm_obs::counter_add("faults.sensor_dropouts", 1);
            return Err(SimError::SensorDropout);
        }
        if self.fires(self.plan.sensor_nan) {
            self.stats.nans += 1;
            gpm_obs::counter_add("faults.sensor_nans", 1);
            return Err(SimError::InvalidPowerSample { watts: f64::NAN });
        }
        let spiked = self.fires(self.plan.sensor_spike);

        let mut measurement = if throttled {
            self.stats.throttled_windows += 1;
            gpm_obs::counter_add("faults.throttled_windows", 1);
            let wanted = self.inner.clocks();
            let down = self.throttled_config();
            if down != wanted {
                self.inner.set_clocks(down)?;
                let result = self.inner.measure_power(kernel);
                self.inner.set_clocks(wanted)?;
                result?
            } else {
                self.inner.measure_power(kernel)?
            }
        } else {
            self.inner.measure_power(kernel)?
        };
        if spiked {
            // Silent corruption: the reading looks valid but is wildly
            // off. Downstream outlier rejection has to catch it.
            self.stats.spikes += 1;
            gpm_obs::counter_add("faults.sensor_spikes", 1);
            measurement.watts *= self.plan.spike_magnitude;
        }
        Ok(measurement)
    }

    fn collect_events(&mut self, kernel: &KernelDesc) -> Result<EventRecord, SimError> {
        if self.fires(self.plan.transient_counter_failure) {
            self.stats.counter_failures += 1;
            gpm_obs::counter_add("faults.counter_failures", 1);
            return Err(SimError::CounterReadFailed {
                kernel: kernel.name().to_string(),
            });
        }
        let mut record = self.inner.collect_events(kernel)?;
        if !self.plan.missing_metrics.is_empty() {
            let table = EventTable::for_architecture(self.inner.spec().architecture());
            for metric in &self.plan.missing_metrics {
                for event in table.events(*metric) {
                    record.counts.remove(event);
                }
            }
        }
        Ok(record)
    }

    fn execute(&self, kernel: &KernelDesc) -> Execution {
        self.inner.execute(kernel)
    }

    fn reseed_measurements(&mut self, label: u64) {
        self.inner.reseed_measurements(label);
        self.rng = SimRng::seed_from_u64(self.plan.seed).derive(label);
        self.throttle_left = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_sim::SimulatedGpu;
    use gpm_spec::{devices, Metric};
    use gpm_workloads::microbenchmark_suite;

    fn setup(plan: FaultPlan) -> (FaultyGpu<SimulatedGpu>, Vec<KernelDesc>) {
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let gpu = SimulatedGpu::new(spec, 13);
        (FaultyGpu::new(gpu, plan), suite)
    }

    #[test]
    fn benign_plan_is_transparent() {
        let (mut faulty, suite) = setup(FaultPlan::default());
        let mut clean = SimulatedGpu::new(devices::tesla_k40c(), 13);
        faulty.reseed_measurements(1);
        clean.reseed_measurements(1);
        let a = faulty.measure_power(&suite[0]).unwrap().watts;
        let b = clean.measure_power(&suite[0]).unwrap().watts;
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(faulty.stats().total(), 0);
    }

    #[test]
    fn transient_counter_failures_fire_at_roughly_the_planned_rate() {
        let plan = FaultPlan {
            seed: 42,
            transient_counter_failure: 0.10,
            ..FaultPlan::default()
        };
        let (mut faulty, suite) = setup(plan);
        let mut failures = 0u64;
        for _ in 0..40 {
            for kernel in &suite {
                if faulty.collect_events(kernel).is_err() {
                    failures += 1;
                }
            }
        }
        let total = 40 * suite.len();
        let rate = failures as f64 / total as f64;
        assert!(
            (0.05..=0.15).contains(&rate),
            "rate {rate:.3} over {total} reads"
        );
        assert_eq!(faulty.stats().counter_failures, failures);
    }

    #[test]
    fn missing_metrics_strip_their_events_permanently() {
        let plan = FaultPlan {
            missing_metrics: vec![Metric::DramReadSectors, Metric::DramWriteSectors],
            ..FaultPlan::default()
        };
        let (mut faulty, suite) = setup(plan);
        let table = EventTable::for_architecture(faulty.spec().architecture());
        let record = faulty.collect_events(&suite[0]).unwrap();
        for metric in [Metric::DramReadSectors, Metric::DramWriteSectors] {
            for event in table.events(metric) {
                assert!(!record.counts.contains_key(event), "{event:?} not stripped");
            }
        }
        // Other metrics survive.
        assert!(!record.counts.is_empty());
    }

    #[test]
    fn sensor_faults_produce_typed_errors_and_silent_spikes() {
        let plan = FaultPlan {
            seed: 3,
            sensor_dropout: 0.2,
            sensor_nan: 0.2,
            sensor_spike: 0.2,
            spike_magnitude: 4.0,
            ..FaultPlan::default()
        };
        let (mut faulty, suite) = setup(plan);
        let mut saw = (false, false, false);
        for _ in 0..60 {
            match faulty.measure_power(&suite[0]) {
                Err(SimError::SensorDropout) => saw.0 = true,
                Err(SimError::InvalidPowerSample { watts }) => {
                    assert!(watts.is_nan());
                    saw.1 = true;
                }
                Ok(m) if m.watts > 400.0 => saw.2 = true, // K40c never draws 400 W cleanly
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw.0 && saw.1 && saw.2, "saw {saw:?}");
        assert!(faulty.stats().dropouts > 0);
        assert!(faulty.stats().nans > 0);
        assert!(faulty.stats().spikes > 0);
    }

    #[test]
    fn stuck_clocks_ack_without_applying() {
        let plan = FaultPlan {
            seed: 1,
            stuck_clocks: 1.0,
            ..FaultPlan::default()
        };
        let (mut faulty, _) = setup(plan);
        let before = faulty.clocks();
        let grid = faulty.spec().vf_grid();
        let target = grid.iter().copied().find(|&c| c != before).unwrap();
        faulty.set_clocks(target).unwrap();
        assert_eq!(faulty.clocks(), before, "stuck clocks must not move");
        assert_eq!(faulty.stats().stuck_clocks, 1);
        // Impossible requests are still rejected.
        assert!(faulty.set_clocks(FreqConfig::from_mhz(1, 2)).is_err());
    }

    #[test]
    fn throttle_bursts_step_the_core_down_for_consecutive_windows() {
        let plan = FaultPlan {
            seed: 5,
            thermal_throttle: 0.3,
            throttle_burst: 3,
            ..FaultPlan::default()
        };
        let spec = devices::gtx_titan_x(); // many core steps
        let suite = microbenchmark_suite(&spec);
        let gpu = SimulatedGpu::new(spec.clone(), 13);
        let mut faulty = FaultyGpu::new(gpu, plan);
        let top = spec.default_config();
        faulty.set_clocks(top).unwrap();
        let mut throttled = 0;
        for _ in 0..40 {
            let m = faulty.measure_power(&suite[0]).unwrap();
            if m.effective_clocks.core < top.core {
                throttled += 1;
            }
            // Clocks are restored after every throttled window.
            assert_eq!(faulty.clocks(), top);
        }
        assert!(throttled >= 3, "throttled {throttled} windows");
        assert_eq!(faulty.stats().throttled_windows, throttled);
    }

    #[test]
    fn repeated_windows_keep_their_per_window_faults() {
        // A cell's repeats go through the trait's default, which must
        // read, fail and count exactly as one measure_power per window.
        let plan = FaultPlan {
            seed: 21,
            sensor_dropout: 0.04,
            sensor_nan: 0.04,
            sensor_spike: 0.1,
            spike_magnitude: 4.0,
            thermal_throttle: 0.1,
            throttle_burst: 3,
            ..FaultPlan::default()
        };
        let spec = devices::gtx_titan_x(); // many core steps to throttle to
        let suite = microbenchmark_suite(&spec);
        let mut repeated = FaultyGpu::new(SimulatedGpu::new(spec, 13), plan);
        let mut per_window = repeated.clone();
        let mut errors = 0;
        for kernel in suite.iter().take(40) {
            let mut got = Vec::new();
            let result = repeated.measure_power_repeated(kernel, 10, &mut got);
            let mut want = Vec::new();
            let mut want_result = Ok(());
            for _ in 0..10 {
                match per_window.measure_power(kernel) {
                    Ok(m) => want.push(m.watts),
                    Err(e) => {
                        want_result = Err(e);
                        break;
                    }
                }
            }
            // Debug form: a NaN error is not equal to itself.
            assert_eq!(format!("{result:?}"), format!("{want_result:?}"));
            errors += usize::from(result.is_err());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}", kernel.name());
            assert_eq!(repeated.stats(), per_window.stats(), "{}", kernel.name());
        }
        let stats = repeated.stats();
        assert!(
            errors > 0 && stats.dropouts > 0 && stats.nans > 0,
            "{stats:?}"
        );
        assert!(stats.spikes > 0 && stats.throttled_windows > 0, "{stats:?}");
    }

    #[test]
    fn fault_placement_is_reproducible_after_reseed() {
        let plan = FaultPlan {
            seed: 9,
            sensor_dropout: 0.3,
            sensor_spike: 0.3,
            ..FaultPlan::default()
        };
        let (mut a, suite) = setup(plan.clone());
        let (mut b, _) = setup(plan);
        // Desynchronize a, then reseed both with the same label.
        for _ in 0..5 {
            let _ = a.measure_power(&suite[0]);
        }
        a.reseed_measurements(77);
        b.reseed_measurements(77);
        for _ in 0..20 {
            let ra = a.measure_power(&suite[1]);
            let rb = b.measure_power(&suite[1]);
            match (ra, rb) {
                (Ok(ma), Ok(mb)) => assert_eq!(ma.watts.to_bits(), mb.watts.to_bits()),
                (Err(ea), Err(eb)) => assert_eq!(format!("{ea}"), format!("{eb}")),
                other => panic!("fault placement diverged: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_plans_are_rejected_at_construction() {
        let plan = FaultPlan {
            sensor_nan: 2.0,
            ..FaultPlan::default()
        };
        let (_, _) = setup(plan);
    }
}
