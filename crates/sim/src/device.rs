//! The device abstraction the profiling layer programs against.
//!
//! `gpm-profiler` historically took a concrete [`SimulatedGpu`]; fault
//! injection needs to interpose a decorator between the simulator and the
//! profiler without the profiler knowing. [`GpuDevice`] is that seam: the
//! simulated GPU implements it directly, and `gpm-faults` wraps any
//! implementation with a seeded fault plan. The trait deliberately mirrors
//! what NVML + CUPTI expose on real hardware — clock control, a power
//! reading, and event collection — and nothing from the simulator's
//! private ground truth.

use crate::gpu::{EventRecord, PowerMeasurement};
use crate::{Execution, SimError, SimulatedGpu};
use gpm_spec::{DeviceSpec, FreqConfig};
use gpm_workloads::KernelDesc;

/// A GPU the profiler can drive: clocks, power, events, timing.
///
/// Implementations must be deterministic given their construction seed,
/// and [`reseed_measurements`](GpuDevice::reseed_measurements) must put
/// the measurement-noise stream into a state that depends only on
/// `(construction seed, label)` — never on measurement history. The
/// resilient campaign re-derives the stream before every cell so a
/// checkpoint/resume run is bit-identical to an uninterrupted one.
pub trait GpuDevice {
    /// The device's static specification.
    fn spec(&self) -> &DeviceSpec;

    /// The currently applied clock configuration.
    fn clocks(&self) -> FreqConfig;

    /// Applies a clock configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedClocks`] for configurations outside
    /// the device's frequency tables. A faulty device may also *silently
    /// ignore* the request (stuck clocks); callers that care must verify
    /// via [`clocks`](GpuDevice::clocks).
    fn set_clocks(&mut self, config: FreqConfig) -> Result<(), SimError>;

    /// Measures average power over a repetition-padded window of `kernel`
    /// at the current clocks.
    ///
    /// # Errors
    ///
    /// Propagates sensor failures ([`SimError::WindowTooShort`],
    /// [`SimError::SensorDropout`], [`SimError::InvalidPowerSample`]).
    fn measure_power(&mut self, kernel: &KernelDesc) -> Result<PowerMeasurement, SimError>;

    /// Appends `n` consecutive window readings of `kernel` at the current
    /// clocks to `readings`, in watts. The default takes `n`
    /// [`measure_power`](GpuDevice::measure_power) readings, so a device
    /// whose faults act per window keeps them; an override must read
    /// exactly what that loop would.
    ///
    /// # Errors
    ///
    /// The first window's error; the readings before it stay appended.
    fn measure_power_repeated(
        &mut self,
        kernel: &KernelDesc,
        n: u32,
        readings: &mut Vec<f64>,
    ) -> Result<(), SimError> {
        for _ in 0..n {
            readings.push(self.measure_power(kernel)?.watts);
        }
        Ok(())
    }

    /// Collects the raw performance-counter events for one launch of
    /// `kernel` at the current clocks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CounterReadFailed`] on a transient counter
    /// failure; a healthy simulator never fails here.
    fn collect_events(&mut self, kernel: &KernelDesc) -> Result<EventRecord, SimError>;

    /// Executes `kernel` once at the current clocks, returning its timing
    /// and occupancy (no sensor involved, so this is infallible).
    fn execute(&self, kernel: &KernelDesc) -> Execution;

    /// Rewinds the measurement-noise stream to a pure function of
    /// `(construction seed, label)`.
    fn reseed_measurements(&mut self, label: u64);
}

impl GpuDevice for SimulatedGpu {
    fn spec(&self) -> &DeviceSpec {
        SimulatedGpu::spec(self)
    }

    fn clocks(&self) -> FreqConfig {
        SimulatedGpu::clocks(self)
    }

    fn set_clocks(&mut self, config: FreqConfig) -> Result<(), SimError> {
        SimulatedGpu::set_clocks(self, config)
    }

    fn measure_power(&mut self, kernel: &KernelDesc) -> Result<PowerMeasurement, SimError> {
        SimulatedGpu::measure_power(self, kernel)
    }

    fn measure_power_repeated(
        &mut self,
        kernel: &KernelDesc,
        n: u32,
        readings: &mut Vec<f64>,
    ) -> Result<(), SimError> {
        SimulatedGpu::measure_power_repeated(self, kernel, n, readings)
    }

    fn collect_events(&mut self, kernel: &KernelDesc) -> Result<EventRecord, SimError> {
        Ok(SimulatedGpu::collect_events(self, kernel))
    }

    fn execute(&self, kernel: &KernelDesc) -> Execution {
        SimulatedGpu::execute(self, kernel)
    }

    fn reseed_measurements(&mut self, label: u64) {
        SimulatedGpu::reseed_measurements(self, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_spec::devices;
    use gpm_workloads::microbenchmark_suite;

    #[test]
    fn reseeding_is_independent_of_measurement_history() {
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let mut a = SimulatedGpu::new(spec.clone(), 11);
        let mut b = SimulatedGpu::new(spec, 11);

        // Desynchronize the two noise streams, then reseed both with the
        // same label: the next measurements must agree bit-for-bit.
        for _ in 0..3 {
            let _ = a.measure_power(&suite[0]).unwrap();
        }
        a.reseed_measurements(42);
        b.reseed_measurements(42);
        let wa = a.measure_power(&suite[1]).unwrap().watts;
        let wb = b.measure_power(&suite[1]).unwrap().watts;
        assert_eq!(wa.to_bits(), wb.to_bits());
    }

    #[test]
    fn trait_object_free_generic_dispatch_matches_inherent_calls() {
        fn probe<G: GpuDevice>(gpu: &mut G, kernel: &KernelDesc) -> (f64, usize) {
            let w = gpu.measure_power(kernel).unwrap().watts;
            let ev = gpu.collect_events(kernel).unwrap();
            (w, ev.counts.len())
        }
        let spec = devices::tesla_k40c();
        let suite = microbenchmark_suite(&spec);
        let mut gpu = SimulatedGpu::new(spec, 5);
        gpu.reseed_measurements(1);
        let (via_trait, n) = probe(&mut gpu, &suite[0]);
        gpu.reseed_measurements(1);
        let via_inherent = SimulatedGpu::measure_power(&mut gpu, &suite[0])
            .unwrap()
            .watts;
        assert_eq!(via_trait.to_bits(), via_inherent.to_bits());
        assert!(n > 0);
    }
}
