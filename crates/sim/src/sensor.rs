//! NVML-like sampled power sensor.
//!
//! A reading averages the `n = ⌊D / refresh⌋` samples the sensor takes
//! over a measurement window of duration `D`. Each sample is the true
//! power `P` under independent multiplicative Gaussian noise,
//! `N(P, (P·sd)²)`, so their mean is `N(P, (P·sd)²/n)`: the sensor draws
//! that mean once per window instead of drawing every sample. NVML
//! reports integer milliwatts, so a reading is whole milliwatts summed
//! over the window's `n` samples and divided by `n`.
//!
//! The device's measurement stream also feeds its event counters. A
//! window leaves that stream exactly where drawing its `n` samples one
//! by one would (two uniforms per sample, none when `P·sd` is zero), so
//! every event count drawn after a power reading is the same whichever
//! way the reading was drawn.

use crate::rng::{normal, SimRng};
use crate::SimError;

/// A sampled on-board power sensor.
///
/// NVML exposes a power reading that refreshes at a device-specific period
/// — an estimated 35 ms on the Titan Xp, 100 ms on the GTX Titan X and
/// 15 ms on the Tesla K40c (Section V-A). Short kernels therefore yield
/// "misleading power measurements", which is why the paper repeats kernels
/// until the run is at least one second long. The sensor model reproduces
/// this: a measurement window of duration `D` aggregates `⌊D / refresh⌋`
/// samples, each the true power perturbed by multiplicative Gaussian
/// noise, and reports their mean (see the module docs for how the mean
/// is drawn and quantized).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSensor {
    refresh_s: f64,
    noise_sd: f64,
}

impl PowerSensor {
    /// Creates a sensor with the given refresh period (milliseconds) and
    /// relative per-sample noise.
    ///
    /// # Panics
    ///
    /// Panics if `refresh_ms` is not positive or `noise_sd` is negative.
    pub fn new(refresh_ms: f64, noise_sd: f64) -> Self {
        assert!(
            refresh_ms > 0.0 && refresh_ms.is_finite(),
            "refresh must be positive"
        );
        assert!(
            noise_sd >= 0.0 && noise_sd.is_finite(),
            "noise must be non-negative"
        );
        PowerSensor {
            refresh_s: refresh_ms / 1000.0,
            noise_sd,
        }
    }

    /// The refresh period in seconds.
    pub fn refresh_s(&self) -> f64 {
        self.refresh_s
    }

    /// Samples the sensor over a window of `duration_s` seconds during
    /// which the true draw is `true_watts`, returning the averaged reading
    /// and the number of samples it aggregates.
    ///
    /// The window's mean is one draw from `N(P, (P·sd)²/n)`, taken from
    /// the window's first two uniforms; the stream then skips the
    /// `2(n − 1)` uniforms the remaining samples would have drawn, so it
    /// ends where `n` per-sample draws end. The reading is a multiple of
    /// `1 / (1000·n)` W: whole milliwatts summed over the `n` samples.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WindowTooShort`] when the window contains no
    /// sample — the hardware situation the repetition protocol exists to
    /// avoid — and [`SimError::InvalidPowerSample`] when the true draw or
    /// the window's mean is NaN, infinite, or negative. Rejecting bad
    /// readings here keeps them out of medians and training data, where a
    /// single NaN used to poison the whole campaign silently.
    pub fn sample_window(
        &self,
        rng: &mut SimRng,
        true_watts: f64,
        duration_s: f64,
    ) -> Result<(f64, u32), SimError> {
        if !true_watts.is_finite() || true_watts < 0.0 {
            return Err(SimError::InvalidPowerSample { watts: true_watts });
        }
        let n = (duration_s / self.refresh_s).floor() as u32;
        if n == 0 {
            return Err(SimError::WindowTooShort {
                duration_s,
                refresh_s: self.refresh_s,
            });
        }
        let nf = f64::from(n);
        let sample_sd = true_watts * self.noise_sd;
        let mean = normal(rng, true_watts, sample_sd / nf.sqrt());
        if sample_sd != 0.0 {
            for _ in 1..n {
                rng.next_u64();
                rng.next_u64();
            }
        }
        if !mean.is_finite() || mean < 0.0 {
            return Err(SimError::InvalidPowerSample { watts: mean });
        }
        // NVML reports integer milliwatts: the window sums n of them.
        Ok(((mean * 1000.0 * nf).round() / (1000.0 * nf), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-sample loop the window draw replaces: `n` Box–Muller
    /// samples, each quantized to milliwatts, then averaged. It is the
    /// reference for the window draw's distribution and for where the
    /// window leaves the stream.
    pub(super) fn per_sample_window(
        sensor: &PowerSensor,
        rng: &mut SimRng,
        true_watts: f64,
        duration_s: f64,
    ) -> Result<(f64, u32), SimError> {
        if !true_watts.is_finite() || true_watts < 0.0 {
            return Err(SimError::InvalidPowerSample { watts: true_watts });
        }
        let n = (duration_s / sensor.refresh_s).floor() as u32;
        if n == 0 {
            return Err(SimError::WindowTooShort {
                duration_s,
                refresh_s: sensor.refresh_s,
            });
        }
        let mut acc = 0.0;
        for _ in 0..n {
            let sample = normal(rng, true_watts, true_watts * sensor.noise_sd);
            if !sample.is_finite() || sample < 0.0 {
                return Err(SimError::InvalidPowerSample { watts: sample });
            }
            acc += (sample * 1000.0).round() / 1000.0;
        }
        Ok((acc / f64::from(n), n))
    }

    /// Mean and population variance.
    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn window_readings_match_the_per_sample_reference_in_distribution() {
        // Standardized by the window mean's sd, both readings' errors
        // are N(0, 1): the one-step draw changes the realization, not
        // the distribution. Windows of 1, 10 and 66 samples.
        let truth = 150.0;
        for (refresh_ms, duration_s, noise_sd) in
            [(100.0, 0.1, 0.05), (100.0, 1.0, 0.02), (15.0, 1.0, 0.01)]
        {
            let sensor = PowerSensor::new(refresh_ms, noise_sd);
            let mut window_rng = SimRng::seed_from_u64(1);
            let mut sample_rng = SimRng::seed_from_u64(2);
            let mut window = Vec::new();
            let mut per_sample = Vec::new();
            for _ in 0..20_000 {
                let (w, n) = sensor
                    .sample_window(&mut window_rng, truth, duration_s)
                    .unwrap();
                let scale = truth * noise_sd / f64::from(n).sqrt();
                window.push((w - truth) / scale);
                let (w, _) =
                    per_sample_window(&sensor, &mut sample_rng, truth, duration_s).unwrap();
                per_sample.push((w - truth) / scale);
            }
            let (window_mean, window_var) = moments(&window);
            let (sample_mean, sample_var) = moments(&per_sample);
            let label = format!("refresh {refresh_ms} ms, window {duration_s} s");
            assert!(
                (window_mean - sample_mean).abs() < 0.05,
                "{label}: means {window_mean} vs {sample_mean}"
            );
            assert!(
                (window_var / sample_var - 1.0).abs() < 0.05,
                "{label}: variances {window_var} vs {sample_var}"
            );
        }
    }

    #[test]
    fn short_window_errors() {
        let s = PowerSensor::new(100.0, 0.0);
        let mut rng = SimRng::seed_from_u64(0);
        assert!(matches!(
            s.sample_window(&mut rng, 100.0, 0.05),
            Err(SimError::WindowTooShort { .. })
        ));
    }

    #[test]
    fn noiseless_sensor_reads_truth() {
        let s = PowerSensor::new(100.0, 0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let (w, n) = s.sample_window(&mut rng, 123.456, 1.0).unwrap();
        assert_eq!(n, 10);
        assert!((w - 123.456).abs() < 1e-9);
    }

    #[test]
    fn sample_count_scales_with_window_and_refresh() {
        let s = PowerSensor::new(15.0, 0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let (_, n) = s.sample_window(&mut rng, 100.0, 1.5).unwrap();
        assert_eq!(n, 100);
    }

    #[test]
    fn noise_averages_out_over_long_windows() {
        let s = PowerSensor::new(15.0, 0.05);
        let mut rng = SimRng::seed_from_u64(42);
        let (short, _) = s.sample_window(&mut rng, 200.0, 0.05).unwrap(); // 3 samples
        let (long, _) = s.sample_window(&mut rng, 200.0, 30.0).unwrap(); // 2000 samples
        assert!((long - 200.0).abs() < (short - 200.0).abs().max(0.5));
        assert!((long - 200.0).abs() < 0.5);
    }

    #[test]
    fn readings_are_quantized_to_milliwatts() {
        let s = PowerSensor::new(100.0, 0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let (w, _) = s.sample_window(&mut rng, 99.999_999_7, 0.2).unwrap();
        assert_eq!(w, 100.0);
    }

    #[test]
    #[should_panic(expected = "refresh")]
    fn zero_refresh_panics() {
        let _ = PowerSensor::new(0.0, 0.0);
    }

    #[test]
    fn nan_truth_is_a_typed_error() {
        let s = PowerSensor::new(100.0, 0.0);
        let mut rng = SimRng::seed_from_u64(0);
        match s.sample_window(&mut rng, f64::NAN, 1.0) {
            Err(SimError::InvalidPowerSample { watts }) => assert!(watts.is_nan()),
            other => panic!("expected InvalidPowerSample, got {other:?}"),
        }
    }

    #[test]
    fn negative_and_infinite_truth_are_typed_errors() {
        let s = PowerSensor::new(100.0, 0.0);
        let mut rng = SimRng::seed_from_u64(0);
        assert!(matches!(
            s.sample_window(&mut rng, -5.0, 1.0),
            Err(SimError::InvalidPowerSample { watts }) if watts == -5.0
        ));
        assert!(matches!(
            s.sample_window(&mut rng, f64::INFINITY, 1.0),
            Err(SimError::InvalidPowerSample { .. })
        ));
    }

    #[test]
    fn pathological_noise_cannot_smuggle_negative_samples() {
        // With absurd relative noise the window's mean goes negative; the
        // sensor must refuse rather than clamp (the old behavior) or
        // report the negative reading.
        let s = PowerSensor::new(5.0, 50.0);
        let mut rng = SimRng::seed_from_u64(7);
        let mut saw_rejection = false;
        for _ in 0..20 {
            match s.sample_window(&mut rng, 100.0, 1.0) {
                Ok((w, _)) => assert!(w.is_finite() && w >= 0.0),
                Err(SimError::InvalidPowerSample { watts }) => {
                    assert!(watts < 0.0 || !watts.is_finite());
                    saw_rejection = true;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            saw_rejection,
            "50x relative noise never produced a negative sample"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::per_sample_window;
    use super::*;

    #[test]
    fn window_draws_leave_the_stream_where_per_sample_draws_do() {
        // Event counts share the measurement stream, so a window must
        // consume exactly what its per-sample loop would: 2n uniforms,
        // or none when P·sd is zero.
        gpm_check::check(
            "window_draws_leave_the_stream_where_per_sample_draws_do",
            |g| {
                let truth = if g.bool() { 0.0 } else { g.f64_in(0.0, 300.0) };
                let noise_sd = if g.bool() { 0.0 } else { g.f64_in(0.0, 0.2) };
                let refresh_ms = g.f64_in(5.0, 200.0);
                let duration = g.f64_in(0.0, 3.0);
                let sensor = PowerSensor::new(refresh_ms, noise_sd);
                let mut window_rng = SimRng::seed_from_u64(g.u64_any());
                let mut sample_rng = window_rng.clone();
                let window = sensor.sample_window(&mut window_rng, truth, duration);
                let reference = per_sample_window(&sensor, &mut sample_rng, truth, duration);
                match (window, reference) {
                    (Ok((watts, n)), Ok((_, reference_n))) => {
                        assert_eq!(n, reference_n);
                        assert_eq!(
                            window_rng, sample_rng,
                            "P = {truth}, sd = {noise_sd}, n = {n}"
                        );
                        // Whole milliwatts summed over the window's samples.
                        let millis = watts * 1000.0 * f64::from(n);
                        assert!((millis - millis.round()).abs() < 1e-6, "{watts} W, n = {n}");
                    }
                    (
                        Err(SimError::WindowTooShort { .. }),
                        Err(SimError::WindowTooShort { .. }),
                    ) => {}
                    // A negative draw: a single sample of the reference can
                    // go negative where the window's mean does not, and the
                    // two stop drawing at different points.
                    (Err(SimError::InvalidPowerSample { .. }), _)
                    | (_, Err(SimError::InvalidPowerSample { .. })) => {}
                    (window, reference) => panic!("{window:?} vs {reference:?}"),
                }
            },
        );
    }

    #[test]
    fn sample_counts_and_means_are_sane() {
        gpm_check::check("sample_counts_and_means_are_sane", |g| {
            let refresh_ms = g.f64_in(5.0, 200.0);
            let truth = g.f64_in(30.0, 280.0);
            let duration = g.f64_in(0.5, 5.0);
            let seed = g.u64_in(0..100);
            let sensor = PowerSensor::new(refresh_ms, 0.01);
            let mut rng = SimRng::seed_from_u64(seed);
            match sensor.sample_window(&mut rng, truth, duration) {
                Ok((watts, n)) => {
                    assert_eq!(n, (duration / (refresh_ms / 1000.0)).floor() as u32);
                    assert!(watts > 0.0);
                    // 1% noise: the mean stays within ~6 sigma/sqrt(n).
                    let bound = truth * 0.06 / (f64::from(n)).sqrt() + 0.01;
                    assert!(
                        (watts - truth).abs() < bound.max(truth * 0.05),
                        "{watts} vs {truth} (n = {n})"
                    );
                }
                Err(SimError::WindowTooShort { .. }) => {
                    assert!(duration < refresh_ms / 1000.0);
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        });
    }
}
