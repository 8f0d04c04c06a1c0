//! The DVFS-aware power model (Eqs. 5-7) and its voltage tables.

use crate::{ModelError, PowerBreakdown, Utilizations};
use gpm_json::impl_json;
use gpm_spec::{Component, DeviceSpec, Domain, FreqConfig, Mhz};
use std::collections::BTreeMap;

/// Converts a driver frequency to the gigahertz units used for model
/// coefficients (keeps the design matrix well conditioned).
fn ghz(f: Mhz) -> f64 {
    f.as_f64() / 1000.0
}

/// Fitted per-domain coefficients of Eq. 5:
/// `P(Dk) = β₀·V̄ + V̄²·f·(β₁ + Σᵢ ωᵢ·Uᵢ)`.
///
/// Frequencies are in GHz, so coefficients are in watts per (normalized-
/// volt · GHz) — arbitrary but consistent units, as in the paper (the
/// voltages are only known up to the reference normalization anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainParams {
    /// Static coefficient `β₀` (watts per normalized volt).
    pub static_coef: f64,
    /// Utilization-independent dynamic coefficient `β₁` (idle power of
    /// the V-F level).
    pub idle_dyn: f64,
    /// Per-component dynamic coefficients `ωᵢ`, in [`Component::CORE`]
    /// order for the core domain and `[ω_dram]` for the memory domain.
    pub omegas: Vec<f64>,
}

impl_json!(struct DomainParams { static_coef, idle_dyn, omegas });

impl DomainParams {
    /// Power of this domain at normalized voltage `vbar`, frequency
    /// `f_ghz`, given the activity term `Σ ωᵢUᵢ` already summed.
    fn power(&self, vbar: f64, f_ghz: f64, activity: f64) -> f64 {
        self.static_coef * vbar + vbar * vbar * f_ghz * (self.idle_dyn + activity)
    }
}

/// Estimated normalized voltages `V̄ = (V̄core, V̄mem)` per configuration.
///
/// The driver never reports voltages, so the estimator recovers them from
/// power measurements (Section III-D) — including the possibility that
/// the core voltage differs across memory frequencies, which the paper
/// predicts on the GTX Titan X. The memory voltage is modeled per memory
/// frequency (no fcore dependence was ever observed).
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageTable {
    reference: FreqConfig,
    entries: BTreeMap<FreqConfig, [f64; 2]>,
}

impl_json!(struct VoltageTable { reference, entries });

impl VoltageTable {
    /// Creates a table from per-configuration `(V̄core, V̄mem)` estimates.
    /// The reference configuration is pinned to `(1, 1)` regardless of
    /// the provided entries (that is the definition of the
    /// normalization, Eq. 5).
    pub fn new(
        reference: FreqConfig,
        entries: impl IntoIterator<Item = (FreqConfig, [f64; 2])>,
    ) -> Self {
        let mut entries: BTreeMap<FreqConfig, [f64; 2]> = entries.into_iter().collect();
        entries.insert(reference, [1.0, 1.0]);
        VoltageTable { reference, entries }
    }

    /// The reference configuration (normalized voltages = 1 there).
    pub fn reference(&self) -> FreqConfig {
        self.reference
    }

    /// Normalized `(V̄core, V̄mem)` at a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] for configurations outside
    /// the fitted grid.
    pub fn voltages(&self, config: FreqConfig) -> Result<(f64, f64), ModelError> {
        self.entries
            .get(&config)
            .map(|v| (v[0], v[1]))
            .ok_or(ModelError::UnknownConfig(config))
    }

    /// Normalized voltage of one domain at a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] for unfitted configurations.
    pub fn voltage(&self, domain: Domain, config: FreqConfig) -> Result<f64, ModelError> {
        let (vc, vm) = self.voltages(config)?;
        Ok(match domain {
            Domain::Core => vc,
            Domain::Memory => vm,
        })
    }

    /// The estimated core-voltage curve at a fixed memory frequency,
    /// ascending in core frequency — the Fig. 6 plot.
    pub fn core_curve(&self, mem: Mhz) -> Vec<(Mhz, f64)> {
        let mut curve: Vec<(Mhz, f64)> = self
            .entries
            .iter()
            .filter(|(cfg, _)| cfg.mem == mem)
            .map(|(cfg, v)| (cfg.core, v[0]))
            .collect();
        curve.sort_unstable_by_key(|&(f, _)| f);
        curve
    }

    /// All fitted configurations, ascending.
    pub fn configs(&self) -> impl Iterator<Item = FreqConfig> + '_ {
        self.entries.keys().copied()
    }

    /// Normalized `(V̄core, V̄mem)` at an *arbitrary* configuration, by
    /// bilinear interpolation over the fitted grid (clamped at the grid
    /// edges). Enables power prediction at fine-grained V-F points the
    /// driver tables do not expose — the paper's use case 4 ("fine-
    /// grained V-F perturbations and potentially even non-SMU V-F
    /// adjustments").
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] if the table is empty along
    /// either axis (cannot happen for estimator-built tables).
    pub fn voltages_interpolated(&self, config: FreqConfig) -> Result<(f64, f64), ModelError> {
        if let Ok(exact) = self.voltages(config) {
            return Ok(exact);
        }
        let mut cores: Vec<Mhz> = self.entries.keys().map(|c| c.core).collect();
        cores.sort_unstable();
        cores.dedup();
        let mut mems: Vec<Mhz> = self.entries.keys().map(|c| c.mem).collect();
        mems.sort_unstable();
        mems.dedup();
        if cores.is_empty() || mems.is_empty() {
            return Err(ModelError::UnknownConfig(config));
        }
        let (c0, c1, tc) = bracket(&cores, config.core);
        let (m0, m1, tm) = bracket(&mems, config.mem);
        let at = |core: Mhz, mem: Mhz| -> Result<(f64, f64), ModelError> {
            self.voltages(FreqConfig::new(core, mem))
        };
        let (v00c, v00m) = at(c0, m0)?;
        let (v01c, v01m) = at(c0, m1)?;
        let (v10c, v10m) = at(c1, m0)?;
        let (v11c, v11m) = at(c1, m1)?;
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        Ok((
            lerp(lerp(v00c, v10c, tc), lerp(v01c, v11c, tc), tm),
            lerp(lerp(v00m, v10m, tc), lerp(v01m, v11m, tc), tm),
        ))
    }
}

/// A tiny open-addressing index from [`FreqConfig`] to its position in
/// the flattened voltage table. Batched sweeps resolve every point
/// through this instead of a B-tree walk or binary search: one
/// multiplicative hash plus (almost always) one L1 probe per point.
struct ConfigIndex {
    /// `(packed_key + 1, position)`; key 0 marks an empty slot.
    slots: Vec<(u64, u32)>,
    mask: usize,
}

impl ConfigIndex {
    fn pack(config: FreqConfig) -> u64 {
        (u64::from(config.core.as_u32()) << 32) | u64::from(config.mem.as_u32())
    }

    fn build(configs: impl ExactSizeIterator<Item = FreqConfig>) -> Self {
        let capacity = (configs.len() * 2).next_power_of_two().max(8);
        let mask = capacity - 1;
        let mut slots = vec![(0u64, 0u32); capacity];
        for (pos, config) in configs.enumerate() {
            let key = Self::pack(config) + 1;
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
            while slots[slot].0 != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = (key, pos as u32);
        }
        ConfigIndex { slots, mask }
    }

    fn get(&self, config: FreqConfig) -> Option<usize> {
        let key = Self::pack(config) + 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
        loop {
            let (k, pos) = self.slots[slot];
            if k == key {
                return Some(pos as usize);
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// Finds the grid neighbours of `x` in a sorted level list, returning
/// `(below, above, interpolation weight)`; clamps outside the range.
fn bracket(levels: &[Mhz], x: Mhz) -> (Mhz, Mhz, f64) {
    if x <= levels[0] {
        return (levels[0], levels[0], 0.0);
    }
    if x >= *levels.last().expect("non-empty levels") {
        let last = *levels.last().expect("non-empty levels");
        return (last, last, 0.0);
    }
    let hi_idx = levels.partition_point(|&l| l < x);
    let lo = levels[hi_idx - 1];
    let hi = levels[hi_idx];
    let t = f64::from(x.as_u32() - lo.as_u32()) / f64::from(hi.as_u32() - lo.as_u32());
    (lo, hi, t)
}

/// The fitted DVFS-aware GPU power model (Eqs. 6-7).
///
/// Predicts total and per-component power at *any* fitted V-F
/// configuration from utilizations measured at the single reference
/// configuration.
///
/// # Example
///
/// ```
/// use gpm_core::{DomainParams, PowerModel, Utilizations, VoltageTable};
/// use gpm_spec::{devices, FreqConfig};
///
/// let spec = devices::gtx_titan_x();
/// let reference = spec.default_config();
/// let low = FreqConfig::from_mhz(595, 3505);
/// let model = PowerModel::new(
///     spec,
///     DomainParams { static_coef: 15.0, idle_dyn: 20.0, omegas: vec![20.0; 6] },
///     DomainParams { static_coef: 10.0, idle_dyn: 11.0, omegas: vec![26.0] },
///     VoltageTable::new(reference, [(low, [0.9, 1.0])]),
///     600.0,
/// );
/// let u = Utilizations::from_values([0.2, 0.6, 0.0, 0.1, 0.2, 0.3, 0.5])?;
/// let p_ref = model.predict(&u, reference)?;
/// let p_low = model.predict(&u, low)?;
/// assert!(p_low < p_ref);
/// # Ok::<(), gpm_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    spec: DeviceSpec,
    core: DomainParams,
    mem: DomainParams,
    voltages: VoltageTable,
    l2_bytes_per_cycle: f64,
    /// Training residual standard deviation in watts (0 when unknown).
    residual_sigma_w: f64,
}

impl_json!(struct PowerModel {
    spec,
    core,
    mem,
    voltages,
    l2_bytes_per_cycle,
    residual_sigma_w = 0.0,
});

impl PowerModel {
    /// Assembles a model from fitted parts (normally done by
    /// [`crate::Estimator::fit`]).
    pub fn new(
        spec: DeviceSpec,
        core: DomainParams,
        mem: DomainParams,
        voltages: VoltageTable,
        l2_bytes_per_cycle: f64,
    ) -> Self {
        debug_assert_eq!(core.omegas.len(), Component::CORE.len());
        debug_assert_eq!(mem.omegas.len(), 1);
        PowerModel {
            spec,
            core,
            mem,
            voltages,
            l2_bytes_per_cycle,
            residual_sigma_w: 0.0,
        }
    }

    /// Attaches the training residual standard deviation (set by the
    /// estimator; enables [`PowerModel::predict_interval`]).
    pub fn with_residual_sigma(mut self, sigma_w: f64) -> Self {
        self.residual_sigma_w = sigma_w.max(0.0);
        self
    }

    /// Training residual standard deviation in watts (0 when the model
    /// was built without one).
    pub fn residual_sigma_w(&self) -> f64 {
        self.residual_sigma_w
    }

    /// Predicts power with a ±2σ interval derived from the training
    /// residuals: `(low, point, high)`. The interval is a calibration
    /// heuristic, not a formal confidence bound — residuals are neither
    /// i.i.d. nor Gaussian across the grid — but it flags predictions
    /// whose error budget matters (e.g. TDP headroom decisions).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PowerModel::predict`].
    pub fn predict_interval(
        &self,
        utilizations: &Utilizations,
        config: FreqConfig,
    ) -> Result<(f64, f64, f64), ModelError> {
        let p = self.predict(utilizations, config)?;
        let half = 2.0 * self.residual_sigma_w;
        Ok(((p - half).max(0.0), p, p + half))
    }

    /// A human-readable multi-line summary of the fitted model: the
    /// per-domain coefficients and the voltage-curve extremes. Used by
    /// the CLI's `describe` command.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "DVFS-aware power model for {}", self.spec);
        let _ = writeln!(out, "  reference configuration: {}", self.reference());
        let _ = writeln!(
            out,
            "  discovered L2 peak: {:.0} bytes/cycle",
            self.l2_bytes_per_cycle
        );
        let _ = writeln!(
            out,
            "  core domain: beta0 = {:.2}, beta1 = {:.2}",
            self.core.static_coef, self.core.idle_dyn
        );
        for (i, comp) in Component::CORE.iter().enumerate() {
            let _ = writeln!(out, "    omega[{comp}] = {:.2}", self.core.omegas[i]);
        }
        let _ = writeln!(
            out,
            "  memory domain: beta2 = {:.2}, beta3 = {:.2}, omega[DRAM] = {:.2}",
            self.mem.static_coef, self.mem.idle_dyn, self.mem.omegas[0]
        );
        let curve = self.voltages.core_curve(self.reference().mem);
        if let (Some(first), Some(last)) = (curve.first(), curve.last()) {
            let _ = writeln!(
                out,
                "  core voltage span at fmem {}: {:.3} @ {} -> {:.3} @ {}",
                self.reference().mem,
                first.1,
                first.0,
                last.1,
                last.0
            );
        }
        if self.residual_sigma_w > 0.0 {
            let _ = writeln!(
                out,
                "  training residual sigma: {:.2} W",
                self.residual_sigma_w
            );
        }
        out
    }

    /// The device this model was fitted for.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The reference configuration of the fit.
    pub fn reference(&self) -> FreqConfig {
        self.voltages.reference()
    }

    /// Fitted core-domain coefficients.
    pub fn core_params(&self) -> &DomainParams {
        &self.core
    }

    /// Fitted memory-domain coefficients.
    pub fn mem_params(&self) -> &DomainParams {
        &self.mem
    }

    /// The estimated voltage table (Fig. 6 data).
    pub fn voltage_table(&self) -> &VoltageTable {
        &self.voltages
    }

    /// The discovered L2 peak bandwidth in bytes per core cycle, needed
    /// to compute utilizations for new applications.
    pub fn l2_bytes_per_cycle(&self) -> f64 {
        self.l2_bytes_per_cycle
    }

    /// Predicts total power (watts) at a configuration from reference
    /// utilizations (Section III-E).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] for configurations outside
    /// the fitted voltage table.
    pub fn predict(
        &self,
        utilizations: &Utilizations,
        config: FreqConfig,
    ) -> Result<f64, ModelError> {
        Ok(self.breakdown(utilizations, config)?.total())
    }

    /// Predicts total power (watts) at *many* configurations in one
    /// blocked pass — the batch counterpart of [`PowerModel::predict`],
    /// bit-identical to calling it per configuration.
    ///
    /// The per-sweep constants (coefficients and reference utilizations)
    /// are folded into one [`gpm_linalg::PanelModel`], the voltage table
    /// is flattened once into a sorted array (so the per-point lookup is
    /// a cache-friendly binary search instead of a B-tree walk), and the
    /// arithmetic runs through `gpm_linalg::batch`'s blocked panels.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] for the first configuration
    /// outside the fitted voltage table, exactly as a scalar loop would.
    pub fn predict_batch(
        &self,
        utilizations: &Utilizations,
        configs: &[FreqConfig],
    ) -> Result<Vec<f64>, ModelError> {
        let mut out = vec![0.0; configs.len()];
        self.predict_batch_into(utilizations, configs, &mut out)?;
        Ok(out)
    }

    /// [`PowerModel::predict_batch`] into a caller-provided buffer
    /// (serving hot paths reuse their buffers across requests).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] for the first configuration
    /// outside the fitted voltage table.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != configs.len()`.
    pub fn predict_batch_into(
        &self,
        utilizations: &Utilizations,
        configs: &[FreqConfig],
        out: &mut [f64],
    ) -> Result<(), ModelError> {
        assert_eq!(
            configs.len(),
            out.len(),
            "one output slot per configuration"
        );
        let mut core_terms = [(0.0, 0.0); 6];
        for (i, comp) in Component::CORE.iter().enumerate() {
            core_terms[i] = (self.core.omegas[i], utilizations.get(*comp));
        }
        let panel = gpm_linalg::PanelModel {
            core_static: self.core.static_coef,
            core_idle: self.core.idle_dyn,
            core_terms: &core_terms,
            mem_static: self.mem.static_coef,
            mem_idle: self.mem.idle_dyn,
            mem_term: (self.mem.omegas[0], utilizations.get(Component::Dram)),
        };
        let table: Vec<(FreqConfig, [f64; 2])> = self
            .voltages
            .entries
            .iter()
            .map(|(c, v)| (*c, *v))
            .collect();
        let index = ConfigIndex::build(table.iter().map(|&(c, _)| c));

        if configs.len() > table.len() {
            // Sweep shape (e.g. a tiled V-F grid): the batch revisits
            // fitted configurations, so evaluate each *distinct* one
            // exactly once through the kernel and resolve every point by
            // O(1) index lookup. Identical `(utilizations, config)`
            // arithmetic, so outputs stay bit-identical to the per-point
            // path.
            let points: Vec<gpm_linalg::VfPoint> = table
                .iter()
                .map(|&(config, [vc, vm])| gpm_linalg::VfPoint {
                    vc,
                    fc: ghz(config.core),
                    vm,
                    fm: ghz(config.mem),
                })
                .collect();
            let mut memo = vec![0.0; table.len()];
            gpm_linalg::batch::predict_into(&panel, &points, &mut memo);
            for (&config, o) in configs.iter().zip(out.iter_mut()) {
                let i = index.get(config).ok_or(ModelError::UnknownConfig(config))?;
                *o = memo[i];
            }
        } else {
            let mut points = Vec::with_capacity(configs.len());
            for &config in configs {
                let i = index.get(config).ok_or(ModelError::UnknownConfig(config))?;
                let [vc, vm] = table[i].1;
                points.push(gpm_linalg::VfPoint {
                    vc,
                    fc: ghz(config.core),
                    vm,
                    fm: ghz(config.mem),
                });
            }
            gpm_linalg::batch::predict_into(&panel, &points, out);
        }
        Ok(())
    }

    /// Predicts power at an arbitrary (possibly off-grid) configuration
    /// by interpolating the voltage table — use case 4's fine-grained
    /// V-F adjustments. On-grid configurations match [`PowerModel::predict`]
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] only for empty voltage
    /// tables.
    pub fn predict_offgrid(
        &self,
        utilizations: &Utilizations,
        config: FreqConfig,
    ) -> Result<f64, ModelError> {
        let (vc, vm) = self.voltages.voltages_interpolated(config)?;
        let fc = ghz(config.core);
        let fm = ghz(config.mem);
        let mut core_activity = 0.0;
        for (i, comp) in Component::CORE.iter().enumerate() {
            core_activity += self.core.omegas[i] * utilizations.get(*comp);
        }
        let mem_activity = self.mem.omegas[0] * utilizations.get(Component::Dram);
        Ok(self.core.power(vc, fc, core_activity) + self.mem.power(vm, fm, mem_activity))
    }

    /// Predicts the per-component power decomposition (Figs. 5B and 10).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] for configurations outside
    /// the fitted voltage table.
    pub fn breakdown(
        &self,
        utilizations: &Utilizations,
        config: FreqConfig,
    ) -> Result<PowerBreakdown, ModelError> {
        let (vc, vm) = self.voltages.voltages(config)?;
        let fc = ghz(config.core);
        let fm = ghz(config.mem);

        let constant = self.core.power(vc, fc, 0.0) + self.mem.power(vm, fm, 0.0);
        let mut components = [0.0; 7];
        for (i, comp) in Component::CORE.iter().enumerate() {
            components[comp.index()] = vc * vc * fc * self.core.omegas[i] * utilizations.get(*comp);
        }
        components[Component::Dram.index()] =
            vm * vm * fm * self.mem.omegas[0] * utilizations.get(Component::Dram);

        Ok(PowerBreakdown::new(constant, components))
    }

    /// Predicts power at `config`, stepping the core frequency down to
    /// the closest level whose prediction does not violate the device
    /// TDP — the Fig. 9 footnote behaviour. Returns the configuration
    /// actually used and its predicted power.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] if no fitted level at the
    /// requested memory frequency satisfies the TDP.
    pub fn predict_with_tdp(
        &self,
        utilizations: &Utilizations,
        config: FreqConfig,
    ) -> Result<(FreqConfig, f64), ModelError> {
        let tdp = self.spec.tdp_w();
        let mut candidate = config;
        loop {
            let p = self.predict(utilizations, candidate)?;
            if p <= tdp {
                return Ok((candidate, p));
            }
            // Step to the next lower core level at the same memory
            // frequency.
            let next = self
                .spec
                .core_freqs()
                .iter()
                .copied()
                .find(|&f| f < candidate.core)
                .ok_or(ModelError::UnknownConfig(config))?;
            candidate = FreqConfig::new(next, candidate.mem);
        }
    }

    /// Serializes the model to JSON (e.g. to ship a pre-built model to a
    /// sensor-less deployment, use case 1 of Section V-B).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientTraining`] if serialization
    /// fails (cannot occur for well-formed models).
    pub fn to_json(&self) -> Result<String, ModelError> {
        gpm_json::to_string(self)
            .map_err(|_| ModelError::InsufficientTraining("model not serializable"))
    }

    /// Deserializes a model from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientTraining`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        gpm_json::from_str(json)
            .map_err(|_| ModelError::InsufficientTraining("malformed model JSON"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_spec::devices;

    fn table() -> VoltageTable {
        let reference = FreqConfig::from_mhz(975, 3505);
        VoltageTable::new(
            reference,
            [
                (FreqConfig::from_mhz(595, 3505), [0.87, 1.0]),
                (FreqConfig::from_mhz(1164, 3505), [1.15, 1.0]),
                (FreqConfig::from_mhz(975, 810), [0.95, 1.0]),
            ],
        )
    }

    fn model() -> PowerModel {
        PowerModel::new(
            devices::gtx_titan_x(),
            DomainParams {
                static_coef: 15.0,
                idle_dyn: 20.5,
                omegas: vec![18.0, 24.0, 30.0, 22.0, 15.0, 17.0],
            },
            DomainParams {
                static_coef: 10.0,
                idle_dyn: 11.1,
                omegas: vec![26.4],
            },
            table(),
            620.0,
        )
    }

    #[test]
    fn reference_is_pinned_to_unit_voltage() {
        let t = table();
        assert_eq!(
            t.voltages(FreqConfig::from_mhz(975, 3505)).unwrap(),
            (1.0, 1.0)
        );
    }

    #[test]
    fn unknown_config_is_an_error() {
        let m = model();
        let u = Utilizations::from_values([0.0; 7]).unwrap();
        let err = m.predict(&u, FreqConfig::from_mhz(123, 456)).unwrap_err();
        assert!(matches!(err, ModelError::UnknownConfig(_)));
    }

    #[test]
    fn idle_prediction_is_the_constant_part() {
        let m = model();
        let idle = Utilizations::from_values([0.0; 7]).unwrap();
        let reference = FreqConfig::from_mhz(975, 3505);
        let b = m.breakdown(&idle, reference).unwrap();
        // Constant = 15 + 0.975*20.5 + 10 + 3.505*11.1.
        let want = 15.0 + 0.975 * 20.5 + 10.0 + 3.505 * 11.1;
        assert!((b.constant() - want).abs() < 1e-9);
        assert!((b.total() - want).abs() < 1e-9);
        assert!(b.components().iter().all(|&(_, w)| w == 0.0));
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = model();
        let u = Utilizations::from_values([0.2, 0.6, 0.1, 0.1, 0.2, 0.3, 0.5]).unwrap();
        let b = m.breakdown(&u, FreqConfig::from_mhz(975, 3505)).unwrap();
        let sum: f64 = b.constant() + b.components().iter().map(|(_, w)| w).sum::<f64>();
        assert!((sum - b.total()).abs() < 1e-9);
        // DRAM part uses the memory domain frequency/voltage.
        let dram = b.component(Component::Dram);
        assert!((dram - 3.505 * 26.4 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn predict_batch_is_bit_identical_to_scalar_predict() {
        let m = model();
        let u = Utilizations::from_values([0.2, 0.6, 0.1, 0.1, 0.2, 0.3, 0.5]).unwrap();
        let configs: Vec<FreqConfig> = m.voltage_table().configs().collect();
        let batch = m.predict_batch(&u, &configs).unwrap();
        for (c, b) in configs.iter().zip(&batch) {
            assert_eq!(m.predict(&u, *c).unwrap().to_bits(), b.to_bits());
        }
        // Unknown configurations error exactly like the scalar path.
        let err = m
            .predict_batch(&u, &[FreqConfig::from_mhz(123, 456)])
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownConfig(_)));
        // Empty batches are a no-op.
        assert!(m.predict_batch(&u, &[]).unwrap().is_empty());
    }

    #[test]
    fn voltage_scaling_bends_power_upward() {
        // Same utilizations: power at 1164 MHz with V̄ = 1.15 must exceed
        // a linear extrapolation from 595 to 975 MHz.
        let m = model();
        let u = Utilizations::from_values([0.3, 0.5, 0.0, 0.1, 0.2, 0.3, 0.4]).unwrap();
        let p595 = m.predict(&u, FreqConfig::from_mhz(595, 3505)).unwrap();
        let p975 = m.predict(&u, FreqConfig::from_mhz(975, 3505)).unwrap();
        let p1164 = m.predict(&u, FreqConfig::from_mhz(1164, 3505)).unwrap();
        let linear_extrapolation = p975 + (p975 - p595) / (975.0 - 595.0) * (1164.0 - 975.0);
        assert!(
            p1164 > linear_extrapolation,
            "{p1164} vs {linear_extrapolation}"
        );
    }

    #[test]
    fn tdp_fallback_steps_down_core_frequency() {
        // Build a model that predicts above-TDP power at the top level.
        let mut m = model();
        let reference = FreqConfig::from_mhz(975, 3505);
        let mut entries: Vec<(FreqConfig, [f64; 2])> = Vec::new();
        for &f in devices::gtx_titan_x().core_freqs() {
            let v = 0.9 + 0.3 * (f.as_f64() - 595.0) / (1164.0 - 595.0);
            entries.push((FreqConfig::new(f, Mhz::new(3505)), [v, 1.0]));
        }
        m.voltages = VoltageTable::new(reference, entries);
        m.core.omegas = vec![40.0; 6];
        let u = Utilizations::from_values([0.9, 0.9, 0.2, 0.4, 0.6, 0.8, 0.9]).unwrap();
        let (cfg, p) = m
            .predict_with_tdp(&u, FreqConfig::from_mhz(1164, 3505))
            .unwrap();
        assert!(cfg.core < Mhz::new(1164), "fell back to {cfg}");
        assert!(p <= m.spec().tdp_w());
        // The fallback is the *closest* level that satisfies TDP.
        let one_up = m
            .spec()
            .core_freqs()
            .iter()
            .copied()
            .rev()
            .find(|&f| f > cfg.core)
            .unwrap();
        let p_up = m
            .predict(&u, FreqConfig::new(one_up, Mhz::new(3505)))
            .unwrap();
        assert!(p_up > m.spec().tdp_w());
    }

    #[test]
    fn core_curve_is_ascending_in_frequency() {
        let t = table();
        let curve = t.core_curve(Mhz::new(3505));
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(curve[1], (Mhz::new(975), 1.0));
    }

    #[test]
    fn json_round_trip() {
        let m = model();
        let json = m.to_json().unwrap();
        let back = PowerModel::from_json(&json).unwrap();
        assert_eq!(m, back);
        assert!(PowerModel::from_json("not json").is_err());
    }

    #[test]
    fn offgrid_prediction_interpolates_between_levels() {
        let m = model();
        let u = Utilizations::from_values([0.3, 0.4, 0.0, 0.1, 0.2, 0.3, 0.4]).unwrap();
        // On-grid matches predict exactly.
        let on = FreqConfig::from_mhz(975, 3505);
        assert!((m.predict_offgrid(&u, on).unwrap() - m.predict(&u, on).unwrap()).abs() < 1e-12);
        // Off-grid lands between its bracketing levels.
        let lo = m.predict(&u, FreqConfig::from_mhz(595, 3505)).unwrap();
        let hi = m.predict(&u, on).unwrap();
        let mid = m
            .predict_offgrid(&u, FreqConfig::from_mhz(800, 3505))
            .unwrap();
        assert!(mid > lo && mid < hi, "{lo} < {mid} < {hi}");
        // Outside the grid clamps to the edge voltage but scales with f.
        let beyond = m
            .predict_offgrid(&u, FreqConfig::from_mhz(1300, 3505))
            .unwrap();
        let top = m.predict(&u, FreqConfig::from_mhz(1164, 3505)).unwrap();
        assert!(beyond > top);
    }

    #[test]
    fn bracket_clamps_and_interpolates() {
        let levels = [Mhz::new(500), Mhz::new(700), Mhz::new(1000)];
        assert_eq!(
            bracket(&levels, Mhz::new(400)),
            (Mhz::new(500), Mhz::new(500), 0.0)
        );
        assert_eq!(
            bracket(&levels, Mhz::new(1200)),
            (Mhz::new(1000), Mhz::new(1000), 0.0)
        );
        let (lo, hi, t) = bracket(&levels, Mhz::new(850));
        assert_eq!((lo, hi), (Mhz::new(700), Mhz::new(1000)));
        assert!((t - 0.5).abs() < 1e-12);
        // Exact levels hit the node.
        let (lo, hi, t) = bracket(&levels, Mhz::new(700));
        assert!(
            (lo == hi && t == 0.0)
                || (t == 1.0 && hi == Mhz::new(700))
                || (lo == Mhz::new(500) && hi == Mhz::new(700) && (t - 1.0).abs() < 1e-12),
            "{lo:?} {hi:?} {t}"
        );
    }

    #[test]
    fn prediction_intervals_bracket_the_point_estimate() {
        let m = model().with_residual_sigma(3.0);
        assert_eq!(m.residual_sigma_w(), 3.0);
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        let cfg = FreqConfig::from_mhz(975, 3505);
        let (lo, p, hi) = m.predict_interval(&u, cfg).unwrap();
        assert!((p - m.predict(&u, cfg).unwrap()).abs() < 1e-12);
        assert!((p - lo - 6.0).abs() < 1e-12);
        assert!((hi - p - 6.0).abs() < 1e-12);
        // Sigma-less models degenerate to a point.
        let (lo, p, hi) = model().predict_interval(&u, cfg).unwrap();
        assert_eq!(lo, p);
        assert_eq!(hi, p);
        // Negative sigma is clamped.
        assert_eq!(model().with_residual_sigma(-1.0).residual_sigma_w(), 0.0);
    }

    #[test]
    fn describe_lists_all_coefficients() {
        let m = model().with_residual_sigma(2.5);
        let d = m.describe();
        assert!(d.contains("GTX Titan X"));
        assert!(d.contains("beta0 = 15.00"));
        assert!(d.contains("omega[DP Unit] = 30.00"));
        assert!(d.contains("omega[DRAM] = 26.40"));
        assert!(d.contains("residual sigma: 2.50 W"));
        assert!(d.contains("core voltage span"));
    }
}
