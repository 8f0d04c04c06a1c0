//! The linear-in-frequency baseline of Abe et al. \[14\].
//!
//! The paper's headline claim is that prior DVFS power models assume
//! power scales *linearly* with each domain's frequency — GPUWattch
//! "assumes that the power consumption of a GPU domain always scales
//! linearly with its frequency" and Abe et al. \[14\] fit linear
//! regressions over a 3 x 3 frequency subset, reaching 15-23.5% error —
//! while the real voltage/frequency relationship bends the curve
//! (Figs. 2 and 6). [`LinearFreqModel`] reimplements that baseline so
//! the comparison can be reproduced.

use gpm_core::{ModelError, TrainingSet, Utilizations};
use gpm_json::impl_json;
use gpm_linalg::{ridge_lstsq, Matrix};
use gpm_spec::{Component, FreqConfig, Mhz};

/// Number of coefficients: intercept, core `(1 + 6)` and memory `(1 + 1)`.
const NUM_PARAMS: usize = 10;

/// Which training observations the baseline fits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineFitStrategy {
    /// 3 core x 3 memory frequency subset (max / middle / min), the
    /// protocol of Abe et al. \[14\]. Falls back to every available level
    /// when a domain has fewer than three.
    Subset3x3,
    /// Every configuration in the training set.
    AllConfigs,
}

impl_json!(
    enum BaselineFitStrategy {
        Subset3x3,
        AllConfigs,
    }
);

/// A linear-in-frequency power model (the Abe et al. \[14\] baseline):
///
/// ```text
/// P = c + fc·(a₀ + Σᵢ aᵢ·Uᵢ) + fm·(b₀ + b₁·U_dram)
/// ```
///
/// No voltage terms: the model cannot represent the superlinear power
/// rise in the high-frequency region, which is exactly why the paper's
/// DVFS-aware model beats it.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFreqModel {
    reference: FreqConfig,
    coefs: Vec<f64>,
}

impl_json!(struct LinearFreqModel { reference, coefs });

impl LinearFreqModel {
    /// Fits the baseline from a training set.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientTraining`] for unusable sets and
    /// propagates numerical failures.
    pub fn fit(training: &TrainingSet, strategy: BaselineFitStrategy) -> Result<Self, ModelError> {
        training.validate()?;
        let keep: Option<Vec<FreqConfig>> = match strategy {
            BaselineFitStrategy::AllConfigs => None,
            BaselineFitStrategy::Subset3x3 => {
                let configs = training.configs();
                let mut cores: Vec<Mhz> = configs.iter().map(|c| c.core).collect();
                cores.sort_unstable();
                cores.dedup();
                let mut mems: Vec<Mhz> = configs.iter().map(|c| c.mem).collect();
                mems.sort_unstable();
                mems.dedup();
                let pick3 = |v: &[Mhz]| -> Vec<Mhz> {
                    match v.len() {
                        0..=3 => v.to_vec(),
                        n => vec![v[0], v[n / 2], v[n - 1]],
                    }
                };
                let cores = pick3(&cores);
                let mems = pick3(&mems);
                Some(
                    configs
                        .into_iter()
                        .filter(|c| cores.contains(&c.core) && mems.contains(&c.mem))
                        .collect(),
                )
            }
        };

        let mut rows = Vec::new();
        let mut y = Vec::new();
        for s in &training.samples {
            for (&config, &watts) in &s.power_by_config {
                if let Some(keep) = &keep {
                    if !keep.contains(&config) {
                        continue;
                    }
                }
                rows.push(design_row(&s.utilizations, config).to_vec());
                y.push(watts);
            }
        }
        if rows.len() < NUM_PARAMS {
            return Err(ModelError::InsufficientTraining(
                "fewer observations than baseline coefficients",
            ));
        }
        // A tiny ridge keeps the fit defined when a component is unused
        // by every training kernel (its column is identically zero).
        let coefs = ridge_lstsq(&Matrix::from_rows(&rows)?, &y, 1e-8)?;
        Ok(LinearFreqModel {
            reference: training.reference,
            coefs,
        })
    }

    /// The reference configuration of the fit.
    pub fn reference(&self) -> FreqConfig {
        self.reference
    }

    /// Predicts total power (watts) at a configuration. Unlike the
    /// DVFS-aware model this never fails on unseen configurations — the
    /// linear form extrapolates everywhere (and that extrapolation is
    /// precisely its weakness).
    pub fn predict(&self, utilizations: &Utilizations, config: FreqConfig) -> f64 {
        design_row(utilizations, config)
            .iter()
            .zip(&self.coefs)
            .map(|(r, c)| r * c)
            .sum()
    }
}

fn design_row(u: &Utilizations, config: FreqConfig) -> [f64; NUM_PARAMS] {
    let fc = config.core.as_f64() / 1000.0;
    let fm = config.mem.as_f64() / 1000.0;
    let mut row = [0.0; NUM_PARAMS];
    row[0] = 1.0;
    row[1] = fc;
    for (j, comp) in Component::CORE.iter().enumerate() {
        row[2 + j] = fc * u.get(*comp);
    }
    row[8] = fm;
    row[9] = fm * u.get(Component::Dram);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::MicrobenchSample;
    use gpm_spec::devices;
    use std::collections::BTreeMap;

    /// A training set generated by an exactly linear power law — the
    /// baseline should fit it perfectly.
    fn linear_training() -> TrainingSet {
        let spec = devices::gtx_titan_x();
        let truth = [30.0, 25.0, 10.0, 20.0, 5.0, 8.0, 6.0, 7.0, 9.0, 22.0];
        let mut samples = Vec::new();
        for i in 0..12 {
            let t = i as f64 / 11.0;
            let u = Utilizations::from_values([
                0.5 * t,
                0.6 * (1.0 - t),
                0.0,
                0.2 * t,
                0.3 * (1.0 - t),
                0.4 * t,
                0.8 - 0.6 * t,
            ])
            .unwrap();
            let mut power_by_config = BTreeMap::new();
            for config in spec.vf_grid() {
                let row = design_row(&u, config);
                let p: f64 = row.iter().zip(&truth).map(|(r, c)| r * c).sum();
                power_by_config.insert(config, p);
            }
            samples.push(MicrobenchSample {
                name: format!("lin_{i}"),
                utilizations: u,
                power_by_config,
            });
        }
        TrainingSet {
            device: spec.clone(),
            reference: spec.default_config(),
            l2_bytes_per_cycle: 640.0,
            samples,
        }
    }

    #[test]
    fn fits_linear_data_exactly() {
        let training = linear_training();
        for strategy in [
            BaselineFitStrategy::Subset3x3,
            BaselineFitStrategy::AllConfigs,
        ] {
            let m = LinearFreqModel::fit(&training, strategy).unwrap();
            for s in &training.samples {
                for (&config, &watts) in &s.power_by_config {
                    let p = m.predict(&s.utilizations, config);
                    assert!((p - watts).abs() < 1e-6, "{config}: {p} vs {watts}");
                }
            }
        }
    }

    #[test]
    fn subset_strategy_uses_three_levels_per_domain() {
        // Indirect check: fitting on the subset still generalizes on
        // linear data, and the strategy does not error on devices with
        // fewer than three memory levels.
        let training = linear_training();
        assert!(LinearFreqModel::fit(&training, BaselineFitStrategy::Subset3x3).is_ok());
        let spec = devices::tesla_k40c();
        let mut t = linear_training();
        t.device = spec.clone();
        t.reference = spec.default_config();
        // Remap sample configs onto the K40c grid.
        for s in &mut t.samples {
            let u = s.utilizations;
            s.power_by_config = spec
                .vf_grid()
                .into_iter()
                .map(|c| {
                    let row = design_row(&u, c);
                    (c, row.iter().sum::<f64>() * 10.0)
                })
                .collect();
        }
        assert!(LinearFreqModel::fit(&t, BaselineFitStrategy::Subset3x3).is_ok());
    }

    #[test]
    fn prediction_is_linear_in_each_frequency() {
        let training = linear_training();
        let m = LinearFreqModel::fit(&training, BaselineFitStrategy::AllConfigs).unwrap();
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        let p1 = m.predict(&u, FreqConfig::from_mhz(600, 3505));
        let p2 = m.predict(&u, FreqConfig::from_mhz(800, 3505));
        let p3 = m.predict(&u, FreqConfig::from_mhz(1000, 3505));
        // Equal frequency steps give equal power steps.
        assert!(((p2 - p1) - (p3 - p2)).abs() < 1e-9);
    }

    #[test]
    fn rejects_insufficient_training() {
        let mut t = linear_training();
        t.samples.clear();
        assert!(LinearFreqModel::fit(&t, BaselineFitStrategy::AllConfigs).is_err());
    }
}
