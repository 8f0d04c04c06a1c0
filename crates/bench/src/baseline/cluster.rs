//! A clustering baseline in the spirit of Wu et al. \[15\].
//!
//! Wu et al. "group GPU applications into distinct clusters based on
//! their characteristics, each representing a different
//! performance/power scaling" and classify new applications into a
//! cluster to predict how they scale. This module reimplements the power
//! half of that idea over our measurement substrate:
//!
//! 1. k-means over the training kernels' utilization vectors;
//! 2. per cluster, a *scaling surface* — the mean ratio of each
//!    configuration's power to the reference-configuration power — plus
//!    a linear regression for the reference power itself;
//! 3. prediction: nearest centroid → regressed reference power x the
//!    cluster's ratio at the requested configuration.
//!
//! The paper notes this family's weakness: "the model accuracy is highly
//! dependent on a set of fine-tuned parameters, such as the number of
//! clusters" — which the comparison benches demonstrate.

use gpm_core::{ModelError, TrainingSet, Utilizations};
use gpm_json::impl_json;
use gpm_linalg::{ridge_lstsq, Matrix};
use gpm_spec::FreqConfig;
use std::collections::BTreeMap;

/// Summary of one fitted cluster (for inspection/reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Centroid in utilization space ([`gpm_spec::Component::ALL`] order).
    pub centroid: [f64; 7],
    /// Number of training kernels assigned.
    pub members: usize,
    /// Mean power ratio at the configuration furthest from the reference
    /// (a quick scaling fingerprint).
    pub extreme_ratio: f64,
}

impl_json!(struct ClusterSummary { centroid, members, extreme_ratio });

#[derive(Debug, Clone, PartialEq)]
struct Cluster {
    centroid: [f64; 7],
    members: usize,
    /// Linear model for the reference power: `[w0..w6, intercept]`.
    ref_power_coefs: Vec<f64>,
    /// Mean `P(config) / P(reference)` over the cluster's members.
    ratios: BTreeMap<FreqConfig, f64>,
}

impl_json!(struct Cluster { centroid, members, ref_power_coefs, ratios });

/// The Wu-et-al.-style clustering baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingClusterModel {
    reference: FreqConfig,
    clusters: Vec<Cluster>,
}

impl_json!(struct ScalingClusterModel { reference, clusters });

impl ScalingClusterModel {
    /// Fits the baseline with `k` clusters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InsufficientTraining`] when `k` is zero,
    /// exceeds the number of samples, or samples lack the reference
    /// configuration; propagates regression failures.
    pub fn fit(training: &TrainingSet, k: usize) -> Result<Self, ModelError> {
        training.validate()?;
        if k == 0 || k > training.samples.len() {
            return Err(ModelError::InsufficientTraining(
                "cluster count must be in [1, number of samples]",
            ));
        }
        let reference = training.reference;
        let points: Vec<[f64; 7]> = training
            .samples
            .iter()
            .map(|s| s.utilizations.as_array())
            .collect();
        let assignment = kmeans(&points, k);

        let mut clusters = Vec::with_capacity(k);
        for c in 0..k {
            let members: Vec<usize> = (0..points.len()).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue; // empty clusters can occur; skip them
            }
            let centroid = centroid_of(&points, &members);

            // Reference-power regression over the members (ridge keeps it
            // defined for tiny clusters).
            let mut rows = Vec::new();
            let mut y = Vec::new();
            let mut ratios: BTreeMap<FreqConfig, (f64, usize)> = BTreeMap::new();
            for &i in &members {
                let s = &training.samples[i];
                let Some(&pref) = s.power_by_config.get(&reference) else {
                    return Err(ModelError::InsufficientTraining(
                        "a sample lacks the reference configuration",
                    ));
                };
                let mut row = s.utilizations.as_array().to_vec();
                row.push(1.0);
                rows.push(row);
                y.push(pref);
                for (&cfg, &watts) in &s.power_by_config {
                    let e = ratios.entry(cfg).or_insert((0.0, 0));
                    e.0 += watts / pref;
                    e.1 += 1;
                }
            }
            let ref_power_coefs = if rows.len() > 1 {
                ridge_lstsq(&Matrix::from_rows(&rows)?, &y, 1e-4)?
            } else {
                // Single member: constant prediction via the intercept.
                let mut c = vec![0.0; 8];
                c[7] = y[0];
                c
            };
            clusters.push(Cluster {
                centroid,
                members: members.len(),
                ref_power_coefs,
                ratios: ratios
                    .into_iter()
                    .map(|(cfg, (sum, n))| (cfg, sum / n as f64))
                    .collect(),
            });
        }
        if clusters.is_empty() {
            return Err(ModelError::InsufficientTraining("no non-empty clusters"));
        }
        Ok(ScalingClusterModel {
            reference,
            clusters,
        })
    }

    /// Number of (non-empty) clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Inspection summaries, in fit order.
    pub fn summaries(&self) -> Vec<ClusterSummary> {
        self.clusters
            .iter()
            .map(|c| ClusterSummary {
                centroid: c.centroid,
                members: c.members,
                extreme_ratio: c.ratios.values().cloned().fold(f64::INFINITY, f64::min),
            })
            .collect()
    }

    /// Predicts total power at a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownConfig`] when the nearest cluster has
    /// no ratio for the requested configuration.
    pub fn predict(
        &self,
        utilizations: &Utilizations,
        config: FreqConfig,
    ) -> Result<f64, ModelError> {
        let u = utilizations.as_array();
        let cluster = self
            .clusters
            .iter()
            .min_by(|a, b| {
                dist2(&a.centroid, &u)
                    .partial_cmp(&dist2(&b.centroid, &u))
                    .expect("distances are finite")
            })
            .expect("at least one cluster");
        let ratio = cluster
            .ratios
            .get(&config)
            .copied()
            .ok_or(ModelError::UnknownConfig(config))?;
        let mut pref = cluster.ref_power_coefs[7];
        for (coef, ui) in cluster.ref_power_coefs.iter().zip(&u) {
            pref += coef * ui;
        }
        Ok(pref.max(0.0) * ratio)
    }
}

fn dist2(a: &[f64; 7], b: &[f64; 7]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn centroid_of(points: &[[f64; 7]], members: &[usize]) -> [f64; 7] {
    let mut c = [0.0; 7];
    for &i in members {
        for d in 0..7 {
            c[d] += points[i][d];
        }
    }
    for v in c.iter_mut() {
        *v /= members.len() as f64;
    }
    c
}

/// Deterministic k-means: farthest-point initialization, Lloyd
/// iterations until assignments stabilize (or 50 rounds).
fn kmeans(points: &[[f64; 7]], k: usize) -> Vec<usize> {
    debug_assert!(k >= 1 && k <= points.len());
    // Farthest-point seeding from the first point.
    let mut centroids: Vec<[f64; 7]> = vec![points[0]];
    while centroids.len() < k {
        let next = (0..points.len())
            .max_by(|&a, &b| {
                let da = centroids
                    .iter()
                    .map(|c| dist2(c, &points[a]))
                    .fold(f64::INFINITY, f64::min);
                let db = centroids
                    .iter()
                    .map(|c| dist2(c, &points[b]))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).expect("distances are finite")
            })
            .expect("non-empty points");
        centroids.push(points[next]);
    }

    let mut assignment = vec![0usize; points.len()];
    for _ in 0..50 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    dist2(&centroids[a], p)
                        .partial_cmp(&dist2(&centroids[b], p))
                        .expect("distances are finite")
                })
                .expect("at least one centroid");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..points.len()).filter(|&i| assignment[i] == c).collect();
            if !members.is_empty() {
                *centroid = centroid_of(points, &members);
            }
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::MicrobenchSample;
    use gpm_spec::{devices, Component};

    /// Two sharply distinct behaviours: memory-bound kernels whose power
    /// tracks fmem, and compute-bound kernels whose power tracks fcore.
    fn bimodal_training() -> TrainingSet {
        let spec = devices::gtx_titan_x();
        let reference = spec.default_config();
        let mut samples = Vec::new();
        for i in 0..16 {
            let memory_bound = i % 2 == 0;
            let jitter = 0.02 * (i / 2) as f64;
            let u = if memory_bound {
                Utilizations::from_values([0.1, 0.1, 0.0, 0.0, 0.0, 0.4, 0.8 - jitter]).unwrap()
            } else {
                Utilizations::from_values([0.2, 0.8 - jitter, 0.0, 0.1, 0.2, 0.2, 0.05]).unwrap()
            };
            let mut power_by_config = std::collections::BTreeMap::new();
            for config in spec.vf_grid() {
                let fc = config.core.as_f64() / 1000.0;
                let fm = config.mem.as_f64() / 1000.0;
                let p = if memory_bound {
                    60.0 + 30.0 * fm + 10.0 * fc
                } else {
                    60.0 + 5.0 * fm + 80.0 * fc
                };
                power_by_config.insert(config, p * (1.0 + jitter));
            }
            samples.push(MicrobenchSample {
                name: format!("bi_{i}"),
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

    #[test]
    fn separates_the_two_behaviours() {
        let training = bimodal_training();
        let model = ScalingClusterModel::fit(&training, 2).unwrap();
        assert_eq!(model.cluster_count(), 2);
        let summaries = model.summaries();
        // One cluster's centroid is DRAM-heavy, the other SP-heavy.
        let dram_idx = Component::Dram.index();
        let sp_idx = Component::Sp.index();
        let dram_heavy = summaries.iter().any(|s| s.centroid[dram_idx] > 0.6);
        let sp_heavy = summaries.iter().any(|s| s.centroid[sp_idx] > 0.6);
        assert!(dram_heavy && sp_heavy, "{summaries:?}");
    }

    #[test]
    fn predicts_each_behaviour_with_its_own_scaling() {
        let training = bimodal_training();
        let model = ScalingClusterModel::fit(&training, 2).unwrap();
        let mem_app = Utilizations::from_values([0.1, 0.1, 0.0, 0.0, 0.0, 0.4, 0.75]).unwrap();
        let cpu_app = Utilizations::from_values([0.2, 0.75, 0.0, 0.1, 0.2, 0.2, 0.05]).unwrap();
        let hi = FreqConfig::from_mhz(975, 3505);
        let lo_mem = FreqConfig::from_mhz(975, 810);
        // Memory-bound app loses much more power at the low memory level.
        let mem_drop =
            1.0 - model.predict(&mem_app, lo_mem).unwrap() / model.predict(&mem_app, hi).unwrap();
        let cpu_drop =
            1.0 - model.predict(&cpu_app, lo_mem).unwrap() / model.predict(&cpu_app, hi).unwrap();
        assert!(
            mem_drop > cpu_drop + 0.1,
            "mem {mem_drop:.2} vs cpu {cpu_drop:.2}"
        );
    }

    #[test]
    fn single_cluster_reduces_to_global_scaling() {
        let training = bimodal_training();
        let model = ScalingClusterModel::fit(&training, 1).unwrap();
        assert_eq!(model.cluster_count(), 1);
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        assert!(model.predict(&u, training.reference).unwrap() > 0.0);
    }

    #[test]
    fn rejects_bad_cluster_counts_and_unknown_configs() {
        let training = bimodal_training();
        assert!(ScalingClusterModel::fit(&training, 0).is_err());
        assert!(ScalingClusterModel::fit(&training, 1000).is_err());
        let model = ScalingClusterModel::fit(&training, 2).unwrap();
        let u = Utilizations::from_values([0.3; 7]).unwrap();
        assert!(matches!(
            model.predict(&u, FreqConfig::from_mhz(1, 1)),
            Err(ModelError::UnknownConfig(_))
        ));
    }

    #[test]
    fn kmeans_is_deterministic_and_covers_all_points() {
        let pts: Vec<[f64; 7]> = (0..10)
            .map(|i| {
                let mut p = [0.0; 7];
                p[i % 7] = 1.0 + (i as f64) * 0.01;
                p
            })
            .collect();
        let a = kmeans(&pts, 3);
        let b = kmeans(&pts, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&c| c < 3));
    }

    #[test]
    fn serde_round_trip() {
        let training = bimodal_training();
        let model = ScalingClusterModel::fit(&training, 2).unwrap();
        let json = gpm_json::to_string(&model).unwrap();
        let back: ScalingClusterModel = gpm_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }
}
