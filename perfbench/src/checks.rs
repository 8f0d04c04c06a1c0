//! Independent checks of the program's outputs.
//!
//! Each check recomputes what it can from public inputs (the model's
//! published coefficients and voltage table, the simulator's runtimes)
//! or tests a property the method must have. None compares against a
//! stored copy of an earlier output. Every check returns `Err` with a
//! reason; the self-tests at the bottom feed each one a deliberately
//! broken input and require the rejection.

use gpm_core::{PowerModel, Utilizations};
use gpm_dvfs::ParetoPoint;
use gpm_spec::{Component, FreqConfig};
use std::cmp::Ordering;

pub type Check = Result<(), String>;

fn ghz(mhz: f64) -> f64 {
    mhz / 1000.0
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Eqs. 5-7 evaluated from the model's public coefficients and voltage
/// table: `P = β₀V̄c + V̄c²fc(β₁ + Σωᵢ Uᵢ) + β₂V̄m + V̄m²fm(β₃ + ω_dram U_dram)`,
/// frequencies in GHz.
pub fn eq5_power(model: &PowerModel, u: &Utilizations, config: FreqConfig) -> Result<f64, String> {
    let (vc, vm) = model
        .voltage_table()
        .voltages(config)
        .map_err(|e| format!("voltage table has no {config}: {e}"))?;
    let core = model.core_params();
    let mem = model.mem_params();
    let activity: f64 = Component::CORE
        .iter()
        .zip(&core.omegas)
        .map(|(c, w)| w * u.get(*c))
        .sum();
    let fc = ghz(config.core.as_f64());
    let fm = ghz(config.mem.as_f64());
    Ok(core.static_coef * vc
        + vc * vc * fc * (core.idle_dyn + activity)
        + mem.static_coef * vm
        + vm * vm * fm * (mem.idle_dyn + mem.omegas[0] * u.get(Component::Dram)))
}

/// A served Power reply against Eqs. 5-7, to 1e-9 relative.
pub fn power_reply(watts: f64, expected: f64) -> Check {
    if watts.is_finite() && rel_diff(watts, expected) <= 1e-9 {
        Ok(())
    } else {
        Err(format!("Power reply {watts} W, Eqs. 5-7 give {expected} W"))
    }
}

/// An Energy reply: its runtime is the simulator's at that
/// configuration and its energy is `power_w x time_s`.
pub fn energy_reply(joules: f64, time_s: f64, power_w: f64, sim_time_s: f64) -> Check {
    if rel_diff(time_s, sim_time_s) > 1e-12 {
        return Err(format!(
            "Energy time {time_s} s, simulator runs {sim_time_s} s"
        ));
    }
    if power_w.is_nan() || power_w <= 0.0 || rel_diff(joules, power_w * time_s) > 1e-12 {
        return Err(format!("Energy {joules} J != {power_w} W x {time_s} s"));
    }
    Ok(())
}

/// A Pareto reply: points on the grid at the simulator's runtimes, in
/// ascending runtime order, and mutually non-dominated: no point is at
/// least as fast and at most as costly as another and strictly better
/// in one of the two.
pub fn pareto_reply(
    points: &[ParetoPoint],
    sim_time_s: impl Fn(FreqConfig) -> Option<f64>,
) -> Check {
    if points.is_empty() {
        return Err("empty Pareto frontier".into());
    }
    for p in points {
        match sim_time_s(p.config) {
            None => return Err(format!("Pareto point {} is off the grid", p.config)),
            Some(t) if rel_diff(p.time_s, t) > 1e-12 => {
                return Err(format!(
                    "Pareto point {} at {} s, simulator runs {t} s",
                    p.config, p.time_s
                ))
            }
            Some(_) => {}
        }
    }
    for w in points.windows(2) {
        if !matches!(
            w[0].time_s.partial_cmp(&w[1].time_s),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            return Err(format!(
                "Pareto times not ascending: {} then {}",
                w[0].time_s, w[1].time_s
            ));
        }
    }
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            for (x, y) in [(a, b), (b, a)] {
                if dominates(x, y) {
                    return Err(format!(
                        "Pareto point {} ({} s, {} J) is dominated by {} ({} s, {} J)",
                        y.config,
                        y.time_s,
                        y.energy_j(),
                        x.config,
                        x.time_s,
                        x.energy_j()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn dominates(x: &ParetoPoint, y: &ParetoPoint) -> bool {
    x.time_s <= y.time_s
        && x.energy_j() <= y.energy_j()
        && (x.time_s < y.time_s || x.energy_j() < y.energy_j())
}

/// Points of a Pareto reply dominated by a point of the same runtime:
/// the defect of `gpm_dvfs::pareto_frontier`, which keeps every point of
/// a runtime tie whose energy improves on the points before it.
pub fn tie_dominated(points: &[ParetoPoint]) -> usize {
    points
        .iter()
        .filter(|p| {
            points
                .iter()
                .any(|q| q.time_s == p.time_s && q.energy_j() < p.energy_j())
        })
        .count()
}

/// Whether a reply that [`pareto_reply`] rejects has that defect and no
/// other: it holds tie-dominated points, and once they are dropped the
/// rest passes every check.
pub fn only_runtime_ties(
    points: &[ParetoPoint],
    sim_time_s: impl Fn(FreqConfig) -> Option<f64>,
) -> bool {
    let kept: Vec<ParetoPoint> = points
        .iter()
        .filter(|p| {
            !points
                .iter()
                .any(|q| q.time_s == p.time_s && q.energy_j() < p.energy_j())
        })
        .copied()
        .collect();
    kept.len() < points.len() && pareto_reply(&kept, sim_time_s).is_ok()
}

/// A BestConfig reply: a grid configuration whose `time_s` is the
/// simulator's runtime there.
pub fn best_config_reply(config: FreqConfig, time_s: f64, sim_time_s: Option<f64>) -> Check {
    match sim_time_s {
        None => Err(format!("BestConfig {config} is off the grid")),
        Some(t) if rel_diff(time_s, t) > 1e-12 => Err(format!(
            "BestConfig {config} at {time_s} s, simulator runs {t} s"
        )),
        Some(_) => Ok(()),
    }
}

/// V̄core is non-decreasing in core frequency at every memory clock
/// (Eq. 12), within 1e-9, and V̄ = 1 at the reference.
pub fn voltage_curves(model: &PowerModel) -> Check {
    let table = model.voltage_table();
    for &mem in model.spec().mem_freqs() {
        let curve = table.core_curve(mem);
        for w in curve.windows(2) {
            if w[1].1 < w[0].1 - 1e-9 {
                return Err(format!(
                    "V̄core dips from {} at {} to {} at {} (fmem {mem})",
                    w[0].1, w[0].0, w[1].1, w[1].0
                ));
            }
        }
    }
    let reference = model.reference();
    match table.voltages(reference) {
        Ok((vc, vm)) if vc == 1.0 && vm == 1.0 => Ok(()),
        Ok((vc, vm)) => Err(format!(
            "V̄ at the reference {reference} is ({vc}, {vm}), not 1"
        )),
        Err(e) => Err(format!(
            "reference {reference} missing from the voltage table: {e}"
        )),
    }
}

/// Mean absolute percentage error of predictions against ground truth.
pub fn mape_pct(predicted: &[f64], truth: &[f64]) -> f64 {
    let n = predicted.len().max(1) as f64;
    predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| ((p - t) / t).abs())
        .sum::<f64>()
        * 100.0
        / n
}

/// Held-out error against the hidden ground truth stays below the
/// paper's reported mean absolute error for that GPU.
pub fn truth_error(device: &str, mape_pct: f64, paper_pct: f64) -> Check {
    if mape_pct.is_finite() && mape_pct < paper_pct {
        Ok(())
    } else {
        Err(format!(
            "{device}: held-out truth error {mape_pct:.2}% >= paper's {paper_pct}%"
        ))
    }
}

/// Every epoch's power is at or under its cap (1e-9 relative slack for
/// the governor's running sum).
pub fn epochs_under_cap(epoch_power_w: &[f64], cap_w: f64) -> Check {
    match epoch_power_w
        .iter()
        .position(|&p| p.is_nan() || p > cap_w * (1.0 + 1e-9))
    {
        Some(i) => Err(format!(
            "epoch {i} draws {} W over its {cap_w} W cap",
            epoch_power_w[i]
        )),
        None => Ok(()),
    }
}

/// One capped campaign's totals, for the cap-monotonicity check.
#[derive(Debug, Clone, Copy)]
pub struct CapRow {
    pub cap_w: f64,
    pub energy_j: f64,
    pub shed: usize,
}

/// While no node is shed, total energy does not fall as the cap
/// tightens.
pub fn energy_monotone_in_cap(rows: &[CapRow]) -> Check {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| b.cap_w.total_cmp(&a.cap_w));
    for w in rows.windows(2) {
        let (loose, tight) = (w[0], w[1]);
        if loose.shed == 0 && tight.shed == 0 && tight.energy_j < loose.energy_j * (1.0 - 1e-12) {
            return Err(format!(
                "energy falls from {} J at cap {} W to {} J at tighter cap {} W",
                loose.energy_j, loose.cap_w, tight.energy_j, tight.cap_w
            ));
        }
    }
    Ok(())
}

/// Uncapped energy is at or below the all-reference baseline.
pub fn uncapped_saves(energy_j: f64, baseline_j: f64) -> Check {
    if energy_j <= baseline_j * (1.0 + 1e-12) {
        Ok(())
    } else {
        Err(format!(
            "uncapped energy {energy_j} J above the all-reference baseline {baseline_j} J"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::{DomainParams, VoltageTable};
    use gpm_spec::devices;

    fn model_with(entries: Vec<(FreqConfig, [f64; 2])>) -> PowerModel {
        let spec = devices::gtx_titan_x();
        let reference = spec.default_config();
        PowerModel::new(
            spec,
            DomainParams {
                static_coef: 15.0,
                idle_dyn: 20.0,
                omegas: vec![20.0, 5.0, 1.0, 2.0, 3.0, 4.0],
            },
            DomainParams {
                static_coef: 10.0,
                idle_dyn: 11.0,
                omegas: vec![26.0],
            },
            VoltageTable::new(reference, entries),
            600.0,
        )
    }

    /// A monotone table over the whole grid: V̄ rises with each clock.
    fn monotone_model() -> PowerModel {
        let spec = devices::gtx_titan_x();
        let reference = spec.default_config();
        let (rc, rm) = (reference.core.as_f64(), reference.mem.as_f64());
        model_with(
            spec.vf_grid()
                .into_iter()
                .map(|c| {
                    (
                        c,
                        [
                            0.5 + 0.5 * c.core.as_f64() / rc,
                            0.9 + 0.1 * c.mem.as_f64() / rm,
                        ],
                    )
                })
                .collect(),
        )
    }

    fn u() -> Utilizations {
        Utilizations::from_values([0.2, 0.6, 0.0, 0.1, 0.2, 0.3, 0.5]).unwrap()
    }

    #[test]
    fn eq5_matches_the_model_and_rejects_a_perturbed_power_reply() {
        let model = monotone_model();
        for config in model.spec().vf_grid() {
            let expected = eq5_power(&model, &u(), config).unwrap();
            let served = model.predict(&u(), config).unwrap();
            assert_eq!(power_reply(served, expected), Ok(()));
            assert!(power_reply(served * (1.0 + 1e-7), expected).is_err());
        }
        assert!(power_reply(f64::NAN, 100.0).is_err());
    }

    #[test]
    fn energy_check_rejects_wrong_runtime_or_product() {
        assert_eq!(energy_reply(2.0 * 0.5, 0.5, 2.0, 0.5), Ok(()));
        assert!(energy_reply(1.0, 0.5, 2.0, 0.5000001).is_err());
        assert!(energy_reply(1.1, 0.5, 2.0, 0.5).is_err());
    }

    fn point(core: u32, time_s: f64, power_w: f64) -> ParetoPoint {
        ParetoPoint {
            config: FreqConfig::from_mhz(core, 3505),
            time_s,
            power_w,
        }
    }

    #[test]
    fn pareto_check_rejects_a_dominated_point() {
        let on_grid = |c: FreqConfig| {
            Some(match c.core.as_f64() as u32 {
                1164 => 1.0,
                975 => 1.2,
                _ => 1.5,
            })
        };
        let good = [
            point(1164, 1.0, 100.0),
            point(975, 1.2, 80.0),
            point(595, 1.5, 60.0),
        ];
        assert_eq!(pareto_reply(&good, on_grid), Ok(()));
        // 975 MHz: slower and more energy (1.2 x 90 > 1.0 x 100) than 1164.
        let dominated = [point(1164, 1.0, 100.0), point(975, 1.2, 90.0)];
        assert!(pareto_reply(&dominated, on_grid).is_err());
        let descending = [point(975, 1.2, 80.0), point(1164, 1.0, 100.0)];
        assert!(pareto_reply(&descending, on_grid).is_err());
        assert!(
            pareto_reply(&good, |_| None).is_err(),
            "off-grid points are rejected"
        );
        assert!(
            pareto_reply(&good[..1], |_| Some(1.1)).is_err(),
            "runtime must match"
        );
        assert!(pareto_reply(&[], on_grid).is_err());
        assert_eq!(tie_dominated(&good), 0);
    }

    #[test]
    fn pareto_check_rejects_a_point_dominated_by_a_tie() {
        let same = |_: FreqConfig| Some(1.0);
        // Same runtime, less energy: the first point is dominated.
        let tied = [point(1164, 1.0, 100.0), point(975, 1.0, 90.0)];
        assert!(pareto_reply(&tied, same).is_err());
        assert_eq!(tie_dominated(&tied), 1);
        assert!(only_runtime_ties(&tied, same));

        // A tie plus a point dominated by a strictly faster one is more
        // than the known defect.
        let times = |c: FreqConfig| {
            Some(if c.core.as_f64() as u32 == 595 {
                1.5
            } else {
                1.0
            })
        };
        let worse = [
            point(1164, 1.0, 100.0),
            point(975, 1.0, 90.0),
            point(595, 1.5, 70.0),
        ];
        assert!(pareto_reply(&worse, times).is_err());
        assert!(!only_runtime_ties(&worse, times));
        // A clean reply does not carry the defect.
        let clean = [point(975, 1.0, 90.0), point(595, 1.5, 50.0)];
        assert_eq!(pareto_reply(&clean, times), Ok(()));
        assert!(!only_runtime_ties(&clean, times));
        // Tied points at the wrong runtime are not excused.
        assert!(!only_runtime_ties(&tied, |_| Some(1.1)));
    }

    #[test]
    fn best_config_check_needs_grid_and_runtime() {
        let c = FreqConfig::from_mhz(975, 3505);
        assert_eq!(best_config_reply(c, 0.25, Some(0.25)), Ok(()));
        assert!(best_config_reply(c, 0.25, Some(0.3)).is_err());
        assert!(best_config_reply(c, 0.25, None).is_err());
    }

    #[test]
    fn voltage_check_rejects_a_dipping_curve() {
        let model = monotone_model();
        assert_eq!(voltage_curves(&model), Ok(()));

        let spec = model.spec().clone();
        let mem = spec.default_config().mem;
        let mut cores = spec.core_freqs().to_vec();
        cores.sort_unstable();
        let mut entries: Vec<(FreqConfig, [f64; 2])> = model
            .voltage_table()
            .configs()
            .map(|c| (c, [model.voltage_table().voltages(c).unwrap().0, 1.0]))
            .collect();
        // Lower the second-lowest core level below the lowest one.
        let dip_at = FreqConfig::new(cores[1], mem);
        let below = model
            .voltage_table()
            .voltages(FreqConfig::new(cores[0], mem))
            .unwrap()
            .0;
        for e in &mut entries {
            if e.0 == dip_at {
                e.1[0] = below - 1e-6;
            }
        }
        assert!(voltage_curves(&model_with(entries.clone())).is_err());

        // A dip at the 1e-10 level (the pinned reference leaves these)
        // stays within tolerance.
        for e in &mut entries {
            if e.0 == dip_at {
                e.1[0] = below - 1e-10;
            }
        }
        assert_eq!(voltage_curves(&model_with(entries)), Ok(()));
    }

    #[test]
    fn truth_error_must_beat_the_paper() {
        assert_eq!(truth_error("gtx-titan-x", 5.9, 6.0), Ok(()));
        assert!(truth_error("gtx-titan-x", 6.0, 6.0).is_err());
        assert!(truth_error("gtx-titan-x", f64::NAN, 6.0).is_err());
        assert!((mape_pct(&[110.0, 90.0], &[100.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cap_check_rejects_an_epoch_over_its_cap() {
        assert_eq!(epochs_under_cap(&[90.0, 100.0], 100.0), Ok(()));
        assert!(epochs_under_cap(&[90.0, 100.001], 100.0).is_err());
        assert!(epochs_under_cap(&[f64::NAN], 100.0).is_err());
    }

    #[test]
    fn energy_check_rejects_a_drop_under_a_tighter_cap_without_shedding() {
        let row = |cap_w, energy_j, shed| CapRow {
            cap_w,
            energy_j,
            shed,
        };
        assert_eq!(
            energy_monotone_in_cap(&[row(100.0, 10.0, 0), row(90.0, 11.0, 0)]),
            Ok(())
        );
        assert!(energy_monotone_in_cap(&[row(100.0, 10.0, 0), row(90.0, 9.0, 0)]).is_err());
        // Shedding legitimately lowers energy.
        assert_eq!(
            energy_monotone_in_cap(&[row(100.0, 10.0, 0), row(90.0, 9.0, 3)]),
            Ok(())
        );
        assert_eq!(uncapped_saves(9.0, 10.0), Ok(()));
        assert!(uncapped_saves(10.5, 10.0).is_err());
    }
}
