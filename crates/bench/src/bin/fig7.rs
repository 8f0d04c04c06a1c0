//! Reproduces Figure 7: predicted vs. measured power for the validation
//! benchmarks at every V-F configuration, on all three devices.
//!
//! Paper numbers to compare against: mean absolute errors of 6.9%
//! (Titan Xp, 2 memory x 22 core levels), 6.0% (GTX Titan X, 4 x 16) and
//! 12.4% (Tesla K40c, 1 x 4), with power spanning roughly 40-248 W on
//! the GTX Titan X.

use gpm_bench::{collect_validation, fit_device, heading};
use gpm_linalg::stats;
use gpm_spec::devices;

fn main() {
    heading("Figure 7: power prediction for all V-F configurations (validation set)");
    for spec in devices::all() {
        let fitted = fit_device(spec.clone());
        let data = collect_validation(&spec, spec.default_config());

        let mut pred = Vec::new();
        let mut meas = Vec::new();
        let mut per_app: Vec<(String, f64)> = Vec::new();
        for ((name, profile), grid) in data.names.iter().zip(&data.profiles).zip(&data.grids) {
            let mut app_pred = Vec::new();
            let mut app_meas = Vec::new();
            for (&config, &watts) in grid {
                app_pred.push(fitted.model.predict(&profile.utilizations, config).unwrap());
                app_meas.push(watts);
            }
            per_app.push((name.clone(), stats::mape(&app_pred, &app_meas).unwrap()));
            pred.extend(app_pred);
            meas.extend(app_meas);
        }

        let lo = meas.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = meas.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "\n{:<12} mem x core levels: {} x {}   measured range {:.0}-{:.0} W",
            spec.name(),
            spec.mem_freqs().len(),
            spec.core_freqs().len(),
            lo,
            hi
        );
        println!(
            "  Mean absolute error = {:.1}%   (paper: 6.9% Xp / 6.0% Titan X / 12.4% K40c)",
            stats::mape(&pred, &meas).unwrap()
        );
        per_app.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let worst: Vec<String> = per_app
            .iter()
            .take(3)
            .map(|(n, e)| format!("{n} ({e:.1}%)"))
            .collect();
        println!("  Worst applications: {}", worst.join(", "));
    }
}
