//! Reproduces Figure 8: per-benchmark signed prediction error on the
//! GTX Titan X, one panel per memory frequency (all 16 core levels).
//!
//! Paper numbers to compare against: mean absolute errors of 5.4%
//! (4005 MHz), 4.8% (3505 MHz, the reference level), 5.1% (3300 MHz) and
//! 8.7% (810 MHz) — the error grows at the memory level furthest from
//! the reference configuration — for an overall 6.0%.

use gpm_bench::{collect_validation, fit_device, heading};
use gpm_linalg::stats;
use gpm_spec::{devices, FreqConfig};

fn main() {
    let spec = devices::gtx_titan_x();
    let fitted = fit_device(spec.clone());
    let data = collect_validation(&spec, spec.default_config());

    let mut overall_pred = Vec::new();
    let mut overall_meas = Vec::new();
    for &mem in spec.mem_freqs() {
        heading(&format!(
            "Figure 8 panel: fmem = {} ({} core levels)",
            mem,
            spec.core_freqs().len()
        ));
        let mut panel_pred = Vec::new();
        let mut panel_meas = Vec::new();
        println!("{:<10} {:>12}", "benchmark", "mean error");
        for ((name, profile), grid) in data.names.iter().zip(&data.profiles).zip(&data.grids) {
            let mut pred = Vec::new();
            let mut meas = Vec::new();
            for &core in spec.core_freqs() {
                let config = FreqConfig::new(core, mem);
                pred.push(fitted.model.predict(&profile.utilizations, config).unwrap());
                meas.push(grid[&config]);
            }
            println!("{:<10} {:>10.1}%", name, stats::mpe(&pred, &meas).unwrap());
            panel_pred.extend_from_slice(&pred);
            panel_meas.extend_from_slice(&meas);
        }
        println!(
            "Mean absolute error = {:.1}%",
            stats::mape(&panel_pred, &panel_meas).unwrap()
        );
        overall_pred.extend(panel_pred);
        overall_meas.extend(panel_meas);
    }
    println!(
        "\nOverall mean absolute error = {:.1}% (paper: 6.0%; per panel 5.4/4.8/5.1/8.7%)",
        stats::mape(&overall_pred, &overall_meas).unwrap()
    );
}
