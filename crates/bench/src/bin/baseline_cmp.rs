//! Reproduces the Section V/VI accuracy comparison: the DVFS-aware model
//! vs. the linear-in-frequency regression baseline of Abe et al. \[14\]
//! (fit on a 3 x 3 frequency subset, no voltage terms) on every device.
//!
//! Paper context: Abe et al. reported 15% / 14% / 23.5% errors on their
//! Tesla/Fermi/Kepler GPUs; the paper's model reaches 6.9% / 6.0% /
//! 12.4% on Pascal/Maxwell/Kepler. The shape to reproduce: the voltage-
//! aware model wins on every device, by the largest margin where the
//! frequency/voltage range is widest.

use gpm_bench::{collect_validation, fit_device, heading, validation_mape};
use gpm_core::baseline::{BaselineFitStrategy, LinearFreqModel, ScalingClusterModel};
use gpm_spec::devices;

fn main() {
    heading("Model vs linear-frequency baseline (Abe et al. [14] style)");
    println!(
        "{:<12} {:>14} {:>16} {:>16} {:>16}",
        "device", "DVFS-aware", "linear (3x3)", "linear (all)", "clusters (k=5)"
    );
    for spec in devices::all() {
        let fitted = fit_device(spec.clone());
        let base3 = LinearFreqModel::fit(&fitted.training, BaselineFitStrategy::Subset3x3).unwrap();
        let base_all =
            LinearFreqModel::fit(&fitted.training, BaselineFitStrategy::AllConfigs).unwrap();
        let clusters = ScalingClusterModel::fit(&fitted.training, 5).unwrap();
        let data = collect_validation(&spec, spec.default_config());
        println!(
            "{:<12} {:>13.1}% {:>15.1}% {:>15.1}% {:>15.1}%",
            spec.name(),
            validation_mape(&fitted.model, &data),
            data.report(|p, c| base3.predict(&p.utilizations, c))
                .mape()
                .unwrap(),
            data.report(|p, c| base_all.predict(&p.utilizations, c))
                .mape()
                .unwrap(),
            data.report(|p, c| clusters.predict(&p.utilizations, c).unwrap())
                .mape()
                .unwrap(),
        );
    }
    println!(
        "\n(paper: model 6.9/6.0/12.4%; Abe et al. reported 15/14/23.5% on their\n\
         Tesla/Fermi/Kepler devices; Wu et al. reported ~10% on their AMD GPU,\n\
         with accuracy \"highly dependent on... the number of clusters\")"
    );
}
