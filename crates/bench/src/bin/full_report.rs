//! Regenerates the complete evaluation as one markdown report — the
//! one-command equivalent of running every `fig*`/`table*` binary and
//! collating their headlines (the structure of EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p gpm-bench --bin full_report > report.md`

use gpm_bench::{collect_validation, fit_device, FittedDevice, ValidationData, REPRO_SEED};
use gpm_core::baseline::{BaselineFitStrategy, LinearFreqModel, ScalingClusterModel};
use gpm_core::{cross_validate, AccuracyReport, EstimatorConfig};
use gpm_spec::{devices, DeviceSpec};

fn main() {
    println!("# DVFS-aware GPU power model — evaluation report\n");
    println!(
        "Generated by `full_report` (seed {REPRO_SEED}); reproduction of \
         Guerreiro et al., HPCA 2018.\n"
    );

    println!("## Headline accuracy (Fig. 7)\n");
    println!("| device | grid | iterations | train MAPE | validation MAPE | R² | worst app |");
    println!("|---|---|---|---|---|---|---|");
    let mut titan_x: Option<(DeviceSpec, FittedDevice, ValidationData, AccuracyReport)> = None;
    for spec in devices::all() {
        let fitted = fit_device(spec.clone());
        let data = collect_validation(&spec, spec.default_config());
        let report = data.report(|p, c| fitted.model.predict(&p.utilizations, c).unwrap());
        let (worst, worst_mape) = report.worst_label().unwrap();
        println!(
            "| {} | {}x{} | {} | {:.1}% | **{:.1}%** | {:.3} | {} ({:.1}%) |",
            spec.name(),
            spec.mem_freqs().len(),
            spec.core_freqs().len(),
            fitted.report.iterations,
            fitted.report.training_mape,
            report.mape().unwrap(),
            report.r_squared().unwrap(),
            worst,
            worst_mape
        );
        if spec.name() == "GTX Titan X" {
            titan_x = Some((spec, fitted, data, report));
        }
    }
    println!("\n(paper: 6.9% Titan Xp, 6.0% GTX Titan X, 12.4% Tesla K40c)\n");

    let (spec, fitted, data, report) = titan_x.expect("titan x evaluated");

    println!("## Error by memory level, GTX Titan X (Fig. 8)\n");
    println!("| fmem | MAPE |");
    println!("|---|---|");
    for (mem, mape) in report.per_memory_level().unwrap() {
        println!("| {} MHz | {:.1}% |", mem.as_u32(), mape);
    }
    println!("\n(paper: 5.4 / 4.8 / 5.1 / 8.7%, worst at the level furthest from the reference)\n");

    println!("## Voltage recovery, GTX Titan X (Fig. 6)\n");
    println!("| fcore | predicted V/Vref | true V/Vref |");
    println!("|---|---|---|");
    let reference = spec.default_config();
    for (f, v) in fitted.model.voltage_table().core_curve(reference.mem) {
        let truth = fitted
            .gpu
            .truth()
            .core_voltage
            .normalized_at(f, reference.core);
        println!("| {} | {:.3} | {:.3} |", f.as_u32(), v, truth);
    }

    println!("\n## Baselines, GTX Titan X (Section VI)\n");
    let base3 = LinearFreqModel::fit(&fitted.training, BaselineFitStrategy::Subset3x3).unwrap();
    let clusters = ScalingClusterModel::fit(&fitted.training, 5).unwrap();
    let b3 = data.report(|p, c| base3.predict(&p.utilizations, c));
    let bk = data.report(|p, c| clusters.predict(&p.utilizations, c).unwrap());
    println!("| model | validation MAPE |");
    println!("|---|---|");
    println!(
        "| DVFS-aware (this work) | **{:.1}%** |",
        report.mape().unwrap()
    );
    println!(
        "| linear-frequency, 3x3 fit (Abe et al.) | {:.1}% |",
        b3.mape().unwrap()
    );
    println!(
        "| utilization clusters, k=5 (Wu et al. style) | {:.1}% |",
        bk.mape().unwrap()
    );

    println!("\n## Cross-validation on the training suite\n");
    for k in [3usize, 5] {
        let cv = cross_validate(&fitted.training, &EstimatorConfig::default(), k).unwrap();
        println!("- {cv}");
    }

    println!("\n## Model summary\n");
    println!("```");
    print!("{}", fitted.model.describe());
    println!("```");
}
