//! The paper reproduction: every table, figure and study of Guerreiro et
//! al. (HPCA 2018) that this repository regenerates, one function per
//! section, in paper order.
//!
//! Each section writes its text into the buffer its caller passes.
//! [`report`] runs them all; the `repro` binary prints the result and
//! `REPRO.txt` at the repository root is its committed output. Sections
//! that score the fitted model share one `Paper`: the three paper GPUs,
//! each fitted once at [`REPRO_SEED`] with its validation data, which no
//! section mutates. Sections that take readings of their own (Figs. 2, 9
//! and 10, the extended-device check, sibling cards, thermal drift and
//! the reference-placement ablation) measure on a fresh device, so that
//! no section's readings depend on another's. Nothing here reads a clock
//! or the environment, and the pool under `cross_validate` gives the
//! same bytes at any thread count: the report depends only on the code.

use crate::baseline::{BaselineFitStrategy, LinearFreqModel, ScalingClusterModel};
use crate::joint::fit_joint;
use crate::{fit_device, FittedDevice, REPRO_SEED};
use gpm_core::{
    cross_validate, AccuracyReport, AppProfile, Estimator, EstimatorConfig, PowerModel,
    TrainingSet, Utilizations,
};
use gpm_linalg::stats;
use gpm_profiler::Profiler;
use gpm_sim::{SimulatedGpu, ThermalModel};
use gpm_spec::{devices, Component, DeviceSpec, EventTable, FreqConfig, Metric, Mhz};
use gpm_workloads::{gemm, microbenchmark_suite, power_virus, validation_suite, KernelDesc};
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Validation measurements of one device: each unseen application of the
/// validation suite, profiled at the reference configuration and
/// measured over the whole V-F grid. Index `i` of every field belongs
/// to the same application, in suite order.
struct ValidationData {
    /// Application names.
    names: Vec<String>,
    /// Reference profiles (the utilizations a prediction takes).
    profiles: Vec<AppProfile>,
    /// Measured power in watts at every configuration.
    grids: Vec<BTreeMap<FreqConfig, f64>>,
}

impl ValidationData {
    /// Scores `predict` (watts for an application's reference profile at
    /// a configuration) against every measurement, labelled by
    /// application, in application then configuration order.
    fn report(&self, mut predict: impl FnMut(&AppProfile, FreqConfig) -> f64) -> AccuracyReport {
        let mut report = AccuracyReport::new();
        for ((name, profile), grid) in self.names.iter().zip(&self.profiles).zip(&self.grids) {
            for (&config, &watts) in grid {
                report.add(name.as_str(), config, predict(profile, config), watts);
            }
        }
        report
    }
}

/// Measures the validation suite on a fresh instance of `spec`'s card:
/// seed `REPRO_SEED + 1000`, so its measurement noise is independent of
/// the training campaign's. Profiles are taken at `reference`, which
/// must be the reference of the model they feed (usually
/// `spec.default_config()`).
///
/// # Panics
///
/// Panics if `reference` is off the device's grid, or on any profiling
/// failure.
fn collect_validation(spec: &DeviceSpec, reference: FreqConfig) -> ValidationData {
    let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED + 1000);
    let mut profiler = Profiler::new(&mut gpu);
    profiler
        .set_reference(reference)
        .expect("validation reference is on the device grid");
    let mut data = ValidationData {
        names: Vec::new(),
        profiles: Vec::new(),
        grids: Vec::new(),
    };
    for app in validation_suite(spec) {
        data.names.push(app.name().to_string());
        data.profiles.push(
            profiler
                .profile_at_reference(&app)
                .expect("validation profile succeeds"),
        );
        data.grids.push(
            profiler
                .measure_power_grid(&app)
                .expect("validation grid measurement succeeds"),
        );
    }
    data
}

/// Validation MAPE (%) of `model` over every application and
/// configuration of `data`.
///
/// # Panics
///
/// Panics if `data` is empty or holds a configuration off the model's
/// grid.
fn validation_mape(model: &PowerModel, data: &ValidationData) -> f64 {
    data.report(|profile, config| {
        model
            .predict(&profile.utilizations, config)
            .expect("validation configurations are on the fitted grid")
    })
    .mape()
    .expect("validation set is not empty")
}

/// Renders a horizontal ASCII bar of `value` against `max`, `width`
/// characters wide.
fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize
    } else {
        0
    };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}
/// One paper GPU: fitted at [`REPRO_SEED`], with the validation suite
/// measured on a fresh card at the default reference.
struct PaperGpu {
    spec: DeviceSpec,
    /// The fitted device ([`fit_device`]).
    fitted: FittedDevice,
    /// Its validation data ([`collect_validation`]).
    validation: ValidationData,
}

/// The three paper GPUs that the sections share.
struct Paper {
    /// Titan Xp, GTX Titan X and Tesla K40c, in [`devices::all`] order.
    gpus: Vec<PaperGpu>,
}

impl Paper {
    /// Fits each paper GPU and collects its validation data.
    fn fit() -> Self {
        let gpus = devices::all()
            .into_iter()
            .map(|spec| PaperGpu {
                fitted: fit_device(spec.clone()),
                validation: collect_validation(&spec, spec.default_config()),
                spec,
            })
            .collect();
        Paper { gpus }
    }

    fn gpu(&self, name: &str) -> &PaperGpu {
        self.gpus
            .iter()
            .find(|g| g.spec.name() == name)
            .expect("a paper GPU")
    }

    fn titan_x(&self) -> &PaperGpu {
        self.gpu("GTX Titan X")
    }
}

/// Writes the whole report: a title line, then every section in paper
/// order.
///
/// # Errors
///
/// Only if writing into `out` fails, which a `String` never does.
///
/// # Panics
///
/// Panics on any pipeline failure.
pub fn report(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "gpm reproduction of Guerreiro et al., HPCA 2018, at REPRO_SEED = {REPRO_SEED}"
    )?;
    let paper = Paper::fit();
    table1(out)?;
    table2(out)?;
    table3(out)?;
    fig2(out)?;
    fig5(out, &paper)?;
    fig6(out, &paper)?;
    fig7(out, &paper)?;
    fig8(out, &paper)?;
    fig9(out, &paper)?;
    fig10(out, &paper)?;
    baselines(out, &paper)?;
    extended_devices(out)?;
    sibling_cards(out, &paper)?;
    thermal_drift(out, &paper)?;
    ablations(out, &paper)?;
    summary(out, &paper)
}

/// Writes a section heading in the report's style.
fn heading(out: &mut String, title: &str) -> fmt::Result {
    writeln!(out, "\n=== {title} ===")
}

/// Table I: performance events required to compute the model metrics,
/// per device.
fn table1(out: &mut String) -> fmt::Result {
    heading(out, "Table I: Performance events per metric and device")?;
    for dev in devices::all() {
        writeln!(out, "\n--- {} ({}) ---", dev.name(), dev.architecture())?;
        let table = EventTable::for_architecture(dev.architecture());
        for metric in Metric::ALL {
            let events: Vec<String> = table.events(metric).iter().map(|e| e.to_string()).collect();
            writeln!(out, "  {:<28} {}", metric.to_string(), events.join(", "))?;
        }
    }
    writeln!(
        out,
        "\nNumeric-ID prefixes (Table I footnote): 352321 (Titan Xp), \
         335544 (GTX Titan X), 318767 (Tesla K40c)."
    )
}

/// Table II: summarized description of the used GPUs.
fn table2(out: &mut String) -> fmt::Result {
    heading(out, "Table II: Summarized description of the used GPUs")?;
    let devs = devices::all();
    let mut row = |label: &str, f: &dyn Fn(&DeviceSpec) -> String| -> fmt::Result {
        write!(out, "{label:<28}")?;
        for d in &devs {
            write!(out, "  {:>18}", f(d))?;
        }
        writeln!(out)
    };
    row("", &|d| d.name().to_string())?;
    row("Base architecture", &|d| d.architecture().to_string())?;
    row("Compute capability", &|d| {
        let (ma, mi) = d.compute_capability();
        format!("{ma}.{mi}")
    })?;
    row("Memory frequencies (MHz)", &|d| {
        let v: Vec<String> = d
            .mem_freqs()
            .iter()
            .map(|f| f.as_u32().to_string())
            .collect();
        v.join("/")
    })?;
    row("Core freq. range (MHz)", &|d| {
        format!(
            "[{}:{}]",
            d.core_freqs().last().unwrap().as_u32(),
            d.core_freqs()[0].as_u32()
        )
    })?;
    row("Number of core freq levels", &|d| {
        d.core_freqs().len().to_string()
    })?;
    row("Default mem frequency", &|d| {
        d.default_config().mem.as_u32().to_string()
    })?;
    row("Default core frequency", &|d| {
        d.default_config().core.as_u32().to_string()
    })?;
    row("Threads per warp", &|d| d.warp_size().to_string())?;
    row("Number of SMs", &|d| d.num_sms().to_string())?;
    row("Memory bus width (B)", &|d| {
        d.mem_bus_bytes_per_cycle().to_string()
    })?;
    row("Shared mem. banks", &|d| d.shared_banks().to_string())?;
    row("SP/INT units per SM", &|d| {
        d.units_per_sm(Component::Sp).unwrap().to_string()
    })?;
    row("DP units per SM", &|d| {
        d.units_per_sm(Component::Dp).unwrap().to_string()
    })?;
    row("SF units per SM", &|d| {
        d.units_per_sm(Component::Sf).unwrap().to_string()
    })?;
    row("TDP (W)", &|d| format!("{:.0}", d.tdp_w()))?;
    row("Power sensor refresh (ms)", &|d| {
        format!("{:.0}", d.power_refresh_ms())
    })
}

/// Table III's suite attribution for each validation application.
const SUITES: [(&str, &[&str]); 4] = [
    (
        "Rodinia",
        &[
            "STCL", "BCKP", "LUD", "GAUSS", "HOTS", "K-M", "K-M_2", "PF_N", "PF_F", "SRAD_1",
            "SRAD_2",
        ],
    ),
    ("Parboil", &["CUTCP", "LBM"]),
    (
        "Polybench",
        &[
            "2MM", "3MM", "FDTD", "SYRK", "CORR", "GEMM", "GESUMV", "GRAMS", "SYRK_D", "3DCNV",
            "COVAR",
        ],
    ),
    ("CUDA SDK", &["BLCKSC", "CGUM"]),
];

/// Table III: the standard benchmarks that validate the model, with their
/// dominant components as executed on the GTX Titan X.
fn table3(out: &mut String) -> fmt::Result {
    heading(
        out,
        "Table III: Standard benchmarks used to validate the power model",
    )?;
    let spec = devices::gtx_titan_x();
    let gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
    let apps = validation_suite(&spec);
    let mut total = 0;
    for (suite, names) in SUITES {
        writeln!(out, "\n{suite}:")?;
        for name in names {
            let app = apps
                .iter()
                .find(|k| k.name() == *name)
                .unwrap_or_else(|| panic!("{name} present in validation suite"));
            let exec = gpu.execute(app);
            let (dom, u) = {
                let mut best = (Component::Int, 0.0);
                for c in Component::ALL {
                    if exec.utilization(c) > best.1 {
                        best = (c, exec.utilization(c));
                    }
                }
                best
            };
            writeln!(out, "  {name:<10} dominant: {dom} ({u:.2})")?;
            total += 1;
        }
    }
    assert_eq!(total, 26);
    writeln!(
        out,
        "\n{total} applications (paper: 26). The `matrixMulCUBLAS` size study is \
         in the Figure 9 section."
    )
}

/// Figure 2: DVFS impact on the power of BlackScholes and CUTCP on the
/// GTX Titan X: measured power across the core sweep at the default
/// (3505 MHz) and lowest (810 MHz) memory levels, plus the utilizations
/// at the reference. Measured on a fresh card at [`REPRO_SEED`].
///
/// Paper: BlackScholes 181 W at the default configuration, 52% lower
/// (87 W) at the low memory level; CUTCP 135 W, only 24% lower (102 W).
fn fig2(out: &mut String) -> fmt::Result {
    let spec = devices::gtx_titan_x();
    let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
    let apps = validation_suite(&spec);
    let mut profiler = Profiler::new(&mut gpu);

    for name in ["BLCKSC", "CUTCP"] {
        let app = apps.iter().find(|k| k.name() == name).unwrap();
        heading(
            out,
            &format!(
                "Figure 2{}: {name} on GTX Titan X",
                if name == "BLCKSC" { "A" } else { "B" }
            ),
        )?;

        let profile = profiler.profile_at_reference(app).unwrap();
        writeln!(out, "Utilizations at (975, 3505) MHz:")?;
        for (c, u) in profile.utilizations.iter() {
            if u >= 0.01 {
                writeln!(
                    out,
                    "  {:<14} {:>5.2} {}",
                    c.to_string(),
                    u,
                    bar(u, 1.0, 30)
                )?;
            }
        }

        writeln!(
            out,
            "\n{:>6}  {:>14}  {:>14}",
            "fcore", "P @ fmem=3505", "P @ fmem=810"
        )?;
        let mut at_default = 0.0;
        let mut at_low = 0.0;
        for &fcore in spec.core_freqs().iter().rev() {
            let hi = profiler
                .measure_power_at(app, FreqConfig::new(fcore, Mhz::new(3505)))
                .unwrap();
            let lo = profiler
                .measure_power_at(app, FreqConfig::new(fcore, Mhz::new(810)))
                .unwrap();
            writeln!(out, "{:>6}  {:>12.1} W  {:>12.1} W", fcore.as_u32(), hi, lo)?;
            if fcore == Mhz::new(975) {
                at_default = hi;
                at_low = lo;
            }
        }
        let drop = 100.0 * (1.0 - at_low / at_default);
        writeln!(
            out,
            "\nAt the default core frequency: {:.0} W -> {:.0} W when fmem drops \
             3505 -> 810 MHz ({drop:.0}% decrease).",
            at_default, at_low
        )?;
        let dram = profile.utilizations.get(Component::Dram);
        writeln!(
            out,
            "(paper: BlackScholes 181 W -> 87 W = 52%; CUTCP 135 W -> 102 W = 24%)"
        )?;
        writeln!(
            out,
            "DRAM utilization {dram:.2} explains the sensitivity difference."
        )?;
    }
    Ok(())
}

/// Figure 5: per-component utilizations of the 83 microbenchmarks (A)
/// and the fitted power breakdown against measured power (B), GTX Titan
/// X at the default configuration.
///
/// Paper: the constant part is ~84 W and the largest dynamic share ~49%,
/// in one of the MIX microbenchmarks.
fn fig5(out: &mut String, paper: &Paper) -> fmt::Result {
    let fitted = &paper.titan_x().fitted;
    let reference = fitted.training.reference;

    heading(
        out,
        "Figure 5A: per-component utilization of the 83 microbenchmarks",
    )?;
    writeln!(
        out,
        "{:<16} {:>5} {:>5} {:>5} {:>5} {:>6} {:>5} {:>5}",
        "kernel", "INT", "SP", "DP", "SF", "Shared", "L2", "DRAM"
    )?;
    for s in &fitted.training.samples {
        let u = &s.utilizations;
        writeln!(
            out,
            "{:<16} {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>6.2} {:>5.2} {:>5.2}",
            s.name,
            u.get(Component::Int),
            u.get(Component::Sp),
            u.get(Component::Dp),
            u.get(Component::Sf),
            u.get(Component::SharedMem),
            u.get(Component::L2Cache),
            u.get(Component::Dram),
        )?;
    }

    heading(
        out,
        "Figure 5B: fitted power breakdown vs measured at (975, 3505) MHz",
    )?;
    writeln!(
        out,
        "{:<16} {:>9} {:>9} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "kernel", "measured", "predicted", "const", "INT", "SP", "DP", "SF", "Shared", "L2", "DRAM"
    )?;
    let mut pred_all = Vec::new();
    let mut meas_all = Vec::new();
    let mut max_dyn = (0.0f64, String::new());
    for s in &fitted.training.samples {
        let measured = s.power_by_config[&reference];
        let b = fitted.model.breakdown(&s.utilizations, reference).unwrap();
        writeln!(
            out,
            "{:<16} {:>7.1} W {:>7.1} W | {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            s.name,
            measured,
            b.total(),
            b.constant(),
            b.component(Component::Int),
            b.component(Component::Sp),
            b.component(Component::Dp),
            b.component(Component::Sf),
            b.component(Component::SharedMem),
            b.component(Component::L2Cache),
            b.component(Component::Dram),
        )?;
        pred_all.push(b.total());
        meas_all.push(measured);
        if b.dynamic_fraction() > max_dyn.0 {
            max_dyn = (b.dynamic_fraction(), s.name.clone());
        }
    }

    let idle_breakdown = fitted
        .model
        .breakdown(&Utilizations::from_values([0.0; 7]).unwrap(), reference)
        .unwrap();
    writeln!(
        out,
        "\nConstant part at the reference configuration: {:.1} W (paper: ~84 W)",
        idle_breakdown.constant()
    )?;
    writeln!(
        out,
        "Maximum dynamic share: {:.0}% in {} (paper: ~49%, in a MIX kernel)",
        max_dyn.0 * 100.0,
        max_dyn.1
    )?;
    writeln!(
        out,
        "Suite MAPE at the reference configuration: {:.1}%",
        stats::mape(&pred_all, &meas_all).unwrap()
    )
}

/// Figure 6: predicted against true core voltage across the core range,
/// GTX Titan X (6a) and Titan Xp (6b). The paper read the true curve
/// with third-party tools; here it is the simulator's hidden ground
/// truth, which the estimator never saw.
///
/// Paper: a flat region at low frequencies, then a linear rise, and the
/// model finds the breaking point between them.
fn fig6(out: &mut String, paper: &Paper) -> fmt::Result {
    for gpu in [paper.titan_x(), paper.gpu("Titan Xp")] {
        let (spec, fitted) = (&gpu.spec, &gpu.fitted);
        let reference = spec.default_config();
        heading(
            out,
            &format!(
                "Figure 6: core voltage (normalized to V at {}), {}",
                reference.core,
                spec.name()
            ),
        )?;
        writeln!(
            out,
            "{:>7} {:>11} {:>11} {:>8}",
            "fcore", "predicted", "measured", "error"
        )?;
        let mut abs_err = Vec::new();
        for (f, v) in fitted.model.voltage_table().core_curve(reference.mem) {
            let truth = fitted
                .gpu
                .truth()
                .core_voltage
                .normalized_at(f, reference.core);
            writeln!(
                out,
                "{:>7} {:>11.3} {:>11.3} {:>7.1}%",
                f.as_u32(),
                v,
                truth,
                100.0 * (v - truth) / truth
            )?;
            abs_err.push(100.0 * ((v - truth) / truth).abs());
        }
        let mean: f64 = abs_err.iter().sum::<f64>() / abs_err.len() as f64;
        writeln!(out, "Mean absolute voltage error: {mean:.1}%")?;
        if let Some(break_f) = fitted.gpu.truth().core_voltage.break_frequency() {
            writeln!(out, "True breaking point between regions: {break_f}")?;
        }
    }
    Ok(())
}

/// Figure 7: predicted against measured power of the validation
/// applications at every V-F configuration, on all three devices.
///
/// Paper: mean absolute errors of 6.9% (Titan Xp), 6.0% (GTX Titan X)
/// and 12.4% (Tesla K40c).
fn fig7(out: &mut String, paper: &Paper) -> fmt::Result {
    heading(
        out,
        "Figure 7: power prediction for all V-F configurations (validation set)",
    )?;
    for gpu in &paper.gpus {
        let (spec, fitted, data) = (&gpu.spec, &gpu.fitted, &gpu.validation);
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
        writeln!(
            out,
            "\n{:<12} mem x core levels: {} x {}   measured range {:.0}-{:.0} W",
            spec.name(),
            spec.mem_freqs().len(),
            spec.core_freqs().len(),
            lo,
            hi
        )?;
        writeln!(
            out,
            "  Mean absolute error = {:.1}%   (paper: 6.9% Xp / 6.0% Titan X / 12.4% K40c)",
            stats::mape(&pred, &meas).unwrap()
        )?;
        per_app.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let worst: Vec<String> = per_app
            .iter()
            .take(3)
            .map(|(n, e)| format!("{n} ({e:.1}%)"))
            .collect();
        writeln!(out, "  Worst applications: {}", worst.join(", "))?;
    }
    Ok(())
}

/// Figure 8: signed prediction error per validation application on the
/// GTX Titan X, one panel per memory frequency.
///
/// Paper: 5.4% (4005 MHz), 4.8% (3505 MHz, the reference level), 5.1%
/// (3300 MHz) and 8.7% (810 MHz), 6.0% overall: the error grows at the
/// memory level furthest from the reference.
fn fig8(out: &mut String, paper: &Paper) -> fmt::Result {
    let gpu = paper.titan_x();
    let (spec, fitted, data) = (&gpu.spec, &gpu.fitted, &gpu.validation);

    let mut overall_pred = Vec::new();
    let mut overall_meas = Vec::new();
    for &mem in spec.mem_freqs() {
        heading(
            out,
            &format!(
                "Figure 8 panel: fmem = {} ({} core levels)",
                mem,
                spec.core_freqs().len()
            ),
        )?;
        let mut panel_pred = Vec::new();
        let mut panel_meas = Vec::new();
        writeln!(out, "{:<10} {:>12}", "benchmark", "mean error")?;
        for ((name, profile), grid) in data.names.iter().zip(&data.profiles).zip(&data.grids) {
            let mut pred = Vec::new();
            let mut meas = Vec::new();
            for &core in spec.core_freqs() {
                let config = FreqConfig::new(core, mem);
                pred.push(fitted.model.predict(&profile.utilizations, config).unwrap());
                meas.push(grid[&config]);
            }
            writeln!(
                out,
                "{:<10} {:>10.1}%",
                name,
                stats::mpe(&pred, &meas).unwrap()
            )?;
            panel_pred.extend_from_slice(&pred);
            panel_meas.extend_from_slice(&meas);
        }
        writeln!(
            out,
            "Mean absolute error = {:.1}%",
            stats::mape(&panel_pred, &panel_meas).unwrap()
        )?;
        overall_pred.extend(panel_pred);
        overall_meas.extend(panel_meas);
    }
    writeln!(
        out,
        "\nOverall mean absolute error = {:.1}% (paper: 6.0%; per panel 5.4/4.8/5.1/8.7%)",
        stats::mape(&overall_pred, &overall_meas).unwrap()
    )
}

/// Figure 9: input-size effects on `matrixMulCUBLAS`, GTX Titan X:
/// measured and predicted power across the core sweep at the default
/// memory level for 64², 512² and 4096² matrices, plus the TDP fallback
/// of the figure's footnote. Measured on a fresh card at
/// `REPRO_SEED + 1000`.
///
/// Paper: larger inputs raise the SP, L2 and DRAM utilizations and so
/// the power; the model tracks the rise at 6.8% average error; at
/// 1164 MHz the 4096² prediction exceeds TDP, so the closest level under
/// it (1126 MHz) is used.
fn fig9(out: &mut String, paper: &Paper) -> fmt::Result {
    let gpu = paper.titan_x();
    let (spec, fitted) = (&gpu.spec, &gpu.fitted);
    let mut card = SimulatedGpu::new(spec.clone(), REPRO_SEED + 1000);
    let mut profiler = Profiler::new(&mut card);
    let mem = Mhz::new(3505);

    let mut all_pred = Vec::new();
    let mut all_meas = Vec::new();
    for n in [64u32, 512, 4096] {
        let kernel = gemm(spec, n).unwrap();
        let profile = profiler.profile_at_reference(&kernel).unwrap();
        heading(out, &format!("Figure 9: matrixMulCUBLAS {n}x{n}"))?;
        writeln!(out, "Utilizations at the reference configuration:")?;
        for (c, u) in profile.utilizations.iter() {
            if u >= 0.02 {
                writeln!(out, "  {:<14} {:.2}", c.to_string(), u)?;
            }
        }
        writeln!(
            out,
            "\n{:>6} {:>11} {:>11}",
            "fcore", "measured", "predicted"
        )?;
        for &core in spec.core_freqs().iter().rev() {
            let config = FreqConfig::new(core, mem);
            let measured = profiler.measure_power_at(&kernel, config).unwrap();
            let predicted = fitted.model.predict(&profile.utilizations, config).unwrap();
            writeln!(
                out,
                "{:>6} {:>9.1} W {:>9.1} W",
                core.as_u32(),
                measured,
                predicted
            )?;
            all_pred.push(predicted);
            all_meas.push(measured);
        }
        // The Fig. 9 footnote: TDP-respecting fallback at the top level.
        let top = FreqConfig::new(spec.core_freqs()[0], mem);
        let raw = fitted.model.predict(&profile.utilizations, top).unwrap();
        let (used, clamped) = fitted
            .model
            .predict_with_tdp(&profile.utilizations, top)
            .unwrap();
        if used != top {
            writeln!(
                out,
                "TDP fallback: prediction at {} is {:.0} W > TDP {:.0} W; \
                 fell back to {} ({:.0} W).",
                top,
                raw,
                spec.tdp_w(),
                used,
                clamped
            )?;
        } else {
            writeln!(
                out,
                "No TDP violation at {top} ({raw:.0} W <= {:.0} W).",
                spec.tdp_w()
            )?;
        }
        writeln!(
            out,
            "SP utilization {:.2} (paper: rises to ~0.92 at 4096x4096)",
            profile.utilizations.get(Component::Sp)
        )?;
    }
    writeln!(
        out,
        "\nMean absolute error over the size study: {:.1}% (paper: 6.8%)",
        stats::mape(&all_pred, &all_meas).unwrap()
    )?;

    // Our calibrated GEMM stays under TDP, so the Fig. 9 footnote's
    // fallback is demonstrated with a saturating kernel instead.
    heading(out, "Fig. 9 footnote: TDP-respecting frequency fallback")?;
    let virus = power_virus(spec);
    let profile = profiler.profile_at_reference(&virus).unwrap();
    let top = FreqConfig::new(spec.core_freqs()[0], mem);
    let raw = fitted.model.predict(&profile.utilizations, top).unwrap();
    let (used, clamped) = fitted
        .model
        .predict_with_tdp(&profile.utilizations, top)
        .unwrap();
    writeln!(
        out,
        "power-virus prediction at {}: {:.0} W (TDP {:.0} W) -> model falls back to {} ({:.0} W)",
        top,
        raw,
        spec.tdp_w(),
        used,
        clamped
    )?;
    assert!(
        raw > spec.tdp_w(),
        "the virus must exceed TDP at the top level"
    );
    assert!(used.core < top.core && clamped <= spec.tdp_w());
    Ok(())
}

/// Figure 10: per-component power breakdown of the validation
/// applications (and the 4096² CUBLAS kernel) on the GTX Titan X at
/// (975, 3505) and (975, 810) MHz. Measured on a fresh card at
/// `REPRO_SEED + 1000`.
///
/// Paper: 5.2% error at the high memory level and 8.8% at the low one;
/// the constant part is ~80 W and ~50 W; the DRAM component shrinks
/// sharply at the low memory level while the others barely move.
fn fig10(out: &mut String, paper: &Paper) -> fmt::Result {
    let gpu = paper.titan_x();
    let (spec, fitted) = (&gpu.spec, &gpu.fitted);
    let mut card = SimulatedGpu::new(spec.clone(), REPRO_SEED + 1000);
    let mut profiler = Profiler::new(&mut card);
    // Fig. 10 includes the CUBLAS column alongside the 26 applications.
    let mut apps: Vec<KernelDesc> = validation_suite(spec);
    apps.push(gemm(spec, 4096).unwrap());

    for config in [
        FreqConfig::from_mhz(975, 3505),
        FreqConfig::from_mhz(975, 810),
    ] {
        heading(out, &format!("Figure 10: power breakdown at {config}"))?;
        writeln!(
            out,
            "{:<10} {:>9} {:>9} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "app",
            "measured",
            "predicted",
            "const",
            "INT",
            "SP",
            "DP",
            "SF",
            "Shared",
            "L2",
            "DRAM"
        )?;
        let mut pred = Vec::new();
        let mut meas = Vec::new();
        let mut dram_total = 0.0;
        for app in &apps {
            let profile = profiler.profile_at_reference(app).unwrap();
            let measured = profiler.measure_power_at(app, config).unwrap();
            let b = fitted
                .model
                .breakdown(&profile.utilizations, config)
                .unwrap();
            writeln!(
                out,
                "{:<10} {:>7.1} W {:>7.1} W | {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                app.name(),
                measured,
                b.total(),
                b.constant(),
                b.component(Component::Int),
                b.component(Component::Sp),
                b.component(Component::Dp),
                b.component(Component::Sf),
                b.component(Component::SharedMem),
                b.component(Component::L2Cache),
                b.component(Component::Dram),
            )?;
            pred.push(b.total());
            meas.push(measured);
            dram_total += b.component(Component::Dram);
        }
        let constant = fitted
            .model
            .breakdown(&Utilizations::from_values([0.0; 7]).unwrap(), config)
            .unwrap()
            .constant();
        writeln!(
            out,
            "\nMean absolute error = {:.1}% (paper: 5.2% high-mem / 8.8% low-mem)",
            stats::mape(&pred, &meas).unwrap()
        )?;
        writeln!(
            out,
            "Constant part = {constant:.0} W (paper: ~80 W high-mem / ~50 W low-mem); \
             mean DRAM component = {:.1} W",
            dram_total / apps.len() as f64
        )?;
    }
    Ok(())
}

/// The Section V/VI comparison: the DVFS-aware model against the
/// linear-in-frequency baseline of Abe et al. \[14\] (3 x 3 subset and all
/// configurations) and utilization clusters in the style of Wu et al.
/// \[15\], on every paper GPU.
///
/// Paper: Abe et al. reported 15 / 14 / 23.5% on their Tesla / Fermi /
/// Kepler GPUs, against the model's 6.9 / 6.0 / 12.4%; the voltage-aware
/// model should win on every device.
fn baselines(out: &mut String, paper: &Paper) -> fmt::Result {
    heading(
        out,
        "Model vs linear-frequency baseline (Abe et al. [14] style)",
    )?;
    writeln!(
        out,
        "{:<12} {:>14} {:>16} {:>16} {:>16}",
        "device", "DVFS-aware", "linear (3x3)", "linear (all)", "clusters (k=5)"
    )?;
    for gpu in &paper.gpus {
        let (fitted, data) = (&gpu.fitted, &gpu.validation);
        let base3 = LinearFreqModel::fit(&fitted.training, BaselineFitStrategy::Subset3x3).unwrap();
        let base_all =
            LinearFreqModel::fit(&fitted.training, BaselineFitStrategy::AllConfigs).unwrap();
        let clusters = ScalingClusterModel::fit(&fitted.training, 5).unwrap();
        writeln!(
            out,
            "{:<12} {:>13.1}% {:>15.1}% {:>15.1}% {:>15.1}%",
            gpu.spec.name(),
            validation_mape(&fitted.model, data),
            data.report(|p, c| base3.predict(&p.utilizations, c))
                .mape()
                .unwrap(),
            data.report(|p, c| base_all.predict(&p.utilizations, c))
                .mape()
                .unwrap(),
            data.report(|p, c| clusters.predict(&p.utilizations, c).unwrap())
                .mape()
                .unwrap(),
        )?;
    }
    writeln!(
        out,
        "\n(paper: model 6.9/6.0/12.4%; Abe et al. reported 15/14/23.5% on their\n\
         Tesla/Fermi/Kepler devices; Wu et al. reported ~10% on their AMD GPU,\n\
         with accuracy \"highly dependent on... the number of clusters\")"
    )
}

/// The whole pipeline on every device of [`devices::extended`] (the
/// paper GPUs and the GTX 980): campaign, default fit, the 26
/// validation applications measured on the training card after its
/// campaign, the 3 x 3 linear baseline, and the fitted core voltage's
/// mean relative error against the hidden truth.
fn extended_devices(out: &mut String) -> fmt::Result {
    heading(
        out,
        "Extended devices: validation and voltage error on every device class",
    )?;
    for spec in devices::extended() {
        let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        let suite = microbenchmark_suite(&spec);
        let mut profiler = Profiler::new(&mut gpu);
        let training = profiler.profile_suite(&suite).unwrap();
        let (model, report) = Estimator::new().fit_with_report(&training).unwrap();
        let baseline = LinearFreqModel::fit(&training, BaselineFitStrategy::Subset3x3).unwrap();

        let apps = validation_suite(&spec);
        let (mut pred, mut base, mut meas) = (Vec::new(), Vec::new(), Vec::new());
        for app in &apps {
            let profile = profiler.profile_at_reference(app).unwrap();
            let grid = profiler.measure_power_grid(app).unwrap();
            for (cfg, watts) in grid {
                pred.push(model.predict(&profile.utilizations, cfg).unwrap());
                base.push(baseline.predict(&profile.utilizations, cfg));
                meas.push(watts);
            }
        }
        let mape = stats::mape(&pred, &meas).unwrap();
        let bmape = stats::mape(&base, &meas).unwrap();
        writeln!(
            out,
            "{:<12} iters={} conv={} trainMAPE={:.2}% valMAPE={:.2}% baseline={:.2}%",
            spec.name(),
            report.iterations,
            report.converged,
            report.training_mape,
            mape,
            bmape,
        )?;
        let truth = gpu.truth();
        let reference = spec.default_config();
        let curve = model.voltage_table().core_curve(reference.mem);
        let verr: f64 = curve
            .iter()
            .map(|&(f, v)| {
                let tv = truth.core_voltage.normalized_at(f, reference.core);
                (v - tv).abs() / tv
            })
            .sum::<f64>()
            / curve.len() as f64;
        writeln!(out, "             mean |Vbar err| = {:.3}", verr)?;
    }
    Ok(())
}

/// Model portability (use case 1 of Section V-B, at scale): k-fold
/// cross-validation on the GTX Titan X's training card, then its model
/// applied to sibling cards, each a fresh card whose seed gives it a
/// ±3% physics jitter.
fn sibling_cards(out: &mut String, paper: &Paper) -> fmt::Result {
    let gpu = paper.titan_x();
    let (spec, fitted) = (&gpu.spec, &gpu.fitted);

    heading(
        out,
        "Cross-validation on the training card (no extra hardware)",
    )?;
    for k in [3usize, 5] {
        let report = cross_validate(&fitted.training, &EstimatorConfig::default(), k).unwrap();
        writeln!(out, "  {report}")?;
    }

    heading(
        out,
        "Same model applied to sibling cards (seeded physics jitter)",
    )?;
    writeln!(
        out,
        "{:>6} {:>12} {:>14}",
        "card", "val. MAPE", "vs own card"
    )?;
    let mut own_card_mape = None;
    for card_seed in [REPRO_SEED, 7, 99, 1234, 777] {
        let mut card = SimulatedGpu::new(spec.clone(), card_seed);
        let mut profiler = Profiler::with_repeats(&mut card, 3);
        let mut report = AccuracyReport::new();
        for app in validation_suite(spec).iter().take(12) {
            let profile = profiler.profile_at_reference(app).unwrap();
            for (config, watts) in profiler.measure_power_grid(app).unwrap() {
                let p = fitted.model.predict(&profile.utilizations, config).unwrap();
                report.add(app.name(), config, p, watts);
            }
        }
        let mape = report.mape().unwrap();
        let own = *own_card_mape.get_or_insert(mape);
        writeln!(
            out,
            "{:>6} {:>11.1}% {:>+13.1}pp{}",
            card_seed,
            mape,
            mape - own,
            if card_seed == REPRO_SEED {
                "  (training card)"
            } else {
                ""
            }
        )?;
    }
    writeln!(
        out,
        "\nThe exported model degrades only modestly on sibling cards — the\n\
         use-case-1 deployment (sensor-less cards, virtualized guests) is viable."
    )
}

/// Validation MAPE of `model` over the first 12 validation applications,
/// measured on a fresh card at `REPRO_SEED + 1000` with the thermal
/// model on or off.
fn thermal_validation_mape(spec: &DeviceSpec, model: &PowerModel, thermal: bool) -> f64 {
    let mut gpu = SimulatedGpu::new(spec.clone(), REPRO_SEED + 1000);
    if thermal {
        gpu.set_thermal_model(Some(ThermalModel::default()));
    }
    let mut profiler = Profiler::new(&mut gpu);
    let mut report = AccuracyReport::new();
    for app in validation_suite(spec).iter().take(12) {
        let profile = profiler.profile_at_reference(app).unwrap();
        for (config, watts) in profiler.measure_power_grid(app).unwrap() {
            report.add(
                app.name(),
                config,
                model.predict(&profile.utilizations, config).unwrap(),
                watts,
            );
        }
    }
    report.mape().unwrap()
}

/// Thermal drift (a substrate extension, not a paper figure): the GTX
/// Titan X's model trained and validated with the simulator's RC thermal
/// model on or off, so that leakage drifts as the card warms. The warm
/// model is trained on a fresh card at [`REPRO_SEED`]; the cold one is
/// the shared fit.
fn thermal_drift(out: &mut String, paper: &Paper) -> fmt::Result {
    let gpu = paper.titan_x();
    let spec = &gpu.spec;
    heading(
        out,
        "Thermal-drift robustness (GTX Titan X, 12 validation apps)",
    )?;
    let cold_model = &gpu.fitted.model;
    let warm_model = {
        let mut card = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        card.set_thermal_model(Some(ThermalModel::default()));
        let training = Profiler::new(&mut card)
            .profile_suite(&microbenchmark_suite(spec))
            .unwrap();
        Estimator::new().fit(&training).unwrap()
    };
    writeln!(
        out,
        "{:<34} {:>10}",
        "train thermal / validate thermal", "val. MAPE"
    )?;
    for (label, model, thermal) in [
        ("off / off (paper setting)", cold_model, false),
        ("off / on  (deployment drifts)", cold_model, true),
        ("on  / on  (matched conditions)", &warm_model, true),
        ("on  / off (over-hot training)", &warm_model, false),
    ] {
        writeln!(
            out,
            "{label:<34} {:>9.1}%",
            thermal_validation_mape(spec, model, thermal)
        )?;
    }
    writeln!(
        out,
        "\nThe leakage drift is a few percent of total power; the campaign's\n\
         long averaging windows fold it into the constant term, so the model\n\
         degrades only mildly under mismatched thermal conditions."
    )
}

fn fit_variant(training: &TrainingSet, config: EstimatorConfig) -> PowerModel {
    Estimator::with_config(config).fit(training).unwrap()
}

/// Ablations of the design choices in DESIGN.md, on the GTX Titan X
/// (the widest V-F grid) against its 26 validation applications:
///
/// 1. non-negative least squares vs. plain ridge regression;
/// 2. voltage estimation vs. the constant-voltage (`V̄ ≡ 1`) model;
/// 3. the Eq. 12 monotonicity (isotonic) projection on/off;
/// 4. training-suite size (stratified subsets of the 83
///    microbenchmarks);
/// 5. error against distance from the reference configuration, and (5b)
///    refits at other references, each campaign on a fresh card;
/// 6. the absolute vs. relative error objective;
/// 7. the alternating heuristic vs. the joint Levenberg–Marquardt solve.
fn ablations(out: &mut String, paper: &Paper) -> fmt::Result {
    let gpu = paper.titan_x();
    let (spec, fitted, data) = (&gpu.spec, &gpu.fitted, &gpu.validation);
    let default_mape = validation_mape(&fitted.model, data);

    heading(out, "Ablation 1: NNLS vs plain ridge least squares")?;
    let ridge_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            nonnegative: false,
            ..EstimatorConfig::default()
        },
    );
    writeln!(out, "  NNLS (default):      {default_mape:.2}%")?;
    writeln!(
        out,
        "  ridge (unconstrained): {:.2}%",
        validation_mape(&ridge_model, data)
    )?;
    let negs = ridge_model
        .core_params()
        .omegas
        .iter()
        .filter(|&&w| w < 0.0)
        .count();
    writeln!(
        out,
        "  unconstrained fit produced {negs} negative core coefficients"
    )?;

    heading(
        out,
        "Ablation 2: voltage estimation vs constant voltage (V = 1)",
    )?;
    let flat_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            estimate_voltages: false,
            ..EstimatorConfig::default()
        },
    );
    writeln!(out, "  DVFS-aware (default):   {default_mape:.2}%")?;
    writeln!(
        out,
        "  constant-voltage:       {:.2}%",
        validation_mape(&flat_model, data)
    )?;

    heading(out, "Ablation 3: Eq. 12 monotonicity projection on/off")?;
    let free_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            enforce_monotonic_voltage: false,
            ..EstimatorConfig::default()
        },
    );
    writeln!(out, "  isotonic (default):     {default_mape:.2}%")?;
    writeln!(
        out,
        "  unconstrained voltages: {:.2}%",
        validation_mape(&free_model, data)
    )?;
    let curve = free_model
        .voltage_table()
        .core_curve(spec.default_config().mem);
    let violations = curve.windows(2).filter(|w| w[0].1 > w[1].1 + 1e-9).count();
    writeln!(
        out,
        "  unconstrained voltage curve has {violations} monotonicity violations"
    )?;

    heading(out, "Ablation 4: training-suite size")?;
    for keep in [12usize, 21, 28, 42, 83] {
        // Stratified subset: every k-th sample keeps the category mix.
        let stride = fitted.training.samples.len().div_ceil(keep);
        let mut subset = fitted.training.clone();
        subset.samples = fitted
            .training
            .samples
            .iter()
            .step_by(stride.max(1))
            .cloned()
            .collect();
        match Estimator::new().fit(&subset) {
            Ok(model) => writeln!(
                out,
                "  {:>2} microbenchmarks -> validation MAPE {:.2}%",
                subset.samples.len(),
                validation_mape(&model, data)
            )?,
            Err(e) => writeln!(
                out,
                "  {:>2} microbenchmarks -> fit failed: {e}",
                subset.samples.len()
            )?,
        }
    }

    heading(
        out,
        "Ablation 5: error vs distance from the reference configuration",
    )?;
    let reference = spec.default_config();
    let mut bins: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (profile, grid) in data.profiles.iter().zip(&data.grids) {
        for (&config, &watts) in grid {
            let dist = config.core.as_u32().abs_diff(reference.core.as_u32()) / 100;
            let entry = bins.entry(dist).or_default();
            entry
                .0
                .push(fitted.model.predict(&profile.utilizations, config).unwrap());
            entry.1.push(watts);
        }
    }
    for (bin, (pred, meas)) in bins {
        writeln!(
            out,
            "  |fcore - ref| in [{:>4}, {:>4}) MHz -> MAPE {:.2}%  ({} points)",
            bin * 100,
            (bin + 1) * 100,
            stats::mape(&pred, &meas).unwrap(),
            pred.len()
        )?;
    }

    heading(
        out,
        "Ablation 5b: refitting with a different reference configuration",
    )?;
    for reference in [
        FreqConfig::from_mhz(975, 3505),  // device default (paper)
        FreqConfig::from_mhz(1164, 4005), // fast corner
        FreqConfig::from_mhz(595, 810),   // slow corner
    ] {
        let mut card = SimulatedGpu::new(spec.clone(), REPRO_SEED);
        let mut profiler = Profiler::new(&mut card);
        profiler.set_reference(reference).unwrap();
        let training = profiler.profile_suite(&microbenchmark_suite(spec)).unwrap();
        let model = Estimator::new().fit(&training).unwrap();
        // Validation profiles must come from the same reference; the
        // study scores the first 12 applications.
        let mut data = collect_validation(spec, reference);
        data.names.truncate(12);
        data.profiles.truncate(12);
        data.grids.truncate(12);
        writeln!(
            out,
            "  reference {reference} -> validation MAPE {:.2}%",
            validation_mape(&model, &data)
        )?;
    }

    heading(
        out,
        "Ablation 6: absolute vs relative (percentage) error objective",
    )?;
    let rel_model = fit_variant(
        &fitted.training,
        EstimatorConfig {
            relative_error: true,
            ..EstimatorConfig::default()
        },
    );
    writeln!(out, "  absolute watts (paper):  {default_mape:.2}%")?;
    writeln!(
        out,
        "  relative (1/P weighted): {:.2}%",
        validation_mape(&rel_model, data)
    )?;

    heading(
        out,
        "Ablation 7: alternating heuristic vs joint Levenberg-Marquardt",
    )?;
    let (joint_model, joint_report) = fit_joint(&fitted.training).unwrap();
    writeln!(
        out,
        "  alternating (paper): val MAPE {default_mape:.2}%  (train {:.2}%)",
        fitted.report.training_mape
    )?;
    writeln!(
        out,
        "  joint LM:            val MAPE {:.2}%  (train {:.2}%, {} iterations)",
        validation_mape(&joint_model, data),
        joint_report.training_mape,
        joint_report.iterations,
    )
}

/// The closing summary: per paper GPU, the fit's iterations and training
/// MAPE beside the validation MAPE, R² and worst application, then the
/// GTX Titan X's fitted model.
fn summary(out: &mut String, paper: &Paper) -> fmt::Result {
    heading(out, "Summary: headline accuracy (Fig. 7)")?;
    writeln!(
        out,
        "| device | grid | iterations | train MAPE | validation MAPE | R² | worst app |"
    )?;
    writeln!(out, "|---|---|---|---|---|---|---|")?;
    for gpu in &paper.gpus {
        let (spec, fitted) = (&gpu.spec, &gpu.fitted);
        let report = gpu
            .validation
            .report(|p, c| fitted.model.predict(&p.utilizations, c).unwrap());
        let (worst, worst_mape) = report.worst_label().unwrap();
        writeln!(
            out,
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
        )?;
    }
    writeln!(
        out,
        "\n(paper: 6.9% Titan Xp, 6.0% GTX Titan X, 12.4% Tesla K40c)"
    )?;

    heading(out, "Summary: GTX Titan X model")?;
    writeln!(out, "```")?;
    write!(out, "{}", paper.titan_x().fitted.model.describe())?;
    writeln!(out, "```")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.0, 1.0, 4), "....");
        assert_eq!(bar(0.5, 1.0, 4), "##..");
        assert_eq!(bar(2.0, 1.0, 4), "####");
        assert_eq!(bar(1.0, 0.0, 3), "...");
    }

    #[test]
    fn table2_rows_split_into_a_label_and_three_cells() {
        let mut out = String::new();
        table2(&mut out).unwrap();
        // After the heading, each row is a 28-column label, then cells
        // that runs of at least two spaces separate.
        let rows: Vec<(&str, Vec<&str>)> = out
            .lines()
            .skip(2)
            .map(|line| {
                let (label, cells) = line.split_at(28);
                let cells = cells
                    .split("  ")
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .collect();
                (label.trim(), cells)
            })
            .collect();
        assert_eq!(rows.len(), 17);
        for (label, cells) in &rows {
            assert_eq!(cells.len(), 3, "{label:?}: {cells:?}");
        }
        assert_eq!(rows[0], ("", vec!["Titan Xp", "GTX Titan X", "Tesla K40c"]));
        let memory = rows
            .iter()
            .find(|(label, _)| *label == "Memory frequencies (MHz)")
            .expect("a memory-frequency row");
        assert_eq!(memory.1, ["5705/4705", "4005/3505/3300/810", "3004"]);
    }
}
