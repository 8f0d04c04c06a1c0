//! Subcommand implementations. `run` returns the text to print, which
//! keeps every command unit-testable without spawning processes.

use crate::{CliError, ParsedArgs, USAGE};
use gpm_core::{
    cross_validate, AccuracyReport, CoverageReport, Estimator, EstimatorConfig, PowerModel,
    TrainingSet,
};
use gpm_dvfs::{baseline_ledger, pareto_frontier, Governor, Objective};
use gpm_faults::{FaultPlan, FaultyGpu};
use gpm_fleet::{FleetConfig, FleetSim, FleetTrace};
use gpm_profiler::{
    training_set_to_csv, CampaignCheckpoint, CampaignOutcome, Profiler, ResilientProfiler,
};
use gpm_serve::{
    EngineConfig, EntryHealth, FsckReport, ModelRegistry, PredictionEngine, Request, ServerConfig,
    ServerHandle,
};
use gpm_sim::SimulatedGpu;
use gpm_spec::{devices, DeviceSpec};
use gpm_workloads::{launch_trace, microbenchmark_suite, validation_suite};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Executes one CLI invocation and returns its stdout text.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed invocations, [`CliError::Io`]
/// for file failures and [`CliError::Pipeline`] when the underlying
/// pipeline errors.
pub fn run(args: &[String]) -> Result<String, CliError> {
    if args.is_empty() {
        return Err(CliError::Usage("missing command".into()));
    }
    // `gpm registry fsck` and the `gpm fleet ...` family are two-word
    // commands; splice them into internal single-token names before the
    // flag parser (which rejects stray positionals) sees them.
    let spliced: Vec<String>;
    let args = match args[0].as_str() {
        "registry" => match args.get(1).map(String::as_str) {
            Some("fsck") => {
                spliced = std::iter::once("registry-fsck".to_string())
                    .chain(args[2..].iter().cloned())
                    .collect();
                &spliced[..]
            }
            _ => {
                return Err(CliError::Usage(
                    "`registry` expects a subcommand: fsck".into(),
                ))
            }
        },
        "fleet" => match args.get(1).map(String::as_str) {
            Some(sub @ ("run" | "cap-sweep")) => {
                spliced = std::iter::once(format!("fleet-{sub}"))
                    .chain(args[2..].iter().cloned())
                    .collect();
                &spliced[..]
            }
            _ => {
                return Err(CliError::Usage(
                    "`fleet` expects a subcommand: run | cap-sweep".into(),
                ))
            }
        },
        _ => args,
    };
    let parsed = ParsedArgs::parse_with_switches(args, &["timings", "robust"])?;
    // `--threads N` pins the gpm-par worker count for this invocation
    // (0 or absent: GPM_THREADS, then available parallelism). Results
    // are identical at any thread count; only wall-clock changes.
    let threads = parsed.integer_or("threads", 0)? as usize;
    gpm_par::set_threads((threads > 0).then_some(threads));

    // `--trace FILE` records a structured trace of the invocation (spans
    // for every pipeline phase plus the process-wide metrics) and writes
    // it as gpm-obs JSON on success.
    let trace_path = parsed.optional("trace").map(str::to_string);
    let recorder = trace_path.as_ref().map(|_| {
        let r = gpm_obs::Recorder::new();
        gpm_obs::install(&r);
        r
    });
    let mut result = dispatch(&parsed);
    if let Some(recorder) = recorder {
        gpm_obs::uninstall();
        if let (Ok(out), Some(path)) = (&mut result, trace_path) {
            let trace = recorder.snapshot();
            fs::write(&path, trace.to_json_string())?;
            let _ = writeln!(out, "wrote trace ({} spans) -> {path}", trace.spans.len());
        }
    }
    result
}

fn dispatch(parsed: &ParsedArgs) -> Result<String, CliError> {
    match parsed.command() {
        "devices" => {
            parsed.allow_only(&[])?;
            cmd_devices()
        }
        "characterize" => {
            parsed.allow_only(&[
                "device",
                "out",
                "seed",
                "repeats",
                "threads",
                "trace",
                "faults",
                "fault-seed",
                "resume",
                "budget",
            ])?;
            cmd_characterize(parsed)
        }
        "train" => {
            parsed.allow_only(&[
                "training",
                "out",
                "max-iterations",
                "threads",
                "timings",
                "trace",
                "robust",
                "report",
            ])?;
            cmd_train(parsed)
        }
        "validate" => {
            parsed.allow_only(&["model", "seed", "apps", "threads", "trace"])?;
            cmd_validate(parsed)
        }
        "predict" => {
            parsed.allow_only(&["model", "app", "seed", "registry", "request", "name"])?;
            if parsed.optional("registry").is_some() {
                cmd_predict_registry(parsed)
            } else {
                cmd_predict(parsed)
            }
        }
        "voltage" => {
            parsed.allow_only(&["model"])?;
            cmd_voltage(parsed)
        }
        "describe" => {
            parsed.allow_only(&["model"])?;
            Ok(load_model(parsed.required("model")?)?.describe())
        }
        "export-csv" => {
            parsed.allow_only(&["training", "out"])?;
            cmd_export_csv(parsed)
        }
        "crossval" => {
            parsed.allow_only(&["training", "folds", "threads", "trace"])?;
            cmd_crossval(parsed)
        }
        "governor" => {
            parsed.allow_only(&["model", "objective", "launches", "seed", "trace"])?;
            cmd_governor(parsed)
        }
        "pareto" => {
            parsed.allow_only(&["model", "app", "seed"])?;
            cmd_pareto(parsed)
        }
        "publish" => {
            parsed.allow_only(&["registry", "model", "name", "report"])?;
            cmd_publish(parsed)
        }
        "models" => {
            parsed.allow_only(&["registry", "activate"])?;
            cmd_models(parsed)
        }
        "registry-fsck" => {
            parsed.allow_only(&["registry"])?;
            cmd_registry_fsck(parsed)
        }
        "fleet-run" => {
            parsed.allow_only(&[
                "nodes",
                "epochs",
                "cap",
                "classes",
                "seed",
                "distinct",
                "launches",
                "slack",
                "fail-rate",
                "degraded-rate",
                "fault-preset",
                "out",
                "threads",
                "trace",
            ])?;
            cmd_fleet_run(parsed)
        }
        "fleet-cap-sweep" => {
            parsed.allow_only(&[
                "nodes",
                "epochs",
                "caps",
                "classes",
                "seed",
                "distinct",
                "launches",
                "slack",
                "fail-rate",
                "degraded-rate",
                "fault-preset",
                "out",
                "threads",
                "trace",
            ])?;
            cmd_fleet_cap_sweep(parsed)
        }
        "serve" => {
            parsed.allow_only(&[
                "registry",
                "name",
                "addr",
                "seed",
                "queue",
                "batch",
                "conn-cap",
                "max-requests",
                "threads",
                "shards",
                "coalesce-us",
                "fan",
                "idle-ms",
                "deadline-ms",
            ])?;
            cmd_serve(parsed)
        }
        "help" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Resolves a device slug.
fn device_by_slug(slug: &str) -> Result<DeviceSpec, CliError> {
    match slug {
        "titan-xp" => Ok(devices::titan_xp()),
        "gtx-titan-x" => Ok(devices::gtx_titan_x()),
        "tesla-k40c" => Ok(devices::tesla_k40c()),
        "v100m" => Ok(devices::v100m()),
        "a100m" => Ok(devices::a100m()),
        "h100m" => Ok(devices::h100m()),
        other => Err(CliError::Usage(format!(
            "unknown device `{other}` (expected titan-xp, gtx-titan-x, tesla-k40c, \
             v100m, a100m or h100m)"
        ))),
    }
}

fn pipeline<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Pipeline(e.to_string())
}

fn cmd_devices() -> Result<String, CliError> {
    let mut out = String::new();
    for d in devices::all().into_iter().chain(devices::datacenter()) {
        let _ = writeln!(
            out,
            "{:<12} {}  grid {} mem x {} core levels, reference {}",
            slug_of(&d),
            d,
            d.mem_freqs().len(),
            d.core_freqs().len(),
            d.default_config()
        );
    }
    Ok(out)
}

fn slug_of(d: &DeviceSpec) -> &'static str {
    match d.name() {
        "Titan Xp" => "titan-xp",
        "GTX Titan X" => "gtx-titan-x",
        "V100m" => "v100m",
        "A100m" => "a100m",
        "H100m" => "h100m",
        _ => "tesla-k40c",
    }
}

fn cmd_characterize(args: &ParsedArgs) -> Result<String, CliError> {
    let spec = device_by_slug(args.required("device")?)?;
    let out_path = args.required("out")?;
    let seed = args.integer_or("seed", 42)?;
    let repeats = args.integer_or("repeats", 10)?.max(1) as u32;

    // `--faults` / `--resume` route through the fault-tolerant campaign.
    if args.optional("faults").is_some() || args.optional("resume").is_some() {
        return cmd_characterize_resilient(args, &spec, out_path, seed, repeats);
    }

    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let suite = microbenchmark_suite(&spec);
    let training = Profiler::with_repeats(&mut gpu, repeats)
        .profile_suite(&suite)
        .map_err(pipeline)?;
    fs::write(out_path, training.to_json().map_err(pipeline)?)?;
    let coverage = CoverageReport::of(&training);
    Ok(format!(
        "characterized {} (seed {seed}): {} microbenchmarks x {} configurations, \
         L2 peak {:.0} B/cycle -> {out_path}\n{coverage}",
        spec.name(),
        training.samples.len(),
        training.configs().len(),
        training.l2_bytes_per_cycle
    ))
}

/// Resolves `--faults` to a plan: a named preset first, then a JSON plan
/// file. `--fault-seed` overrides the plan's seed either way.
fn resolve_fault_plan(args: &ParsedArgs, seed: u64) -> Result<FaultPlan, CliError> {
    let fault_seed = args.integer_or("fault-seed", seed)?;
    let plan = match args.optional("faults") {
        None => FaultPlan::default(), // benign: --resume without --faults
        Some(name) => match FaultPlan::preset(name, fault_seed) {
            Some(plan) => plan,
            None => {
                let text = fs::read_to_string(name).map_err(|_| {
                    CliError::Usage(format!(
                        "--faults expects a preset (transient | missing-counter | \
                         sensor-spike) or a readable JSON plan file, got `{name}`"
                    ))
                })?;
                let mut plan: FaultPlan = gpm_json::from_str(&text).map_err(pipeline)?;
                if args.optional("fault-seed").is_some() {
                    plan.seed = fault_seed;
                }
                plan
            }
        },
    };
    plan.validate().map_err(CliError::Usage)?;
    Ok(plan)
}

fn cmd_characterize_resilient(
    args: &ParsedArgs,
    spec: &DeviceSpec,
    out_path: &str,
    seed: u64,
    repeats: u32,
) -> Result<String, CliError> {
    let plan = resolve_fault_plan(args, seed)?;
    let budget = match args.optional("budget") {
        None => None,
        Some(_) => Some(args.integer_or("budget", 0)? as usize),
    };
    let resume = args.optional("resume");
    let checkpoint_path = resume.map_or_else(|| format!("{out_path}.ckpt"), str::to_string);

    let gpu = SimulatedGpu::new(spec.clone(), seed);
    let mut device = FaultyGpu::new(gpu, plan.clone());
    let suite = microbenchmark_suite(spec);
    let mut profiler = ResilientProfiler::new(&mut device).with_repeats(repeats);
    // Checkpoints are only loaded on explicit --resume; a fresh campaign
    // must never silently continue a stale one left at the default path.
    let mut checkpoint = if resume.is_some() && Path::new(&checkpoint_path).exists() {
        CampaignCheckpoint::from_json_str(&fs::read_to_string(&checkpoint_path)?)
            .map_err(pipeline)?
    } else {
        profiler.new_checkpoint()
    };

    let outcome = profiler
        .run(&suite, &mut checkpoint, budget)
        .map_err(pipeline)?;
    let stats = device.stats().clone();
    match outcome {
        CampaignOutcome::Suspended {
            completed_cells,
            total_cells,
        } => {
            fs::write(&checkpoint_path, checkpoint.to_json_string())?;
            Ok(format!(
                "campaign suspended at {completed_cells}/{total_cells} cells \
                 ({} retries, {} quarantined so far) -> {checkpoint_path}\n\
                 resume with: characterize --device ... --resume {checkpoint_path}\n",
                checkpoint.retries,
                checkpoint.quarantined.len()
            ))
        }
        CampaignOutcome::Complete(training) => {
            fs::write(out_path, training.to_json().map_err(pipeline)?)?;
            fs::write(&checkpoint_path, checkpoint.to_json_string())?;
            let coverage = CoverageReport::of(&training);
            let mut out = format!(
                "characterized {} (seed {seed}, fault seed {}): {} microbenchmarks x {} \
                 configurations, L2 peak {:.0} B/cycle -> {out_path}\n",
                spec.name(),
                plan.seed,
                training.samples.len(),
                training.configs().len(),
                training.l2_bytes_per_cycle
            );
            let _ = writeln!(
                out,
                "recovery: {} retries, {} quarantined samples, {:.0} ms backoff, \
                 {} faults injected",
                checkpoint.retries,
                checkpoint.quarantined.len(),
                checkpoint.backoff_ms,
                stats.total()
            );
            if !checkpoint.degraded.is_empty() {
                let names: Vec<String> = checkpoint
                    .degraded
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                let _ = writeln!(
                    out,
                    "degraded components (train with --robust): {}",
                    names.join(", ")
                );
            }
            let _ = writeln!(out, "checkpoint -> {checkpoint_path}");
            let _ = write!(out, "{coverage}");
            Ok(out)
        }
    }
}

fn cmd_train(args: &ParsedArgs) -> Result<String, CliError> {
    let training = load_training(args.required("training")?)?;
    let out_path = args.required("out")?;
    let max_iterations = args.integer_or("max-iterations", 50)? as usize;
    let config = EstimatorConfig {
        max_iterations,
        robust: args.switch("robust"),
        ..EstimatorConfig::default()
    };
    let (model, report) = Estimator::with_config(config)
        .fit_with_report(&training)
        .map_err(pipeline)?;
    fs::write(out_path, model.to_json().map_err(pipeline)?)?;
    // `--report FILE` persists the fit diagnostics so `publish` can
    // attach them to the registry entry.
    if let Some(report_path) = args.optional("report") {
        fs::write(report_path, gpm_json::to_string(&report).map_err(pipeline)?)?;
    }
    let mut out = format!(
        "trained model for {} in {} iterations (converged: {}, training MAPE {:.1}%) -> {out_path}\n",
        model.spec().name(),
        report.iterations,
        report.converged,
        report.training_mape
    );
    if report.robust {
        let _ = writeln!(
            out,
            "robust fit: {} IRLS reweights, {} watchdog restarts",
            report.robust_reweights, report.watchdog_restarts
        );
        if !report.degraded_components.is_empty() {
            let names: Vec<String> = report
                .degraded_components
                .iter()
                .map(ToString::to_string)
                .collect();
            let _ = writeln!(
                out,
                "degraded components (omega pinned at zero): {}",
                names.join(", ")
            );
        }
    }
    if args.switch("timings") {
        let _ = write!(out, "phase timings:\n{}", report.timings);
    }
    Ok(out)
}

fn cmd_validate(args: &ParsedArgs) -> Result<String, CliError> {
    let model = load_model(args.required("model")?)?;
    let seed = args.integer_or("seed", 1042)?;
    let spec = model.spec().clone();
    let napps = args.integer_or("apps", 26)?.clamp(1, 26) as usize;

    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let mut profiler = Profiler::with_repeats(&mut gpu, 3);
    let mut report = AccuracyReport::new();
    for app in validation_suite(&spec).iter().take(napps) {
        let profile = profiler.profile_at_reference(app).map_err(pipeline)?;
        for (config, watts) in profiler.measure_power_grid(app).map_err(pipeline)? {
            let p = model
                .predict(&profile.utilizations, config)
                .map_err(pipeline)?;
            report.add(app.name(), config, p, watts);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    let _ = writeln!(out, "per memory level:");
    for (mem, mape) in report.per_memory_level().map_err(pipeline)? {
        let _ = writeln!(out, "  {:>5} MHz: {mape:.1}%", mem.as_u32());
    }
    let (worst, mape) = report.worst_label().map_err(pipeline)?;
    let _ = writeln!(out, "worst application: {worst} ({mape:.1}%)");
    Ok(out)
}

fn cmd_predict(args: &ParsedArgs) -> Result<String, CliError> {
    let model = load_model(args.required("model")?)?;
    let app_name = args.required("app")?;
    let seed = args.integer_or("seed", 1042)?;
    let spec = model.spec().clone();

    let app = validation_suite(&spec)
        .into_iter()
        .find(|k| k.name() == app_name)
        .ok_or_else(|| CliError::Usage(format!("unknown application `{app_name}`")))?;
    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let profile = Profiler::with_repeats(&mut gpu, 1)
        .profile_at_reference(&app)
        .map_err(pipeline)?;

    let mut out = String::new();
    let _ = writeln!(out, "{app_name} utilizations: {}", profile.utilizations);
    let _ = writeln!(out, "\npredicted power (W), rows = fcore, cols = fmem:");
    let _ = write!(out, "{:>7}", "");
    for mem in spec.mem_freqs() {
        let _ = write!(out, "{:>9}", mem.as_u32());
    }
    let _ = writeln!(out);
    for &core in spec.core_freqs() {
        let _ = write!(out, "{:>7}", core.as_u32());
        for &mem in spec.mem_freqs() {
            let p = model
                .predict(&profile.utilizations, gpm_spec::FreqConfig::new(core, mem))
                .map_err(pipeline)?;
            let _ = write!(out, "{p:>9.1}");
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

fn cmd_voltage(args: &ParsedArgs) -> Result<String, CliError> {
    let model = load_model(args.required("model")?)?;
    let reference = model.reference();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "estimated V/V_ref for {} (reference {reference}):",
        model.spec().name()
    );
    for &mem in model.spec().mem_freqs() {
        let _ = writeln!(out, "  core curve at fmem = {}:", mem);
        for (f, v) in model.voltage_table().core_curve(mem) {
            let _ = writeln!(out, "    {:>5} MHz  {v:.3}", f.as_u32());
        }
    }
    Ok(out)
}

fn cmd_export_csv(args: &ParsedArgs) -> Result<String, CliError> {
    let training = load_training(args.required("training")?)?;
    let out_path = args.required("out")?;
    let csv = training_set_to_csv(&training);
    let rows = csv.lines().count().saturating_sub(1);
    fs::write(out_path, csv)?;
    Ok(format!("wrote {rows} observations -> {out_path}\n"))
}

fn cmd_governor(args: &ParsedArgs) -> Result<String, CliError> {
    let model = load_model(args.required("model")?)?;
    let seed = args.integer_or("seed", 11)?;
    let launches = args.integer_or("launches", 24)?.max(1) as usize;
    let objective = match args.optional("objective").unwrap_or("min-energy") {
        "min-power" => Objective::MinPower,
        "min-energy" => Objective::MinEnergy,
        "min-edp" => Objective::MinEdp,
        "slowdown-10" => Objective::MinEnergyWithSlowdown(1.10),
        other => {
            return Err(CliError::Usage(format!(
                "unknown objective `{other}` (min-power | min-energy | min-edp | slowdown-10)"
            )))
        }
    };
    let spec = model.spec().clone();
    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let trace = launch_trace(&spec, seed, 4, launches);

    let baseline = baseline_ledger(&mut gpu, &model, &trace).map_err(pipeline)?;
    let mut governor = Governor::new(&mut gpu, model, objective);
    for kernel in &trace {
        governor.run_kernel(kernel).map_err(pipeline)?;
    }
    let governed = governor.ledger();
    let mut out = String::new();
    let _ = writeln!(out, "objective: {objective}");
    let _ = writeln!(out, "ungoverned: {baseline}");
    let _ = writeln!(out, "governed:   {governed}");
    let _ = writeln!(
        out,
        "energy {:+.1}%, time {:+.1}% ({} profiled, {} cache hits)",
        100.0 * (governed.total_energy_j() / baseline.total_energy_j() - 1.0),
        100.0 * (governed.total_time_s() / baseline.total_time_s() - 1.0),
        governor.stats().profiled,
        governor.stats().cache_hits
    );
    Ok(out)
}

fn cmd_pareto(args: &ParsedArgs) -> Result<String, CliError> {
    let model = load_model(args.required("model")?)?;
    let app_name = args.required("app")?;
    let seed = args.integer_or("seed", 11)?;
    let spec = model.spec().clone();
    let app = validation_suite(&spec)
        .into_iter()
        .find(|k| k.name() == app_name)
        .ok_or_else(|| CliError::Usage(format!("unknown application `{app_name}`")))?;
    let mut gpu = SimulatedGpu::new(spec, seed);
    let profile = Profiler::with_repeats(&mut gpu, 1)
        .profile_at_reference(&app)
        .map_err(pipeline)?;
    let frontier =
        pareto_frontier(&mut gpu, &model, &app, &profile.utilizations).map_err(pipeline)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{app_name}: {} Pareto-optimal configurations",
        frontier.len()
    );
    let _ = writeln!(
        out,
        "{:>28} {:>10} {:>9} {:>10}",
        "configuration", "time", "power", "energy"
    );
    for p in frontier {
        let _ = writeln!(
            out,
            "{:>28} {:>8.2}ms {:>7.1} W {:>8.3} J",
            p.config.to_string(),
            p.time_s * 1e3,
            p.power_w,
            p.energy_j()
        );
    }
    Ok(out)
}

fn cmd_publish(args: &ParsedArgs) -> Result<String, CliError> {
    let registry_path = args.required("registry")?;
    let registry = ModelRegistry::open(registry_path).map_err(pipeline)?;
    let model = load_model(args.required("model")?)?;
    let name = args.required("name")?;
    let report = match args.optional("report") {
        None => None,
        Some(path) => Some(gpm_json::from_str(&fs::read_to_string(path)?).map_err(pipeline)?),
    };
    let version = registry
        .publish(name, &model, report.as_ref())
        .map_err(pipeline)?;
    let active = registry.active().map_err(pipeline)?;
    let marker = if active == Some((name.to_string(), version)) {
        " (active)"
    } else {
        ""
    };
    Ok(format!(
        "published {name}@v{version}{marker} for {} -> {registry_path}\n",
        model.spec().name()
    ))
}

fn cmd_models(args: &ParsedArgs) -> Result<String, CliError> {
    let registry = ModelRegistry::open(args.required("registry")?).map_err(pipeline)?;
    if let Some(target) = args.optional("activate") {
        let (name, version) = target
            .split_once("@v")
            .and_then(|(n, v)| Some((n, v.parse::<u32>().ok()?)))
            .ok_or_else(|| {
                CliError::Usage(format!("--activate expects NAME@vN, got `{target}`"))
            })?;
        registry.activate(name, version).map_err(pipeline)?;
    }
    let infos = registry.list().map_err(pipeline)?;
    if infos.is_empty() {
        return Ok("registry is empty\n".to_string());
    }
    let fsck = registry.fsck().map_err(pipeline)?;
    let mut out = String::new();
    for info in infos {
        let versions: Vec<String> = info
            .versions
            .iter()
            .map(|v| {
                if info.active == Some(*v) {
                    format!("*v{v}")
                } else {
                    format!("v{v}")
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "{:<20} {}  {}",
            info.name,
            versions.join(" "),
            model_health(&fsck, &info.name)
        );
    }
    let _ = writeln!(out, "(* = active)");
    Ok(out)
}

/// The worst health label across one model's live entries, for the
/// `models` listing (`ok` < `legacy` < `schema-vN` < `CORRUPT`).
fn model_health(fsck: &FsckReport, name: &str) -> String {
    let rank = |h: &EntryHealth| match h {
        EntryHealth::Sealed => 0,
        EntryHealth::Legacy => 1,
        EntryHealth::FutureSchema(_) => 2,
        EntryHealth::Corrupt(_) => 3,
    };
    fsck.entries
        .iter()
        .filter(|e| e.name == name)
        .max_by_key(|e| rank(&e.health))
        .map_or_else(|| "ok".to_string(), |e| e.health.label())
}

/// `gpm registry fsck` — full integrity audit of a registry. A healthy
/// registry prints its report and exits zero; corruption, quarantined
/// artifacts or a dangling active pointer exit non-zero with the same
/// report embedded in the error.
fn cmd_registry_fsck(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args.required("registry")?;
    let registry = ModelRegistry::open(path).map_err(pipeline)?;
    let report = registry.fsck().map_err(pipeline)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fsck {path}: {} entries, {} quarantined",
        report.entries.len(),
        report.quarantined.len()
    );
    for e in &report.entries {
        let detail = match &e.health {
            EntryHealth::Corrupt(reason) => format!("  ({reason})"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  {}@v{}  {}{detail}",
            e.name,
            e.version,
            e.health.label()
        );
    }
    match &report.active {
        Some((name, version)) => {
            let _ = writeln!(out, "active: {name}@v{version}");
        }
        None => {
            let _ = writeln!(out, "active: (none)");
        }
    }
    for q in &report.quarantined {
        let _ = writeln!(out, "quarantined: {q}");
    }
    for p in &report.problems {
        let _ = writeln!(out, "problem: {p}");
    }
    if report.is_healthy() {
        out.push_str("registry is healthy\n");
        Ok(out)
    } else {
        Err(CliError::Pipeline(format!(
            "registry fsck found problems\n{out}"
        )))
    }
}

/// One-shot prediction against a registry model: parses a [`Request`]
/// from `--request` JSON and prints the engine's reply as JSON.
fn cmd_predict_registry(args: &ParsedArgs) -> Result<String, CliError> {
    let registry = ModelRegistry::open(args.required("registry")?).map_err(pipeline)?;
    let entry = registry.resolve(args.optional("name")).map_err(pipeline)?;
    let request: Request = gpm_json::from_str(args.required("request")?).map_err(|e| {
        CliError::Usage(format!(
            "--request expects Request JSON, e.g. \
                 {{\"Energy\":{{\"kernel\":\"LBM\",\"config\":\"975@3505\"}}}}: {e}"
        ))
    })?;
    let engine_config = EngineConfig {
        seed: args.integer_or("seed", 1042)?,
        ..EngineConfig::default()
    };
    let identity = entry.identity();
    let mut engine = PredictionEngine::new(entry.model, &identity, &engine_config);
    let reply = engine.process(&request);
    let mut out = gpm_json::to_string(&reply).map_err(pipeline)?;
    out.push('\n');
    Ok(out)
}

/// Runs the prediction server until it stops admitting (`--max-requests`
/// served) and its queue is drained. The listening line is printed
/// eagerly so clients can connect while the command blocks.
fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    let registry = ModelRegistry::open(args.required("registry")?).map_err(pipeline)?;
    let entry = registry.resolve(args.optional("name")).map_err(pipeline)?;
    let engine_config = EngineConfig {
        seed: args.integer_or("seed", 1042)?,
        ..EngineConfig::default()
    };
    let server_config = ServerConfig {
        queue_depth: args.integer_or("queue", 64)? as usize,
        batch_max: args.integer_or("batch", 16)?.max(1) as usize,
        conn_inflight: args.integer_or("conn-cap", 32)?.max(1) as usize,
        max_requests: match args.integer_or("max-requests", 0)? {
            0 => None,
            n => Some(n),
        },
        // 0 = one reactor shard per core (capped inside gpm-serve).
        shards: args.integer_or("shards", 0)? as usize,
        coalesce_us: args.integer_or("coalesce-us", 100)?,
        fan_width: args.integer_or("fan", 1)?.max(1) as usize,
        // 0 disables the corresponding guard.
        idle_timeout_ms: args.integer_or("idle-ms", 60_000)?,
        request_deadline_ms: args.integer_or("deadline-ms", 30_000)?,
    };
    let identity = entry.identity();
    let engine = PredictionEngine::new(entry.model, &identity, &engine_config);
    let addr = args.optional("addr").unwrap_or("127.0.0.1:7979");
    let handle = ServerHandle::bind(engine, server_config, addr)?;
    let bound = handle.local_addr().expect("bound server has an address");
    println!("serving {identity} on {bound}");
    let (engine, stats) = handle.join();
    let engine_stats = engine.stats();
    Ok(format!(
        "served {} requests in {} batches, {} shed\n\
         cache: {} hits, {} misses, {} entries; {} errors\n",
        stats.served,
        stats.batches,
        stats.shed,
        engine_stats.cache.hits,
        engine_stats.cache.misses,
        engine_stats.cache.entries,
        engine_stats.errors
    ))
}

fn cmd_crossval(args: &ParsedArgs) -> Result<String, CliError> {
    let training = load_training(args.required("training")?)?;
    let folds = args.integer_or("folds", 5)? as usize;
    let report = cross_validate(&training, &EstimatorConfig::default(), folds).map_err(pipeline)?;
    Ok(format!(
        "{report}
"
    ))
}

fn parse_float(name: &str, value: &str) -> Result<f64, CliError> {
    value
        .parse::<f64>()
        .map_err(|_| CliError::Usage(format!("--{name} expects a number, got `{value}`")))
}

/// Builds a [`FleetConfig`] from the shared `fleet` flags.
fn fleet_config(args: &ParsedArgs) -> Result<FleetConfig, CliError> {
    let mut config = FleetConfig {
        nodes: args.integer_or("nodes", 64)?.max(1) as usize,
        epochs: args.integer_or("epochs", 8)?.max(1) as usize,
        seed: args.integer_or("seed", 42)?,
        distinct: args.integer_or("distinct", 3)?.max(1) as usize,
        launches: args.integer_or("launches", 8)?.max(1) as usize,
        ..FleetConfig::default()
    };
    if let Some(v) = args.optional("slack") {
        config.deadline_slack = parse_float("slack", v)?;
    }
    if let Some(v) = args.optional("fail-rate") {
        config.fail_rate = parse_float("fail-rate", v)?;
    }
    if let Some(v) = args.optional("degraded-rate") {
        config.degraded_rate = parse_float("degraded-rate", v)?;
    }
    if let Some(v) = args.optional("fault-preset") {
        config.fault_preset = v.to_string();
    }
    if let Some(v) = args.optional("classes") {
        config.classes = v
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
    }
    config
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(config)
}

fn fleet_summary(trace: &FleetTrace) -> String {
    let mut out = String::new();
    let cap = trace.config.cap_w;
    let _ = writeln!(
        out,
        "fleet: {} nodes ({} classes), {} epochs, cap {}",
        trace.config.nodes,
        trace.class_names.len(),
        trace.config.epochs,
        if cap > 0.0 {
            format!("{cap:.0} W")
        } else {
            "none".to_string()
        }
    );
    let _ = writeln!(
        out,
        "peak power {:.0} W, cap respected: {}",
        trace.peak_power_w,
        trace.cap_respected()
    );
    let _ = writeln!(
        out,
        "energy {:.0} J (baseline {:.0} J, saved {:.1}%)",
        trace.energy_j, trace.baseline_energy_j, trace.savings_pct
    );
    let _ = writeln!(
        out,
        "work {} jobs, {} deadline misses, {} shed; {} failed nodes, {} degraded ({} blind kernels)",
        trace.work,
        trace.misses,
        trace.shed,
        trace.failed_nodes,
        trace.degraded_nodes,
        trace.blind_kernels
    );
    let _ = writeln!(out, "trace digest {}", trace.digest);
    out
}

fn cmd_fleet_run(args: &ParsedArgs) -> Result<String, CliError> {
    let mut config = fleet_config(args)?;
    if let Some(v) = args.optional("cap") {
        config.cap_w = parse_float("cap", v)?;
    }
    let sim = FleetSim::prepare(&config).map_err(pipeline)?;
    let trace = sim.run();
    let mut out = fleet_summary(&trace);
    if let Some(path) = args.optional("out") {
        fs::write(path, gpm_json::to_string(&trace).map_err(pipeline)?)?;
        let _ = writeln!(out, "wrote fleet trace -> {path}");
    }
    Ok(out)
}

fn cmd_fleet_cap_sweep(args: &ParsedArgs) -> Result<String, CliError> {
    let config = fleet_config(args)?;
    let caps: Vec<f64> = args
        .required("caps")?
        .split(',')
        .map(|s| parse_float("caps", s.trim()))
        .collect::<Result<_, _>>()?;
    if caps.is_empty() {
        return Err(CliError::Usage(
            "--caps expects at least one watts value".into(),
        ));
    }
    let sim = FleetSim::prepare(&config).map_err(pipeline)?;
    let traces = sim.cap_sweep(&caps);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10}  {:>10}  {:>12}  {:>8}  {:>7}  {:>6}  {:>5}",
        "cap W", "peak W", "energy J", "saved %", "misses", "shed", "ok"
    );
    for (cap, trace) in caps.iter().zip(&traces) {
        let _ = writeln!(
            out,
            "{:>10}  {:>10.0}  {:>12.0}  {:>8.1}  {:>7}  {:>6}  {:>5}",
            if *cap > 0.0 {
                format!("{cap:.0}")
            } else {
                "none".to_string()
            },
            trace.peak_power_w,
            trace.energy_j,
            trace.savings_pct,
            trace.misses,
            trace.shed,
            trace.cap_respected()
        );
    }
    if let Some(path) = args.optional("out") {
        fs::write(path, gpm_json::to_string(&traces).map_err(pipeline)?)?;
        let _ = writeln!(out, "wrote {} fleet traces -> {path}", traces.len());
    }
    Ok(out)
}

fn load_training(path: &str) -> Result<TrainingSet, CliError> {
    TrainingSet::from_json(&fs::read_to_string(path)?).map_err(pipeline)
}

fn load_model(path: &str) -> Result<PowerModel, CliError> {
    PowerModel::from_json(&fs::read_to_string(path)?).map_err(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(parts: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gpm-cli-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_devices_work() {
        assert!(call(&["help"]).unwrap().contains("characterize"));
        let d = call(&["devices"]).unwrap();
        assert!(d.contains("gtx-titan-x"));
        assert!(d.contains("tesla-k40c"));
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(call(&[]), Err(CliError::Usage(_))));
        assert!(matches!(call(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(
            call(&["characterize", "--device", "gtx-titan-x"]),
            Err(CliError::Usage(_)) // missing --out
        ));
        assert!(matches!(
            call(&["characterize", "--device", "riva-tnt2", "--out", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            call(&["validate", "--model", "m.json", "--bogus", "1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn full_workflow_characterize_train_validate_predict() {
        let training_path = tmp("k40c-training.json");
        let model_path = tmp("k40c-model.json");
        let csv_path = tmp("k40c-data.csv");

        let out = call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &training_path,
            "--seed",
            "7",
            "--repeats",
            "1",
        ])
        .unwrap();
        assert!(out.contains("83 microbenchmarks"), "{out}");
        assert!(out.contains("utilization coverage"), "{out}");
        assert!(!out.contains("UNDER-COVERED"), "{out}");

        let out = call(&["train", "--training", &training_path, "--out", &model_path]).unwrap();
        assert!(out.contains("trained model for Tesla K40c"), "{out}");

        let out = call(&["validate", "--model", &model_path, "--apps", "4"]).unwrap();
        assert!(out.contains("MAPE"), "{out}");
        assert!(out.contains("worst application"), "{out}");

        let out = call(&["predict", "--model", &model_path, "--app", "LBM"]).unwrap();
        assert!(out.contains("3004"), "{out}");
        assert!(out.contains("LBM utilizations"), "{out}");

        let out = call(&["voltage", "--model", &model_path]).unwrap();
        assert!(out.contains("core curve at fmem = 3004 MHz"), "{out}");

        let out = call(&["describe", "--model", &model_path]).unwrap();
        assert!(out.contains("Tesla K40c"), "{out}");
        assert!(out.contains("beta0"), "{out}");

        let out = call(&[
            "export-csv",
            "--training",
            &training_path,
            "--out",
            &csv_path,
        ])
        .unwrap();
        assert!(out.contains("332 observations"), "{out}"); // 83 x 4

        let out = call(&[
            "crossval",
            "--training",
            &training_path,
            "--folds",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("3-fold CV"), "{out}");

        let out = call(&[
            "train",
            "--training",
            &training_path,
            "--out",
            &model_path,
            "--timings",
        ])
        .unwrap();
        assert!(out.contains("phase timings:\n"), "{out}");
        assert!(out.contains("voltage_step"), "{out}");

        let out = call(&[
            "governor",
            "--model",
            &model_path,
            "--objective",
            "min-energy",
            "--launches",
            "8",
        ])
        .unwrap();
        assert!(out.contains("governed:"), "{out}");
        assert!(out.contains("cache hits"), "{out}");

        let pareto = call(&["pareto", "--model", &model_path, "--app", "LBM"]).unwrap();
        assert!(pareto.contains("Pareto-optimal"), "{pareto}");
        assert!(matches!(
            call(&[
                "governor",
                "--model",
                &model_path,
                "--objective",
                "overclock-everything"
            ]),
            Err(CliError::Usage(_))
        ));

        // The CSV landed on disk with the right header.
        let csv = fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("kernel,fcore_mhz,fmem_mhz,power_w"));
    }

    #[test]
    fn trace_flag_writes_a_valid_trace() {
        let training_path = tmp("k40c-training3.json");
        let model_path = tmp("k40c-model3.json");
        let trace_path = tmp("k40c-train-trace.json");
        call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &training_path,
            "--repeats",
            "1",
        ])
        .unwrap();
        let out = call(&[
            "train",
            "--training",
            &training_path,
            "--out",
            &model_path,
            "--trace",
            &trace_path,
        ])
        .unwrap();
        assert!(out.contains("wrote trace ("), "{out}");
        assert!(out.contains(&trace_path), "{out}");

        let trace =
            gpm_obs::Trace::from_json_str(&fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert!(!trace.spans.is_empty());
        // Other tests in this binary may run concurrently while the
        // global recorder is installed, so counts are lower bounds.
        assert!(!trace.spans_named("estimator.fit").is_empty());
        assert!(!trace.spans_named("estimator.iteration").is_empty());
        assert!(trace
            .metrics
            .counters
            .get("estimator.iterations")
            .is_some_and(|&v| v > 0));
        // The recorder is uninstalled afterwards: a traceless run leaves
        // no active recorder behind.
        assert!(gpm_obs::active().is_none());

        // An unknown-path trace file surfaces as an I/O error.
        assert!(matches!(
            call(&[
                "crossval",
                "--training",
                &training_path,
                "--folds",
                "2",
                "--trace",
                "/nonexistent/dir/trace.json",
            ]),
            Err(CliError::Io(_))
        ));
        assert!(gpm_obs::active().is_none());
    }

    #[test]
    fn faulty_campaign_trains_robustly_end_to_end() {
        let training_path = tmp("k40c-faulty-training.json");
        let model_path = tmp("k40c-faulty-model.json");
        let out = call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &training_path,
            "--seed",
            "7",
            "--repeats",
            "2",
            "--faults",
            "transient",
            "--fault-seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("83 microbenchmarks"), "{out}");
        assert!(out.contains("recovery:"), "{out}");
        assert!(out.contains("fault seed 3"), "{out}");

        let out = call(&[
            "train",
            "--training",
            &training_path,
            "--out",
            &model_path,
            "--robust",
        ])
        .unwrap();
        assert!(out.contains("trained model for Tesla K40c"), "{out}");
        assert!(out.contains("robust fit:"), "{out}");

        // A missing-counter plan degrades the DRAM column, and robust
        // training reports it.
        let out = call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &training_path,
            "--repeats",
            "2",
            "--faults",
            "missing-counter",
        ])
        .unwrap();
        assert!(out.contains("degraded components"), "{out}");
        assert!(out.contains("DRAM"), "{out}");
        let out = call(&[
            "train",
            "--training",
            &training_path,
            "--out",
            &model_path,
            "--robust",
        ])
        .unwrap();
        assert!(out.contains("degraded components"), "{out}");

        // Unknown preset / unreadable plan file is a usage error.
        assert!(matches!(
            call(&[
                "characterize",
                "--device",
                "tesla-k40c",
                "--out",
                &training_path,
                "--faults",
                "meteor-strike",
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_output() {
        let straight_path = tmp("k40c-straight-training.json");
        let resumed_path = tmp("k40c-resumed-training.json");
        let ckpt_path = tmp("k40c-campaign.ckpt");
        let _ = fs::remove_file(&ckpt_path);
        let _ = fs::remove_file(format!("{straight_path}.ckpt"));

        // Uninterrupted run.
        call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &straight_path,
            "--seed",
            "5",
            "--repeats",
            "2",
            "--faults",
            "sensor-spike",
        ])
        .unwrap();

        // Interrupted (100-cell budget of 332), then resumed.
        let out = call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &resumed_path,
            "--seed",
            "5",
            "--repeats",
            "2",
            "--faults",
            "sensor-spike",
            "--resume",
            &ckpt_path,
            "--budget",
            "100",
        ])
        .unwrap();
        assert!(out.contains("campaign suspended at 100/332"), "{out}");
        let out = call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &resumed_path,
            "--seed",
            "5",
            "--repeats",
            "2",
            "--faults",
            "sensor-spike",
            "--resume",
            &ckpt_path,
        ])
        .unwrap();
        assert!(out.contains("83 microbenchmarks"), "{out}");

        let straight = fs::read_to_string(&straight_path).unwrap();
        let resumed = fs::read_to_string(&resumed_path).unwrap();
        assert_eq!(
            straight, resumed,
            "resumed campaign must produce byte-identical training data"
        );
    }

    #[test]
    fn registry_workflow_publish_list_predict_serve() {
        let training_path = tmp("k40c-serve-training.json");
        let model_path = tmp("k40c-serve-model.json");
        let report_path = tmp("k40c-serve-report.json");
        let registry_path = tmp("k40c-registry");
        let _ = fs::remove_dir_all(&registry_path);

        call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &training_path,
            "--repeats",
            "1",
        ])
        .unwrap();
        call(&[
            "train",
            "--training",
            &training_path,
            "--out",
            &model_path,
            "--report",
            &report_path,
        ])
        .unwrap();
        assert!(fs::read_to_string(&report_path)
            .unwrap()
            .contains("\"iterations\""));

        // Publish twice: v1 becomes active, v2 is published alongside.
        let out = call(&[
            "publish",
            "--registry",
            &registry_path,
            "--model",
            &model_path,
            "--name",
            "k40c",
            "--report",
            &report_path,
        ])
        .unwrap();
        assert!(out.contains("published k40c@v1 (active)"), "{out}");
        let out = call(&[
            "publish",
            "--registry",
            &registry_path,
            "--model",
            &model_path,
            "--name",
            "k40c",
        ])
        .unwrap();
        assert!(out.contains("published k40c@v2"), "{out}");
        assert!(!out.contains("active"), "{out}");

        let out = call(&["models", "--registry", &registry_path]).unwrap();
        assert!(out.contains("*v1 v2"), "{out}");
        assert!(out.contains("*v1 v2  ok"), "health column: {out}");
        let out = call(&[
            "models",
            "--registry",
            &registry_path,
            "--activate",
            "k40c@v2",
        ])
        .unwrap();
        assert!(out.contains("v1 *v2"), "{out}");

        // fsck: a healthy registry reports every entry and exits zero.
        let out = call(&["registry", "fsck", "--registry", &registry_path]).unwrap();
        assert!(out.contains("registry is healthy"), "{out}");
        assert!(out.contains("k40c@v1  ok"), "{out}");
        assert!(out.contains("k40c@v2  ok"), "{out}");
        assert!(out.contains("active: k40c@v2"), "{out}");
        assert!(matches!(
            call(&["registry"]),
            Err(CliError::Usage(_)) // missing subcommand
        ));
        assert!(matches!(
            call(&["registry", "scrub"]),
            Err(CliError::Usage(_))
        ));

        // One-shot prediction through the registry.
        let out = call(&[
            "predict",
            "--registry",
            &registry_path,
            "--request",
            r#"{"Energy":{"kernel":"LBM","config":"745@3004"}}"#,
        ])
        .unwrap();
        assert!(out.contains("\"Ok\""), "{out}");
        assert!(out.contains("\"joules\""), "{out}");
        assert!(matches!(
            call(&[
                "predict",
                "--registry",
                &registry_path,
                "--request",
                "not json",
            ]),
            Err(CliError::Usage(_))
        ));

        // A bounded server run: serve exactly two requests over TCP,
        // then drain and report.
        let registry_for_server = registry_path.clone();
        let server = std::thread::spawn(move || {
            call(&[
                "serve",
                "--registry",
                &registry_for_server,
                "--addr",
                "127.0.0.1:47917",
                "--max-requests",
                "2",
            ])
        });
        let mut client = loop {
            match gpm_serve::TcpClient::connect("127.0.0.1:47917") {
                Ok(client) => break client,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        };
        let request = Request::Energy {
            kernel: "LBM".to_string(),
            config: gpm_spec::FreqConfig::from_mhz(745, 3004),
        };
        let replies = client.pipeline(&[request.clone(), request]).unwrap();
        assert!(replies.iter().all(gpm_serve::Reply::is_ok), "{replies:?}");
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("served 2 requests"), "{out}");
        assert!(out.contains("0 errors"), "{out}");

        // Corrupt v2 on disk: the next open quarantines it, and fsck
        // exits non-zero with the report embedded in the error.
        let v2 = Path::new(&registry_path).join("models/k40c/v2.json");
        let mut bytes = fs::read_to_string(&v2).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&v2, bytes).unwrap();
        let err = call(&["registry", "fsck", "--registry", &registry_path]).unwrap_err();
        assert!(matches!(err, CliError::Pipeline(_)), "{err}");
        assert!(err.to_string().contains("quarantined"), "{err}");
        // The survivor still lists, with the active pointer fallen back.
        let out = call(&["models", "--registry", &registry_path]).unwrap();
        assert!(out.contains("k40c"), "{out}");
    }

    #[test]
    fn predict_rejects_unknown_apps() {
        let training_path = tmp("k40c-training2.json");
        let model_path = tmp("k40c-model2.json");
        call(&[
            "characterize",
            "--device",
            "tesla-k40c",
            "--out",
            &training_path,
            "--repeats",
            "1",
        ])
        .unwrap();
        call(&["train", "--training", &training_path, "--out", &model_path]).unwrap();
        assert!(matches!(
            call(&["predict", "--model", &model_path, "--app", "DOOM"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_files_are_io_errors() {
        assert!(matches!(
            call(&[
                "train",
                "--training",
                "/nonexistent/t.json",
                "--out",
                "/tmp/x"
            ]),
            Err(CliError::Io(_))
        ));
    }
}
