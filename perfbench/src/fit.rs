//! `fit`: rounds of the paper's pipeline on the three paper GPUs.
//!
//! Each round draws a fresh seed and, per GPU, runs the 83-kernel
//! microbenchmark campaign at the paper's 10 repeats, a cold
//! `fit_with_report`, reference profiles and one batched grid
//! prediction for each of the 26 held-out validation kernels, then
//! publishes the model to a fresh on-disk registry and loads it back.
//! The estimator dominates a round, so this workload carries the
//! profiler, estimator, `gpm-par` and registry layers; the serve engine
//! and the fleet governor are absent.

use crate::checks;
use crate::trace::Tracer;
use crate::util::{median, quantile, secs, Clock, Digest, Rng};
use crate::{Args, Outcome};
use gpm_core::{Estimator, FitReport, PowerModel, TrainingSet, Utilizations};
use gpm_profiler::Profiler;
use gpm_serve::ModelRegistry;
use gpm_sim::SimulatedGpu;
use gpm_spec::{devices, DeviceSpec, FreqConfig};
use gpm_workloads::{microbenchmark_suite, validation_suite, KernelDesc};
use std::path::Path;
use std::time::Instant;

/// A GPU of the paper: slug, spec and the mean absolute error the paper
/// reports for it (Section V); held-out truth error must stay below it.
type PaperGpu = (&'static str, fn() -> DeviceSpec, f64);

pub const GPUS: [PaperGpu; 3] = [
    ("tesla-k40c", devices::tesla_k40c, 12.4),
    ("gtx-titan-x", devices::gtx_titan_x, 6.0),
    ("titan-xp", devices::titan_xp, 6.9),
];

/// The paper's protocol: median of 10 power readings per cell.
pub const REPEATS: u32 = 10;

/// Set-ups timed for the `setup_s` median.
const SETUPS: usize = 5;

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "profiler.campaign_s",
    "profiler.measurements_per_s",
    "core.fit_s",
    "core.coefficient_step_s",
    "core.voltage_step_s",
    "core.iterations",
    "core.truth_mape_pct.tesla-k40c",
    "core.truth_mape_pct.gtx-titan-x",
    "core.truth_mape_pct.titan-xp",
    "par.fit_speedup_2w",
    "serve.registry.publish_ms",
    "serve.registry.load_ms",
];

/// The inputs of one GPU's pipeline.
struct Inputs {
    slug: &'static str,
    paper_mape: f64,
    gpu: SimulatedGpu,
    suite: Vec<KernelDesc>,
    apps: Vec<KernelDesc>,
    grid: Vec<FreqConfig>,
}

/// What one GPU's pipeline produced, kept for the checks.
pub struct Fitted {
    pub training: TrainingSet,
    pub model: PowerModel,
    /// Reference utilizations and batched grid predictions per
    /// validation kernel.
    pub profiles: Vec<Utilizations>,
    pub predictions: Vec<Vec<f64>>,
    pub loaded: PowerModel,
}

/// Builds a round's inputs: the simulated devices, their suites and grids.
fn inputs(round_seed: u64) -> Vec<Inputs> {
    GPUS.iter()
        .enumerate()
        .map(|(i, &(slug, spec, paper_mape))| {
            let spec = spec();
            Inputs {
                slug,
                paper_mape,
                gpu: SimulatedGpu::new(spec.clone(), Rng::derive(round_seed, i as u64).next_u64()),
                suite: microbenchmark_suite(&spec),
                apps: validation_suite(&spec),
                grid: spec.vf_grid(),
            }
        })
        .collect()
}

/// A cold `fit_with_report` in a `core.fit` span carrying the iteration
/// count and the `FitReport::timings` of the coefficient and voltage
/// steps.
pub fn cold_fit(
    training: &TrainingSet,
    tracer: &Tracer,
) -> Result<(PowerModel, FitReport), String> {
    let g = tracer.span("core.fit");
    let (model, report) = Estimator::new()
        .fit_with_report(training)
        .map_err(|e| format!("fit: {e}"))?;
    g.set("iterations", report.iterations as f64);
    let phase = |label| {
        report
            .timings
            .total_of(label)
            .map_or(0.0, |d| d.as_secs_f64())
    };
    g.set("coefficient_step_s", phase("coefficient_step"));
    g.set("voltage_step_s", phase("voltage_step"));
    Ok((model, report))
}

/// One GPU's timed pipeline: campaign, cold fit, validation predictions,
/// publish and load.
fn pipeline(inp: &mut Inputs, registry: &ModelRegistry, tracer: &Tracer) -> Result<Fitted, String> {
    let mut profiler = Profiler::with_repeats(&mut inp.gpu, REPEATS);
    let training = {
        let g = tracer.span("profiler.campaign");
        let t = profiler
            .profile_suite(&inp.suite)
            .map_err(|e| e.to_string())?;
        g.set(
            "readings",
            (t.samples.len() * inp.grid.len()) as f64 * f64::from(REPEATS),
        );
        t
    };
    let (model, report) = cold_fit(&training, tracer)?;
    let mut profiles = Vec::with_capacity(inp.apps.len());
    let mut predictions = Vec::with_capacity(inp.apps.len());
    for app in &inp.apps {
        let profile = tracer
            .run("profiler.reference", || profiler.profile_at_reference(app))
            .map_err(|e| e.to_string())?;
        let grid = tracer
            .run("core.predict_batch", || {
                model.predict_batch(&profile.utilizations, &inp.grid)
            })
            .map_err(|e| e.to_string())?;
        profiles.push(profile.utilizations);
        predictions.push(grid);
    }
    let version = tracer
        .run("serve.registry.publish", || {
            registry.publish(inp.slug, &model, Some(&report))
        })
        .map_err(|e| e.to_string())?;
    let loaded = tracer
        .run("serve.registry.load", || {
            registry.load(inp.slug, Some(version))
        })
        .map_err(|e| e.to_string())?
        .model;
    Ok(Fitted {
        training,
        model,
        profiles,
        predictions,
        loaded,
    })
}

/// The checks of one pipeline, outside the timed region; returns the
/// held-out truth error.
fn check(inp: &mut Inputs, fitted: &Fitted, out: &mut Outcome) -> f64 {
    // Held-out error against the simulator's hidden ground truth, at
    // every grid configuration of every validation kernel.
    let (mut predicted, mut truth) = (Vec::new(), Vec::new());
    for (app, grid_pred) in inp.apps.iter().zip(&fitted.predictions) {
        for (&config, &p) in inp.grid.iter().zip(grid_pred) {
            if inp.gpu.set_clocks(config).is_err() {
                out.check(
                    "truth_error",
                    Err(format!("{} rejects its own grid point {config}", inp.slug)),
                );
                continue;
            }
            let exec = inp.gpu.execute(app);
            predicted.push(p);
            truth.push(inp.gpu.truth().true_power(config, &exec.utilizations));
        }
    }
    let mape = checks::mape_pct(&predicted, &truth);
    out.check(
        "truth_error",
        checks::truth_error(inp.slug, mape, inp.paper_mape),
    );
    out.check("voltage_curves", checks::voltage_curves(&fitted.model));

    // The registry round trip: same bytes, bit-identical predictions.
    let round_trip = if fitted.loaded.to_json().ok() != fitted.model.to_json().ok() {
        Err(format!("{}: loaded model serializes differently", inp.slug))
    } else {
        fitted
            .profiles
            .iter()
            .zip(&fitted.predictions)
            .zip(&inp.apps)
            .try_for_each(
                |((u, grid_pred), app)| match fitted.loaded.predict_batch(u, &inp.grid) {
                    Ok(p)
                        if p.iter()
                            .map(|x| x.to_bits())
                            .eq(grid_pred.iter().map(|x| x.to_bits())) =>
                    {
                        Ok(())
                    }
                    _ => Err(format!(
                        "{}: loaded model predicts differently for {}",
                        inp.slug,
                        app.name()
                    )),
                },
            )
    };
    out.check("registry_round_trip", round_trip);
    mape
}

pub fn run(args: &Args, tracer: &Tracer, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: the time to a first served model, a GTX Titan X pipeline
    // from a cold device to a loaded registry entry, repeated with one
    // seed. Building a round's devices and suites alone takes tens of
    // microseconds, too little to time steadily on a shared host.
    let setup_seed = Rng::derive(args.seed, 0x5E7).next_u64();
    let quiet = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setups_cpu = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let t = Clock::start();
        let mut inp = inputs(setup_seed)
            .into_iter()
            .find(|inp| inp.slug == "gtx-titan-x")
            .expect("the GTX Titan X is one of the paper GPUs");
        let result = ModelRegistry::open(scratch.join(format!("setup-{i}")))
            .map_err(|e| e.to_string())
            .and_then(|registry| pipeline(&mut inp, &registry, &quiet));
        setups.push(t.wall_s());
        setups_cpu.push(t.cpu_s());
        if let Err(e) = result {
            out.check("setup", Err(format!("set-up {i}: {e}")));
        }
    }
    out.set("setup_s", median(&setups_cpu));

    let mut rounds = Vec::new();
    let mut rounds_cpu = Vec::new();
    let mut mape: Vec<Vec<f64>> = vec![Vec::new(); GPUS.len()];
    let mut last_titan_x: Option<TrainingSet> = None;
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || secs(start) < args.seconds {
        let round_seed = Rng::derive(args.seed, round).next_u64();
        let mut inps = inputs(round_seed);
        let registry = match ModelRegistry::open(scratch.join(format!("round-{round}"))) {
            Ok(r) => r,
            Err(e) => {
                out.attempted += GPUS.len() as u64;
                for _ in GPUS {
                    out.fail("pipeline", format!("round {round}: registry: {e}"));
                }
                round += 1;
                continue;
            }
        };
        let mut digest = Digest::new();
        let mut round_s = 0.0;
        let mut round_cpu = 0.0;
        let mut all_ok = true;
        let round_span = tracer.span("round");
        for (i, inp) in inps.iter_mut().enumerate() {
            out.attempted += 1;
            let t = Clock::start();
            let result = pipeline(inp, &registry, tracer);
            round_s += t.wall_s();
            round_cpu += t.cpu_s();
            match result {
                Ok(fitted) => {
                    match fitted.model.to_json() {
                        Ok(json) => digest.write(json.as_bytes()),
                        Err(e) => out.check("model_serializes", Err(e.to_string())),
                    }
                    let g = tracer.span("checks");
                    mape[i].push(check(inp, &fitted, &mut out));
                    drop(g);
                    if inp.slug == "gtx-titan-x" {
                        last_titan_x = Some(fitted.training);
                    }
                }
                Err(e) => {
                    all_ok = false;
                    out.fail("pipeline", format!("round {round} {}: {e}", inp.slug));
                }
            }
        }
        drop(round_span);
        if all_ok {
            rounds.push(round_s);
            rounds_cpu.push(round_cpu);
        }
        out.digests
            .push((format!("fit round {round} models"), digest.hex()));
        let _ = std::fs::remove_dir_all(registry.root());
        round += 1;
    }
    let p50 = median(&rounds);
    out.set("op_cpu_ms", median(&rounds_cpu) * 1e3);
    out.notes.push(format!(
        "wall: set-up {:.3} s, round p50 {:.1} ms p90 {:.1} ms, {:.3} rounds/s",
        median(&setups),
        p50 * 1e3,
        quantile(&rounds, 0.9) * 1e3,
        1.0 / p50
    ));
    out.notes.push(format!(
        "fit: {} rounds of {} GPUs, round median {:.3} s, held-out truth error median {}",
        rounds.len(),
        GPUS.len(),
        p50,
        GPUS.iter()
            .zip(&mape)
            .map(|((slug, _, paper), m)| format!("{slug} {:.2}% (paper {paper}%)", median(m)))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    if tracer.enabled() {
        per_layer(tracer, &mape, last_titan_x.as_ref(), &mut out);
    }
    out
}

/// Per-layer metrics from the traced run's spans.
fn per_layer(tracer: &Tracer, mape: &[Vec<f64>], titan_x: Option<&TrainingSet>, out: &mut Outcome) {
    // Per-round sums over the three GPUs, then the median over rounds.
    let per_round = |name: &str, attr: Option<&str>| -> f64 {
        let spans = tracer.named(name);
        let rounds = tracer.named("round");
        let sums: Vec<f64> = rounds
            .iter()
            .map(|r| {
                spans
                    .iter()
                    .filter(|s| s.start_ns >= r.start_ns && s.end_ns <= r.end_ns)
                    .map(|s| attr.map_or_else(|| s.secs(), |a| s.attr(a).unwrap_or(0.0)))
                    .sum()
            })
            .collect();
        median(&sums)
    };
    out.set("profiler.campaign_s", per_round("profiler.campaign", None));
    let campaigns = tracer.named("profiler.campaign");
    let readings: f64 = campaigns.iter().filter_map(|s| s.attr("readings")).sum();
    let campaign_s: f64 = campaigns.iter().map(|s| s.secs()).sum();
    out.set(
        "profiler.measurements_per_s",
        readings / campaign_s.max(1e-12),
    );
    out.set("core.fit_s", per_round("core.fit", None));
    out.set(
        "core.coefficient_step_s",
        per_round("core.fit", Some("coefficient_step_s")),
    );
    out.set(
        "core.voltage_step_s",
        per_round("core.fit", Some("voltage_step_s")),
    );
    out.set("core.iterations", per_round("core.fit", Some("iterations")));
    for ((slug, _, _), m) in GPUS.iter().zip(mape) {
        let name = match *slug {
            "tesla-k40c" => "core.truth_mape_pct.tesla-k40c",
            "gtx-titan-x" => "core.truth_mape_pct.gtx-titan-x",
            _ => "core.truth_mape_pct.titan-xp",
        };
        out.set(name, median(m));
    }
    out.set(
        "serve.registry.publish_ms",
        median(&tracer.secs_of("serve.registry.publish")) * 1e3,
    );
    out.set(
        "serve.registry.load_ms",
        median(&tracer.secs_of("serve.registry.load")) * 1e3,
    );

    // One GTX Titan X fit at 1 and at 2 workers, alternating.
    if let Some(training) = titan_x {
        let estimator = Estimator::new();
        for _ in 0..3 {
            for (workers, name) in [(1, "core.fit.1w"), (2, "core.fit.2w")] {
                gpm_par::set_threads(Some(workers));
                let fit = tracer.run(name, || estimator.fit(training));
                std::hint::black_box(fit.is_ok());
            }
        }
        gpm_par::set_threads(Some(crate::WORKERS));
        out.set(
            "par.fit_speedup_2w",
            median(&tracer.secs_of("core.fit.1w")) / median(&tracer.secs_of("core.fit.2w")),
        );
    }
}
