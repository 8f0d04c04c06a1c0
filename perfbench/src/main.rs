//! End-to-end and per-layer benchmark of the gpm pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit|serve|fleet_cap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the program under test sees
//! only those inputs. Each workload checks the program's outputs against
//! an independent computation or a property of the method (see
//! `checks.rs`), prints a digest of its simulated outputs and a host
//! stamp, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and the metrics. With `--trace 0` those are the end-to-end metrics,
//! timed with tracing off; with `--trace 1` the per-layer metrics,
//! computed from the benchmark's own spans around each public call.

mod checks;
mod fit;
mod fleet;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// `gpm-par` worker count: sized for a 2-core host.
pub const WORKERS: usize = 2;

/// Every end-to-end metric, printed by every workload with `--trace 0`.
/// Times are CPU time, which leaves out what the host steals; each
/// workload prints its wall-clock figures beside them (`wall:`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_cpu_ms", "ms"), ("peak_rss_mb", "MB")];

/// Every per-layer metric, printed by every workload with `--trace 1`.
/// A workload measures those in its own `LAYERS`; a layer that does no
/// work in a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("profiler.campaign_s", "s"),
    ("profiler.measurements_per_s", "1/s"),
    ("core.fit_s", "s"),
    ("core.coefficient_step_s", "s"),
    ("core.voltage_step_s", "s"),
    ("core.iterations", "count"),
    ("core.truth_mape_pct.tesla-k40c", "%"),
    ("core.truth_mape_pct.gtx-titan-x", "%"),
    ("core.truth_mape_pct.titan-xp", "%"),
    ("par.fit_speedup_2w", "x"),
    ("serve.registry.publish_ms", "ms"),
    ("serve.registry.load_ms", "ms"),
    ("serve.engine_us_per_req", "us"),
    ("serve.engine_miss_us.power", "us"),
    ("serve.engine_miss_us.energy", "us"),
    ("serve.engine_miss_us.pareto", "us"),
    ("serve.engine_miss_us.best_config", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.wire_us_per_req", "us"),
    ("serve.batch_mean", "count"),
    ("dvfs.governor_profiled", "count"),
    ("dvfs.pareto_dominated_points", "count"),
    ("fleet.class_fits_s", "s"),
    ("fleet.node_prepare_ms", "ms"),
    ("fleet.governor_steps_per_epoch", "count"),
    ("fleet.governor_ns_per_step", "ns"),
    ("fleet.uncapped_epoch_ms", "ms"),
];

/// What one run of a workload measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (GPU pipelines, requests, capped campaigns).
    pub attempted: u64,
    /// Operations that failed. One fault of the program fails an
    /// operation on every run and every seed, and is counted here alone:
    /// a `serve` Pareto reply with points dominated by a point of the
    /// same runtime. Any other failure is a violation as well.
    pub failed: u64,
    /// Check failures, and failures of operations the benchmark expects
    /// to succeed.
    pub violations: Vec<String>,
    /// Names of the checks that ran, for the report.
    pub checks: Vec<&'static str>,
    /// Digests of simulated outputs, `(label, hex)`.
    pub digests: Vec<(String, String)>,
    /// Measured metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, result: checks::Check) {
        if !self.checks.contains(&name) {
            self.checks.push(name);
        }
        if let Err(why) = result {
            if self.violations.len() < 20 {
                self.violations.push(format!("{name}: {why}"));
            } else if self.violations.len() == 20 {
                self.violations
                    .push("(further violations not listed)".into());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// A failed operation that should have succeeded: counted and
    /// reported as a violation.
    pub fn fail(&mut self, name: &'static str, why: String) {
        self.failed += 1;
        self.check(name, Err(why));
    }

    /// The value of a metric; `NaN` for one that was never measured.
    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fit", "serve", "fleet_cap"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (fit | serve | fleet_cap)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space of one run, inside the benchmark's own directory; it is
/// removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(args: &Args) -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!(
            "run-{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <fit|serve|fleet_cap> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    gpm_par::set_threads(Some(WORKERS));
    let scratch = match Scratch::new(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch space: {e}");
            return ExitCode::from(1);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let started = Instant::now();
    let (steal0, total0) = (util::steal_ticks(), util::total_ticks());

    let (mut out, layers) = match args.workload.as_str() {
        "fit" => (fit::run(&args, &tracer, scratch.path()), fit::LAYERS),
        "serve" => (serve::run(&args, &tracer, scratch.path()), serve::LAYERS),
        _ => (fleet::run(&args, &tracer), fleet::LAYERS),
    };
    out.set("peak_rss_mb", util::peak_rss_mb());
    if args.trace {
        for &(name, _) in &PER_LAYER {
            if !layers.contains(&name) {
                out.set(name, 0.0);
            }
        }
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let unmeasured: Vec<&str> = table
        .iter()
        .map(|&(name, _)| name)
        .filter(|&name| !out.value(name).is_finite())
        .collect();
    for name in unmeasured {
        out.check("metrics_measured", Err(format!("{name} was not measured")));
    }

    let steal = match (steal0, util::steal_ticks(), total0, util::total_ticks()) {
        (Some(s0), Some(s1), Some(t0), Some(t1)) => format!(
            "{} ticks ({:.1}% of host cpu time)",
            s1 - s0,
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ),
        _ => "unavailable".into(),
    };
    println!(
        "host: cores={} gpm_par_workers={} dispatch={} commit={} steal={} wall={:.1}s",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        gpm_par::current_threads(),
        gpm_linalg::batch::dispatch_kind(),
        util::commit_stamp(&repo_root()),
        steal,
        util::secs(started),
    );
    for (label, hex) in &out.digests {
        println!("digest {label}: {hex}");
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "checks: {} ({})",
        if out.violations.is_empty() {
            "all passed"
        } else {
            "FAILED"
        },
        out.checks.join(", ")
    );
    for v in &out.violations {
        println!("  violation: {v}");
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => println!("trace: {} spans -> {}", tracer.len(), path.display()),
            Err(e) => println!("trace: not written ({e})"),
        }
        // The same end-to-end figures, timed with tracing on: their gap
        // to an untraced run is the tracing overhead.
        let traced: Vec<String> = END_TO_END
            .iter()
            .map(|&(name, unit)| format!("{name}={} {unit}", out.value(name)))
            .collect();
        println!("end-to-end with tracing on: {}", traced.join(", "));
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = out.value(name);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            (
                name.to_string(),
                gpm_json::Json::Obj(vec![
                    ("value".into(), gpm_json::Json::Num(value)),
                    ("unit".into(), gpm_json::Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = gpm_json::Json::Obj(vec![
        (
            "correct".into(),
            gpm_json::Json::Bool(out.violations.is_empty()),
        ),
        (
            "attempted".into(),
            gpm_json::Json::Num(out.attempted as f64),
        ),
        ("failed".into(), gpm_json::Json::Num(out.failed as f64)),
        ("metrics".into(), gpm_json::Json::Obj(metrics)),
    ]);
    drop(scratch);
    println!("{}", gpm_json::write(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(json: &gpm_json::Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &gpm_json::Json, f: &str| {
            m.get(f)
                .and_then(gpm_json::Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        json.get(key)
            .and_then(gpm_json::Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn every_per_layer_metric_is_measured_somewhere() {
        let names: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        for layers in [fit::LAYERS, serve::LAYERS, fleet::LAYERS] {
            for name in layers {
                assert!(names.contains(name), "{name} is not a per-layer metric");
            }
        }
        for name in names {
            assert!(
                [fit::LAYERS, serve::LAYERS, fleet::LAYERS]
                    .iter()
                    .any(|l| l.contains(&name)),
                "no workload measures {name}"
            );
        }
    }

    #[test]
    fn an_unmeasured_metric_is_not_a_number() {
        let mut out = Outcome::default();
        assert!(out.value("op_cpu_ms").is_nan());
        out.set("op_cpu_ms", 1.5);
        assert_eq!(out.value("op_cpu_ms"), 1.5);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let json = gpm_json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed(&json, key),
                ours,
                "{key} differs from BENCHMARK.json"
            );
        }
    }
}
