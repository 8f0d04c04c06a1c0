//! `fleet_cap`: power-capped campaigns over prepared fleets.
//!
//! Set-up prepares fleets of `NODES` nodes over all six device classes
//! (`FleetSim::prepare`: six serial class fits, then the node fan-out):
//! `FLEETS` fleets from seeds derived from `--seed`, and the first one
//! twice, whose two preparations must agree digest for digest; the
//! median preparation is reported. After each preparation comes its
//! share of the timed part: whole sweeps over eight caps from 95% to 60%
//! of that fleet's uncapped peak, one two-epoch campaign per cap. Under a
//! cap every governor down-step rescans every node, so this workload
//! carries the cluster governor; the serve engine, cache and reactor are
//! absent.

use crate::checks::{self, CapRow};
use crate::trace::Tracer;
use crate::util::{median, quantile, secs, Clock, Digest, Rng};
use crate::{Args, Outcome};
use gpm_core::Estimator;
use gpm_fleet::{ClassContext, FleetConfig, FleetSim, FleetTrace, NodeState, CLASS_SLUGS};
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_workloads::{microbenchmark_suite, Category};
use std::time::Instant;

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "fleet.class_fits_s",
    "fleet.node_prepare_ms",
    "fleet.governor_steps_per_epoch",
    "fleet.governor_ns_per_step",
    "fleet.uncapped_epoch_ms",
];

/// About a thousand nodes, an equal share per class.
const NODES: usize = 1_002;
/// Epochs per campaign: short campaigns give many samples per cap.
const EPOCHS: usize = 2;
const CAP_FRACTIONS: [f64; 8] = [0.95, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60];
/// Fleets per run, each from its own seed derived from `--seed`: the
/// governor's CPU time per epoch differs by up to 15% from fleet to
/// fleet, and a run over several fleets varies less from seed to seed.
const FLEETS: usize = 3;
/// The preparations of a run, by fleet: each fleet once, then the first
/// again for the repeat-preparation check. All are timed for the
/// `setup_s` median, and each is followed by its share of the sweeps.
const PREPARATIONS: [usize; 4] = [0, 1, 2, 0];
/// Uncapped campaigns timed for the zero-step control.
const UNCAPPED_RUNS: usize = 21;
/// Passes of single-node preparations for `fleet.node_prepare_ms`, and
/// nodes per pass (an equal share per class).
const NODE_PASSES: usize = 5;
const NODES_PER_PASS: usize = 120;

fn config(seed: u64, nodes: usize) -> FleetConfig {
    FleetConfig {
        nodes,
        epochs: EPOCHS,
        seed,
        ..FleetConfig::default()
    }
}

/// The benchmark's own digest of a prepared fleet: every node's class,
/// schedule, baselines and every rung of every ladder.
fn fleet_digest(sim: &FleetSim) -> String {
    let mut d = Digest::new();
    for node in sim.nodes() {
        d.write(&(node.id as u64).to_le_bytes());
        d.write(&(node.class as u64).to_le_bytes());
        for &k in &node.schedule {
            d.write(&(k as u64).to_le_bytes());
        }
        for &(p, t) in &node.baselines {
            d.write_f64(p);
            d.write_f64(t);
        }
        for ladder in &node.ladders {
            d.write_f64(ladder.reference_time_s);
            d.write_f64(ladder.deadline_s);
            for r in &ladder.rungs {
                let (core, mem) = r
                    .config
                    .map_or((0.0, 0.0), |c| (c.core.as_f64(), c.mem.as_f64()));
                for v in [
                    core,
                    mem,
                    r.power_w,
                    r.time_s,
                    r.energy_j,
                    f64::from(u8::from(r.miss)),
                ] {
                    d.write_f64(v);
                }
            }
        }
    }
    d.hex()
}

/// One fleet of a run and what its campaigns produced.
struct Fleet {
    cfg: FleetConfig,
    /// Digest of its first preparation: ladders and the uncapped trace.
    prepared: Option<String>,
    uncapped: Option<FleetTrace>,
    /// Its caps in watts, in `CAP_FRACTIONS` order.
    caps: Vec<f64>,
    /// Its first trace at each cap.
    first: Vec<FleetTrace>,
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut fleets: Vec<Fleet> = (0..FLEETS)
        .map(|i| Fleet {
            cfg: config(Rng::derive(args.seed, 0xF1EE7 + i as u64).next_u64(), NODES),
            prepared: None,
            uncapped: None,
            caps: Vec::new(),
            first: Vec::new(),
        })
        .collect();

    // Each preparation is followed by its share of the timed sweeps, so
    // the samples spread over the whole run: the host's speed drifts on a
    // scale of tens of seconds, and one block of sweeps saw only one state.
    let mut setups = Vec::with_capacity(PREPARATIONS.len());
    let mut setups_cpu = Vec::with_capacity(PREPARATIONS.len());
    // Epoch wall and CPU time per campaign, by cap, over all fleets.
    let mut epoch_s: Vec<Vec<f64>> = vec![Vec::new(); CAP_FRACTIONS.len()];
    let mut epoch_cpu: Vec<Vec<f64>> = vec![Vec::new(); CAP_FRACTIONS.len()];
    let (mut steps, mut sweeps) = (0usize, 0usize);
    for &f in &PREPARATIONS {
        let fleet = &mut fleets[f];
        let t = Clock::start();
        let result = tracer.run("fleet.prepare", || FleetSim::prepare(&fleet.cfg));
        setups.push(t.wall_s());
        setups_cpu.push(t.cpu_s());
        let sim = match result {
            Ok(sim) => sim,
            Err(e) => {
                out.attempted += 1;
                out.fail("prepare", format!("fleet {f}: {e}"));
                continue;
            }
        };
        let digest = format!("{}/{}", fleet_digest(&sim), sim.campaign(None).digest);
        match &fleet.prepared {
            None => fleet.prepared = Some(digest),
            Some(first) => out.check(
                "repeat_prepare_identical",
                if *first == digest {
                    Ok(())
                } else {
                    Err(format!(
                        "fleet {f}: preparations disagree: {first} vs {digest}"
                    ))
                },
            ),
        }

        if fleet.uncapped.is_none() {
            // The uncapped campaign, repeated: the zero-step control.
            for _ in 0..UNCAPPED_RUNS {
                fleet.uncapped = Some(tracer.run("fleet.uncapped", || sim.campaign(None)));
            }
            let u = fleet
                .uncapped
                .as_ref()
                .expect("at least one uncapped campaign");
            out.check(
                "uncapped_saves",
                checks::uncapped_saves(u.energy_j, u.baseline_energy_j),
            );
            fleet.caps = CAP_FRACTIONS.iter().map(|c| c * u.peak_power_w).collect();
        }

        // Whole sweeps over the caps until this share of the run is up.
        let share = args.seconds / PREPARATIONS.len() as f64;
        let start = Instant::now();
        let mut here = 0;
        while here == 0 || secs(start) < share {
            for (i, &cap) in fleet.caps.iter().enumerate() {
                out.attempted += 1;
                let g = tracer.span("fleet.campaign");
                let t = Clock::start();
                let trace = sim.campaign(Some(cap));
                epoch_s[i].push(t.wall_s() / EPOCHS as f64);
                epoch_cpu[i].push(t.cpu_s() / EPOCHS as f64);
                let trace_steps: usize = trace.epochs.iter().map(|e| e.governor_steps).sum();
                g.set("governor_steps", trace_steps as f64);
                drop(g);
                steps += trace_steps;
                let powers: Vec<f64> = trace.epochs.iter().map(|e| e.power_w).collect();
                out.check("epochs_under_cap", checks::epochs_under_cap(&powers, cap));
                match fleet.first.get(i) {
                    None => fleet.first.push(trace),
                    Some(first) if first.digest != trace.digest => out.check(
                        "campaign_repeatable",
                        Err(format!(
                            "fleet {f}, cap {cap} W: digest {} then {}",
                            first.digest, trace.digest
                        )),
                    ),
                    Some(_) => out.check("campaign_repeatable", Ok(())),
                }
            }
            here += 1;
        }
        sweeps += here;
    }
    out.set("setup_s", median(&setups_cpu));
    if fleets.iter().any(|f| f.first.len() < CAP_FRACTIONS.len()) {
        return out;
    }
    for (f, fleet) in fleets.iter().enumerate() {
        let rows: Vec<CapRow> = fleet
            .caps
            .iter()
            .zip(&fleet.first)
            .map(|(&cap_w, t)| CapRow {
                cap_w,
                energy_j: t.energy_j,
                shed: t.shed,
            })
            .collect();
        out.check(
            "energy_monotone_in_cap",
            checks::energy_monotone_in_cap(&rows),
        );
        out.digests.push((
            format!("fleet {f} prepared (ladders/uncapped trace)"),
            fleet.prepared.clone().unwrap_or_default(),
        ));
    }
    for (i, frac) in CAP_FRACTIONS.iter().enumerate() {
        let mut d = Digest::new();
        for fleet in &fleets {
            d.write(fleet.first[i].digest.to_string().as_bytes());
        }
        out.digests.push((
            format!("fleet traces at {:.0}% cap ({FLEETS} fleets)", frac * 100.0),
            d.hex(),
        ));
    }

    // Each cap's median epoch over the sweeps of all fleets, then the
    // mean over the caps: a single campaign's time swings by a quarter
    // within one run on a shared host, its median over sweeps much less;
    // and the mean weighs every cap alike, where a median over caps would
    // pick the cap whose step count varies most from fleet to fleet.
    let per_cap_cpu: Vec<f64> = epoch_cpu.iter().map(|s| median(s)).collect();
    out.set(
        "op_cpu_ms",
        per_cap_cpu.iter().sum::<f64>() / per_cap_cpu.len() as f64 * 1e3,
    );
    let per_cap: Vec<f64> = epoch_s.iter().map(|s| median(s)).collect();
    out.notes.push(format!(
        "wall: set-up {:.3} s, capped epoch p50 {:.2} ms p90 {:.2} ms (over the caps' medians)",
        median(&setups),
        median(&per_cap) * 1e3,
        quantile(&per_cap, 0.9) * 1e3
    ));
    for (f, fleet) in fleets.iter().enumerate() {
        let u = fleet.uncapped.as_ref().expect("every fleet ran uncapped");
        out.notes.push(format!(
            "fleet_cap: fleet {f}: {NODES} nodes x {} classes, uncapped peak {:.0} W, \
             energy {:.0} J vs baseline {:.0} J; per cap (energy J, shed, misses): {}",
            CLASS_SLUGS.len(),
            u.peak_power_w,
            u.energy_j,
            u.baseline_energy_j,
            fleet
                .first
                .iter()
                .map(|t| format!("({:.0}, {}, {})", t.energy_j, t.shed, t.misses))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    out.notes.push(format!(
        "fleet_cap: {sweeps} sweeps of {} caps x {EPOCHS} epochs",
        CAP_FRACTIONS.len()
    ));

    if tracer.enabled() {
        // Class fits alone: a fleet of one node per class, prepared three
        // times.
        let cfg = &fleets[0].cfg;
        let small = config(cfg.seed, CLASS_SLUGS.len());
        for _ in 0..3 {
            let class_fits = tracer.run("fleet.class_fits", || FleetSim::prepare(&small));
            if let Err(e) = class_fits {
                out.check("class_fits", Err(e.to_string()));
            }
        }
        out.set(
            "fleet.class_fits_s",
            median(&tracer.secs_of("fleet.class_fits")),
        );
        match node_prepare_s(cfg, cfg.seed, tracer) {
            Ok(s) => out.set("fleet.node_prepare_ms", s * 1e3),
            Err(e) => out.check("node_prepare", Err(e)),
        }
        let capped_epochs = (CAP_FRACTIONS.len() * sweeps * EPOCHS) as f64;
        out.set(
            "fleet.governor_steps_per_epoch",
            steps as f64 / capped_epochs,
        );
        let uncapped_epoch = median(&tracer.secs_of("fleet.uncapped")) / EPOCHS as f64;
        out.set("fleet.uncapped_epoch_ms", uncapped_epoch * 1e3);
        let traced_capped: f64 = tracer.secs_of("fleet.campaign").iter().sum();
        out.set(
            "fleet.governor_ns_per_step",
            (traced_capped - uncapped_epoch * capped_epochs) / steps.max(1) as f64 * 1e9,
        );
    }
    out
}

/// Wall time of one `NodeState::prepare`, timed call by call rather than
/// as a difference of two whole preparations (whose noise is larger than
/// the node fan-out itself). The class contexts are built untimed, as
/// `FleetSim::prepare` builds them: a one-repeat campaign and a fit per
/// class. Returns the median over passes of the mean per node, each pass
/// an equal share of nodes per class.
fn node_prepare_s(cfg: &FleetConfig, seed: u64, tracer: &Tracer) -> Result<f64, String> {
    let mut rng = Rng::derive(seed, 0x40DE);
    let mut classes = Vec::with_capacity(CLASS_SLUGS.len());
    for (name, spec) in cfg.class_specs().map_err(|e| e.to_string())? {
        let suite = microbenchmark_suite(&spec);
        let mut gpu = SimulatedGpu::new(spec.clone(), rng.next_u64());
        let training = Profiler::with_repeats(&mut gpu, 1)
            .profile_suite(&suite)
            .map_err(|e| format!("class `{name}` profiling: {e}"))?;
        let model = Estimator::new()
            .fit(&training)
            .map_err(|e| format!("class `{name}` fit: {e}"))?;
        let l2_suite = suite
            .iter()
            .filter(|k| k.category() == Category::L2)
            .cloned()
            .collect();
        let grid = spec.vf_grid();
        classes.push(ClassContext {
            spec,
            model,
            l2_suite,
            grid,
        });
    }
    let mut passes = Vec::with_capacity(NODE_PASSES);
    for _ in 0..NODE_PASSES {
        let g = tracer.span("fleet.node_prepare");
        let t = Instant::now();
        for id in 0..NODES_PER_PASS {
            let class = id % classes.len();
            let node =
                NodeState::prepare(id, class, &classes[class], cfg, rng.next_u64(), None, false)
                    .map_err(|e| format!("node {id}: {e}"))?;
            std::hint::black_box(node.ladders.len());
        }
        passes.push(secs(t) / NODES_PER_PASS as f64);
        drop(g);
    }
    Ok(median(&passes))
}
