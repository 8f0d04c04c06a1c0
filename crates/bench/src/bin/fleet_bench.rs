//! Fleet-simulation benchmark: determinism, scaling and cap adherence.
//!
//! Three studies, written together to `BENCH_fleet.json`:
//!
//! - **Determinism** — one fault-ridden fleet (node failures + degraded
//!   sensors) prepared at 1, 4 and 8 `gpm-par` threads; the three
//!   serialized traces must be byte-identical.
//! - **Scaling** — fleet preparation + campaign wall-clock as the node
//!   count doubles up to 2,000 nodes across all six device classes.
//! - **Cap study** — on the 2,000-node fleet, a cap sweep at fractions
//!   of the uncapped peak: every epoch must come in at or under its cap,
//!   and the energy saved versus the all-reference baseline is recorded
//!   with the wall-clock time of each cap's campaign (the governor's
//!   cost; the scaling rows' campaigns are uncapped).
//!
//! `--gate` runs the CI smoke variant: a small fault-ridden fleet,
//! thread-count byte-identity at 1 and 4 threads, and cap adherence —
//! a couple of seconds in release, asserting the same contracts.

use gpm_bench::{heading, REPRO_SEED};
use gpm_fleet::{FleetConfig, FleetSim, FleetTrace};
use gpm_json::impl_json;
use std::time::Instant;

/// Thread counts the determinism study compares.
const THREADS: [usize; 3] = [1, 4, 8];
/// Node counts of the scaling sweep (the last one is the cap-study fleet).
const SCALING_NODES: [usize; 4] = [250, 500, 1000, 2000];
/// Cap fractions of the uncapped peak swept by the cap study.
const CAP_FRACTIONS: [f64; 3] = [0.9, 0.75, 0.6];

struct DeterminismReport {
    nodes: usize,
    threads: Vec<usize>,
    digest: String,
    trace_bytes: usize,
    identical: bool,
    failed_nodes: usize,
    degraded_nodes: usize,
    blind_kernels: u64,
}

impl_json!(struct DeterminismReport {
    nodes,
    threads,
    digest,
    trace_bytes,
    identical,
    failed_nodes,
    degraded_nodes,
    blind_kernels,
});

struct ScalingRow {
    nodes: usize,
    prepare_s: f64,
    campaign_s: f64,
    nodes_per_s: f64,
}

impl_json!(struct ScalingRow { nodes, prepare_s, campaign_s, nodes_per_s });

struct CapRow {
    cap_w: f64,
    peak_epoch_power_w: f64,
    cap_respected: bool,
    energy_j: f64,
    saved_vs_uncapped_pct: f64,
    saved_vs_baseline_pct: f64,
    misses: usize,
    shed: usize,
    campaign_s: f64,
}

impl_json!(struct CapRow {
    cap_w,
    peak_epoch_power_w,
    cap_respected,
    energy_j,
    saved_vs_uncapped_pct,
    saved_vs_baseline_pct,
    misses,
    shed,
    campaign_s,
});

struct CapStudy {
    nodes: usize,
    epochs: usize,
    uncapped_peak_w: f64,
    uncapped_energy_j: f64,
    baseline_energy_j: f64,
    uncapped_saved_vs_baseline_pct: f64,
    rows: Vec<CapRow>,
}

impl_json!(struct CapStudy {
    nodes,
    epochs,
    uncapped_peak_w,
    uncapped_energy_j,
    baseline_energy_j,
    uncapped_saved_vs_baseline_pct,
    rows,
});

struct FleetBenchReport {
    seed: u64,
    available_parallelism: usize,
    classes: Vec<String>,
    determinism: DeterminismReport,
    scaling: Vec<ScalingRow>,
    cap_study: CapStudy,
}

impl_json!(struct FleetBenchReport {
    seed,
    available_parallelism,
    classes,
    determinism,
    scaling,
    cap_study,
});

/// The fault-ridden configuration the determinism study runs: failures
/// and degraded sensors must not break byte-identity.
fn faulty_config(nodes: usize, epochs: usize) -> FleetConfig {
    FleetConfig {
        nodes,
        epochs,
        seed: REPRO_SEED,
        fail_rate: 0.1,
        degraded_rate: 0.1,
        fault_preset: "transient".into(),
        ..FleetConfig::default()
    }
}

fn trace_bytes(trace: &FleetTrace) -> Vec<u8> {
    gpm_json::to_string(trace)
        .expect("fleet trace serializes")
        .into_bytes()
}

/// Prepares and runs one campaign at a pinned thread count, returning
/// the serialized trace.
fn run_at(config: &FleetConfig, threads: usize, cap_w: Option<f64>) -> (FleetTrace, Vec<u8>) {
    gpm_par::set_threads(Some(threads));
    let sim = FleetSim::prepare(config).expect("fleet preparation");
    let trace = sim.campaign(cap_w);
    gpm_par::set_threads(None);
    let bytes = trace_bytes(&trace);
    (trace, bytes)
}

fn determinism_study(nodes: usize, epochs: usize, threads: &[usize]) -> DeterminismReport {
    let config = faulty_config(nodes, epochs);
    let mut reference: Option<(FleetTrace, Vec<u8>)> = None;
    let mut identical = true;
    for &t in threads {
        let (trace, bytes) = run_at(&config, t, None);
        match &reference {
            None => reference = Some((trace, bytes)),
            Some((_, ref_bytes)) => {
                let same = *ref_bytes == bytes;
                println!("  threads {t}: byte-identical = {same}");
                identical &= same;
            }
        }
    }
    let (trace, bytes) = reference.expect("at least one thread count");
    assert!(
        identical,
        "fleet traces diverged across thread counts {threads:?}"
    );
    // Reproducibility from the fixed seed: a fresh preparation at the
    // default thread count must reproduce the same bytes.
    let sim = FleetSim::prepare(&config).expect("fleet preparation");
    assert_eq!(
        trace_bytes(&sim.campaign(None)),
        bytes,
        "re-preparation from the same seed diverged"
    );
    println!(
        "  {} nodes ({} failed, {} degraded, {} blind kernels), digest {}",
        nodes, trace.failed_nodes, trace.degraded_nodes, trace.blind_kernels, trace.digest
    );
    DeterminismReport {
        nodes,
        threads: threads.to_vec(),
        digest: trace.digest.clone(),
        trace_bytes: bytes.len(),
        identical,
        failed_nodes: trace.failed_nodes,
        degraded_nodes: trace.degraded_nodes,
        blind_kernels: trace.blind_kernels,
    }
}

fn cap_study(sim: &FleetSim, uncapped: &FleetTrace) -> CapStudy {
    let mut rows = Vec::new();
    println!(
        "{:>10} {:>10} {:>12} {:>9} {:>7} {:>6} {:>10}  ok",
        "cap W", "peak W", "energy J", "saved %", "misses", "shed", "campaign"
    );
    for frac in CAP_FRACTIONS {
        let cap = uncapped.peak_power_w * frac;
        let t0 = Instant::now();
        let trace = sim.campaign(Some(cap));
        let campaign_s = t0.elapsed().as_secs_f64();
        assert!(
            trace.cap_respected(),
            "epoch over cap at {frac} x uncapped peak"
        );
        let row = CapRow {
            cap_w: cap,
            peak_epoch_power_w: trace.peak_power_w,
            cap_respected: trace.cap_respected(),
            energy_j: trace.energy_j,
            saved_vs_uncapped_pct: (1.0 - trace.energy_j / uncapped.energy_j) * 100.0,
            saved_vs_baseline_pct: trace.savings_pct,
            misses: trace.misses,
            shed: trace.shed,
            campaign_s,
        };
        println!(
            "{:>10.0} {:>10.0} {:>12.0} {:>9.1} {:>7} {:>6} {:>9.4}s  {}",
            row.cap_w,
            row.peak_epoch_power_w,
            row.energy_j,
            row.saved_vs_baseline_pct,
            row.misses,
            row.shed,
            row.campaign_s,
            row.cap_respected
        );
        rows.push(row);
    }
    CapStudy {
        nodes: uncapped.config.nodes,
        epochs: uncapped.config.epochs,
        uncapped_peak_w: uncapped.peak_power_w,
        uncapped_energy_j: uncapped.energy_j,
        baseline_energy_j: uncapped.baseline_energy_j,
        uncapped_saved_vs_baseline_pct: uncapped.savings_pct,
        rows,
    }
}

/// The CI smoke gate: small fault-ridden fleet, byte-identity at 1 and
/// 4 threads, cap adherence at 70% of the uncapped peak.
fn gate() {
    heading("fleet gate: thread-count byte-identity + cap adherence");
    let report = determinism_study(48, 4, &[1, 4]);
    assert!(report.identical);

    let config = faulty_config(48, 4);
    let sim = FleetSim::prepare(&config).expect("fleet preparation");
    let uncapped = sim.campaign(None);
    let capped = sim.campaign(Some(uncapped.peak_power_w * 0.7));
    assert!(capped.cap_respected(), "gate fleet exceeded its cap");
    if capped.shed == 0 {
        // Without shedding, tightening the cap can only cost energy
        // (ladder energy is non-decreasing below the desired rung).
        assert!(
            capped.energy_j >= uncapped.energy_j - 1e-6,
            "capping lowered energy without shedding work"
        );
    }
    println!(
        "  cap 70%: peak {:.0} W -> {:.0} W, {} misses, {} shed",
        uncapped.peak_power_w, capped.peak_power_w, capped.misses, capped.shed
    );
    println!("\nfleet gate passed");
}

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        gate();
        return;
    }

    heading("fleet determinism: byte-identical traces at 1/4/8 threads (with faults)");
    let determinism = determinism_study(400, 8, &THREADS);

    heading("fleet scaling: nodes vs wall-clock (all six device classes)");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "nodes", "prepare", "campaign", "nodes/s"
    );
    let mut scaling = Vec::new();
    let mut last: Option<FleetSim> = None;
    for nodes in SCALING_NODES {
        let config = FleetConfig {
            nodes,
            epochs: 12,
            seed: REPRO_SEED,
            fail_rate: 0.02,
            degraded_rate: 0.02,
            fault_preset: "transient".into(),
            ..FleetConfig::default()
        };
        let t0 = Instant::now();
        let sim = FleetSim::prepare(&config).expect("fleet preparation");
        let prepare_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let trace = sim.campaign(None);
        let campaign_s = t1.elapsed().as_secs_f64();
        assert_eq!(trace.epochs.len(), 12);
        println!(
            "{nodes:>8} {:>10.2}s {:>10.3}s {:>12.0}",
            prepare_s,
            campaign_s,
            f64::from(nodes as u32) / prepare_s
        );
        scaling.push(ScalingRow {
            nodes,
            prepare_s,
            campaign_s,
            nodes_per_s: f64::from(nodes as u32) / prepare_s,
        });
        last = Some(sim);
    }

    heading("fleet cap study: 2,000 nodes, caps at fractions of the uncapped peak");
    let sim = last.expect("scaling sweep ran");
    let uncapped = sim.campaign(None);
    println!(
        "uncapped: peak {:.0} W, energy {:.0} J ({:+.1}% vs all-reference baseline)\n",
        uncapped.peak_power_w, uncapped.energy_j, -uncapped.savings_pct
    );
    let cap_study = cap_study(&sim, &uncapped);

    let report = FleetBenchReport {
        seed: REPRO_SEED,
        available_parallelism: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        classes: gpm_fleet::CLASS_SLUGS
            .iter()
            .map(|s| s.to_string())
            .collect(),
        determinism,
        scaling,
        cap_study,
    };
    let json = gpm_json::to_string(&report).expect("report serializes");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");
}
