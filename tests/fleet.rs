//! Fleet-simulation integration and property tests: the cluster
//! governor's cap and monotonicity contracts on arbitrary ladders, and
//! end-to-end campaign determinism through the facade.

use gpm::dvfs::VfCandidate;
use gpm::fleet::{assign, oracle_assign, FleetConfig, FleetSim, Ladder};
use gpm::spec::FreqConfig;

/// Draws a random but physically-plausible candidate grid: power and
/// runtime both monotone in the core clock, with noise. Ladders built
/// from it satisfy the governor's invariants by construction of
/// `Ladder::build`, whatever the noise does.
fn random_ladder(g: &mut gpm_check::Gen) -> Ladder {
    let levels = g.usize_in(2..24);
    let top_power = g.f64_in(60.0, 800.0);
    let top_time = g.f64_in(0.05, 4.0);
    let candidates: Vec<VfCandidate> = (0..levels)
        .map(|i| {
            let frac = i as f64 / levels as f64;
            VfCandidate {
                config: FreqConfig::from_mhz(1500 - 50 * i as u32, 3505),
                power_w: top_power * (1.0 - 0.8 * frac) * g.f64_in(0.95, 1.05),
                time_s: top_time * (1.0 + 1.5 * frac) * g.f64_in(0.95, 1.05),
            }
        })
        .collect();
    let slack = g.f64_in(1.0, 2.0);
    Ladder::build(&candidates, top_time, top_time * slack)
}

/// The cap solver never exceeds a non-negative cap, for any fleet of
/// ladders built from finite candidate grids.
#[test]
fn cluster_governor_never_exceeds_the_cap() {
    gpm_check::check("cluster_governor_never_exceeds_the_cap", |g| {
        let ladders: Vec<Ladder> = (0..g.usize_in(1..12)).map(|_| random_ladder(g)).collect();
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let uncapped = assign(&refs, None).power_w;
        let cap = if uncapped > 0.0 {
            g.f64_in(0.0, uncapped * 1.2)
        } else {
            0.0
        };
        let a = assign(&refs, Some(cap));
        assert!(
            a.power_w <= cap + 1e-9,
            "cap {cap:.1} W violated: {:.1} W",
            a.power_w
        );
        assert!(a.power_w.is_finite() && a.energy_j.is_finite());
    });
}

/// Relaxing the cap is monotone: more headroom never costs energy, for
/// caps above the fleet's no-shed floor (the Off rung destroys work, so
/// energy comparisons only make sense while every job still runs).
#[test]
fn relaxing_the_cap_never_increases_energy() {
    gpm_check::check("relaxing_the_cap_never_increases_energy", |g| {
        let ladders: Vec<Ladder> = (0..g.usize_in(1..10)).map(|_| random_ladder(g)).collect();
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let floor: f64 = refs.iter().map(|l| l.lowest_live().power_w).sum();
        let ceil = assign(&refs, None).power_w;
        let draw = |g: &mut gpm_check::Gen| {
            if ceil > floor {
                g.f64_in(floor, ceil)
            } else {
                floor
            }
        };
        let mut tight = draw(g);
        let mut loose = draw(g);
        if tight > loose {
            std::mem::swap(&mut tight, &mut loose);
        }
        let a_tight = assign(&refs, Some(tight));
        let a_loose = assign(&refs, Some(loose));
        assert_eq!(
            a_tight.shed, 0,
            "cap at or above the live floor must not shed"
        );
        assert_eq!(a_loose.shed, 0);
        assert!(
            a_loose.energy_j <= a_tight.energy_j + 1e-9,
            "cap {tight:.1} -> {loose:.1} W raised energy {:.1} -> {:.1} J",
            a_tight.energy_j,
            a_loose.energy_j
        );
    });
}

/// Greedy waterfilling tracks the exhaustive oracle in the no-shed
/// regime on small random fleets.
#[test]
fn greedy_waterfilling_tracks_the_oracle() {
    gpm_check::check("greedy_waterfilling_tracks_the_oracle", |g| {
        let ladders: Vec<Ladder> = (0..g.usize_in(1..4)).map(|_| random_ladder(g)).collect();
        if ladders.iter().map(|l| l.rungs.len()).product::<usize>() > 50_000 {
            return; // keep the oracle enumeration cheap
        }
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let floor: f64 = refs.iter().map(|l| l.lowest_live().power_w).sum();
        let ceil = assign(&refs, None).power_w;
        let cap = if ceil > floor {
            g.f64_in(floor, ceil)
        } else {
            floor
        };
        let greedy = assign(&refs, Some(cap));
        let oracle = oracle_assign(&refs, cap);
        assert_eq!(greedy.shed, 0);
        assert_eq!(oracle.shed, 0);
        // The oracle is exhaustive, so it can never lose to the greedy —
        // this direction is exact and doubles as an oracle self-check.
        assert!(
            oracle.energy_j <= greedy.energy_j + 1e-9,
            "oracle {:.1} J lost to greedy {:.1} J",
            oracle.energy_j,
            greedy.energy_j
        );
        // Greedy has no constant-factor guarantee on arbitrary noisy
        // ladders; empirically it stays well inside 25% on this family.
        assert!(
            greedy.energy_j <= oracle.energy_j * 1.25 + 1e-9,
            "greedy {:.1} J strayed from oracle {:.1} J at cap {cap:.1} W",
            greedy.energy_j,
            oracle.energy_j
        );
    });
}

/// End-to-end: a small mixed fleet (paper GPU + datacenter class)
/// through the facade — deterministic across thread counts with faults
/// injected, cap respected, governed energy at or under the baseline.
#[test]
fn fleet_campaign_end_to_end() {
    let config = FleetConfig {
        nodes: 10,
        epochs: 6,
        seed: 7,
        classes: vec!["tesla-k40c".into(), "a100m".into()],
        distinct: 2,
        launches: 5,
        fail_rate: 0.3,
        degraded_rate: 0.3,
        fault_preset: "transient".into(),
        ..FleetConfig::default()
    };

    gpm::par::set_threads(Some(1));
    let sequential = FleetSim::prepare(&config).unwrap().campaign(None);
    gpm::par::set_threads(Some(4));
    let parallel = FleetSim::prepare(&config).unwrap().campaign(None);
    gpm::par::set_threads(None);

    assert_eq!(
        gpm::json::to_string(&sequential).unwrap(),
        gpm::json::to_string(&parallel).unwrap(),
        "fleet trace must be byte-identical across thread counts"
    );

    assert_eq!(sequential.epochs.len(), 6);
    assert!(sequential.cap_respected());
    assert!(sequential.energy_j > 0.0);
    assert!(sequential.energy_j <= sequential.baseline_energy_j);
    assert!(sequential.work > 0);

    // A cap at 80% of the observed peak binds, is respected, and costs
    // energy unless it sheds jobs.
    let sim = FleetSim::prepare(&config).unwrap();
    let capped = sim.campaign(Some(sequential.peak_power_w * 0.8));
    assert!(capped.cap_respected());
    assert!(capped.epochs.iter().any(|e| e.governor_steps > 0));
    if capped.shed == 0 {
        assert!(capped.energy_j >= sequential.energy_j - 1e-9);
    }
}

/// Capped campaigns are pinned against a committed fixture: for each of
/// three caps, the trace digest (which chains every epoch's power,
/// energy, misses, shed and step count by bit pattern) and the
/// governor's down-steps per epoch. The tightest cap sheds, so the Off
/// steps are pinned too. A faster governor must take the very same
/// steps; regenerate with `GPM_BLESS=1 cargo test --test fleet capped`
/// only for a deliberate, documented change to the governor's order.
#[test]
fn capped_fleet_traces_match_the_golden_fixture() {
    let config = FleetConfig {
        nodes: 24,
        epochs: 6,
        seed: 11,
        // The two cheapest grids keep this fast in a debug build.
        classes: vec!["tesla-k40c".into(), "titan-xp".into()],
        distinct: 2,
        launches: 4,
        fail_rate: 0.2,
        ..FleetConfig::default()
    };
    let sim = FleetSim::prepare(&config).unwrap();
    let peak = sim.campaign(None).peak_power_w;
    let mut lines = Vec::new();
    let mut tightest_shed = 0;
    for pct in [90u32, 70, 40] {
        let trace = sim.campaign(Some(peak * f64::from(pct) / 100.0));
        assert!(trace.cap_respected(), "cap {pct}% violated");
        let steps: Vec<String> = trace
            .epochs
            .iter()
            .map(|e| e.governor_steps.to_string())
            .collect();
        lines.push(format!(
            "{{\"cap_pct\":{pct},\"digest\":\"{}\",\"governor_steps\":[{}],\"shed\":{}}}",
            trace.digest,
            steps.join(","),
            trace.shed
        ));
        tightest_shed = trace.shed;
    }
    assert!(tightest_shed > 0, "the tightest cap must shed");
    let actual = lines.join("\n") + "\n";

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_capped.json");
    if std::env::var("GPM_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden capped fleet traces");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GPM_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden, actual,
        "capped fleet traces drifted from the fixture"
    );
}

/// The JSON trace round-trips losslessly, digest included.
#[test]
fn fleet_trace_round_trips_through_json() {
    use gpm::json::FromJson;
    let config = FleetConfig {
        nodes: 4,
        epochs: 3,
        classes: vec!["tesla-k40c".into(), "titan-xp".into()],
        distinct: 2,
        launches: 4,
        ..FleetConfig::default()
    };
    let trace = FleetSim::prepare(&config).unwrap().campaign(Some(500.0));
    let text = gpm::json::to_string(&trace).unwrap();
    let back = gpm::fleet::FleetTrace::from_json(&gpm::json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, trace);
    assert_eq!(back.digest, trace.digest);
}
