//! Event-derived outputs pinned against a committed fixture.
//!
//! A simulated device draws its event noise and its power-sensor noise
//! from one measurement stream. The sensor must leave that stream where
//! every later event draw expects it, so a change to how power readings
//! are drawn moves the readings and nothing else. This fixture pins what
//! comes from events alone: each paper GPU's seed-42 campaign
//! utilizations and L2 peak, then, on the same device, the L2 peak and
//! validation profiles taken between `measure_power_grid` calls, whose
//! event draws sit behind every power reading before them.
//!
//! Regenerate with `GPM_BLESS=1 cargo test --test campaign_events` only
//! for a deliberate change to the event model.

use gpm::prelude::*;
use gpm::spec::devices;
use std::path::PathBuf;

/// Validation applications profiled per device, each followed by its
/// power grid.
const APPS: usize = 6;

/// FNV-1a over the bit patterns of a sequence of floats.
fn digest(values: impl IntoIterator<Item = f64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn event_outputs(spec: &DeviceSpec) -> String {
    let mut gpu = SimulatedGpu::new(spec.clone(), 42);
    let suite = microbenchmark_suite(spec);
    let training = Profiler::with_repeats(&mut gpu, 2)
        .profile_suite(&suite)
        .expect("campaign succeeds");
    let campaign = digest(
        training
            .samples
            .iter()
            .flat_map(|s| s.utilizations.as_array()),
    );

    let mut profiler = Profiler::with_repeats(&mut gpu, 2);
    let mut profiles = Vec::new();
    for app in validation_suite(spec).iter().take(APPS) {
        let profile = profiler.profile_at_reference(app).expect("profiling");
        profiles.extend(profile.utilizations.as_array());
        profiler.measure_power_grid(app).expect("grid succeeds");
    }
    let validation_l2 = profiler.l2_bytes_per_cycle(None).expect("known peak");
    format!(
        "{{\"device\":\"{}\",\"campaign_l2_bytes_per_cycle\":{},\"campaign_utilizations\":\"{}\",\
         \"validation_l2_bytes_per_cycle\":{},\"validation_profiles\":\"{}\"}}",
        spec.name(),
        training.l2_bytes_per_cycle,
        campaign,
        validation_l2,
        digest(profiles)
    )
}

#[test]
fn campaign_events_match_the_golden_fixture() {
    let lines: Vec<String> = [
        devices::gtx_titan_x(),
        devices::titan_xp(),
        devices::tesla_k40c(),
    ]
    .iter()
    .map(event_outputs)
    .collect();
    let actual = lines.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign_events.json");
    if std::env::var("GPM_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden campaign events");
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
        "event-derived campaign outputs drifted from the fixture"
    );
}
