//! The paper protocol's power readings pinned against a committed fixture.
//!
//! Section V-A keeps the median of 10 sensor windows per microbenchmark
//! and configuration. This fixture pins, per paper GPU at seed 42, every
//! median of a `Profiler::new` campaign, then, on the same device, two
//! validation applications' 10-repeat power grids and the reference
//! profile taken after them. That profile's event draws sit behind every
//! window before them, so it pins where 10-repeat cells leave the
//! measurement stream as well as what they read.
//!
//! Regenerate with `GPM_BLESS=1 cargo test --test campaign_power` only
//! for a deliberate change to how power readings are drawn.

use gpm::prelude::*;
use gpm::spec::devices;
use std::path::PathBuf;

/// Validation applications whose power grids follow the campaign.
const GRIDS: usize = 2;

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

fn power_outputs(spec: &DeviceSpec) -> String {
    let mut gpu = SimulatedGpu::new(spec.clone(), 42);
    let suite = microbenchmark_suite(spec);
    let apps = validation_suite(spec);
    let mut profiler = Profiler::new(&mut gpu);
    let training = profiler.profile_suite(&suite).expect("campaign succeeds");
    let campaign = digest(
        training
            .samples
            .iter()
            .flat_map(|s| s.power_by_config.values().copied()),
    );

    let mut grids = Vec::new();
    for app in &apps[..GRIDS] {
        let grid = profiler.measure_power_grid(app).expect("grid succeeds");
        grids.extend(grid.into_values());
    }
    let profile = profiler
        .profile_at_reference(&apps[GRIDS])
        .expect("profiling");
    format!(
        "{{\"device\":\"{}\",\"campaign_power\":\"{}\",\"validation_power\":\"{}\",\
         \"profile_after_grids\":\"{}\"}}",
        spec.name(),
        campaign,
        digest(grids),
        digest(profile.utilizations.as_array())
    )
}

#[test]
fn campaign_power_matches_the_golden_fixture() {
    let lines: Vec<String> = [
        devices::gtx_titan_x(),
        devices::titan_xp(),
        devices::tesla_k40c(),
    ]
    .iter()
    .map(power_outputs)
    .collect();
    let actual = lines.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign_power.json");
    if std::env::var("GPM_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden campaign power");
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
        "10-repeat campaign power readings drifted from the fixture"
    );
}
