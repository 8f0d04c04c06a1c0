//! Golden round-trip tests pinning the JSON schema of the pipeline's
//! report types. The fixtures under `tests/golden/` are committed; a
//! schema change (renamed field, reordered keys, new representation)
//! fails here before it silently breaks downstream consumers.
//!
//! Regenerate the fixtures after an *intentional* schema change with
//! `GPM_UPDATE_GOLDEN=1 cargo test --test report_schema`.

use gpm::core::{CvReport, DomainParams, FitReport, PhaseTimings, PowerModel, VoltageTable};
use gpm::json::{from_str, write, Json, ToJson};
use gpm::spec::{devices, Component, FreqConfig};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against a committed fixture, regenerating it when
/// `GPM_UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GPM_UPDATE_GOLDEN").is_ok() {
        fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GPM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        golden, actual,
        "{name} drifted from its committed schema; if intentional, regenerate with \
         GPM_UPDATE_GOLDEN=1 cargo test --test report_schema"
    );
}

/// A fully-populated FitReport with deterministic values (no pipeline
/// run involved, so the fixture is stable byte-for-byte).
fn sample_fit_report() -> FitReport {
    FitReport {
        iterations: 7,
        converged: true,
        rmse_history: vec![12.5, 3.25, 1.0625],
        training_mape: 2.875,
        coefficient_sigma: vec![0.5, 0.25],
        timings: PhaseTimings::default(),
        robust: true,
        watchdog_restarts: 1,
        robust_reweights: 21,
        degraded_components: vec![Component::Dp, Component::Dram],
    }
}

fn sample_cv_report() -> CvReport {
    CvReport {
        folds: 3,
        fold_mape: vec![4.5, 5.25, 3.75],
        overall_mape: 4.5,
    }
}

/// A hand-assembled PowerModel with exactly-representable values, so
/// the fixture is byte-stable without running the estimator.
fn sample_power_model() -> PowerModel {
    let spec = devices::gtx_titan_x();
    let reference = spec.default_config();
    let low = FreqConfig::from_mhz(595, 3505);
    PowerModel::new(
        spec,
        DomainParams {
            static_coef: 15.0,
            idle_dyn: 20.0,
            omegas: vec![20.0, 21.5, 22.0, 23.25, 24.0, 25.5],
        },
        DomainParams {
            static_coef: 10.0,
            idle_dyn: 11.0,
            omegas: vec![26.0],
        },
        VoltageTable::new(reference, [(low, [0.875, 0.9375])]),
        600.0,
    )
    .with_residual_sigma(1.5)
}

#[test]
fn power_model_round_trips_and_matches_golden() {
    // The registry (gpm-serve) persists PowerModels verbatim, so this
    // schema is now a stored-data contract, not just an in-memory one.
    let model = sample_power_model();
    // `PowerModel::to_json` (inherent) returns a String; the trait impl
    // is what the registry stores, so pin that one.
    let json = write(&ToJson::to_json(&model));
    let back: PowerModel = from_str(&json).expect("power model parses back");
    assert_eq!(model, back);
    assert_matches_golden("power_model.json", &json);
}

#[test]
fn pre_sigma_power_models_still_parse() {
    // Models serialized before `residual_sigma_w` existed must keep
    // parsing, with the sigma defaulting to zero.
    let full = ToJson::to_json(&sample_power_model());
    let legacy = match full {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(name, _)| name != "residual_sigma_w")
                .collect(),
        ),
        other => other,
    };
    let model: PowerModel = from_str(&write(&legacy)).expect("legacy power model parses");
    assert_eq!(model.residual_sigma_w(), 0.0);
    assert_eq!(model.reference(), devices::gtx_titan_x().default_config());
}

#[test]
fn fit_report_round_trips_and_matches_golden() {
    let report = sample_fit_report();
    let json = write(&report.to_json());
    let back: FitReport = from_str(&json).expect("fit report parses back");
    assert_eq!(report, back);
    assert_matches_golden("fit_report.json", &json);
}

#[test]
fn cv_report_round_trips_and_matches_golden() {
    let report = sample_cv_report();
    let json = write(&report.to_json());
    let back: CvReport = from_str(&json).expect("cv report parses back");
    assert_eq!(report, back);
    assert_matches_golden("cv_report.json", &json);
}

#[test]
fn fit_report_with_recorded_timings_round_trips() {
    // Timings carry Durations; they serialize as exact nanosecond
    // counts, so the round trip is equality, not approximation.
    let timings: PhaseTimings = from_str(
        r#"{"entries":[{"label":"voltage_step","calls":3,"total_ns":1500000},
                       {"label":"coefficient_step","calls":3,"total_ns":250}]}"#,
    )
    .expect("timings parse");
    let report = FitReport {
        timings,
        ..sample_fit_report()
    };
    let json = write(&report.to_json());
    let back: FitReport = from_str(&json).expect("fit report parses back");
    assert_eq!(report, back);
}

#[test]
fn pre_timings_fit_reports_still_parse() {
    // Reports serialized before the `timings` field existed must keep
    // parsing (the field defaults to empty timings).
    let legacy = r#"{"iterations":4,"converged":false,
                     "rmse_history":[9.0,8.0],"training_mape":6.5,
                     "coefficient_sigma":[]}"#;
    let report: FitReport = from_str(legacy).expect("legacy fit report parses");
    assert_eq!(report.iterations, 4);
    assert!(!report.converged);
    assert_eq!(report.timings, PhaseTimings::default());
}

#[test]
fn pre_robustness_fit_reports_still_parse() {
    // Reports serialized before the robustness fields existed must keep
    // parsing: `robust` defaults to false, the recovery counters to zero
    // and `degraded_components` to empty.
    let legacy = r#"{"iterations":7,"converged":true,
                     "rmse_history":[12.5,3.25,1.0625],"training_mape":2.875,
                     "coefficient_sigma":[0.5,0.25],
                     "timings":{"entries":[]}}"#;
    let report: FitReport = from_str(legacy).expect("pre-robustness fit report parses");
    assert!(!report.robust);
    assert_eq!(report.watchdog_restarts, 0);
    assert_eq!(report.robust_reweights, 0);
    assert!(report.degraded_components.is_empty());
}

#[test]
fn unknown_fields_are_tolerated() {
    // Forward compatibility: newer writers may add fields.
    let future = r#"{"folds":2,"fold_mape":[1.0,2.0],"overall_mape":1.5,
                     "added_in_v2":{"nested":true}}"#;
    let report: CvReport = from_str(future).expect("future cv report parses");
    assert_eq!(report.folds, 2);
    assert_eq!(report.overall_mape, 1.5);
}
