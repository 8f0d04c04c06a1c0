//! Pool telemetry read through an installed gpm-obs recorder.
//!
//! The recorder slot and the thread-count override are process-global.
//! These tests therefore run in a binary of their own, where no other
//! test calls `par_map` concurrently (its `par.calls` would land in
//! whichever recorder is installed), and they serialize on one lock.

use gpm_par::{par_map, set_threads};
use std::sync::Mutex;

/// Guards the recorder slot and the thread override for a whole test.
static GLOBALS: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    set_threads(Some(n));
    let out = f();
    set_threads(None);
    out
}

#[test]
fn pool_telemetry_reaches_an_installed_recorder() {
    let _globals = GLOBALS.lock().unwrap_or_else(|p| p.into_inner());
    let rec = gpm_obs::Recorder::new();
    gpm_obs::install(&rec);
    let items: Vec<u64> = (0..100).collect();
    let got = with_threads(4, || par_map(&items, |&x| x + 1));
    gpm_obs::uninstall();
    assert_eq!(got.len(), 100);
    let m = rec.snapshot().metrics;
    assert_eq!(m.counters["par.calls"], 1);
    assert_eq!(m.counters["par.items"], 100);
    assert_eq!(m.gauges["par.threads"], 4.0);
    // All claimed blocks together cover the input exactly once, and
    // steals are claims beyond each worker's first.
    let blocks = m.counters["par.blocks"];
    assert!(blocks >= 1);
    assert!(m.counters["par.steals"] <= blocks);
    assert_eq!(m.histograms["par.queue_depth"].count, blocks);
}
