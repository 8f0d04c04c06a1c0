//! Pool telemetry read through an installed gpm-obs recorder.
//!
//! The recorder slot and the thread-count override are process-global.
//! These tests therefore run in a binary of their own, where no other
//! test calls `par_map` concurrently (its `par.calls` would land in
//! whichever recorder is installed), and they serialize on one lock.

use gpm_par::{par_map, par_map_reusing, set_threads};
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

#[test]
fn par_map_reusing_emits_identical_telemetry_to_par_map() {
    let _globals = GLOBALS.lock().unwrap_or_else(|p| p.into_inner());
    let items: Vec<u64> = (0..100).collect();
    for threads in [1usize, 4] {
        let rec_plain = gpm_obs::Recorder::new();
        gpm_obs::install(&rec_plain);
        with_threads(threads, || {
            let _ = par_map(&items, |&x| x + 1);
        });
        gpm_obs::uninstall();
        let rec_reusing = gpm_obs::Recorder::new();
        gpm_obs::install(&rec_reusing);
        with_threads(threads, || {
            let mut out = Vec::new();
            let mut scratch = ();
            par_map_reusing(&items, &mut scratch, &mut out, || (), |(), &x| x + 1);
        });
        gpm_obs::uninstall();
        let a = rec_plain.snapshot().metrics;
        let b = rec_reusing.snapshot().metrics;
        // The schedule-independent instruments must agree exactly;
        // block/steal/queue-depth are schedule-dependent but the
        // name sets must match (golden traces null their values,
        // not their presence).
        assert_eq!(a.counters["par.calls"], b.counters["par.calls"]);
        assert_eq!(a.counters["par.items"], b.counters["par.items"]);
        assert_eq!(a.gauges["par.threads"], b.gauges["par.threads"]);
        let names =
            |m: &std::collections::BTreeMap<String, u64>| m.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&a.counters), names(&b.counters), "threads={threads}");
        assert_eq!(
            a.histograms.keys().collect::<Vec<_>>(),
            b.histograms.keys().collect::<Vec<_>>()
        );
    }
}
