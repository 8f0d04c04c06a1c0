//! A dependency-free parallel execution engine for coarse, independent
//! work.
//!
//! Cross-validation folds, ablation sweeps, fleet node preparation and
//! micro-batched serve replies are embarrassingly parallel: every item
//! is independent and the output order is fixed by the input order.
//! [`par_map`] exploits that with a scoped-thread pool built on
//! [`std::thread::scope`]:
//!
//! - **Deterministic ordering** — `par_map(items, f)[i] == f(&items[i])`
//!   regardless of thread count or scheduling; workers race only over
//!   *which* blocks they claim, never over where a result lands.
//! - **Panic propagation** — a panic in any worker is captured and
//!   re-raised on the caller thread with its original payload.
//! - **`GPM_THREADS` override** — the pool sizes itself from
//!   [`std::thread::available_parallelism`], overridable by the
//!   `GPM_THREADS` environment variable or [`set_threads`].
//! - **Sequential fast path** — at one thread no workers are spawned and
//!   items are evaluated in a plain loop, so single-threaded results are
//!   bit-identical to the pre-parallel implementation by construction.
//!
//! Work distribution is self-scheduling: workers repeatedly steal the
//! next unclaimed block of indices from a shared atomic cursor, so a slow
//! item (one expensive cross-validation fold, one long ablation) never
//! idles the rest of the pool behind a static partition. Each worker
//! buffers `(index, result)` pairs locally and the caller merges them
//! back into input order after the scope joins, which keeps the whole
//! crate free of `unsafe`.
//!
//! A pool call spawns its workers afresh, so it pays only for items that
//! each cost well over a thread spawn. The estimator's per-configuration
//! voltage solves and the profiler's per-kernel utilizations do not: they
//! run in plain loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide explicit thread-count override (0 = unset). Takes
/// precedence over `GPM_THREADS`; set from the CLI's `--threads` flag and
/// the scaling bench.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the explicit thread-count override.
///
/// Precedence: `set_threads` > `GPM_THREADS` > `available_parallelism()`.
/// A zero count is treated as `None`.
pub fn set_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The number of worker threads parallel calls will use right now.
///
/// Resolution order: the [`set_threads`] override, then the `GPM_THREADS`
/// environment variable, then [`std::thread::available_parallelism`]
/// (falling back to 1 if even that is unavailable). Always at least 1.
pub fn current_threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if explicit >= 1 {
        return explicit;
    }
    if let Ok(v) = std::env::var("GPM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output: `par_map(items, f)[i] == f(&items[i])`.
///
/// With one thread (or one item) this is a plain sequential loop — no
/// threads are spawned and results are bit-identical to sequential code.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread with its
/// original payload.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(current_threads(), items, f)
}

/// Like [`par_map`] but with an explicit worker count instead of the
/// global [`current_threads`] resolution — for callers that already
/// occupy a core each (e.g. one reactor shard per core fanning its own
/// micro-batch) and must bound their fan-out so shards do not
/// oversubscribe each other. A `threads` of 0 or 1 is the sequential
/// fast path: no workers are spawned.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread with its
/// original payload.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    // Pool telemetry when a recorder is installed. `par.calls` and
    // `par.items` are schedule-independent; threads, block claims,
    // steals and queue depths vary with the thread count and are
    // treated as volatile by trace normalization.
    let traced = gpm_obs::active().is_some();
    if traced {
        gpm_obs::counter_add("par.calls", 1);
        gpm_obs::counter_add("par.items", items.len() as u64);
        gpm_obs::gauge_set("par.threads", threads as f64);
    }
    if threads <= 1 || items.len() <= 1 {
        // One "block" covering the whole slice, zero steals: the same
        // metric names as the pooled path, so a normalized
        // single-threaded trace pins the same instruments.
        if traced {
            gpm_obs::counter_add("par.blocks", 1);
            gpm_obs::counter_add("par.steals", 0);
            gpm_obs::histogram_record("par.queue_depth", items.len() as f64);
        }
        return items.iter().map(&f).collect();
    }
    match pooled_map(threads, items, traced, f) {
        Ok(results) => results,
        Err(payload) => resume_unwind(payload),
    }
}

/// The pooled (multi-worker) map core behind [`par_map_with`]: reports
/// the first worker panic as an `Err` payload for the caller to re-raise.
fn pooled_map<T, R, F>(
    threads: usize,
    items: &[T],
    traced: bool,
    f: F,
) -> Result<Vec<R>, Box<dyn std::any::Any + Send>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let block = block_size(items.len(), threads);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let collected = &collected;
            let panic_slot = &panic_slot;
            let f = &f;
            scope.spawn(move || {
                // Per-worker buffer: results land here first so the
                // shared mutex is only taken once per claimed block.
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut claimed_blocks = 0u64;
                loop {
                    let start = cursor.fetch_add(block, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    if traced {
                        claimed_blocks += 1;
                        // Unclaimed items remaining at this claim.
                        gpm_obs::histogram_record(
                            "par.queue_depth",
                            items.len().saturating_sub(start) as f64,
                        );
                    }
                    let end = (start + block).min(items.len());
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        for (offset, item) in items[start..end].iter().enumerate() {
                            local.push((start + offset, f(item)));
                        }
                    }));
                    if let Err(payload) = result {
                        let mut guard = panic_slot.lock().unwrap_or_else(|p| p.into_inner());
                        if guard.is_none() {
                            *guard = Some(payload);
                        }
                        // Drain remaining work so peers exit promptly.
                        cursor.store(items.len(), Ordering::Relaxed);
                        return;
                    }
                }
                if traced && claimed_blocks > 0 {
                    gpm_obs::counter_add("par.blocks", claimed_blocks);
                    // Every claim past a worker's first means it went
                    // back to the shared queue for more work.
                    gpm_obs::counter_add("par.steals", claimed_blocks - 1);
                }
                collected
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .append(&mut local);
            });
        }
    });

    if let Some(payload) = panic_slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(payload);
    }
    let mut pairs = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    debug_assert_eq!(pairs.len(), items.len());
    // Indices are unique, so this sort is a total order: the output is
    // deterministic no matter how blocks were claimed.
    pairs.sort_unstable_by_key(|&(i, _)| i);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Applies `f` to every index in `0..n`, in parallel, preserving index
/// order in the output. A convenience over [`par_map`] for loops indexed
/// into shared slices.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn par_map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |&i| f(i))
}

/// Block size for the self-scheduling cursor: roughly 4 blocks per
/// worker so late blocks can rebalance, never below 1.
fn block_size(len: usize, threads: usize) -> usize {
    (len / (threads * 4)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with an explicit thread override, restoring the previous
    /// override afterwards (tests run concurrently in one process, so
    /// the global override is swapped under a lock).
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prev = THREAD_OVERRIDE.swap(n, Ordering::SeqCst);
        let out = f();
        THREAD_OVERRIDE.store(prev, Ordering::SeqCst);
        out
    }

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || par_map(&items, |&x| x * x));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn one_thread_spawns_nothing_and_runs_in_caller_order() {
        // Observable via a side channel: with 1 thread the closure runs
        // on the caller thread in input order.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        with_threads(1, || {
            par_map(&[10, 20, 30], |&x| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(x);
            });
        });
        assert_eq!(*order.lock().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn panics_propagate_with_payload() {
        for threads in [1, 4, 8] {
            let err = with_threads(threads, || {
                std::panic::catch_unwind(|| {
                    par_map(&(0..100).collect::<Vec<_>>(), |&i| {
                        if i == 57 {
                            panic!("boom at {i}");
                        }
                        i
                    })
                })
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().map_or("?", String::as_str);
            assert!(
                msg.contains("boom at 57"),
                "threads={threads}: payload was {msg:?}"
            );
        }
    }

    #[test]
    fn a_panicking_call_does_not_poison_subsequent_calls() {
        with_threads(4, || {
            let items: Vec<usize> = (0..200).collect();
            // A failing campaign...
            let err = std::panic::catch_unwind(|| {
                par_map_indices(items.len(), |i| {
                    if i % 7 == 3 {
                        panic!("injected");
                    }
                    i
                })
            });
            assert!(err.is_err());
            // ...must leave the pool fully usable: later calls produce
            // correct results.
            let ok = par_map_indices(items.len(), |i| i + 1);
            assert_eq!(ok, items.iter().map(|&i| i + 1).collect::<Vec<_>>());
            let ok = par_map(&items, |&i| i * 3);
            assert_eq!(ok, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
        });
    }

    #[test]
    fn opaque_panic_payloads_are_reraised_intact() {
        struct Opaque;
        let err = with_threads(2, || {
            std::panic::catch_unwind(|| {
                par_map_indices(10, |i| {
                    if i == 5 {
                        std::panic::panic_any(Opaque);
                    }
                    i
                })
            })
        })
        .unwrap_err();
        assert!(err.downcast_ref::<Opaque>().is_some());
    }

    #[test]
    fn thread_resolution_priority() {
        // Explicit override wins over the environment.
        with_threads(3, || assert_eq!(current_threads(), 3));
        // Cleared override falls back to env/available_parallelism >= 1.
        assert!(current_threads() >= 1);
    }

    #[test]
    fn par_map_with_matches_sequential_at_any_width() {
        let items: Vec<u64> = (0..311).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 7 + 1).collect();
        // Explicit widths ignore the global override entirely.
        with_threads(1, || {
            for width in [0, 1, 2, 5, 16] {
                let got = par_map_with(width, &items, |&x| x * 7 + 1);
                assert_eq!(got, expected, "width={width}");
            }
        });
    }

    #[test]
    fn par_map_with_width_one_runs_on_the_caller_thread() {
        let caller = std::thread::current().id();
        // The global override is wide, but an explicit width of 1 must
        // still take the spawn-free sequential path.
        with_threads(8, || {
            let got = par_map_with(1, &[1u32, 2, 3], |&x| {
                assert_eq!(std::thread::current().id(), caller);
                x + 1
            });
            assert_eq!(got, vec![2, 3, 4]);
        });
    }

    #[test]
    fn par_map_indices_matches_sequential() {
        let seq: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        let got = with_threads(5, || par_map_indices(257, |i| i * 3 + 1));
        assert_eq!(got, seq);
    }

    #[test]
    fn results_are_identical_for_heterogeneous_workloads() {
        // Uneven per-item cost exercises block stealing; order must hold.
        let items: Vec<u64> = (0..200).collect();
        let slow_square = |&x: &u64| {
            let mut acc = 0u64;
            for i in 0..(x % 17) * 1000 {
                acc = acc.wrapping_add(i);
            }
            // The busy-work must survive the optimizer without changing
            // the result: black_box the accumulator instead of mixing
            // it into the return value.
            std::hint::black_box(acc);
            x * x
        };
        let expected: Vec<u64> = items.iter().map(slow_square).collect();
        let got = with_threads(8, || par_map(&items, slow_square));
        assert_eq!(got, expected);
    }

    #[test]
    fn block_size_is_sane() {
        assert_eq!(block_size(0, 4), 1);
        assert_eq!(block_size(7, 4), 1);
        assert!(block_size(1000, 4) >= 32);
        assert!(block_size(1000, 4) <= 1000);
    }
}
