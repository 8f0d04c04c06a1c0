//! The prediction engine: typed requests in, deterministic replies out.
//!
//! Determinism at any `gpm-par` worker-thread count rests on a split:
//!
//! - **Pure requests** ([`Request::Power`], [`Request::Energy`],
//!   [`Request::Pareto`]) are functions of the model and the kernel
//!   alone. Each runs against a fresh clone of a pristine device
//!   snapshot, so fan-out order cannot leak into results — the batch is
//!   mapped with [`gpm_par::par_map`], which preserves item order.
//! - **Governor-backed requests** ([`Request::BestConfig`]) advance the
//!   device's measurement RNG when they profile, so they run
//!   sequentially, in arrival order, against the engine's persistent
//!   device. Per-objective [`GovernorState`] persists across batches,
//!   which is what makes "profile once, then hit the decision cache"
//!   observable through [`gpm_dvfs::GovernorStats`].
//!
//! In front of both sits a sharded LRU keyed by the request's typed
//! fields ([`CacheKey`]). Lookups happen up front for the whole batch —
//! duplicates *within* a batch intentionally miss together and meet in
//! the governor's decision cache instead, so the governor statistics
//! stay meaningful.

use crate::cache::{CacheKey, CacheStats, ObjectiveKey, ShardedLru};
use crate::request::{Reply, Request, Response};
use gpm_core::{PowerModel, Utilizations};
use gpm_dvfs::{pareto_frontier, Governor, GovernorState, GovernorStats};
use gpm_profiler::Profiler;
use gpm_sim::SimulatedGpu;
use gpm_workloads::{microbenchmark_suite, validation_suite, KernelDesc};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Seed for the engine's simulated device (measurement noise).
    pub seed: u64,
    /// Total prediction-cache capacity in entries.
    pub cache_capacity: usize,
    /// Number of cache shards (locks).
    pub cache_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 1042,
            cache_capacity: 1024,
            cache_shards: 8,
        }
    }
}

/// Engine-level counters (monotonic since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Requests processed (including cache hits and errors).
    pub requests: u64,
    /// Batches processed.
    pub batches: u64,
    /// Requests that produced [`Reply::Error`].
    pub errors: u64,
    /// Prediction-cache counters.
    pub cache: CacheStats,
}

/// The thread-shareable heart of the engine: everything needed to
/// answer *pure* requests (and to consult/fill the prediction cache),
/// with no interior state beyond the lock-sharded LRU and two counters.
///
/// Reactor shards hold this behind an `Arc` and answer
/// [`Request::Power`]/[`Request::Energy`]/[`Request::Pareto`] in place,
/// without crossing the engine thread. Determinism is inherited from
/// [`pure_compute`]: results depend only on (model, snapshot seed,
/// request), never on which shard or thread ran them.
#[derive(Debug)]
pub(crate) struct PureCore {
    model: PowerModel,
    version: String,
    /// Device state after the one L2 peak discovery; pure requests clone
    /// this, so every request sees identical measurement-noise state
    /// regardless of schedule.
    snapshot: SimulatedGpu,
    /// The L2 peak discovered on the initial device, in bytes per core
    /// cycle (or the discovery's error, which every profiling request
    /// then reports).
    l2_bytes_per_cycle: Result<f64, String>,
    kernels: HashMap<String, KernelDesc>,
    cache: ShardedLru,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl PureCore {
    /// Prediction-cache lookup; counts a hit, never a miss.
    pub(crate) fn cache_get(&self, key: &CacheKey) -> Option<Response> {
        self.cache.get(key)
    }

    /// Counts `n` requests computed because no cache lookup answered
    /// them — once per request, however often it was looked up.
    pub(crate) fn note_misses(&self, n: u64) {
        self.cache.note_misses(n);
    }

    /// Prediction-cache fill (successes only, by convention).
    pub(crate) fn cache_put(&self, key: CacheKey, response: Response) {
        self.cache.put(key, response);
        gpm_obs::gauge_set("serve.cache_entries", self.cache.stats().entries as f64);
    }

    /// Whether `request` can be answered by [`PureCore::compute`]
    /// (everything except governor-backed [`Request::BestConfig`]).
    pub(crate) fn is_pure(request: &Request) -> bool {
        !matches!(request, Request::BestConfig { .. })
    }

    /// Computes a pure request on a pristine snapshot clone.
    pub(crate) fn compute(&self, request: &Request) -> Reply {
        match self.pure_compute(request) {
            Ok(response) => Reply::Ok(response),
            Err(message) => Reply::Error { message },
        }
    }

    /// [`PureCore::compute`]'s response or error message. Everything here
    /// depends only on (model, snapshot seed, request), so the result is
    /// independent of batch composition and thread schedule.
    fn pure_compute(&self, request: &Request) -> Result<Response, String> {
        match request {
            Request::Power {
                utilizations,
                config,
            } => {
                let watts = self
                    .model
                    .predict(utilizations, *config)
                    .map_err(|e| e.to_string())?;
                Ok(Response::Power { watts })
            }
            Request::Energy { kernel, config } => {
                let (mut gpu, kernel, utilizations) = self.profile(kernel)?;
                let power_w = self
                    .model
                    .predict(&utilizations, *config)
                    .map_err(|e| e.to_string())?;
                gpu.set_clocks(*config).map_err(|e| e.to_string())?;
                let time_s = gpu.execute(kernel).duration_s;
                Ok(Response::Energy {
                    joules: power_w * time_s,
                    time_s,
                    power_w,
                })
            }
            Request::Pareto { kernel, max_points } => {
                let (mut gpu, kernel, utilizations) = self.profile(kernel)?;
                let mut points = pareto_frontier(&mut gpu, &self.model, kernel, &utilizations)
                    .map_err(|e| e.to_string())?;
                if *max_points > 0 {
                    points.truncate(*max_points);
                }
                Ok(Response::Pareto { points })
            }
            Request::BestConfig { .. } => {
                Err("BestConfig is governor-backed, not pure".to_string())
            }
        }
    }

    /// Profiles the named kernel at the reference configuration on a
    /// fresh snapshot clone, with the L2 peak discovered at construction;
    /// returns the clone for the request's further measurements.
    fn profile(&self, name: &str) -> Result<(SimulatedGpu, &KernelDesc, Utilizations), String> {
        let kernel = self
            .kernels
            .get(name)
            .ok_or_else(|| format!("unknown kernel `{name}` (not in the serving suites)"))?;
        let l2_bytes_per_cycle = self.l2_bytes_per_cycle.clone()?;
        let mut gpu = self.snapshot.clone();
        let profile = Profiler::with_repeats(&mut gpu, 1)
            .with_l2_bytes_per_cycle(l2_bytes_per_cycle)
            .profile_at_reference(kernel)
            .map_err(|e| e.to_string())?;
        Ok((gpu, kernel, profile.utilizations))
    }

    /// Counts `n` requests entering the service.
    pub(crate) fn note_requests(&self, n: u64) {
        self.requests.fetch_add(n, Ordering::Relaxed);
        gpm_obs::counter_add("serve.requests", n);
    }

    /// Counts one request that produced [`Reply::Error`].
    pub(crate) fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        gpm_obs::counter_add("serve.errors", 1);
    }
}

/// A long-lived predictor for one fitted model.
///
/// See the module docs for the determinism contract. The engine owns a
/// simulated device seeded from [`EngineConfig::seed`]; all profiling
/// the service performs happens on that device (or pristine clones of
/// its initial state), never on the caller's.
#[derive(Debug)]
pub struct PredictionEngine {
    core: Arc<PureCore>,
    /// The governor-facing device, mutated only by sequential
    /// [`Request::BestConfig`] processing.
    gpu: SimulatedGpu,
    /// Governor state per objective, detached between batches via
    /// [`GovernorState`].
    governors: HashMap<ObjectiveKey, GovernorState>,
    batches: u64,
}

enum Slot {
    Done(Reply),
    Governor(usize),
    Pure(usize),
}

impl PredictionEngine {
    /// Builds an engine for `model`, labelled with a `version` string
    /// (typically [`crate::RegistryEntry::identity`]). The engine owns
    /// its prediction cache, so cached replies never cross versions.
    pub fn new(model: PowerModel, version: &str, config: &EngineConfig) -> Self {
        let spec = model.spec().clone();
        let gpu = SimulatedGpu::new(spec.clone(), config.seed);
        // Discover the L2 peak once, on a clone of the initial device.
        // Pure requests start from that advanced clone: the very state a
        // profile that ran its own discovery would have reached.
        let mut snapshot = gpu.clone();
        let l2_bytes_per_cycle = Profiler::with_repeats(&mut snapshot, 1)
            .l2_bytes_per_cycle(None)
            .map_err(|e| e.to_string());
        let mut kernels = HashMap::new();
        // Microbenchmarks first so validation kernels win name clashes.
        for k in microbenchmark_suite(&spec) {
            kernels.insert(k.name().to_string(), k);
        }
        for k in validation_suite(&spec) {
            kernels.insert(k.name().to_string(), k);
        }
        PredictionEngine {
            core: Arc::new(PureCore {
                model,
                version: version.to_string(),
                snapshot,
                l2_bytes_per_cycle,
                kernels,
                cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
            gpu,
            governors: HashMap::new(),
            batches: 0,
        }
    }

    /// The shareable pure-request core (reactor shards clone this Arc
    /// and bypass the engine thread for cacheable pure work).
    pub(crate) fn core(&self) -> Arc<PureCore> {
        Arc::clone(&self.core)
    }

    /// The model being served.
    pub fn model(&self) -> &PowerModel {
        &self.core.model
    }

    /// The model-version label the engine was built with.
    pub fn version(&self) -> &str {
        &self.core.version
    }

    /// Kernel names the engine can answer [`Request::Energy`],
    /// [`Request::BestConfig`] and [`Request::Pareto`] for, sorted.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.core.kernels.keys().cloned().collect();
        names.sort();
        names
    }

    /// Engine counters, including cache statistics. Requests answered
    /// directly by reactor shards (from the shared [`PureCore`]) are
    /// included — the counters live on the core itself.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.core.requests.load(Ordering::Relaxed),
            batches: self.batches,
            errors: self.core.errors.load(Ordering::Relaxed),
            cache: self.core.cache.stats(),
        }
    }

    /// Governor counters summed across objectives.
    pub fn governor_stats(&self) -> GovernorStats {
        let mut total = GovernorStats::default();
        for state in self.governors.values() {
            let s = state.stats();
            total.profiled += s.profiled;
            total.cache_hits += s.cache_hits;
            total.reprofiles += s.reprofiles;
        }
        total
    }

    /// Processes one request (a batch of one).
    pub fn process(&mut self, request: &Request) -> Reply {
        self.process_batch(std::slice::from_ref(request))
            .pop()
            .expect("one reply per request")
    }

    /// Processes a batch: cache lookups up front, governor-backed
    /// requests sequentially in arrival order, pure requests fanned
    /// across `gpm-par` workers, replies in request order.
    pub fn process_batch(&mut self, requests: &[Request]) -> Vec<Reply> {
        let keys = requests.iter().map(CacheKey::of).collect();
        self.process_keyed(requests, keys)
    }

    /// [`PredictionEngine::process_batch`] with each request's cache key
    /// already computed (`keys[i]` belongs to `requests[i]`).
    pub(crate) fn process_keyed(
        &mut self,
        requests: &[Request],
        keys: Vec<CacheKey>,
    ) -> Vec<Reply> {
        self.core.note_requests(requests.len() as u64);
        self.batches += 1;
        gpm_obs::counter_add("serve.batches", 1);
        gpm_obs::histogram_record("serve.batch_size", requests.len() as f64);

        let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
        for (request, key) in requests.iter().zip(&keys) {
            match self.core.cache_get(key) {
                Some(response) => slots.push(Slot::Done(Reply::Ok(response))),
                None => slots.push(match request {
                    Request::BestConfig { .. } => Slot::Governor(slots.len()),
                    _ => Slot::Pure(slots.len()),
                }),
            }
        }
        let computed = slots.iter().filter(|s| !matches!(s, Slot::Done(_))).count();
        self.core.note_misses(computed as u64);

        // Phase 1: governor-backed requests, sequential, arrival order.
        let mut governor_replies: HashMap<usize, Reply> = HashMap::new();
        for slot in &slots {
            if let Slot::Governor(i) = slot {
                governor_replies.insert(*i, self.best_config(&requests[*i]));
            }
        }

        // Phase 2: pure requests on pristine snapshot clones, in
        // parallel. Order is preserved by par_map; each job is
        // schedule-independent by construction.
        let pure_jobs: Vec<usize> = slots
            .iter()
            .filter_map(|s| match s {
                Slot::Pure(i) => Some(*i),
                _ => None,
            })
            .collect();
        let core = &self.core;
        let pure_replies: Vec<(usize, Reply)> =
            gpm_par::par_map(&pure_jobs, |&i| (i, core.compute(&requests[i])));
        let pure_replies: HashMap<usize, Reply> = pure_replies.into_iter().collect();

        // Stitch replies back into request order and fill the cache
        // (successes only — errors stay recomputable).
        let mut replies = Vec::with_capacity(requests.len());
        for (slot, key) in slots.into_iter().zip(keys) {
            let reply = match slot {
                Slot::Done(reply) => reply,
                Slot::Governor(j) => governor_replies.remove(&j).expect("governor reply"),
                Slot::Pure(j) => pure_replies.get(&j).cloned().expect("pure reply"),
            };
            if let Reply::Ok(response) = &reply {
                self.core.cache_put(key, response.clone());
            }
            if matches!(reply, Reply::Error { .. }) {
                self.core.note_error();
            }
            replies.push(reply);
        }
        replies
    }

    fn best_config(&mut self, request: &Request) -> Reply {
        let Request::BestConfig { kernel, objective } = request else {
            unreachable!("slot partition routes only BestConfig here");
        };
        let Some(kernel) = self.core.kernels.get(kernel) else {
            return unknown_kernel(kernel);
        };
        let objective_key = ObjectiveKey::of(objective);
        let state = self.governors.remove(&objective_key).unwrap_or_default();
        let mut governor =
            Governor::resume(&mut self.gpu, self.core.model.clone(), *objective, state);
        let result = governor.run_kernel(kernel);
        let state = governor.into_state();
        self.governors.insert(objective_key, state);
        match result {
            Ok(run) => Reply::Ok(Response::BestConfig {
                config: run.decision.config,
                power_w: run.decision.predicted_power_w,
                time_s: run.decision.predicted_time_s,
                reference_time_s: run.decision.reference_time_s,
            }),
            Err(e) => Reply::Error {
                message: e.to_string(),
            },
        }
    }
}

fn unknown_kernel(name: &str) -> Reply {
    Reply::Error {
        message: format!("unknown kernel `{name}` (not in the serving suites)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::fitted_model;
    use gpm_dvfs::Objective;
    use gpm_spec::FreqConfig;

    fn engine() -> PredictionEngine {
        PredictionEngine::new(fitted_model(), "test@v1", &EngineConfig::default())
    }

    #[test]
    fn identical_best_config_requests_profile_once_then_hit_caches() {
        let mut engine = engine();
        let batch: Vec<Request> = (0..8)
            .map(|_| Request::BestConfig {
                kernel: "LBM".to_string(),
                objective: Objective::MinEdp,
            })
            .collect();
        let replies = engine.process_batch(&batch);
        assert!(replies.iter().all(Reply::is_ok));
        assert!(replies.iter().all(|r| r == &replies[0]));
        let stats = engine.governor_stats();
        assert_eq!(stats.profiled, 1, "one profile for the whole batch");
        assert_eq!(stats.cache_hits, 7, "duplicates hit the decision cache");

        // A later batch is answered from the prediction LRU: the
        // governor is not consulted at all.
        let again = engine.process_batch(&batch[..1]);
        assert_eq!(again[0], replies[0]);
        let stats = engine.governor_stats();
        assert_eq!((stats.profiled, stats.cache_hits), (1, 7));
        assert!(engine.stats().cache.hits >= 1);
    }

    #[test]
    fn energy_matches_the_direct_pipeline() {
        let mut engine = engine();
        let config = FreqConfig::from_mhz(975, 3505);
        let reply = engine.process(&Request::Energy {
            kernel: "LBM".to_string(),
            config,
        });
        let Reply::Ok(Response::Energy {
            joules,
            time_s,
            power_w,
        }) = reply
        else {
            panic!("expected Energy response, got {reply:?}");
        };

        // Reference computation straight from the pipeline crates.
        let kernel = validation_suite(engine.model().spec())
            .into_iter()
            .find(|k| k.name() == "LBM")
            .unwrap();
        let mut gpu = SimulatedGpu::new(engine.model().spec().clone(), 1042);
        let profile = Profiler::with_repeats(&mut gpu, 1)
            .profile_at_reference(&kernel)
            .unwrap();
        let expected_power = engine
            .model()
            .predict(&profile.utilizations, config)
            .unwrap();
        gpu.set_clocks(config).unwrap();
        let expected_time = gpu.execute(&kernel).duration_s;
        assert_eq!(power_w, expected_power, "bit-identical power");
        assert_eq!(time_s, expected_time, "bit-identical runtime");
        assert_eq!(joules, expected_power * expected_time);
    }

    #[test]
    fn unknown_kernels_are_reported_not_cached() {
        let mut engine = engine();
        let request = Request::Energy {
            kernel: "DOOM".to_string(),
            config: FreqConfig::from_mhz(975, 3505),
        };
        for _ in 0..2 {
            let reply = engine.process(&request);
            assert!(matches!(reply, Reply::Error { ref message } if message.contains("DOOM")));
        }
        let stats = engine.stats();
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.cache.hits, 0, "errors are never cached");
    }
}
