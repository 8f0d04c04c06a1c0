//! End-to-end tests of the serving subsystem (gpm-serve): determinism
//! across worker-thread counts, registry persistence, admission
//! control and graceful drain.

use gpm::core::{DomainParams, Estimator, PowerModel, Utilizations, VoltageTable};
use gpm::dvfs::{pareto_frontier, Governor, Objective};
use gpm::profiler::Profiler;
use gpm::serve::{
    Client, EngineConfig, ModelRegistry, PredictionEngine, Reply, Request, Response, ServeError,
    ServerConfig, ServerHandle,
};
use gpm::sim::SimulatedGpu;
use gpm::spec::{devices, FreqConfig};
use gpm::workloads::{microbenchmark_suite, validation_suite};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Fit the reference model once for the whole test binary.
fn fitted_model() -> PowerModel {
    static MODEL: OnceLock<PowerModel> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let spec = devices::gtx_titan_x();
            let mut gpu = SimulatedGpu::new(spec.clone(), 42);
            let training = Profiler::with_repeats(&mut gpu, 1)
                .profile_suite(&microbenchmark_suite(&spec))
                .unwrap();
            Estimator::new().fit(&training).unwrap()
        })
        .clone()
}

fn utils() -> Utilizations {
    Utilizations::from_values([0.2, 0.6, 0.0, 0.1, 0.2, 0.3, 0.5]).unwrap()
}

/// A mixed batch exercising every request type, with duplicates.
fn mixed_batch() -> Vec<Request> {
    let config = FreqConfig::from_mhz(975, 3505);
    let low = FreqConfig::from_mhz(595, 810);
    vec![
        Request::Power {
            utilizations: utils(),
            config,
        },
        Request::Energy {
            kernel: "LBM".to_string(),
            config: low,
        },
        Request::BestConfig {
            kernel: "GEMM".to_string(),
            objective: Objective::MinEdp,
        },
        Request::Pareto {
            kernel: "SRAD_1".to_string(),
            max_points: 0,
        },
        Request::Energy {
            kernel: "BLCKSC".to_string(),
            config,
        },
        Request::BestConfig {
            kernel: "GEMM".to_string(),
            objective: Objective::MinEdp,
        },
        Request::Pareto {
            kernel: "LBM".to_string(),
            max_points: 3,
        },
        Request::Power {
            utilizations: utils(),
            config: low,
        },
    ]
}

fn serialize(replies: &[Reply]) -> Vec<String> {
    replies
        .iter()
        .map(|r| gpm::json::to_string(r).unwrap())
        .collect()
}

/// The acceptance gate: serialized replies are byte-identical at 1, 4
/// and 8 worker threads, and match the direct pipeline calls.
#[test]
fn batched_replies_are_bit_identical_at_any_thread_count() {
    let model = fitted_model();
    let batch = mixed_batch();

    let mut per_thread_count = Vec::new();
    for threads in [1usize, 4, 8] {
        gpm::par::set_threads(Some(threads));
        let mut engine = PredictionEngine::new(model.clone(), "m@v1", &EngineConfig::default());
        let replies = engine.process_batch(&batch);
        assert!(
            replies.iter().all(Reply::is_ok),
            "at {threads} threads: {replies:?}"
        );
        per_thread_count.push(serialize(&replies));
    }
    gpm::par::set_threads(None);
    assert_eq!(
        per_thread_count[0], per_thread_count[1],
        "1 vs 4 worker threads"
    );
    assert_eq!(
        per_thread_count[0], per_thread_count[2],
        "1 vs 8 worker threads"
    );

    // Cross-check each reply kind against the direct pipeline, using a
    // device seeded exactly like the engine's (EngineConfig default).
    let spec = model.spec().clone();
    let seed = EngineConfig::default().seed;

    // Power = PowerModel::predict, bit for bit.
    let direct = model
        .predict(&utils(), FreqConfig::from_mhz(975, 3505))
        .unwrap();
    assert_eq!(
        per_thread_count[0][0],
        gpm::json::to_string(&Reply::Ok(Response::Power { watts: direct })).unwrap()
    );

    // Energy = profile at reference on a fresh device, predict, time.
    let lbm = validation_suite(&spec)
        .into_iter()
        .find(|k| k.name() == "LBM")
        .unwrap();
    let low = FreqConfig::from_mhz(595, 810);
    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let profile = Profiler::with_repeats(&mut gpu, 1)
        .profile_at_reference(&lbm)
        .unwrap();
    let power_w = model.predict(&profile.utilizations, low).unwrap();
    gpu.set_clocks(low).unwrap();
    let time_s = gpu.execute(&lbm).duration_s;
    assert_eq!(
        per_thread_count[0][1],
        gpm::json::to_string(&Reply::Ok(Response::Energy {
            joules: power_w * time_s,
            time_s,
            power_w,
        }))
        .unwrap()
    );

    // BestConfig = the governor's first-call decision on a fresh device.
    let gemm = validation_suite(&spec)
        .into_iter()
        .find(|k| k.name() == "GEMM")
        .unwrap();
    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let mut governor = Governor::new(&mut gpu, model.clone(), Objective::MinEdp);
    let run = governor.run_kernel(&gemm).unwrap();
    assert_eq!(
        per_thread_count[0][2],
        gpm::json::to_string(&Reply::Ok(Response::BestConfig {
            config: run.decision.config,
            power_w: run.decision.predicted_power_w,
            time_s: run.decision.predicted_time_s,
            reference_time_s: run.decision.reference_time_s,
        }))
        .unwrap()
    );

    // Pareto = profile at reference, then pareto_frontier, on a fresh
    // device.
    let srad = validation_suite(&spec)
        .into_iter()
        .find(|k| k.name() == "SRAD_1")
        .unwrap();
    let mut gpu = SimulatedGpu::new(spec.clone(), seed);
    let profile = Profiler::with_repeats(&mut gpu, 1)
        .profile_at_reference(&srad)
        .unwrap();
    let points = pareto_frontier(&mut gpu, &model, &srad, &profile.utilizations).unwrap();
    assert_eq!(
        per_thread_count[0][3],
        gpm::json::to_string(&Reply::Ok(Response::Pareto { points })).unwrap()
    );
}

/// The grid-sweep requests (`Pareto`, `BestConfig`) are pinned against a
/// committed fixture captured *before* the batched-prediction rewire:
/// serialized replies must stay byte-identical forever, whatever path
/// (scalar or blocked) evaluates the model underneath. Regenerate
/// with `GPM_BLESS=1 cargo test pareto_and_best_config` only for a
/// deliberate, documented protocol change. The three `Pareto` lines
/// were re-blessed once, when `pareto_frontier` stopped keeping points
/// that tie an earlier point's runtime at a higher energy (LBM went
/// from 10 points to 1, SRAD_1 from 8 to 6, GEMM kept 4). Powers, and
/// with them Pareto points, move whenever the fitted model does; the
/// `BestConfig` configurations have not moved.
#[test]
fn pareto_and_best_config_replies_match_the_golden_fixture() {
    let model = fitted_model();
    let mut engine = PredictionEngine::new(model, "golden@v1", &EngineConfig::default());
    let batch = vec![
        Request::Pareto {
            kernel: "LBM".to_string(),
            max_points: 0,
        },
        Request::Pareto {
            kernel: "GEMM".to_string(),
            max_points: 4,
        },
        Request::BestConfig {
            kernel: "GEMM".to_string(),
            objective: Objective::MinEdp,
        },
        Request::BestConfig {
            kernel: "LBM".to_string(),
            objective: Objective::MinEnergy,
        },
        Request::BestConfig {
            kernel: "HOTS".to_string(),
            objective: Objective::MinEnergyWithSlowdown(1.1),
        },
        Request::Pareto {
            kernel: "SRAD_1".to_string(),
            max_points: 0,
        },
    ];
    let replies = engine.process_batch(&batch);
    assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
    let actual = serialize(&replies).join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_replies.json");
    if std::env::var("GPM_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden serve replies");
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
        "serve grid-sweep replies drifted from the pre-batching fixture"
    );
}

#[test]
fn registry_round_trips_models_and_rejects_non_finite_ones() {
    let root = std::env::temp_dir().join("gpm-serve-it-registry");
    let _ = std::fs::remove_dir_all(&root);
    let registry = ModelRegistry::open(&root).unwrap();
    let model = fitted_model();

    let v1 = registry.publish("titan", &model, None).unwrap();
    assert_eq!(v1, 1);
    let entry = registry.load_active().unwrap();
    assert_eq!(entry.identity(), "titan@v1");
    assert_eq!(entry.model, model, "persisted model round-trips exactly");
    assert_eq!(entry.device, model.spec().name());

    let v2 = registry.publish("titan", &model, None).unwrap();
    assert_eq!(v2, 2);
    // Publishing again does not steal the active pointer.
    assert_eq!(registry.active().unwrap(), Some(("titan".to_string(), 1)));
    registry.activate("titan", 2).unwrap();
    assert_eq!(registry.load_active().unwrap().version, 2);

    // A degraded fit with a NaN coefficient is refused, not persisted.
    let spec = devices::gtx_titan_x();
    let reference = spec.default_config();
    let broken = PowerModel::new(
        spec,
        DomainParams {
            static_coef: f64::NAN,
            idle_dyn: 20.0,
            omegas: vec![1.0; 6],
        },
        DomainParams {
            static_coef: 10.0,
            idle_dyn: 11.0,
            omegas: vec![1.0],
        },
        VoltageTable::new(reference, []),
        600.0,
    );
    let err = registry.publish("broken", &broken, None).unwrap_err();
    assert!(matches!(err, ServeError::NonFinite(_)), "{err}");
    assert!(
        err.to_string().contains("static_coef"),
        "error names the offending path: {err}"
    );
    // Nothing was written for the rejected model.
    assert!(matches!(
        registry.load("broken", None),
        Err(ServeError::UnknownModel(_))
    ));
}

#[test]
fn server_sheds_beyond_the_queue_bound_and_drains_on_shutdown() {
    let engine = PredictionEngine::new(fitted_model(), "m@v1", &EngineConfig::default());
    // A one-deep queue with one-request batches: the first slow request
    // occupies the engine, the second sits in the queue, and the burst
    // behind them is shed with a typed reply.
    let config = ServerConfig {
        queue_depth: 1,
        batch_max: 1,
        ..ServerConfig::default()
    };
    let handle = ServerHandle::spawn(engine, config);
    let client: Client = handle.client();

    let burst: Vec<Request> = (0..8)
        .map(|i| Request::Pareto {
            kernel: "LBM".to_string(),
            max_points: i, // distinct requests: no cache short-circuit
        })
        .collect();
    let replies = client.call_batch(&burst);
    let ok = replies.iter().filter(|r| r.is_ok()).count();
    let shed = replies
        .iter()
        .filter(|r| matches!(r, Reply::Overloaded { queue_depth: 1 }))
        .count();
    assert_eq!(ok + shed, replies.len(), "{replies:?}");
    assert!(ok >= 1, "at least the first request is admitted");
    assert!(shed >= 1, "a one-deep queue sheds a same-instant burst");

    // Every admitted request was answered before shutdown returned.
    let (engine, stats) = handle.shutdown();
    assert_eq!(stats.served, ok as u64);
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(engine.stats().requests, ok as u64);
    assert!(
        !replies
            .iter()
            .any(|r| matches!(r, Reply::Error { message } if message.contains("exited"))),
        "graceful drain: no request was dropped mid-flight"
    );
}

#[test]
fn identical_best_config_requests_share_one_profile_through_the_server() {
    let engine = PredictionEngine::new(fitted_model(), "m@v1", &EngineConfig::default());
    let handle = ServerHandle::spawn(engine, ServerConfig::default());
    let client = handle.client();
    let batch: Vec<Request> = (0..8)
        .map(|_| Request::BestConfig {
            kernel: "LBM".to_string(),
            objective: Objective::MinEnergy,
        })
        .collect();
    let replies = client.call_batch(&batch);
    assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
    assert!(replies.iter().all(|r| r == &replies[0]));

    let (engine, _) = handle.shutdown();
    let stats = engine.governor_stats();
    assert_eq!(stats.profiled, 1, "the kernel was profiled exactly once");
    assert_eq!(
        stats.profiled as usize + stats.cache_hits as usize + engine.stats().cache.hits as usize,
        8,
        "every other request hit the decision cache or the LRU"
    );
}
