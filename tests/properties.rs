//! Property-based tests over the public API: invariants that must hold
//! for arbitrary utilizations, configurations and model inputs — plus
//! the reproducibility contract that parallel estimation is bit-identical
//! across thread counts.

use gpm::core::{
    cross_validate, DomainParams, EstimatorConfig, MicrobenchSample, PowerModel, Utilizations,
    VoltageTable,
};
use gpm::prelude::*;
use gpm::spec::{devices, Domain};
use std::collections::BTreeMap;

/// The backoff schedule contract: for any policy and seed, the recorded
/// delays are non-decreasing, bounded by `max_backoff_ms * (1 + jitter)`,
/// have exactly `max_attempts - 1` entries, and are bit-identical when
/// recomputed from the same `(policy, seed)`.
#[test]
fn backoff_schedules_are_monotone_bounded_and_reproducible() {
    gpm_check::check(
        "backoff_schedules_are_monotone_bounded_and_reproducible",
        |g| {
            let policy = RetryPolicy {
                max_attempts: g.u64_in(1..16) as u32,
                base_backoff_ms: g.f64_in(0.1, 200.0),
                max_backoff_ms: g.f64_in(200.0, 5_000.0),
                jitter: g.f64_in(0.0, 1.0),
            };
            let seed = g.u64_any();
            let schedule = policy.backoff_schedule_ms(seed);
            assert_eq!(schedule.len(), policy.max_attempts as usize - 1);
            let cap = policy.max_backoff_ms * (1.0 + policy.jitter);
            let mut prev = 0.0;
            for &delay in &schedule {
                assert!(delay >= prev, "schedule must be non-decreasing");
                assert!(delay > 0.0 && delay <= cap, "{delay} ms over cap {cap} ms");
                prev = delay;
            }
            let again = policy.backoff_schedule_ms(seed);
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&schedule), bits(&again), "must be bit-identical");
        },
    );
}

/// The resilient campaign's determinism contract extends to faults: the
/// quarantine ledger (and the whole checkpoint) is independent of the
/// gpm-par worker count.
#[test]
fn quarantine_ledger_is_thread_count_independent() {
    let spec = devices::tesla_k40c();
    let suite: Vec<KernelDesc> = microbenchmark_suite(&spec)[..8].to_vec();
    let plan = FaultPlan::preset("transient", 6).unwrap();

    let run = |threads: usize| {
        gpm::par::set_threads(Some(threads));
        let gpu = SimulatedGpu::new(spec.clone(), 3);
        let mut device = FaultyGpu::new(gpu, plan.clone());
        let mut profiler = ResilientProfiler::new(&mut device).with_repeats(2);
        let mut checkpoint = profiler.new_checkpoint();
        match profiler.run(&suite, &mut checkpoint, None).unwrap() {
            CampaignOutcome::Complete(_) => {}
            CampaignOutcome::Suspended { .. } => panic!("unbudgeted run must complete"),
        }
        (checkpoint.quarantined.len(), checkpoint.to_json_string())
    };

    let (count_1, json_1) = run(1);
    assert!(count_1 > 0, "transient preset must quarantine something");
    for threads in [4usize, 8] {
        let (count_n, json_n) = run(threads);
        assert_eq!(
            count_n, count_1,
            "quarantine count diverged at {threads} threads"
        );
        assert_eq!(json_n, json_1, "checkpoint diverged at {threads} threads");
    }
    gpm::par::set_threads(None);
}

/// A small but non-trivial fitted-model stand-in with hand-set physical
/// (non-negative) coefficients over the GTX Titan X grid.
fn toy_model() -> PowerModel {
    let spec = devices::gtx_titan_x();
    let reference = spec.default_config();
    // Normalized so the curve equals exactly 1 at the reference core
    // frequency (the table pins the reference to 1 regardless).
    let raw = |f: f64| 0.87 + 0.28 * (f - 595.0) / (1164.0 - 595.0);
    let at_ref = raw(reference.core.as_f64());
    let entries: Vec<_> = spec
        .vf_grid()
        .into_iter()
        .map(|c| (c, [raw(c.core.as_f64()) / at_ref, 1.0]))
        .collect();
    PowerModel::new(
        spec,
        DomainParams {
            static_coef: 15.0,
            idle_dyn: 20.0,
            omegas: vec![18.0, 24.0, 30.0, 22.0, 15.0, 17.0],
        },
        DomainParams {
            static_coef: 10.0,
            idle_dyn: 11.0,
            omegas: vec![26.0],
        },
        VoltageTable::new(reference, entries),
        640.0,
    )
}

fn draw_utilizations(g: &mut gpm_check::Gen) -> Utilizations {
    let vals = g.vec_f64(7..8, 0.0, 1.0);
    let arr: [f64; 7] = vals.try_into().expect("seven values");
    Utilizations::from_values(arr).expect("in range")
}

#[test]
fn predictions_are_positive_and_below_a_physical_ceiling() {
    let model = toy_model();
    let grid = model.spec().vf_grid();
    gpm_check::check(
        "predictions_are_positive_and_below_a_physical_ceiling",
        |g| {
            let u = draw_utilizations(g);
            let config = grid[g.usize_in(0..grid.len())];
            let p = model.predict(&u, config).expect("fitted config");
            assert!(p > 0.0);
            assert!(p < 2.0 * model.spec().tdp_w(), "{p} W");
        },
    );
}

#[test]
fn power_is_monotone_in_every_utilization() {
    let model = toy_model();
    let grid = model.spec().vf_grid();
    gpm_check::check("power_is_monotone_in_every_utilization", |g| {
        let base = draw_utilizations(g);
        let comp_idx = g.usize_in(0..7);
        let bump = g.f64_in(0.01, 0.5);
        let config = grid[g.usize_in(0..grid.len())];
        let mut bumped = base.as_array();
        bumped[comp_idx] = (bumped[comp_idx] + bump).min(1.0);
        let lo = model.predict(&base, config).expect("fitted config");
        let hi = model
            .predict(
                &Utilizations::from_values(bumped).expect("in range"),
                config,
            )
            .expect("fitted config");
        assert!(hi + 1e-9 >= lo, "raising U must not lower power");
    });
}

#[test]
fn breakdown_components_always_sum_to_total() {
    let model = toy_model();
    let grid = model.spec().vf_grid();
    gpm_check::check("breakdown_components_always_sum_to_total", |g| {
        let u = draw_utilizations(g);
        let config = grid[g.usize_in(0..grid.len())];
        let b = model.breakdown(&u, config).expect("fitted config");
        let sum = b.constant() + b.components().iter().map(|(_, w)| w).sum::<f64>();
        assert!((sum - b.total()).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&b.dynamic_fraction()));
    });
}

#[test]
fn power_rises_with_core_frequency_at_fixed_utilization() {
    let model = toy_model();
    let spec = model.spec().clone();
    gpm_check::check(
        "power_rises_with_core_frequency_at_fixed_utilization",
        |g| {
            let u = draw_utilizations(g);
            let mem = spec.mem_freqs()[g.usize_in(0..spec.mem_freqs().len())];
            let mut prev = 0.0;
            for &core in spec.core_freqs().iter().rev() {
                let p = model
                    .predict(&u, FreqConfig::new(core, mem))
                    .expect("fitted config");
                assert!(p >= prev, "power must not fall as fcore rises");
                prev = p;
            }
        },
    );
}

#[test]
fn model_json_round_trip_preserves_predictions() {
    let model = toy_model();
    let json = model.to_json().expect("serializes");
    let back = PowerModel::from_json(&json).expect("deserializes");
    let config = model.spec().default_config();
    gpm_check::check("model_json_round_trip_preserves_predictions", |g| {
        let u = draw_utilizations(g);
        assert_eq!(
            model.predict(&u, config).expect("prediction"),
            back.predict(&u, config).expect("prediction")
        );
    });
}

#[test]
fn voltage_table_is_normalized_at_reference() {
    let model = toy_model();
    let grid = model.spec().vf_grid();
    gpm_check::check("voltage_table_is_normalized_at_reference", |g| {
        let reference = model.reference();
        let vt = model.voltage_table();
        assert_eq!(vt.voltages(reference).expect("reference"), (1.0, 1.0));
        let config = grid[g.usize_in(0..grid.len())];
        let (vc, vm) = vt.voltages(config).expect("fitted config");
        assert!(vc > 0.0 && vm > 0.0);
        let _ = vt.voltage(Domain::Core, config).expect("core voltage");
    });
}

/// Batched-prediction conformance: for *random* models (random physical
/// coefficients, random voltage curves) and random batches drawn from the
/// V-F grid — including empty batches, singletons and non-lane-multiple
/// tails — `predict_batch` must be *bit-identical* to calling the scalar
/// `predict` per point: the blocked kernel must never change a single
/// mantissa bit.
#[test]
fn predict_batch_is_bit_identical_to_scalar_predict_for_random_models() {
    let spec = devices::gtx_titan_x();
    let grid = spec.vf_grid();
    let reference = spec.default_config();
    gpm_check::check(
        "predict_batch_is_bit_identical_to_scalar_predict_for_random_models",
        |g| {
            let entries: Vec<_> = grid
                .iter()
                .map(|&c| (c, [g.f64_in(0.7, 1.3), g.f64_in(0.7, 1.3)]))
                .collect();
            let model = PowerModel::new(
                spec.clone(),
                DomainParams {
                    static_coef: g.f64_in(0.0, 30.0),
                    idle_dyn: g.f64_in(0.0, 40.0),
                    omegas: (0..6).map(|_| g.f64_in(0.0, 40.0)).collect(),
                },
                DomainParams {
                    static_coef: g.f64_in(0.0, 20.0),
                    idle_dyn: g.f64_in(0.0, 20.0),
                    omegas: vec![g.f64_in(0.0, 40.0)],
                },
                VoltageTable::new(reference, entries),
                640.0,
            );
            let u = draw_utilizations(g);
            // Exercise the empty batch, singletons, odd tails, a full
            // block and the memoized sweep path (batch larger than the
            // 64-config grid).
            const SIZES: [usize; 9] = [0, 1, 2, 3, 5, 63, 64, 130, 257];
            let n = SIZES[g.usize_in(0..SIZES.len())];
            let configs: Vec<FreqConfig> =
                (0..n).map(|_| grid[g.usize_in(0..grid.len())]).collect();
            let batched = model.predict_batch(&u, &configs).expect("on-grid batch");
            assert_eq!(batched.len(), n);
            for (&c, b) in configs.iter().zip(&batched) {
                let scalar = model.predict(&u, c).expect("on-grid predict");
                assert_eq!(
                    scalar.to_bits(),
                    b.to_bits(),
                    "predict_batch diverged from scalar predict at {c}"
                );
            }
        },
    );
}

/// Degraded inputs keep the conformance contract: zeroed-out components
/// (dead counters), zero model coefficients and all-zero utilizations
/// must flow through the batched kernels exactly as through the scalar
/// path, and an off-grid config must error rather than fabricate a
/// voltage.
#[test]
fn predict_batch_conformance_survives_degraded_components() {
    let model = toy_model();
    let grid = model.spec().vf_grid();
    gpm_check::check(
        "predict_batch_conformance_survives_degraded_components",
        |g| {
            let mut vals = draw_utilizations(g).as_array();
            // Kill a random subset of components outright.
            for v in vals.iter_mut() {
                if g.usize_in(0..3) == 0 {
                    *v = 0.0;
                }
            }
            let u = Utilizations::from_values(vals).expect("in range");
            let configs: Vec<FreqConfig> = (0..g.usize_in(0..100))
                .map(|_| grid[g.usize_in(0..grid.len())])
                .collect();
            let batched = model.predict_batch(&u, &configs).expect("on-grid batch");
            for (&c, b) in configs.iter().zip(&batched) {
                let scalar = model.predict(&u, c).expect("on-grid predict");
                assert_eq!(scalar.to_bits(), b.to_bits());
            }
            let off_grid = FreqConfig::from_mhz(12_345, 67);
            let mut with_bad = configs;
            with_bad.push(off_grid);
            assert!(
                model.predict_batch(&u, &with_bad).is_err(),
                "off-grid config must fail the whole batch"
            );
        },
    );
}

/// Synthetic training set from an exact Eq. 5-7 model, small enough that
/// repeated fits stay cheap.
fn synthetic_training() -> TrainingSet {
    let spec = devices::gtx_titan_x();
    let reference = spec.default_config();
    let vbar = |c: FreqConfig| -> f64 {
        let v = |f: f64| {
            if f <= 810.0 {
                0.85
            } else {
                0.85 + 0.00075 * (f - 810.0)
            }
        };
        v(c.core.as_f64()) / v(reference.core.as_f64())
    };
    let mut samples = Vec::new();
    for i in 0..16 {
        let t = i as f64 / 15.0;
        let u = Utilizations::from_values([
            0.1 + 0.4 * t,
            0.5 * (1.0 - t),
            0.0,
            0.2 * t,
            0.3 * (1.0 - t),
            0.2 + 0.5 * t * (1.0 - t),
            (0.8 - 0.7 * t).max(0.05),
        ])
        .unwrap();
        let mut power_by_config = BTreeMap::new();
        for config in spec.vf_grid() {
            let vc = vbar(config);
            let fc = config.core.as_f64() / 1000.0;
            let fm = config.mem.as_f64() / 1000.0;
            let core_act = 20.0
                + 18.0 * u.get(Component::Int)
                + 24.0 * u.get(Component::Sp)
                + 22.0 * u.get(Component::Sf)
                + 15.0 * u.get(Component::SharedMem)
                + 17.0 * u.get(Component::L2Cache);
            let p = 15.0 * vc
                + vc * vc * fc * core_act
                + 10.0
                + fm * (11.0 + 26.0 * u.get(Component::Dram));
            power_by_config.insert(config, p);
        }
        samples.push(MicrobenchSample {
            name: format!("par_{i}"),
            utilizations: u,
            power_by_config,
        });
    }
    TrainingSet {
        device: spec,
        reference,
        l2_bytes_per_cycle: 640.0,
        samples,
    }
}

/// The parallel engine's reproducibility contract: fitting and
/// cross-validating with 2, 4 or 8 worker threads must produce output
/// *byte-identical* to the single-threaded run — `gpm_par::par_map`
/// preserves input order, so the arithmetic is the same in any schedule.
#[test]
fn fit_and_cross_validation_are_thread_count_independent() {
    let training = synthetic_training();
    let config = EstimatorConfig::default();

    gpm::par::set_threads(Some(1));
    let model_seq = Estimator::with_config(config.clone())
        .fit(&training)
        .unwrap();
    let cv_seq = cross_validate(&training, &config, 4).unwrap();
    let model_seq_json = model_seq.to_json().unwrap();

    for threads in [2usize, 4, 8] {
        gpm::par::set_threads(Some(threads));
        let model = Estimator::with_config(config.clone())
            .fit(&training)
            .unwrap();
        let cv = cross_validate(&training, &config, 4).unwrap();
        assert_eq!(
            model.to_json().unwrap(),
            model_seq_json,
            "fit diverged at {threads} threads"
        );
        assert_eq!(cv, cv_seq, "cross-validation diverged at {threads} threads");
    }
    gpm::par::set_threads(None);
}

/// The wire-frame decoder's robustness contract: any valid frame
/// sequence is recovered intact no matter how the byte stream is split;
/// oversized length headers and non-UTF-8 payloads are typed errors
/// that permanently poison the stream; arbitrary garbage never panics.
#[test]
fn frame_decoder_survives_arbitrary_splits_and_garbage() {
    use gpm::serve::proto::{write_frame, FrameDecoder, MAX_FRAME_LEN};
    gpm_check::check("frame_decoder_survives_arbitrary_splits_and_garbage", |g| {
        // Valid frames, random payload content (including multi-byte
        // UTF-8), fed at random split points: recovered verbatim.
        let count = g.usize_in(1..6);
        let frames: Vec<String> = (0..count)
            .map(|_| {
                let len = g.usize_in(0..256);
                (0..len)
                    .map(|_| *g.choose(&['a', 'é', '0', '{', '"', '\u{1F600}']))
                    .collect()
            })
            .collect();
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            let take = g.usize_in(1..9).min(wire.len() - pos);
            decoder.extend(&wire[pos..pos + take]);
            pos += take;
            while let Some(frame) = decoder.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames, "split points must not change the frames");
        assert_eq!(decoder.buffered(), 0);

        // An oversized length header is a typed error, and the decoder
        // stays errored even if well-formed bytes arrive afterwards.
        let mut decoder = FrameDecoder::new();
        let oversized = (MAX_FRAME_LEN as u32) + 1 + (g.u64_in(0..1024) as u32);
        decoder.extend(&oversized.to_be_bytes());
        let err = decoder.next_frame().expect_err("oversized header");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        decoder.extend(&wire);
        assert!(
            decoder.next_frame().is_err(),
            "poisoned decoders must stay poisoned"
        );

        // Garbage prefixes: random bytes produce frames, a wait for
        // more bytes, or a typed error — never a panic.
        let mut decoder = FrameDecoder::new();
        let len = g.usize_in(0..256);
        let garbage: Vec<u8> = (0..len).map(|_| (g.u64_any() & 0xff) as u8).collect();
        decoder.extend(&garbage);
        loop {
            match decoder.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    break;
                }
            }
        }
    });
}

/// The JSON string contract: text holding quotes, backslashes, control
/// characters and multibyte characters comes back unchanged through
/// `write` → `parse`, as a value and as an object key, whether the
/// special characters open, close or sit inside the string.
#[test]
fn json_strings_round_trip_through_write_and_parse() {
    use gpm::json::{parse, write, Json};
    const CHARS: [char; 16] = [
        'a',
        'Z',
        '7',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '€',
        '\u{1F600}',
        'u',
    ];
    gpm_check::check("json_strings_round_trip_through_write_and_parse", |g| {
        let mut text = || -> String {
            let len = g.usize_in(0..40);
            (0..len).map(|_| *g.choose(&CHARS)).collect()
        };
        let value = Json::Obj(vec![
            (text(), Json::Str(text())),
            (
                text(),
                Json::Arr(vec![Json::Str(text()), Json::Num(1.5), Json::Str(text())]),
            ),
        ]);
        let written = write(&value);
        assert_eq!(parse(&written).unwrap(), value, "{written}");
    });
}
