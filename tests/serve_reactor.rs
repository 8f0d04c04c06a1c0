//! End-to-end tests of the TCP reactor front end (gpm-serve): replies
//! byte-identical to the direct engine at any shard count, slow-loris
//! and mid-stream-disconnect resilience, graceful drain of hundreds of
//! in-flight pipelined requests, and reactor metrics.
#![cfg(unix)]

use gpm::core::{Estimator, PowerModel, Utilizations};
use gpm::dvfs::Objective;
use gpm::profiler::Profiler;
use gpm::serve::{
    EngineConfig, PredictionEngine, Reply, Request, Response, ServerConfig, ServerHandle, TcpClient,
};
use gpm::sim::SimulatedGpu;
use gpm::spec::{devices, FreqConfig};
use gpm::workloads::microbenchmark_suite;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

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

fn engine() -> PredictionEngine {
    PredictionEngine::new(fitted_model(), "reactor@v1", &EngineConfig::default())
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

/// The reactor's determinism contract: TCP replies are byte-identical
/// to direct `process_batch` calls, at one shard and at many.
#[test]
fn tcp_replies_match_the_direct_engine_at_any_shard_count() {
    let batch = mixed_batch();
    let mut oracle_engine = engine();
    let oracle = serialize(&oracle_engine.process_batch(&batch));

    for shards in [1usize, 4] {
        let config = ServerConfig {
            shards,
            ..ServerConfig::default()
        };
        let handle = ServerHandle::bind(engine(), config, "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(handle.local_addr().unwrap()).unwrap();
        let replies = client.pipeline(&batch).unwrap();
        assert_eq!(
            serialize(&replies),
            oracle,
            "replies diverged from the direct engine at {shards} shard(s)"
        );
        drop(client);
        let (_, stats) = handle.shutdown();
        assert_eq!(stats.served, batch.len() as u64);
        assert_eq!(stats.shed, 0);
    }
}

/// Replies that complete in one poll sweep leave in one write: a
/// pipelined batch of cache hits costs at most two reply `write` calls
/// instead of one per reply, and the replies still match the direct
/// engine byte for byte.
#[test]
fn pipelined_cache_hits_leave_in_at_most_two_writes() {
    const N: usize = 12;
    let batch: Vec<Request> = fitted_model().spec().vf_grid()[..N]
        .iter()
        .map(|&config| Request::Power {
            utilizations: utils(),
            config,
        })
        .collect();
    let oracle = serialize(&engine().process_batch(&batch));

    // Fill the served engine's cache in-process, so that every request
    // on the wire is a hit answered at admission.
    let mut served = engine();
    served.process_batch(&batch);
    let config = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let handle = ServerHandle::bind(served, config, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(handle.local_addr().unwrap()).unwrap();
    let replies = client.pipeline(&batch).unwrap();
    assert_eq!(serialize(&replies), oracle);
    drop(client);
    let (served, stats) = handle.shutdown();
    assert_eq!(stats.served, N as u64);
    assert_eq!(served.stats().cache.hits, N as u64, "every request hit");
    assert!(
        stats.writes <= 2,
        "{N} pipelined hits took {} writes",
        stats.writes
    );
}

/// Cache accounting over TCP counts each request once: a hit when a
/// lookup answers it, a miss only where it is computed. The reactor
/// looks a request up at admission and again before computing it (and
/// the engine thread re-checks governor-backed ones), so counting every
/// lookup would report more misses than requests.
#[test]
fn tcp_cache_counts_each_request_once() {
    let config = FreqConfig::from_mhz(975, 3505);
    let low = FreqConfig::from_mhz(595, 810);
    let distinct = vec![
        Request::Power {
            utilizations: utils(),
            config,
        },
        Request::Power {
            utilizations: utils(),
            config: low,
        },
        Request::Energy {
            kernel: "LBM".to_string(),
            config: low,
        },
        Request::Pareto {
            kernel: "SRAD_1".to_string(),
            max_points: 0,
        },
        Request::BestConfig {
            kernel: "GEMM".to_string(),
            objective: Objective::MinEdp,
        },
        Request::BestConfig {
            kernel: "LBM".to_string(),
            objective: Objective::MinEnergy,
        },
    ];
    let n = distinct.len() as u64;
    let handle = ServerHandle::bind(engine(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(handle.local_addr().unwrap()).unwrap();
    let first = client.pipeline(&distinct).unwrap();
    assert!(first.iter().all(Reply::is_ok), "{first:?}");
    let again = client.pipeline(&distinct).unwrap();
    assert_eq!(serialize(&again), serialize(&first));
    drop(client);
    let (engine, stats) = handle.shutdown();
    assert_eq!(stats.served, 2 * n);
    let cache = engine.stats().cache;
    assert_eq!(cache.misses, n, "one miss per computed request");
    assert_eq!(cache.hits, n, "one hit per repeated request");
}

/// A slow-loris connection (a partial length prefix, held open) must
/// not stall other clients — and once the frame completes, it is
/// answered like any other.
#[test]
fn slow_loris_partial_frame_does_not_stall_other_connections() {
    let handle = ServerHandle::bind(engine(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().unwrap();

    // The loris: write two bytes of a four-byte length prefix and stop.
    let request = Request::Power {
        utilizations: utils(),
        config: FreqConfig::from_mhz(975, 3505),
    };
    let payload = gpm::serve::proto::encode_request(7, &request);
    let prefix = (payload.len() as u32).to_be_bytes();
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.set_nodelay(true).unwrap();
    loris.write_all(&prefix[..2]).unwrap();

    // Meanwhile a well-behaved client completes full round trips.
    let mut client = TcpClient::connect(addr).unwrap();
    for _ in 0..8 {
        let reply = client.call(&request).unwrap();
        assert!(reply.is_ok(), "{reply:?}");
    }

    // Completing the stalled frame gets the loris its reply too.
    loris.write_all(&prefix[2..]).unwrap();
    loris.write_all(payload.as_bytes()).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reply_prefix = [0u8; 4];
    loris.read_exact(&mut reply_prefix).unwrap();
    let len = u32::from_be_bytes(reply_prefix) as usize;
    let mut reply = vec![0u8; len];
    loris.read_exact(&mut reply).unwrap();
    let (id, reply) =
        gpm::serve::proto::decode_reply(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(id, 7);
    assert!(reply.is_ok(), "{reply:?}");

    drop(loris);
    drop(client);
    let (_, stats) = handle.shutdown();
    assert_eq!(stats.served, 9);
    assert_eq!(stats.shed, 0);
}

/// A client that pipelines requests and disconnects before reading its
/// replies must not take the server (or other connections) with it.
#[test]
fn client_disconnect_mid_stream_leaves_other_connections_intact() {
    let handle = ServerHandle::bind(engine(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().unwrap();

    let request = Request::Power {
        utilizations: utils(),
        config: FreqConfig::from_mhz(975, 3505),
    };
    {
        // Write several frames, then drop without reading a single reply.
        let mut rude = TcpStream::connect(addr).unwrap();
        rude.set_nodelay(true).unwrap();
        for id in 0..6u64 {
            let payload = gpm::serve::proto::encode_request(id, &request);
            rude.write_all(&(payload.len() as u32).to_be_bytes())
                .unwrap();
            rude.write_all(payload.as_bytes()).unwrap();
        }
    }

    // The server keeps answering everyone else.
    let mut client = TcpClient::connect(addr).unwrap();
    let replies = client
        .pipeline(&(0..8).map(|_| request.clone()).collect::<Vec<_>>())
        .unwrap();
    assert!(replies.iter().all(Reply::is_ok), "{replies:?}");

    drop(client);
    let (_, stats) = handle.shutdown();
    // The rude client's requests may or may not have been admitted
    // before the hangup was seen; the surviving client's definitely were.
    assert!(stats.served >= 8, "{stats:?}");
    assert_eq!(stats.shed, 0);
}

/// Shutdown with hundreds of in-flight pipelined requests: every
/// admitted request is answered exactly once, in order — no loss, no
/// duplication.
#[test]
fn shutdown_drains_hundreds_of_in_flight_pipelined_requests() {
    const N: u64 = 300;
    let config = ServerConfig {
        queue_depth: 1024,
        conn_inflight: 1024,
        max_requests: Some(N),
        shards: 4,
        ..ServerConfig::default()
    };
    let handle = ServerHandle::bind(engine(), config, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(handle.local_addr().unwrap()).unwrap();

    // Distinct requests, so the LRU cannot mask a lost or repeated one.
    let requests: Vec<Request> = (0..N)
        .map(|i| {
            let mut values = [0.0f64; 7];
            for (c, v) in values.iter_mut().enumerate() {
                *v = ((i as usize * 7 + c * 3) % 11) as f64 / 10.0;
            }
            Request::Power {
                utilizations: Utilizations::from_values(values).unwrap(),
                config: FreqConfig::from_mhz(975, 3505),
            }
        })
        .collect();

    // `max_requests: N` closes admission the instant the budget is
    // spent, so the tail of this pipeline is answered during the drain.
    let replies = client.pipeline(&requests).unwrap();
    assert_eq!(replies.len(), requests.len());
    for (i, reply) in replies.iter().enumerate() {
        assert!(reply.is_ok(), "request {i}: {reply:?}");
    }
    // Replies are correct per-request, not just well-formed: each one
    // equals the direct model prediction for its own utilizations.
    let model = fitted_model();
    for (request, reply) in requests.iter().zip(&replies) {
        let Request::Power {
            utilizations,
            config,
        } = request
        else {
            unreachable!()
        };
        let watts = model.predict(utilizations, *config).unwrap();
        assert_eq!(reply, &Reply::Ok(Response::Power { watts }));
    }

    drop(client);
    let (served_engine, stats) = handle.join();
    assert_eq!(stats.served, N, "exactly N served: no loss, no duplication");
    assert_eq!(stats.shed, 0);
    assert_eq!(served_engine.stats().requests, N);
}

/// A connection whose bytes trickle through the chaos proxy in 7-byte
/// slices still gets byte-identical replies: framing is independent of
/// how the kernel splits reads.
#[test]
fn chaos_proxy_trickled_bytes_round_trip_byte_identically() {
    use gpm::serve::test_support::{ChaosMode, ChaosProxy};
    let batch = mixed_batch();
    let mut oracle_engine = engine();
    let oracle = serialize(&oracle_engine.process_batch(&batch));

    let handle = ServerHandle::bind(engine(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let proxy = ChaosProxy::spawn(
        handle.local_addr().unwrap(),
        ChaosMode::DelayBytes {
            chunk: 7,
            delay: Duration::from_millis(1),
        },
    );
    let mut client = TcpClient::connect(proxy.addr()).unwrap();
    let replies = client.pipeline(&batch).unwrap();
    assert_eq!(
        serialize(&replies),
        oracle,
        "trickled delivery changed the replies"
    );
    drop(client);
    drop(proxy);
    let (_, stats) = handle.shutdown();
    assert_eq!(stats.served, batch.len() as u64);
    assert_eq!(stats.shed, 0);
}

/// A connection that goes silent mid-frame is reaped after the idle
/// timeout instead of holding its shard's resources forever — and the
/// server keeps serving newcomers afterwards.
#[test]
fn idle_connections_are_reaped_after_the_timeout() {
    let config = ServerConfig {
        idle_timeout_ms: 100,
        ..ServerConfig::default()
    };
    let handle = ServerHandle::bind(engine(), config, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().unwrap();

    // Two bytes of a length prefix, then silence.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.set_nodelay(true).unwrap();
    loris.write_all(&[0, 0]).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut buf = [0u8; 1];
    match loris.read(&mut buf) {
        Ok(0) => {}                                                     // clean FIN
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {} // abrupt close
        other => panic!("expected the server to reap the idle connection, got {other:?}"),
    }

    // The reap removed one connection, not the listener.
    let mut client = TcpClient::connect(addr).unwrap();
    let reply = client
        .call(&Request::Power {
            utilizations: utils(),
            config: FreqConfig::from_mhz(975, 3505),
        })
        .unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    drop(client);
    let (_, stats) = handle.shutdown();
    assert_eq!(stats.served, 1);
}

/// The chaos proxy severs the stream two bytes into a request payload;
/// the server must shrug the torn connection off and keep answering
/// direct clients.
#[test]
fn mid_frame_reset_through_the_proxy_leaves_the_server_healthy() {
    use gpm::serve::test_support::{ChaosMode, ChaosProxy};
    let handle = ServerHandle::bind(engine(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().unwrap();
    // Cut after 6 client bytes: the 4-byte prefix plus 2 payload bytes.
    let proxy = ChaosProxy::spawn(addr, ChaosMode::ResetAfter { bytes: 6 });

    let request = Request::Power {
        utilizations: utils(),
        config: FreqConfig::from_mhz(975, 3505),
    };
    let payload = gpm::serve::proto::encode_request(1, &request);
    let mut doomed = TcpStream::connect(proxy.addr()).unwrap();
    doomed.set_nodelay(true).unwrap();
    let _ = doomed.write_all(&(payload.len() as u32).to_be_bytes());
    let _ = doomed.write_all(payload.as_bytes());
    doomed
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut buf = [0u8; 4];
    assert!(
        matches!(doomed.read(&mut buf), Ok(0) | Err(_)),
        "the severed connection must not produce a reply"
    );
    drop(doomed);
    drop(proxy);

    let mut client = TcpClient::connect(addr).unwrap();
    let replies = client
        .pipeline(&(0..4).map(|_| request.clone()).collect::<Vec<_>>())
        .unwrap();
    assert!(replies.iter().all(Reply::is_ok), "{replies:?}");
    drop(client);
    let (_, stats) = handle.shutdown();
    assert!(stats.served >= 4, "{stats:?}");
}

/// With a 1 ms deadline budget, a pipelined burst of governor-backed
/// requests (which serialize through the engine thread) cannot all be
/// answered in time: the overrun ones get a typed `DeadlineExceeded`
/// instead of burning compute on replies nobody is waiting for.
#[test]
fn requests_past_their_deadline_budget_get_a_typed_reply() {
    const N: usize = 32;
    // The coalescing window is far longer than the 1 ms budget and the
    // batch cap exceeds the burst, so the whole burst sits in the queue
    // past its deadline — expiry cannot depend on machine speed.
    let config = ServerConfig {
        request_deadline_ms: 1,
        coalesce_us: 50_000,
        batch_max: 64,
        queue_depth: 256,
        conn_inflight: 256,
        ..ServerConfig::default()
    };
    let handle = ServerHandle::bind(engine(), config, "127.0.0.1:0").unwrap();

    // Pure requests only: deadlines are enforced on the coalescing
    // queue, while `BestConfig` rides the governor thread instead. The
    // burst goes out in a single write so every poll wake-up decodes at
    // least one frame — a wake-up that decodes nothing reads as a quiet
    // stream and would flush the batch before the budget elapses.
    let kernels = ["GEMM", "LBM", "BLCKSC", "SRAD_1"];
    let mut wire = Vec::new();
    for i in 0..N {
        let request = Request::Energy {
            kernel: kernels[i % kernels.len()].to_string(),
            config: FreqConfig::from_mhz(975, 3505),
        };
        let payload = gpm::serve::proto::encode_request(i as u64, &request);
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(payload.as_bytes());
    }
    let mut sock = TcpStream::connect(handle.local_addr().unwrap()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.write_all(&wire).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let mut replies = Vec::with_capacity(N);
    for _ in 0..N {
        let mut prefix = [0u8; 4];
        sock.read_exact(&mut prefix).unwrap();
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        sock.read_exact(&mut payload).unwrap();
        let (_, reply) =
            gpm::serve::proto::decode_reply(std::str::from_utf8(&payload).unwrap()).unwrap();
        replies.push(reply);
    }
    let exceeded = replies
        .iter()
        .filter(|r| matches!(r, Reply::DeadlineExceeded { budget_ms: 1 }))
        .count();
    assert!(
        exceeded > 0,
        "a 1 ms budget must expire part of the burst: {replies:?}"
    );
    for reply in &replies {
        assert!(
            matches!(reply, Reply::Ok(_) | Reply::DeadlineExceeded { .. }),
            "unexpected reply kind: {reply:?}"
        );
    }
    drop(sock);
    let (_, stats) = handle.shutdown();
    assert_eq!(
        stats.served, N as u64,
        "expired requests still count as answered"
    );
}

/// The reactor reports its activity through gpm-obs counters.
#[test]
fn reactor_activity_reaches_an_installed_recorder() {
    let recorder = gpm::obs::Recorder::new();
    // Another test's recorder may already be installed (tests share the
    // process); tolerate that by only asserting when we own the slot.
    if gpm::obs::install(&recorder).is_some() {
        return;
    }

    let handle = ServerHandle::bind(engine(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(handle.local_addr().unwrap()).unwrap();
    let n = 12u64;
    for _ in 0..n {
        let reply = client
            .call(&Request::Power {
                utilizations: utils(),
                config: FreqConfig::from_mhz(975, 3505),
            })
            .unwrap();
        assert!(reply.is_ok(), "{reply:?}");
    }
    drop(client);
    let (_, stats) = handle.shutdown();
    assert_eq!(stats.served, n);

    gpm::obs::uninstall();
    let trace = recorder.snapshot();
    let counter = |name: &str| trace.metrics.counters.get(name).copied().unwrap_or(0);
    // `>=` everywhere: other tests in this binary may have run
    // concurrently while the recorder was installed.
    assert!(counter("serve.reactor.accepts") >= 1, "{:?}", trace.metrics);
    assert!(counter("serve.connections") >= 1, "{:?}", trace.metrics);
    assert!(counter("serve.requests") >= n, "{:?}", trace.metrics);
}
