//! `serve`: a closed loop of pipelined requests against one reactor
//! shard serving a GTX Titan X model.
//!
//! Set-up characterizes the GPU, fits, publishes, loads, builds the
//! engine and binds the shard; it is repeated and the median reported.
//! The model and the engine's device are seeded from `--seed`.
//!
//! The request stream is seeded and made of rounds of `ROUND_LEN`
//! requests with a fixed count of each kind (`ROUND`) in a seeded order.
//! Every kind ranges over the 109 serving kernels, and each draws its
//! keys Zipf-popular over a seeded ranking: Power (a kernel's reference
//! utilizations at one of the 64 grid configurations), Energy (kernel x
//! configuration), Pareto (kernel x point budget) and governor-backed
//! BestConfig (kernel x objective). The distinct keys outnumber the
//! 1,024-entry prediction cache many times over, so both hits (reactor
//! and wire cost) and misses (LRU eviction, per-miss profiling) are
//! exercised. An untimed warm-up fills the cache first.
//!
//! One load thread writes each round as one pipelined batch on one
//! connection and reads its replies before the next (a closed loop); the
//! single connection keeps the BestConfig arrival order, and so the
//! reply stream, deterministic. The estimator and `gpm-par` fan-out are
//! absent from the timed load.

use crate::checks;
use crate::fit::{cold_fit, REPEATS};
use crate::trace::Tracer;
use crate::util::{cpu_s, median, quantile, secs, thread_cpu_s, Clock, Digest, Rng};
use crate::{Args, Outcome};
use gpm_core::{PowerModel, Utilizations};
use gpm_dvfs::Objective;
use gpm_profiler::Profiler;
use gpm_serve::{
    proto, EngineConfig, ModelRegistry, PredictionEngine, Reply, Request, Response, ServerConfig,
    ServerHandle,
};
use gpm_sim::SimulatedGpu;
use gpm_spec::{devices, DeviceSpec, FreqConfig};
use gpm_workloads::{microbenchmark_suite, validation_suite, KernelDesc};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "profiler.campaign_s",
    "profiler.measurements_per_s",
    "core.fit_s",
    "core.coefficient_step_s",
    "core.voltage_step_s",
    "core.iterations",
    "serve.registry.publish_ms",
    "serve.registry.load_ms",
    "serve.engine_us_per_req",
    "serve.engine_miss_us.power",
    "serve.engine_miss_us.energy",
    "serve.engine_miss_us.pareto",
    "serve.engine_miss_us.best_config",
    "serve.cache_hit_ratio",
    "serve.cache_evictions",
    "serve.wire_us_per_req",
    "serve.batch_mean",
    "dvfs.governor_profiled",
    "dvfs.pareto_dominated_points",
];

/// Set-ups timed for the `setup_s` median.
const SETUPS: usize = 5;
/// Requests of each kind in one round. No trace of real traffic to this
/// service exists to draw the shares from; they follow the repository's
/// own serving benchmark (`serve_load`: 14 Power, 1 Energy and 1
/// BestConfig in every 16 requests), with one Power slot given to
/// Pareto so that every kind the engine serves is in the mix.
const ROUND: [(Kind, usize); 4] = [
    (Kind::Power, 13),
    (Kind::Energy, 1),
    (Kind::Pareto, 1),
    (Kind::BestConfig, 1),
];
/// Requests per round, written as one pipelined batch (the server's
/// per-connection in-flight cap is 32).
const ROUND_LEN: usize = 16;
/// Untimed warm-up rounds: four times the cache's 1,024 entries. Their
/// replies form the digested stream.
const WARMUP_ROUNDS: usize = 256;
/// Equal slices of the timed load for the completion-rate median.
const SLICES: usize = 30;
/// Latencies kept per slice: a uniform sample of the slice's requests,
/// so that the benchmark's own memory does not grow with the program's
/// throughput (peak RSS is an end-to-end metric; keeping every latency
/// made it rise by about 8 bytes per request served).
const SAMPLES_PER_SLICE: usize = 4096;
/// Zipf exponent of key popularity: the conventional choice for cache
/// workloads, not measured on this service.
const ZIPF_S: f64 = 1.0;
const OBJECTIVES: [Objective; 3] = [
    Objective::MinEnergy,
    Objective::MinEdp,
    Objective::MinEnergyWithSlowdown(1.1),
];
/// Pareto point budgets: the whole frontier, or its first 8 points.
const PARETO_POINTS: [usize; 2] = [0, 8];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Power,
    Energy,
    Pareto,
    BestConfig,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Power, Kind::Energy, Kind::Pareto, Kind::BestConfig];

    fn index(self) -> usize {
        Kind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("known kind")
    }

    fn miss_metric(self) -> &'static str {
        match self {
            Kind::Power => "serve.engine_miss_us.power",
            Kind::Energy => "serve.engine_miss_us.energy",
            Kind::Pareto => "serve.engine_miss_us.pareto",
            Kind::BestConfig => "serve.engine_miss_us.best_config",
        }
    }

    /// Keys per kernel: configurations, point budgets or objectives.
    fn per_kernel(self, grid: usize) -> usize {
        match self {
            Kind::Power | Kind::Energy => grid,
            Kind::Pareto => PARETO_POINTS.len(),
            Kind::BestConfig => OBJECTIVES.len(),
        }
    }
}

/// One generated request: its kind, a kernel index and a second key
/// index (configuration, point budget or objective).
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    kernel: u32,
    b: u32,
}

/// Zipf popularity over `n` keys, ranked by a seeded permutation.
struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    fn new(n: usize, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, perm }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank] as usize
    }
}

/// The seeded request generator and everything needed to check replies.
struct Stream {
    rng: Rng,
    kernels: Vec<KernelDesc>,
    grid: Vec<FreqConfig>,
    /// Each kernel's utilizations at the reference configuration, as the
    /// simulator executes it: what a client that profiled the kernel
    /// sends in a Power request.
    utils: Vec<Utilizations>,
    /// Key popularity per kind, in `Kind::ALL` order.
    zipf: [Zipf; 4],
}

impl Stream {
    fn new(seed: u64, spec: &DeviceSpec) -> Stream {
        let kernels = serving_kernels(spec);
        let grid = spec.vf_grid();
        let mut gpu = SimulatedGpu::new(spec.clone(), 0);
        gpu.set_clocks(spec.default_config())
            .expect("the reference is on the grid");
        let utils = kernels
            .iter()
            .map(|k| {
                Utilizations::from_values(gpu.execute(k).utilizations)
                    .expect("simulated utilizations lie in [0, 1]")
            })
            .collect();
        let mut rng = Rng::derive(seed, 0x5E7E);
        let zipf = Kind::ALL.map(|k| Zipf::new(kernels.len() * k.per_kernel(grid.len()), &mut rng));
        Stream {
            rng,
            kernels,
            grid,
            utils,
            zipf,
        }
    }

    /// Draws the next round: `ROUND`'s requests in a seeded order.
    fn round(&mut self) -> Vec<Op> {
        let mut kinds: Vec<Kind> = ROUND
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.below(i + 1));
        }
        kinds
            .into_iter()
            .map(|kind| {
                let key = self.zipf[kind.index()].draw(&mut self.rng);
                let inner = kind.per_kernel(self.grid.len());
                Op {
                    kind,
                    kernel: (key / inner) as u32,
                    b: (key % inner) as u32,
                }
            })
            .collect()
    }

    fn request(&self, op: Op) -> Request {
        let (k, b) = (op.kernel as usize, op.b as usize);
        let kernel = self.kernels[k].name().to_string();
        match op.kind {
            Kind::Power => Request::Power {
                utilizations: self.utils[k],
                config: self.grid[b],
            },
            Kind::Energy => Request::Energy {
                kernel,
                config: self.grid[b],
            },
            Kind::Pareto => Request::Pareto {
                kernel,
                max_points: PARETO_POINTS[b],
            },
            Kind::BestConfig => Request::BestConfig {
                kernel,
                objective: OBJECTIVES[b],
            },
        }
    }
}

/// Checks replies against the served model's public parameters and the
/// simulator's runtimes.
struct Checker {
    model: PowerModel,
    /// The engine's device, rebuilt from the same spec and seed: the
    /// simulated hardware whose runtimes the replies must report.
    gpu: SimulatedGpu,
    runtimes: HashMap<(u32, FreqConfig), f64>,
    /// Pareto replies checked, and their points dominated by a point of
    /// the same runtime.
    pareto_replies: u64,
    tie_dominated: u64,
}

impl Checker {
    fn new(model: &PowerModel, engine_seed: u64) -> Checker {
        Checker {
            model: model.clone(),
            gpu: SimulatedGpu::new(model.spec().clone(), engine_seed),
            runtimes: HashMap::new(),
            pareto_replies: 0,
            tie_dominated: 0,
        }
    }

    fn runtime(&mut self, kernel: &KernelDesc, k: u32, config: FreqConfig) -> Option<f64> {
        if let Some(&t) = self.runtimes.get(&(k, config)) {
            return Some(t);
        }
        self.gpu.set_clocks(config).ok()?;
        let t = self.gpu.execute(kernel).duration_s;
        self.runtimes.insert((k, config), t);
        Some(t)
    }

    fn check(&mut self, stream: &Stream, op: Op, reply: &Reply) -> Verdict {
        let Reply::Ok(response) = reply else {
            return Verdict::Wrong(format!("{:?} request answered {reply:?}", op.kind));
        };
        let kernel = &stream.kernels[op.kernel as usize];
        match (op.kind, response) {
            (Kind::Power, Response::Power { watts }) => {
                let u = &stream.utils[op.kernel as usize];
                checks::eq5_power(&self.model, u, stream.grid[op.b as usize])
                    .and_then(|expected| checks::power_reply(*watts, expected))
                    .into()
            }
            (
                Kind::Energy,
                Response::Energy {
                    joules,
                    time_s,
                    power_w,
                },
            ) => {
                let config = stream.grid[op.b as usize];
                match self.runtime(kernel, op.kernel, config) {
                    Some(t) => checks::energy_reply(*joules, *time_s, *power_w, t).into(),
                    None => Verdict::Wrong(format!("grid point {config} rejected")),
                }
            }
            (Kind::Pareto, Response::Pareto { points }) => {
                let budget = PARETO_POINTS[op.b as usize];
                if budget > 0 && points.len() > budget {
                    return Verdict::Wrong(format!(
                        "{} Pareto points over a budget of {budget}",
                        points.len()
                    ));
                }
                let mut times = HashMap::new();
                for p in points {
                    if stream.grid.contains(&p.config) {
                        times.insert(p.config, self.runtime(kernel, op.kernel, p.config));
                    }
                }
                let sim = |c| times.get(&c).copied().flatten();
                self.pareto_replies += 1;
                self.tie_dominated += checks::tie_dominated(points) as u64;
                match checks::pareto_reply(points, sim) {
                    Ok(()) => Verdict::Ok,
                    Err(_) if checks::only_runtime_ties(points, sim) => Verdict::Failed,
                    Err(e) => Verdict::Wrong(e),
                }
            }
            (Kind::BestConfig, Response::BestConfig { config, time_s, .. }) => {
                let t = if stream.grid.contains(config) {
                    self.runtime(kernel, op.kernel, *config)
                } else {
                    None
                };
                checks::best_config_reply(*config, *time_s, t).into()
            }
            (kind, other) => Verdict::Wrong(format!("{kind:?} request answered with {other:?}")),
        }
    }
}

/// The outcome of checking one reply.
enum Verdict {
    Ok,
    /// The one known fault of the program that this workload counts as a
    /// failed operation: `gpm_dvfs::pareto_frontier` keeps points that
    /// share a runtime, so a frontier holds points dominated by a point
    /// of the same runtime. Every Pareto reply at every seed carries it,
    /// so it fails the same share of requests in every run.
    Failed,
    /// A reply that an independent check rejects, or a non-Ok reply.
    Wrong(String),
}

impl From<checks::Check> for Verdict {
    fn from(c: checks::Check) -> Verdict {
        match c {
            Ok(()) => Verdict::Ok,
            Err(e) => Verdict::Wrong(e),
        }
    }
}

/// Seeds of the served model's device and of the engine's device.
fn seeds(seed: u64) -> (u64, u64) {
    (
        Rng::derive(seed, 0x30DE1).next_u64(),
        Rng::derive(seed, 0xE461E).next_u64(),
    )
}

/// One timed set-up: characterize, fit, publish, load, engine, bind.
fn setup(dir: &Path, seed: u64, tracer: &Tracer) -> Result<(ServerHandle, PowerModel), String> {
    let (model_seed, engine_seed) = seeds(seed);
    let spec = devices::gtx_titan_x();
    let suite = microbenchmark_suite(&spec);
    let mut gpu = SimulatedGpu::new(spec, model_seed);
    let training = tracer
        .run("profiler.campaign", || {
            Profiler::with_repeats(&mut gpu, REPEATS).profile_suite(&suite)
        })
        .map_err(|e| format!("characterize: {e}"))?;
    let (model, report) = cold_fit(&training, tracer)?;
    let registry = ModelRegistry::open(dir).map_err(|e| format!("registry: {e}"))?;
    let version = tracer
        .run("serve.registry.publish", || {
            registry.publish("gtx-titan-x", &model, Some(&report))
        })
        .map_err(|e| format!("publish: {e}"))?;
    let entry = tracer
        .run("serve.registry.load", || {
            registry.load("gtx-titan-x", Some(version))
        })
        .map_err(|e| format!("load: {e}"))?;
    let engine = tracer.run("serve.engine_new", || {
        PredictionEngine::new(
            entry.model.clone(),
            &entry.identity(),
            &engine_config(engine_seed),
        )
    });
    let config = ServerConfig {
        shards: 1,
        fan_width: 1,
        ..ServerConfig::default()
    };
    let handle = tracer
        .run("serve.bind", || {
            ServerHandle::bind(engine, config, "127.0.0.1:0")
        })
        .map_err(|e| format!("bind: {e}"))?;
    Ok((handle, entry.model))
}

fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        ..EngineConfig::default()
    }
}

/// What the load loop measured. The timed load is cut into `SLICES`
/// equal slices of the nominal run length; replies completing after it
/// (the end of the last round) are checked but not sliced.
struct Load {
    /// Per slice: a uniform sample of the latencies in seconds of the
    /// requests completing in it, and how many completed.
    slices: Vec<(Vec<f32>, usize)>,
    /// Per slice: the server's CPU seconds (the process's CPU time less
    /// the load thread's) and the requests of the rounds that ended in it.
    slice_cpu: Vec<(f64, usize)>,
    slice_s: f64,
    timed_s: f64,
    /// Requests sent after the warm-up.
    timed_requests: usize,
}

impl Load {
    /// Median over slices of a statistic of each slice's latencies.
    fn per_slice(&self, f: impl Fn(&[f64]) -> f64) -> f64 {
        let stats: Vec<f64> = self
            .slices
            .iter()
            .filter(|(sample, _)| !sample.is_empty())
            .map(|(sample, _)| f(&sample.iter().map(|&x| f64::from(x)).collect::<Vec<_>>()))
            .collect();
        median(&stats)
    }

    /// Median over slices of the completion rate.
    fn per_second(&self) -> f64 {
        let counts: Vec<f64> = self
            .slices
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(_, n)| n as f64)
            .collect();
        median(&counts) / self.slice_s
    }
}

/// The client's connection: a nonblocking socket polled in a spin loop.
///
/// The load thread keeps its core busy instead of sleeping in `read`:
/// a sleeping client leaves its vCPU halted, every reply then wakes it
/// through the hypervisor, and with host steal near 12% that doubled
/// the median latency of a blocking client; spinning held it within 10%.
struct SpinConn {
    conn: TcpStream,
    decoder: proto::FrameDecoder,
    buf: Vec<u8>,
}

impl SpinConn {
    /// How long to wait on the server before giving up.
    const PATIENCE: Duration = Duration::from_secs(30);

    fn connect(addr: std::net::SocketAddr) -> std::io::Result<SpinConn> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_nonblocking(true)?;
        Ok(SpinConn {
            conn,
            decoder: proto::FrameDecoder::new(),
            buf: vec![0; 1 << 16],
        })
    }

    fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        let start = Instant::now();
        while !bytes.is_empty() {
            match self.conn.write(bytes) {
                Ok(0) => return Err(io_error("server stopped reading".into())),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() > Self::PATIENCE {
                        return Err(io_error("server stopped reading".into()));
                    }
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn next_frame(&mut self) -> std::io::Result<String> {
        let start = Instant::now();
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            match self.conn.read(&mut self.buf) {
                Ok(0) => return Err(io_error("server closed the connection".into())),
                Ok(n) => self.decoder.extend(&self.buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() > Self::PATIENCE {
                        return Err(io_error("no reply within 30 s".into()));
                    }
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn io_error(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Runs the warm-up rounds and then whole rounds of timed load for at
/// least `seconds` on one connection. Each round is written in one go,
/// then its replies are read and checked before the next round (a
/// closed loop): one core drives the load, the other serves it. With a
/// window that slides request by request instead, throughput at one
/// seed varied 15% between consecutive runs.
fn drive(
    addr: std::net::SocketAddr,
    stream: &mut Stream,
    checker: &mut Checker,
    seconds: f64,
    out: &mut Outcome,
    digest: &mut Digest,
) -> std::io::Result<Load> {
    let mut conn = SpinConn::connect(addr)?;
    let mut load = Load {
        slices: (0..SLICES)
            .map(|_| (Vec::with_capacity(SAMPLES_PER_SLICE), 0))
            .collect(),
        slice_cpu: vec![(0.0, 0); SLICES],
        slice_s: seconds / SLICES as f64,
        timed_s: 0.0,
        timed_requests: 0,
    };
    let mut frames = Vec::with_capacity(ROUND_LEN * 256);
    // Picks which latencies a full slice keeps (reservoir sampling).
    let mut pick = Rng::derive(0, 0x5A3F1E);
    // A digest of each warm-up reply by request id: replies to governor
    // requests come back out of order, at positions that depend on timing.
    let mut warm = vec![0u64; WARMUP_ROUNDS * ROUND_LEN];
    let mut timed_start: Option<Instant> = None;
    let mut first = 0usize;
    // The server's CPU time is read where a round ends in a new slice:
    // the kernel brings another thread's CPU time up to date only at its
    // own scheduling events, so a reading can lag by a tick, and only
    // readings a whole slice apart keep that lag small.
    let server_cpu = || cpu_s() - thread_cpu_s();
    // The open slice and the server's CPU time when it opened.
    let mut mark = (0, 0.0);

    for round in 0.. {
        if round == WARMUP_ROUNDS {
            timed_start = Some(Instant::now());
            mark = (0, server_cpu());
        }
        if let Some(t0) = timed_start {
            if secs(t0) >= seconds {
                break;
            }
            load.timed_requests += ROUND_LEN;
        }
        let ops = stream.round();
        frames.clear();
        for (id, &op) in (first..).zip(&ops) {
            let payload = proto::encode_request(id as u64, &stream.request(op));
            frames.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frames.extend_from_slice(payload.as_bytes());
        }
        let at = Instant::now();
        conn.send(&frames)?;
        out.attempted += ROUND_LEN as u64;

        for _ in 0..ROUND_LEN {
            let frame = conn.next_frame()?;
            let done = Instant::now();
            let (id, reply) = proto::decode_reply(&frame).map_err(|e| io_error(e.to_string()))?;
            let op = (id as usize)
                .checked_sub(first)
                .and_then(|k| ops.get(k).copied())
                .ok_or_else(|| io_error(format!("unexpected reply id {id}")))?;
            match timed_start {
                Some(t0) => {
                    let slice = (done.duration_since(t0).as_secs_f64() / load.slice_s) as usize;
                    if let Some((sample, seen)) = load.slices.get_mut(slice) {
                        let latency = done.duration_since(at).as_secs_f32();
                        *seen += 1;
                        if sample.len() < SAMPLES_PER_SLICE {
                            sample.push(latency);
                        } else if let Some(kept) = sample.get_mut(pick.below(*seen)) {
                            *kept = latency;
                        }
                    }
                }
                None => {
                    let mut d = Digest::new();
                    d.write(gpm_json::write(&gpm_json::ToJson::to_json(&reply)).as_bytes());
                    warm[id as usize] = d.value();
                }
            }
            match checker.check(stream, op, &reply) {
                Verdict::Ok => out.check("serve_replies", Ok(())),
                Verdict::Failed => out.failed += 1,
                Verdict::Wrong(e) => out.check("serve_replies", Err(format!("request {id}: {e}"))),
            }
        }
        if let Some(t0) = timed_start {
            let slice = ((secs(t0) / load.slice_s) as usize).min(SLICES - 1);
            if slice != mark.0 {
                let now = server_cpu();
                load.slice_cpu[mark.0].0 = now - mark.1;
                mark = (slice, now);
            }
            load.slice_cpu[slice].1 += ROUND_LEN;
        }
        first += ROUND_LEN;
    }
    if timed_start.is_some() {
        load.slice_cpu[mark.0].0 = server_cpu() - mark.1;
    }
    for reply in warm {
        digest.write(&reply.to_le_bytes());
    }
    load.timed_s = timed_start.map_or(0.0, secs);
    Ok(load)
}

pub fn run(args: &Args, tracer: &Tracer, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut setups_cpu = Vec::with_capacity(SETUPS);
    let mut served: Option<(ServerHandle, PowerModel)> = None;
    for i in 0..SETUPS {
        let t = Clock::start();
        let result = tracer.run("setup", || {
            setup(&scratch.join(format!("serve-{i}")), args.seed, tracer)
        });
        setups.push(t.wall_s());
        setups_cpu.push(t.cpu_s());
        match result {
            Ok((handle, model)) => {
                if let Some((previous, first)) = served.replace((handle, model)) {
                    previous.shutdown();
                    let same = served
                        .as_ref()
                        .is_some_and(|(_, m)| m.to_json().ok() == first.to_json().ok());
                    out.check(
                        "setup_repeatable",
                        if same {
                            Ok(())
                        } else {
                            Err("repeated set-ups fit different models".into())
                        },
                    );
                }
            }
            Err(e) => out.check("setup", Err(format!("set-up {i}: {e}"))),
        }
    }
    out.set("setup_s", median(&setups_cpu));
    let Some((handle, model)) = served else {
        out.attempted += 1;
        out.fail("serve_load", "no set-up succeeded".into());
        return out;
    };

    let mut stream = Stream::new(args.seed, model.spec());
    let mut checker = Checker::new(&model, seeds(args.seed).1);
    let addr = handle.local_addr().expect("bound server has an address");
    let mut digest = Digest::new();
    let load = tracer.run("serve.load", || {
        drive(
            addr,
            &mut stream,
            &mut checker,
            args.seconds,
            &mut out,
            &mut digest,
        )
    });
    let (engine, stats) = handle.shutdown();
    let load = match load {
        Ok(l) => l,
        Err(e) => {
            out.fail("serve_load", format!("load aborted: {e}"));
            return out;
        }
    };
    out.digests.push((
        format!(
            "serve reply stream (warm-up, {} requests)",
            WARMUP_ROUNDS * ROUND_LEN
        ),
        digest.hex(),
    ));
    out.check(
        "no_shedding",
        if stats.shed == 0 {
            Ok(())
        } else {
            Err(format!("{} requests shed", stats.shed))
        },
    );

    let server_cpu: Vec<f64> = load
        .slice_cpu
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(c, n)| c / n as f64)
        .collect();
    out.set("op_cpu_ms", median(&server_cpu) * 1e3);
    out.notes.push(format!(
        "wall: set-up {:.3} s, request latency p50 {:.4} ms p90 {:.4} ms p99 {:.4} ms, {:.0} requests/s \
         (medians over {SLICES} slices of the timed load)",
        median(&setups),
        load.per_slice(median) * 1e3,
        load.per_slice(|s| quantile(s, 0.9)) * 1e3,
        load.per_slice(|s| quantile(s, 0.99)) * 1e3,
        load.per_second(),
    ));
    let cache = engine.stats().cache;
    out.notes.push(format!(
        "serve: {} timed requests in {:.2} s in rounds of {ROUND_LEN}; \
         cache hits {} misses {} evictions {}; {} batches; {} failed Pareto replies \
         (points dominated by a point of the same runtime, {:.2} per reply)",
        load.timed_requests,
        load.timed_s,
        cache.hits,
        cache.misses,
        cache.evictions,
        stats.batches,
        out.failed,
        checker.tie_dominated as f64 / checker.pareto_replies.max(1) as f64,
    ));

    if tracer.enabled() {
        per_layer(
            tracer, args.seed, &checker, &load, &model, &engine, &stats, &mut out,
        );
    }
    out
}

/// The 109 kernels the engine serves: microbenchmarks and validation
/// applications.
fn serving_kernels(spec: &DeviceSpec) -> Vec<KernelDesc> {
    let mut kernels = microbenchmark_suite(spec);
    kernels.extend(validation_suite(spec));
    kernels
}

/// Per-layer metrics of the traced run: set-up spans, the engine replay
/// and the serving counters.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    tracer: &Tracer,
    seed: u64,
    checker: &Checker,
    load: &Load,
    model: &PowerModel,
    engine: &PredictionEngine,
    stats: &gpm_serve::ServeStats,
    out: &mut Outcome,
) {
    let med = |name: &str| median(&tracer.secs_of(name));
    out.set("profiler.campaign_s", med("profiler.campaign"));
    let readings = microbenchmark_suite(model.spec()).len() * model.spec().vf_grid().len();
    out.set(
        "profiler.measurements_per_s",
        readings as f64 * f64::from(REPEATS) / med("profiler.campaign"),
    );
    out.set("core.fit_s", med("core.fit"));
    let fits = tracer.named("core.fit");
    let attr_median =
        |key: &str| median(&fits.iter().filter_map(|s| s.attr(key)).collect::<Vec<_>>());
    out.set("core.coefficient_step_s", attr_median("coefficient_step_s"));
    out.set("core.voltage_step_s", attr_median("voltage_step_s"));
    out.set("core.iterations", attr_median("iterations"));
    out.set(
        "serve.registry.publish_ms",
        med("serve.registry.publish") * 1e3,
    );
    out.set("serve.registry.load_ms", med("serve.registry.load") * 1e3);

    // Hits per request served: over TCP a miss is looked up twice (the
    // reactor's fast path, then the flush re-check), so the miss counter
    // overstates lookups.
    let engine_stats = engine.stats();
    out.set(
        "serve.cache_hit_ratio",
        engine_stats.cache.hits as f64 / engine_stats.requests.max(1) as f64,
    );
    out.set("serve.cache_evictions", engine_stats.cache.evictions as f64);
    out.set(
        "serve.batch_mean",
        stats.served as f64 / stats.batches.max(1) as f64,
    );
    out.set(
        "dvfs.governor_profiled",
        f64::from(engine.governor_stats().profiled),
    );
    out.set(
        "dvfs.pareto_dominated_points",
        checker.tie_dominated as f64 / checker.pareto_replies as f64,
    );

    // The same stream, regenerated from the seed, replayed in-process
    // through `process_batch` one request per call at one worker: the
    // warm-up untimed, then every timed request, misses split by kind.
    let mut stream = Stream::new(seed, model.spec());
    gpm_par::set_threads(Some(1));
    let mut replay =
        PredictionEngine::new(model.clone(), "replay@v1", &engine_config(seeds(seed).1));
    let warm_ops: Vec<Op> = (0..WARMUP_ROUNDS).flat_map(|_| stream.round()).collect();
    let warm: Vec<Request> = warm_ops.into_iter().map(|op| stream.request(op)).collect();
    tracer.run("serve.replay_warmup", || replay.process_batch(&warm));
    let mut total = 0.0;
    let mut misses: [Vec<f64>; 4] = Default::default();
    tracer.run("serve.replay", || {
        for _ in 0..load.timed_requests / ROUND_LEN {
            for op in stream.round() {
                let request = stream.request(op);
                let before = replay.stats().cache.misses;
                let t = Instant::now();
                std::hint::black_box(replay.process_batch(std::slice::from_ref(&request)));
                let dt = secs(t);
                total += dt;
                if replay.stats().cache.misses > before {
                    misses[op.kind.index()].push(dt);
                }
            }
        }
    });
    gpm_par::set_threads(Some(crate::WORKERS));
    let engine_us = total / load.timed_requests.max(1) as f64 * 1e6;
    out.set("serve.engine_us_per_req", engine_us);
    for (kind, m) in Kind::ALL.iter().zip(&misses) {
        // No miss of a kind leaves its metric unmeasured (NaN).
        out.set(kind.miss_metric(), median(m) * 1e6);
    }
    out.set(
        "serve.wire_us_per_req",
        load.timed_s / load.timed_requests.max(1) as f64 * 1e6 - engine_us,
    );
}
