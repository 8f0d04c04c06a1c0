//! The server front end: admission control, micro-batching, clients.
//!
//! Two execution paths share one [`PredictionEngine`]:
//!
//! - **In-process** ([`ServerHandle::spawn`] + [`Client`]) — a single
//!   engine thread drains a bounded queue into micro-batches
//!   ([`ServerConfig::batch_max`]). Admission is decided *before*
//!   enqueueing: at [`ServerConfig::queue_depth`] the request is shed
//!   with a typed [`Reply::Overloaded`] — the server never buffers
//!   unboundedly.
//! - **TCP** ([`ServerHandle::bind`]) — a nonblocking reactor
//!   ([`crate::reactor`]): [`ServerConfig::shards`] event-loop threads
//!   share the listener, own their connections outright, and answer
//!   pure requests in place from the engine's thread-shareable core,
//!   coalescing them for up to [`ServerConfig::coalesce_us`] before
//!   fanning over `gpm-par` ([`ServerConfig::fan_width`]).
//!   Governor-backed requests still funnel through the engine thread,
//!   preserving the sequential-profiling determinism contract. The
//!   per-connection in-flight cap and graceful drain carry over as
//!   reactor state.
//!
//! Shutdown is graceful on both paths: admitted requests are always
//! answered before the threads exit.
//!
//! Two clients are provided. [`Client`] submits in-process (tests,
//! benches, the CLI one-shot). [`TcpClient`] speaks the
//! length-prefixed JSON protocol in [`crate::proto`]; ids are echoed,
//! so it can pipeline.

use crate::cache::CacheKey;
use crate::engine::PredictionEngine;
use crate::proto;
#[cfg(unix)]
use crate::reactor;
use crate::request::{Reply, Request};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admitted-but-unprocessed requests beyond this are shed (per
    /// reactor shard on the TCP path).
    pub queue_depth: usize,
    /// Largest micro-batch handed to the engine (or flushed by a
    /// reactor shard) at once.
    pub batch_max: usize,
    /// Per-TCP-connection cap on replies not yet written.
    pub conn_inflight: usize,
    /// Stop (gracefully) after serving this many requests — for bounded
    /// CI and bench runs.
    pub max_requests: Option<u64>,
    /// Reactor shards (event-loop threads) for the TCP path; 0 means
    /// one per available core, capped at 16.
    pub shards: usize,
    /// Batch-coalescing window in microseconds: a decoded pure request
    /// waits at most this long for batch-mates (shards flush early the
    /// moment the stream goes quiet).
    pub coalesce_us: u64,
    /// `gpm-par` fan-out width per shard flush (1 = compute on the
    /// shard thread; shards already scale across cores).
    pub fan_width: usize,
    /// Reap a TCP connection after this many milliseconds with no bytes
    /// received and nothing in flight (slow-loris / dead-peer defense).
    /// `0` disables reaping.
    pub idle_timeout_ms: u64,
    /// Per-request deadline budget in milliseconds, measured from
    /// admission: a request still queued when its budget elapses is
    /// answered with [`Reply::DeadlineExceeded`] instead of computed.
    /// `0` disables deadlines.
    pub request_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            batch_max: 16,
            conn_inflight: 32,
            max_requests: None,
            shards: 0,
            coalesce_us: 100,
            fan_width: 1,
            // Generous defaults: only peers that are genuinely stuck
            // (or a server under pathological load) ever see these.
            idle_timeout_ms: 60_000,
            request_deadline_ms: 30_000,
        }
    }
}

/// Lifetime counters reported at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests answered (including [`Reply::Error`] and cache hits).
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Micro-batches processed (engine batches + reactor flushes).
    pub batches: u64,
    /// Reply `write` calls the reactor shards made. A shard writes each
    /// connection at most once per poll sweep, so replies that complete
    /// in one sweep (a pipelined batch of cache hits, say) share a call.
    pub writes: u64,
}

struct Job {
    id: u64,
    request: Request,
    /// Cache key, when the reactor shard that admitted the request has
    /// already computed it; the engine thread computes the rest.
    key: Option<CacheKey>,
    tx: mpsc::Sender<(u64, Reply)>,
    /// Absolute expiry instant, set at admission from
    /// [`ServerConfig::request_deadline_ms`] (`None` = no deadline).
    deadline: Option<std::time::Instant>,
}

impl Job {
    fn expired(&self, now: std::time::Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Admission state shared by the engine thread, reactor shards and
/// every in-process client.
pub(crate) struct Shared {
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    depth: AtomicUsize,
    queue_depth: usize,
    running: AtomicBool,
    shed: AtomicU64,
    served: AtomicU64,
    batches: AtomicU64,
    writes: AtomicU64,
    max_requests: Option<u64>,
    /// Per-request deadline budget ([`ServerConfig::request_deadline_ms`]).
    deadline: Option<Duration>,
    /// Write ends poked by [`Shared::close`] so blocked reactor shards
    /// wake up and begin their drain.
    #[cfg(unix)]
    wakers: Mutex<Vec<UnixStream>>,
}

impl Shared {
    /// Queue-admission for one request (with its cache key, if already
    /// computed); `Some(reply)` is a rejection.
    pub(crate) fn submit(
        &self,
        id: u64,
        request: Request,
        key: Option<CacheKey>,
        tx: mpsc::Sender<(u64, Reply)>,
    ) -> Option<Reply> {
        if !self.running.load(Ordering::SeqCst) {
            return Some(Reply::Error {
                message: "server is shutting down".to_string(),
            });
        }
        if self.depth.load(Ordering::SeqCst) >= self.queue_depth {
            self.note_shed();
            return Some(Reply::Overloaded {
                queue_depth: self.queue_depth,
            });
        }
        let sender = match self.tx.lock().expect("admission lock").as_ref() {
            Some(sender) => sender.clone(),
            None => {
                return Some(Reply::Error {
                    message: "server is shutting down".to_string(),
                })
            }
        };
        let depth = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        gpm_obs::gauge_set("serve.queue_depth", depth as f64);
        let deadline = self.deadline.map(|d| std::time::Instant::now() + d);
        if sender
            .send(Job {
                id,
                request,
                key,
                tx,
                deadline,
            })
            .is_err()
        {
            self.depth.fetch_sub(1, Ordering::SeqCst);
            return Some(Reply::Error {
                message: "server is shutting down".to_string(),
            });
        }
        None
    }

    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Counts one shed request.
    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::SeqCst);
        gpm_obs::counter_add("serve.shed", 1);
    }

    /// Counts answered requests (and batches), closing admission once
    /// the `max_requests` budget is spent.
    pub(crate) fn note_served(&self, requests: u64, batches: u64) {
        self.batches.fetch_add(batches, Ordering::SeqCst);
        let total = self.served.fetch_add(requests, Ordering::SeqCst) + requests;
        if self.max_requests.is_some_and(|max| total >= max) {
            self.close();
        }
    }

    /// Counts reply `write` calls made by a reactor shard.
    pub(crate) fn note_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Stops admission; the engine and the shards drain what was
    /// already admitted.
    pub(crate) fn close(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.tx.lock().expect("admission lock").take();
        #[cfg(unix)]
        {
            use std::io::Write as _;
            for waker in self.wakers.lock().expect("waker list").iter_mut() {
                let _ = waker.write(&[1]);
            }
        }
    }
}

/// A running prediction server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the worker threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    engine_thread: thread::JoinHandle<PredictionEngine>,
    shard_threads: Vec<thread::JoinHandle<()>>,
    addr: Option<SocketAddr>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("shards", &self.shard_threads.len())
            .finish_non_exhaustive()
    }
}

/// Resolves [`ServerConfig::shards`] (0 = one per core, capped).
fn effective_shards(requested: usize) -> usize {
    if requested > 0 {
        requested.min(64)
    } else {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    }
}

impl ServerHandle {
    /// Starts the engine thread without a network listener — serve
    /// in-process clients only.
    pub fn spawn(engine: PredictionEngine, config: ServerConfig) -> Self {
        Self::start(engine, config, None).expect("in-process spawn cannot fail on I/O")
    }

    /// Starts the engine thread, the reactor shards and a TCP listener
    /// on `addr` (use port 0 to let the OS pick; see
    /// [`ServerHandle::local_addr`]).
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind (and with
    /// [`io::ErrorKind::Unsupported`] on non-Unix platforms, where the
    /// readiness reactor is unavailable).
    pub fn bind(
        engine: PredictionEngine,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Self::start(engine, config, Some(listener))
    }

    fn start(
        mut engine: PredictionEngine,
        config: ServerConfig,
        listener: Option<TcpListener>,
    ) -> io::Result<Self> {
        #[cfg(not(unix))]
        if listener.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the gpm-serve TCP reactor requires a Unix platform",
            ));
        }

        // All fallible setup happens before any thread is spawned, so an
        // error here cannot leak a running engine.
        let mut addr = None;
        #[cfg(unix)]
        let mut wake_writers: Vec<UnixStream> = Vec::new();
        #[cfg(unix)]
        let mut wake_readers: Vec<UnixStream> = Vec::new();
        #[cfg(unix)]
        let listener = match listener {
            None => None,
            Some(listener) => {
                addr = Some(listener.local_addr()?);
                listener.set_nonblocking(true)?;
                for _ in 0..effective_shards(config.shards) {
                    let (reader, writer) = UnixStream::pair()?;
                    reader.set_nonblocking(true)?;
                    wake_readers.push(reader);
                    wake_writers.push(writer);
                }
                Some(Arc::new(listener))
            }
        };

        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let shared = Arc::new(Shared {
            tx: Mutex::new(Some(jobs_tx)),
            depth: AtomicUsize::new(0),
            queue_depth: config.queue_depth,
            running: AtomicBool::new(true),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            max_requests: config.max_requests,
            deadline: (config.request_deadline_ms > 0)
                .then(|| Duration::from_millis(config.request_deadline_ms)),
            #[cfg(unix)]
            wakers: Mutex::new(wake_writers),
        });

        #[cfg(unix)]
        let core = engine.core();
        let engine_shared = Arc::clone(&shared);
        let batch_max = config.batch_max.max(1);
        let budget_ms = config.request_deadline_ms;
        let engine_thread = thread::spawn(move || {
            loop {
                let first = match jobs_rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(job) => job,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                let mut batch = vec![first];
                while batch.len() < batch_max {
                    match jobs_rx.try_recv() {
                        Ok(job) => batch.push(job),
                        Err(_) => break,
                    }
                }
                engine_shared.depth.fetch_sub(batch.len(), Ordering::SeqCst);
                // A job whose deadline budget elapsed while queued is
                // answered without being computed: the caller has (or
                // should have) given up, and burning engine time on it
                // only delays the live ones behind it.
                let now = std::time::Instant::now();
                let total = batch.len();
                let (expired, mut live): (Vec<Job>, Vec<Job>) =
                    batch.into_iter().partition(|j| j.expired(now));
                if !expired.is_empty() {
                    gpm_obs::counter_add("serve.deadline_exceeded", expired.len() as u64);
                }
                for job in expired {
                    let _ = job.tx.send((job.id, Reply::DeadlineExceeded { budget_ms }));
                }
                if !live.is_empty() {
                    let requests: Vec<Request> = live.iter().map(|j| j.request.clone()).collect();
                    let keys: Vec<CacheKey> = live
                        .iter_mut()
                        .map(|j| j.key.take().unwrap_or_else(|| CacheKey::of(&j.request)))
                        .collect();
                    let started = std::time::Instant::now();
                    let replies = engine.process_keyed(&requests, keys);
                    gpm_obs::histogram_record_duration("serve.batch_service_us", started.elapsed());
                    for (job, reply) in live.into_iter().zip(replies) {
                        // A receiver may have given up; that is its problem.
                        let _ = job.tx.send((job.id, reply));
                    }
                }
                engine_shared.note_served(total as u64, 1);
            }
            engine
        });

        let mut shard_threads = Vec::new();
        #[cfg(unix)]
        if let Some(listener) = listener {
            for waker in wake_readers {
                let cfg = reactor::ShardConfig {
                    queue_depth: config.queue_depth,
                    batch_max,
                    conn_inflight: config.conn_inflight.max(1),
                    coalesce: Duration::from_micros(config.coalesce_us),
                    fan_width: config.fan_width.max(1),
                    idle_timeout: (config.idle_timeout_ms > 0)
                        .then(|| Duration::from_millis(config.idle_timeout_ms)),
                    deadline: (config.request_deadline_ms > 0)
                        .then(|| Duration::from_millis(config.request_deadline_ms)),
                    budget_ms: config.request_deadline_ms,
                };
                let core = Arc::clone(&core);
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                shard_threads.push(thread::spawn(move || {
                    reactor::run_shard(cfg, core, shared, listener, waker);
                }));
            }
        }

        Ok(ServerHandle {
            shared,
            engine_thread,
            shard_threads,
            addr,
        })
    }

    /// The bound address, when started with [`ServerHandle::bind`].
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// An in-process client for this server.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// `false` once the server stopped admitting (shutdown requested or
    /// [`ServerConfig::max_requests`] reached).
    pub fn is_admitting(&self) -> bool {
        self.shared.is_running()
    }

    /// Blocks until the shards and the engine thread exit (admission
    /// closed and queues drained), then returns the engine and the
    /// lifetime counters.
    pub fn join(self) -> (PredictionEngine, ServeStats) {
        for shard in self.shard_threads {
            let _ = shard.join();
        }
        let engine = self.engine_thread.join().expect("engine thread");
        let stats = ServeStats {
            served: self.shared.served.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
            batches: self.shared.batches.load(Ordering::SeqCst),
            writes: self.shared.writes.load(Ordering::Relaxed),
        };
        (engine, stats)
    }

    /// Stops admission, drains every admitted request, and returns the
    /// engine and the lifetime counters.
    pub fn shutdown(self) -> (PredictionEngine, ServeStats) {
        self.shared.close();
        self.join()
    }
}

/// Bounded retry with capped decorrelated-jitter backoff, for
/// [`Client::call_with_retry`]. Opt-in: plain [`Client::call`] never
/// retries.
///
/// The schedule follows the decorrelated-jitter recipe: each delay is
/// drawn uniformly from `[base, 3 * previous]` and clamped to `cap`,
/// which spreads retries out (avoiding thundering herds) while staying
/// bounded. The jitter stream is seeded, so a given policy value always
/// produces the same schedule — the property the deterministic tests
/// rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffPolicy {
    /// Total call attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Base (and minimum) delay in milliseconds.
    pub base_ms: f64,
    /// Upper clamp on any single delay, in milliseconds.
    pub cap_ms: f64,
    /// Seed for the jitter stream; the same seed yields the same
    /// schedule.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            max_attempts: 4,
            base_ms: 1.0,
            cap_ms: 50.0,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl BackoffPolicy {
    /// The full delay schedule (`max_attempts - 1` entries), computed
    /// deterministically from the policy fields.
    pub fn delays(&self) -> Vec<Duration> {
        let base = self.base_ms.max(0.0);
        let cap = self.cap_ms.max(base);
        let mut state = self.seed | 1;
        let mut prev = base;
        let mut out = Vec::new();
        for _ in 1..self.max_attempts.max(1) {
            // xorshift64: tiny, seedable, plenty for jitter.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            let hi = (prev * 3.0).max(base);
            let ms = (base + unit * (hi - base)).min(cap);
            prev = ms;
            out.push(Duration::from_secs_f64(ms / 1000.0));
        }
        out
    }
}

/// An in-process client: submits straight to the admission queue.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Submits one request and blocks for its reply. Shed requests
    /// return [`Reply::Overloaded`] immediately.
    pub fn call(&self, request: Request) -> Reply {
        let (tx, rx) = mpsc::channel();
        if let Some(rejection) = self.shared.submit(0, request, None, tx) {
            return rejection;
        }
        match rx.recv() {
            Ok((_, reply)) => reply,
            Err(_) => Reply::Error {
                message: "server exited before replying".to_string(),
            },
        }
    }

    /// [`Client::call`] with bounded retry on [`Reply::Overloaded`],
    /// sleeping the policy's jittered backoff between attempts. Any
    /// non-`Overloaded` reply (success *or* error) returns immediately;
    /// exhausting the attempts returns the last `Overloaded`.
    pub fn call_with_retry(&self, request: Request, policy: &BackoffPolicy) -> Reply {
        self.call_with_retry_using(request, policy, thread::sleep)
    }

    /// [`Client::call_with_retry`] with an injected sleeper, so tests
    /// can record the schedule instead of actually waiting.
    pub fn call_with_retry_using(
        &self,
        request: Request,
        policy: &BackoffPolicy,
        mut sleep: impl FnMut(Duration),
    ) -> Reply {
        let mut reply = self.call(request.clone());
        for delay in policy.delays() {
            if !matches!(reply, Reply::Overloaded { .. }) {
                break;
            }
            gpm_obs::counter_add("serve.client_retries", 1);
            sleep(delay);
            reply = self.call(request.clone());
        }
        reply
    }

    /// Submits a slice of requests (admission decided per request) and
    /// blocks until every admitted one is answered. Replies come back
    /// in request order.
    pub fn call_batch(&self, requests: &[Request]) -> Vec<Reply> {
        let (tx, rx) = mpsc::channel();
        let mut replies: Vec<Option<Reply>> = vec![None; requests.len()];
        let mut admitted = 0usize;
        for (i, request) in requests.iter().enumerate() {
            match self
                .shared
                .submit(i as u64, request.clone(), None, tx.clone())
            {
                Some(rejection) => replies[i] = Some(rejection),
                None => admitted += 1,
            }
        }
        drop(tx);
        for _ in 0..admitted {
            match rx.recv() {
                Ok((id, reply)) => replies[id as usize] = Some(reply),
                Err(_) => break,
            }
        }
        replies
            .into_iter()
            .map(|r| {
                r.unwrap_or(Reply::Error {
                    message: "server exited before replying".to_string(),
                })
            })
            .collect()
    }
}

/// A TCP client speaking the [`crate::proto`] frame protocol.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    next_id: u64,
    /// Replies that arrived while waiting for a different id.
    pending: HashMap<u64, Reply>,
}

impl TcpClient {
    /// Connects to a server started with [`ServerHandle::bind`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small; without this Nagle holds them back until
        // the server's delayed ACK (~40ms per round trip).
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream,
            next_id: 1,
            pending: HashMap::new(),
        })
    }

    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        proto::write_frame(&mut self.stream, &proto::encode_request(id, request))?;
        Ok(id)
    }

    fn recv_id(&mut self, id: u64) -> io::Result<Reply> {
        if let Some(reply) = self.pending.remove(&id) {
            return Ok(reply);
        }
        loop {
            let frame = proto::read_frame(&mut self.stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
            let (got, reply) = proto::decode_reply(&frame)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if got == id {
                return Ok(reply);
            }
            self.pending.insert(got, reply);
        }
    }

    /// One synchronous request/reply round trip.
    ///
    /// # Errors
    ///
    /// Propagates socket and framing failures.
    pub fn call(&mut self, request: &Request) -> io::Result<Reply> {
        let id = self.send(request)?;
        self.recv_id(id)
    }

    /// Writes every request in one write before reading any reply
    /// (pipelining), then returns replies in request order.
    ///
    /// # Errors
    ///
    /// Propagates socket and framing failures.
    pub fn pipeline(&mut self, requests: &[Request]) -> io::Result<Vec<Reply>> {
        let first = self.next_id;
        let mut wire = Vec::new();
        for request in requests {
            let id = self.next_id;
            self.next_id += 1;
            proto::push_frame(&mut wire, &proto::encode_request(id, request))?;
        }
        self.stream.write_all(&wire)?;
        (first..self.next_id).map(|id| self.recv_id(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::request::Response;
    use crate::test_support::fitted_model;
    use gpm_core::Utilizations;
    use gpm_spec::FreqConfig;

    fn power_request() -> Request {
        Request::Power {
            utilizations: Utilizations::from_values([0.2, 0.6, 0.0, 0.1, 0.2, 0.3, 0.5]).unwrap(),
            config: FreqConfig::from_mhz(975, 3505),
        }
    }

    fn engine() -> PredictionEngine {
        PredictionEngine::new(fitted_model(), "test@v1", &EngineConfig::default())
    }

    #[test]
    fn in_process_round_trip_and_graceful_shutdown() {
        let handle = ServerHandle::spawn(engine(), ServerConfig::default());
        let client = handle.client();
        let reply = client.call(power_request());
        assert!(
            matches!(reply, Reply::Ok(Response::Power { watts }) if watts > 0.0),
            "{reply:?}"
        );
        let (engine, stats) = handle.shutdown();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.shed, 0);
        assert!(stats.batches >= 1);
        assert_eq!(engine.stats().requests, 1);

        // Admission after shutdown is a typed error, not a hang.
        let rejection = client.call(power_request());
        assert!(matches!(rejection, Reply::Error { .. }), "{rejection:?}");
    }

    #[test]
    fn zero_depth_queue_sheds_with_a_typed_reply() {
        let config = ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        };
        let handle = ServerHandle::spawn(engine(), config);
        let reply = handle.client().call(power_request());
        assert_eq!(reply, Reply::Overloaded { queue_depth: 0 });
        let (_, stats) = handle.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn max_requests_stops_admission_after_the_budget() {
        let config = ServerConfig {
            max_requests: Some(1),
            ..ServerConfig::default()
        };
        let handle = ServerHandle::spawn(engine(), config);
        let client = handle.client();
        assert!(client.call(power_request()).is_ok());
        // The budget is spent; the server has stopped admitting.
        while handle.is_admitting() {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(matches!(client.call(power_request()), Reply::Error { .. }));
        let (_, stats) = handle.join();
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn backoff_schedules_are_deterministic_and_capped() {
        let policy = BackoffPolicy {
            max_attempts: 8,
            base_ms: 2.0,
            cap_ms: 20.0,
            seed: 7,
        };
        let a = policy.delays();
        let b = policy.delays();
        assert_eq!(a, b, "same policy, same schedule");
        assert_eq!(a.len(), 7);
        for delay in &a {
            let ms = delay.as_secs_f64() * 1000.0;
            assert!((2.0..=20.0).contains(&ms), "{ms} outside [base, cap]");
        }
        // A different seed produces a different schedule.
        let other = BackoffPolicy { seed: 8, ..policy }.delays();
        assert_ne!(a, other);
    }

    #[test]
    fn retry_on_overloaded_follows_the_injected_schedule() {
        // queue_depth 0 sheds everything, so every attempt sees
        // Overloaded and the recorded sleeps must equal the schedule.
        let config = ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        };
        let handle = ServerHandle::spawn(engine(), config);
        let policy = BackoffPolicy {
            max_attempts: 5,
            ..BackoffPolicy::default()
        };
        let mut slept = Vec::new();
        let reply = handle
            .client()
            .call_with_retry_using(power_request(), &policy, |d| slept.push(d));
        assert_eq!(reply, Reply::Overloaded { queue_depth: 0 });
        assert_eq!(slept, policy.delays());
        let (_, stats) = handle.shutdown();
        assert_eq!(stats.shed, 5, "one shed per attempt");
    }

    #[test]
    fn retry_returns_immediately_on_success() {
        let handle = ServerHandle::spawn(engine(), ServerConfig::default());
        let mut slept = Vec::new();
        let reply = handle.client().call_with_retry_using(
            power_request(),
            &BackoffPolicy::default(),
            |d| slept.push(d),
        );
        assert!(reply.is_ok(), "{reply:?}");
        assert!(slept.is_empty(), "no backoff on first-attempt success");
        handle.shutdown();
    }

    #[test]
    fn queued_jobs_past_their_deadline_are_answered_without_compute() {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: 7,
            request: power_request(),
            key: None,
            tx,
            deadline: Some(std::time::Instant::now() - Duration::from_millis(1)),
        };
        assert!(job.expired(std::time::Instant::now()));
        let fresh = Job {
            id: 8,
            request: power_request(),
            key: None,
            tx: {
                let (tx, _rx) = mpsc::channel();
                tx
            },
            deadline: Some(std::time::Instant::now() + Duration::from_secs(60)),
        };
        assert!(!fresh.expired(std::time::Instant::now()));
        let unlimited = Job {
            id: 9,
            request: power_request(),
            key: None,
            tx: {
                let (tx, _rx) = mpsc::channel();
                tx
            },
            deadline: None,
        };
        assert!(!unlimited.expired(std::time::Instant::now()));
        drop(rx);
    }

    #[cfg(unix)]
    #[test]
    fn tcp_round_trip_through_the_reactor() {
        let config = ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        };
        let handle = ServerHandle::bind(engine(), config, "127.0.0.1:0").unwrap();
        let addr = handle.local_addr().unwrap();
        let mut client = TcpClient::connect(addr).unwrap();
        let reply = client.call(&power_request()).unwrap();
        assert!(
            matches!(reply, Reply::Ok(Response::Power { watts }) if watts > 0.0),
            "{reply:?}"
        );
        // Pipelined requests all come back, matched by id.
        let batch: Vec<Request> = (0..16).map(|_| power_request()).collect();
        let replies = client.pipeline(&batch).unwrap();
        assert_eq!(replies.len(), 16);
        assert!(replies.iter().all(|r| r == &reply), "{replies:?}");
        drop(client);
        let (_, stats) = handle.shutdown();
        assert_eq!(stats.served, 17);
        assert_eq!(stats.shed, 0);
    }
}
