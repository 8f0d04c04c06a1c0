//! Per-core reactor shards: the nonblocking TCP front end.
//!
//! `ServerHandle::bind` spawns one shard per core (capped), each running
//! [`run_shard`] on its own thread. A shard owns its connections
//! end-to-end — accept, frame decode, admission, compute, reply write —
//! so the hot path for pure requests never crosses a thread boundary or
//! touches the global admission queue:
//!
//! - **Accept sharding** — the shared nonblocking listener is registered
//!   in every shard's poller; whichever shard wins the accept race owns
//!   the connection for its lifetime (sockets never migrate).
//! - **Adaptive batch coalescing** — decoded pure requests accumulate in
//!   a per-shard batch that flushes when it reaches
//!   [`ShardConfig::batch_max`], when the [`ShardConfig::coalesce`]
//!   window expires, or as soon as a poll sweep decodes nothing new
//!   (the stream went quiet, so waiting buys no amortisation — this is
//!   what keeps latency low at low load). Flushes run on the shard
//!   thread against the shared [`PureCore`], optionally fanning over
//!   `gpm-par` ([`ShardConfig::fan_width`]).
//! - **Sharded admission** — the bounded queue is re-expressed as the
//!   per-shard pending batch ([`ShardConfig::queue_depth`]) plus the
//!   per-connection in-flight cap; both shed with the same typed
//!   [`Reply::Overloaded`] as the in-process path. Governor-backed
//!   requests still funnel through the single engine thread (the
//!   determinism contract requires sequential profiling), via
//!   `Shared::submit` with replies returned over a per-shard channel.
//! - **One write per connection per sweep** — a completed reply is only
//!   appended to its connection's buffer, and the connection marked;
//!   the loop writes each marked connection once, after the sweep's
//!   events and flush (and before a drain's idle check). Replies that
//!   complete together — a pipelined batch of cache hits, a flushed
//!   micro-batch — leave in one `write(2)`.
//! - **Graceful drain** — when `Shared` stops running (shutdown or
//!   `max_requests`), each shard deregisters the listener, flushes its
//!   pending batch, waits for outstanding governor replies and for every
//!   reply byte to reach the sockets (bounded by a drain deadline), and
//!   exits. Admitted requests are never dropped.
//!
//! Determinism is preserved by construction: pure replies come from
//! [`PureCore::compute`] (pristine snapshot clones — shard identity
//! cannot leak into bytes) and cache hits return previously computed
//! `Response` values verbatim.

use crate::cache::CacheKey;
use crate::engine::PureCore;
use crate::proto::{self, FrameDecoder};
use crate::request::Reply;
use crate::server::Shared;
use crate::sys::{PollEvent, Poller};
use gpm_par::par_map_with;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_BASE: u64 = 2;

/// Replies buffered per connection beyond this are a slow or absent
/// consumer; the connection is dropped rather than buffering unboundedly.
const MAX_WRITE_BACKLOG: usize = 4 << 20;

/// How long a draining shard waits for in-flight work and unflushed
/// reply bytes before giving up.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Per-shard knobs, distilled from `ServerConfig` by the server.
#[derive(Debug, Clone)]
pub(crate) struct ShardConfig {
    /// Pending (coalescing) pure requests beyond this are shed.
    pub queue_depth: usize,
    /// Flush the coalescing batch at this many entries.
    pub batch_max: usize,
    /// Per-connection cap on replies not yet written.
    pub conn_inflight: usize,
    /// Maximum time a decoded request waits for batch-mates.
    pub coalesce: Duration,
    /// `gpm-par` width for the flush fan-out (1 = compute on the shard
    /// thread itself).
    pub fan_width: usize,
    /// Reap a connection after this long with no bytes received and
    /// nothing outstanding (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Per-request deadline budget measured from admission (`None` =
    /// unlimited).
    pub deadline: Option<Duration>,
    /// The deadline budget in milliseconds, echoed in
    /// [`Reply::DeadlineExceeded`].
    pub budget_ms: u64,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded reply frames not yet accepted by the kernel.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Admitted requests whose replies are not yet in `wbuf`.
    inflight: usize,
    /// Listed in [`Shard::marked`]: `wbuf` gained bytes this sweep.
    marked: bool,
    writable_interest: bool,
    read_closed: bool,
    /// Last instant bytes arrived from the peer (or the connection was
    /// accepted); drives idle reaping.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            marked: false,
            writable_interest: false,
            read_closed: false,
            last_activity: Instant::now(),
        }
    }

    fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct PendingReq {
    token: u64,
    id: u64,
    request: crate::request::Request,
    /// Cache key, computed once at admission.
    key: CacheKey,
    /// Absolute expiry instant from [`ShardConfig::deadline`].
    deadline: Option<Instant>,
}

impl PendingReq {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

struct Shard {
    cfg: ShardConfig,
    core: Arc<PureCore>,
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    listener_registered: bool,
    poller: Poller,
    waker: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections with reply bytes appended since the last write pass.
    marked: Vec<u64>,
    /// Reply `write` calls made, published to `Shared` at exit.
    writes: u64,
    /// The coalescing batch of admitted pure requests.
    pending: Vec<PendingReq>,
    pending_since: Instant,
    /// Governor replies come back from the engine thread on this channel.
    gov_tx: mpsc::Sender<(u64, Reply)>,
    gov_rx: mpsc::Receiver<(u64, Reply)>,
    /// Outstanding governor submissions: seq → (conn token, wire id).
    gov_pending: HashMap<u64, (u64, u64)>,
    gov_seq: u64,
}

/// Runs one reactor shard to completion (returns after graceful drain).
pub(crate) fn run_shard(
    cfg: ShardConfig,
    core: Arc<PureCore>,
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    waker: UnixStream,
) {
    let poller = match Poller::new() {
        Ok(poller) => poller,
        Err(_) => return,
    };
    if poller
        .register(waker.as_raw_fd(), TOK_WAKER, false)
        .is_err()
    {
        return;
    }
    let listener_registered = poller
        .register(listener.as_raw_fd(), TOK_LISTENER, false)
        .is_ok();
    let (gov_tx, gov_rx) = mpsc::channel();
    let mut shard = Shard {
        cfg,
        core,
        shared,
        listener,
        listener_registered,
        poller,
        waker,
        conns: HashMap::new(),
        next_token: TOK_BASE,
        marked: Vec::new(),
        writes: 0,
        pending: Vec::new(),
        pending_since: Instant::now(),
        gov_tx,
        gov_rx,
        gov_pending: HashMap::new(),
        gov_seq: 0,
    };
    shard.run();
    shard.shared.note_writes(shard.writes);
}

impl Shard {
    fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        loop {
            if !draining && !self.shared.is_running() {
                // Shutdown (or the max_requests budget) closed admission:
                // stop accepting, flush what is already admitted, then
                // keep the loop alive only to finish writes and collect
                // outstanding governor replies.
                draining = true;
                drain_deadline = Instant::now() + DRAIN_DEADLINE;
                if self.listener_registered {
                    let _ = self.poller.deregister(self.listener.as_raw_fd());
                    self.listener_registered = false;
                }
                self.flush();
            }
            if draining {
                self.drain_gov();
                self.write_marked();
                let idle = self.gov_pending.is_empty()
                    && self.pending.is_empty()
                    && self.conns.values().all(|c| c.unflushed() == 0);
                if idle || Instant::now() >= drain_deadline {
                    return;
                }
            }
            let mut timeout = if draining || !self.gov_pending.is_empty() {
                // Engine-thread replies arrive on a channel, not an fd:
                // poll briefly so they are picked up promptly.
                Some(Duration::from_millis(1))
            } else {
                None // fully idle: the waker interrupts shutdown
            };
            // The coalescing batch flushes when its window expires,
            // whether or not engine-thread replies are outstanding.
            if !self.pending.is_empty() {
                let until = self
                    .cfg
                    .coalesce
                    .saturating_sub(self.pending_since.elapsed());
                timeout = Some(timeout.map_or(until, |t| t.min(until)));
            }
            // Idle reaping needs a wake-up no later than the earliest
            // connection's expiry, even when nothing else is pending.
            if let Some(idle) = self.cfg.idle_timeout {
                if let Some(oldest) = self.conns.values().map(|c| c.last_activity).min() {
                    let until = (oldest + idle).saturating_duration_since(Instant::now());
                    timeout = Some(timeout.map_or(until, |t| t.min(until)));
                }
            }
            if self.poller.wait(&mut events, timeout).is_err() {
                return;
            }
            let mut decoded_any = false;
            for &ev in &events {
                match ev.token {
                    TOK_WAKER => self.drain_waker(),
                    TOK_LISTENER => {
                        if !draining {
                            self.accept_ready();
                        }
                    }
                    token => {
                        if (ev.readable || ev.closed) && !draining {
                            decoded_any |= self.read_ready(token);
                        } else if ev.closed && draining {
                            // A peer that hangs up mid-drain forfeits its
                            // unflushed replies.
                            self.drop_conn(token);
                        }
                        if ev.writable {
                            self.write_ready(token);
                        }
                    }
                }
            }
            self.drain_gov();
            self.reap_idle();
            if !self.pending.is_empty()
                && (self.pending.len() >= self.cfg.batch_max
                    || self.pending_since.elapsed() >= self.cfg.coalesce
                    || !decoded_any)
            {
                self.flush();
            }
            self.write_marked();
        }
    }

    /// Drops connections that have sent nothing for the idle timeout
    /// and have nothing outstanding — slow-loris peers holding a
    /// partial frame, and clients that died without a FIN.
    fn reap_idle(&mut self) {
        let Some(idle) = self.cfg.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.inflight == 0 && c.unflushed() == 0 && now.duration_since(c.last_activity) >= idle
            })
            .map(|(&token, _)| token)
            .collect();
        for token in stale {
            gpm_obs::counter_add("serve.reactor.idle_reaped", 1);
            self.drop_conn(token);
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.waker.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Frames are small; Nagle + delayed ACK would add
                    // ~40ms per reply.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, false)
                        .is_err()
                    {
                        continue;
                    }
                    gpm_obs::counter_add("serve.connections", 1);
                    gpm_obs::counter_add("serve.reactor.accepts", 1);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Drains readable bytes from a connection and ingests every
    /// complete frame. Returns whether any frame was decoded.
    fn read_ready(&mut self, token: u64) -> bool {
        let mut frames = Vec::new();
        let mut drop_it = false;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut buf = [0u8; 16 << 10];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.extend(&buf[..n]);
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => frames.push(frame),
                            Ok(None) => break,
                            Err(_) => {
                                drop_it = true;
                                break;
                            }
                        }
                    }
                    if drop_it {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    drop_it = true;
                    break;
                }
            }
        }
        if conn.read_closed
            && !drop_it
            && conn.inflight == 0
            && frames.is_empty()
            && conn.unflushed() == 0
        {
            drop_it = true; // clean EOF with nothing outstanding
        }
        let decoded = !frames.is_empty();
        for frame in frames {
            self.ingest(token, frame);
        }
        if drop_it {
            self.drop_conn(token);
        }
        decoded
    }

    /// Admission for one decoded frame: cache fast path, shed checks,
    /// then either the coalescing batch (pure) or the engine thread
    /// (governor-backed).
    fn ingest(&mut self, token: u64, frame: String) {
        let (id, request) = match proto::decode_request(&frame) {
            Ok(decoded) => decoded,
            Err(e) => {
                let reply = Reply::Error {
                    message: format!("malformed request frame: {e}"),
                };
                self.complete(token, 0, reply, false);
                return;
            }
        };
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.inflight >= self.cfg.conn_inflight {
            self.shared.note_shed();
            let reply = Reply::Overloaded {
                queue_depth: self.cfg.conn_inflight,
            };
            self.complete(token, id, reply, false);
            return;
        }
        // Cache fast path, any request kind: a hit is served on the
        // spot, bypassing both the batch and the engine thread. A miss
        // is counted where the request is computed, not here.
        let key = CacheKey::of(&request);
        if let Some(response) = self.core.cache_get(&key) {
            self.core.note_requests(1);
            self.shared.note_served(1, 0);
            self.complete(token, id, Reply::Ok(response), false);
            return;
        }
        if PureCore::is_pure(&request) {
            if self.pending.len() >= self.cfg.queue_depth {
                self.shared.note_shed();
                let reply = Reply::Overloaded {
                    queue_depth: self.cfg.queue_depth,
                };
                self.complete(token, id, reply, false);
                return;
            }
            if self.pending.is_empty() {
                self.pending_since = Instant::now();
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.inflight += 1;
            }
            let deadline = self.cfg.deadline.map(|d| Instant::now() + d);
            self.pending.push(PendingReq {
                token,
                id,
                request,
                key,
                deadline,
            });
        } else {
            let seq = self.gov_seq;
            self.gov_seq += 1;
            match self
                .shared
                .submit(seq, request, Some(key), self.gov_tx.clone())
            {
                Some(rejection) => self.complete(token, id, rejection, false),
                None => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.inflight += 1;
                    }
                    self.gov_pending.insert(seq, (token, id));
                }
            }
        }
    }

    /// Drains the coalescing batch in [`ShardConfig::batch_max`]-sized
    /// micro-batches.
    fn flush(&mut self) {
        while !self.pending.is_empty() {
            let take = self.pending.len().min(self.cfg.batch_max);
            let batch: Vec<PendingReq> = self.pending.drain(..take).collect();
            self.flush_batch(batch);
        }
    }

    /// One micro-batch: expire overdue requests, LRU re-check (another
    /// shard may have answered an identical request meanwhile), fan the
    /// misses over `gpm-par`, fill the cache, enqueue replies.
    fn flush_batch(&mut self, batch: Vec<PendingReq>) {
        // Requests whose deadline budget elapsed while coalescing are
        // answered without compute; the caller has already moved on.
        let now = Instant::now();
        let answered = batch.len();
        let (expired, batch): (Vec<PendingReq>, Vec<PendingReq>) =
            batch.into_iter().partition(|p| p.expired(now));
        if !expired.is_empty() {
            gpm_obs::counter_add("serve.deadline_exceeded", expired.len() as u64);
            let budget_ms = self.cfg.budget_ms;
            for p in expired {
                self.complete(p.token, p.id, Reply::DeadlineExceeded { budget_ms }, true);
            }
        }
        if !batch.is_empty() {
            let started = Instant::now();
            self.core.note_requests(batch.len() as u64);
            gpm_obs::counter_add("serve.reactor.flushes", 1);
            gpm_obs::histogram_record("serve.batch_size", batch.len() as f64);

            let mut replies: Vec<Option<Reply>> = batch
                .iter()
                .map(|p| self.core.cache_get(&p.key).map(Reply::Ok))
                .collect();
            let misses: Vec<usize> = replies
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| i)
                .collect();
            let core = &self.core;
            core.note_misses(misses.len() as u64);
            let computed = par_map_with(self.cfg.fan_width, &misses, |&i| {
                core.compute(&batch[i].request)
            });
            for (&i, reply) in misses.iter().zip(computed) {
                if let Reply::Ok(response) = &reply {
                    core.cache_put(batch[i].key.clone(), response.clone());
                }
                if matches!(reply, Reply::Error { .. }) {
                    core.note_error();
                }
                replies[i] = Some(reply);
            }
            gpm_obs::histogram_record_duration("serve.batch_service_us", started.elapsed());
            for (p, reply) in batch.iter().zip(replies) {
                self.complete(p.token, p.id, reply.expect("every slot filled"), true);
            }
        }
        self.shared.note_served(answered as u64, 1);
    }

    /// Forwards governor replies from the engine thread to their
    /// connections.
    fn drain_gov(&mut self) {
        while let Ok((seq, reply)) = self.gov_rx.try_recv() {
            if let Some((token, id)) = self.gov_pending.remove(&seq) {
                self.complete(token, id, reply, true);
            }
        }
    }

    /// Appends one reply frame to its connection's buffer and marks the
    /// connection for the sweep's write pass ([`Shard::write_marked`]).
    /// `admitted` replies release one in-flight slot.
    fn complete(&mut self, token: u64, id: u64, reply: Reply, admitted: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // the peer vanished; its reply is moot
        };
        if admitted && conn.inflight > 0 {
            conn.inflight -= 1;
        }
        let payload = proto::encode_reply(id, &reply);
        if conn.unflushed() + 4 + payload.len() > MAX_WRITE_BACKLOG {
            self.drop_conn(token);
            return;
        }
        conn.wbuf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        conn.wbuf.extend_from_slice(payload.as_bytes());
        if !conn.marked {
            conn.marked = true;
            self.marked.push(token);
        }
    }

    /// Writes each marked connection once, however many replies it
    /// gained since the last pass.
    fn write_marked(&mut self) {
        let mut marked = std::mem::take(&mut self.marked);
        for &token in &marked {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.marked = false;
                self.write_ready(token);
            }
        }
        marked.clear();
        self.marked = marked;
    }

    /// Pushes buffered reply bytes; manages write interest; drops the
    /// connection when it errors or finishes a clean goodbye.
    fn write_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let drop_it = match flush_writes(conn, &mut self.writes) {
            Ok(true) => {
                if conn.writable_interest {
                    conn.writable_interest = false;
                    let _ = self
                        .poller
                        .set_writable(conn.stream.as_raw_fd(), token, false);
                }
                conn.read_closed && conn.inflight == 0
            }
            Ok(false) => {
                if !conn.writable_interest {
                    conn.writable_interest = true;
                    let _ = self
                        .poller
                        .set_writable(conn.stream.as_raw_fd(), token, true);
                }
                false
            }
            Err(_) => true,
        };
        if drop_it {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            gpm_obs::counter_add("serve.reactor.disconnects", 1);
        }
        // Coalesced requests from the dead connection complete as no-ops
        // in `complete`; governor entries likewise resolve to nothing.
        self.pending.retain(|p| p.token != token);
    }
}

/// Writes as much of the connection's buffered output as the kernel
/// will take, counting each `write` call in `writes`. `Ok(true)` means
/// fully drained.
fn flush_writes(conn: &mut Conn, writes: &mut u64) -> io::Result<bool> {
    while conn.wpos < conn.wbuf.len() {
        *writes += 1;
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reclaim the consumed prefix once it is large enough.
                if conn.wpos > (64 << 10) {
                    conn.wbuf.drain(..conn.wpos);
                    conn.wpos = 0;
                }
                return Ok(false);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    Ok(true)
}
