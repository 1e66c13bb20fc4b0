//! The event-driven connection core: sharded nonblocking readiness
//! loops multiplexing many connections per thread.
//!
//! Each accepted connection lands on one worker shard (round-robin)
//! and stays there: no cross-shard migration, no locking on the hot
//! path. A shard owns a [`Poller`] watching two kinds of streams
//! through the [`chirp_proto::ready`] seam:
//!
//! * **fd-backed** transports (real sockets) are registered with a
//!   vendored `epoll` wrapper on Linux — level-triggered for reads,
//!   with `EPOLLOUT` interest armed only while a connection has
//!   queued reply bytes it could not transmit.
//! * **watcher-backed** transports ([`MemStream`]) register a
//!   [`ReadyWatcher`] that pushes `(token, readable, writable)` hints
//!   into the shard's ready-set and kicks the poller awake. The
//!   reactor treats every hint as level-triggered (it reads and writes
//!   until `WouldBlock` or a short read — either one proves the stream
//!   was drained at that instant), so coalesced or duplicated hints
//!   cannot change behavior — which is what keeps the simulation
//!   harness deterministic while driving this exact state machine.
//! * a transport supporting neither cannot be multiplexed and is
//!   closed on arrival. Only client-side wrappers (fault injection,
//!   latency, tracing) lack readiness, and no [`Listener`] hands the
//!   server one; on a host without epoll [`crate::FileServer::start`]
//!   refuses TCP up front.
//!
//! Per connection, a read/write state machine keeps the wire contract:
//! one `stats.request()` per line, a silent close on an oversized or
//! non-UTF-8 line, error-then-close on an over-cap `PWRITE`, replies
//! that coalesce while further requests are already buffered, and
//! scatter-gather page replies. A reply leaves in one socket
//! write whenever the socket takes it: the write queue is a flat run of
//! byte buffers and cache pages gathered into a single vectored write,
//! so a status line rides with its pages, and a file no longer than
//! one `READ_CHUNK` is read in behind its status line. Reply bytes
//! that cannot be transmitted yet queue on the connection; when the
//! queue passes [`crate::config::ServerConfig::reactor_write_cap`] the
//! reactor stops *reading* from that connection — bounded backpressure
//! for a slow reader — until the queue drains.
//!
//! Nothing waits behind bulk. A connection gets one *turn* at a time:
//! once it has moved [`TURN_BYTES`] (written and read together) or had
//! [`TURN_REQUESTS`] requests served, it yields and goes to the back of
//! its shard's queue, so an 8 MiB `GETFILE` or `PUTFILE` is many short
//! turns with everyone else's requests served between them. A
//! `THIRDPUT`, which blocks on another server for its whole transfer,
//! is checked and opened on the shard and then pushed by a small fixed
//! pool beside the shards; its connection's parser is parked meanwhile,
//! exactly as under the write cap, and the push's reply re-enters the
//! shard through the ready-list.
//!
//! [`MemStream`]: chirp_proto::transport::MemStream
//! [`Listener`]: chirp_proto::transport::Listener
//! [`ReadyWatcher`]: chirp_proto::ready::ReadyWatcher

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use chirp_proto::ready::{ReadyWatcher, Token};
use chirp_proto::transport::Transport;
use chirp_proto::{ChirpError, ChirpResult, Request, MAX_LINE, MAX_PAYLOAD};
use telemetry::SpanTimer;

use crate::cache::PageSlice;
use crate::handlers::{push_thirdput, PutfileUpload, Reply, Session, ThirdputPush};
use crate::server::Shared;

/// Token reserved for the poller's own wake channel.
const WAKE_TOKEN: Token = usize::MAX;
/// Bytes read from a stream per `read` call (the most a shard's read
/// scratch grows to), and from a streamed file per staging round; a
/// file reply up to this long is sent inline.
const READ_CHUNK: usize = 64 * 1024;
/// A shard's read scratch to begin with: one page. Each read that fills
/// it doubles it, up to `READ_CHUNK`, so a shard that serves only small
/// requests never touches the rest.
const SCRATCH_START: usize = 4 * 1024;
/// Buffers gathered into one vectored write (Linux's `IOV_MAX`).
const MAX_IOV: usize = 1024;
/// Shrink an empty write queue whose capacity grew past this many
/// items (a large page reply queues one item per page).
const WQ_WATERMARK: usize = 64;
/// Stop reading a connection once this many unparsed request bytes are
/// buffered; also the largest run of reply bytes coalesced into one
/// queue buffer.
const RBUF_CAP: usize = 256 * 1024;
/// Shrink an empty read buffer whose capacity grew past this.
const RBUF_WATERMARK: usize = 16 * 1024;
/// Bytes one connection may move in one turn, written and read
/// together, before it yields its shard: four read chunks, one
/// `RBUF_CAP`.
const TURN_BYTES: usize = 4 * READ_CHUNK;
/// Requests one connection may have served in one turn before it
/// yields, so a pipelined burst cannot hold the shard either.
const TURN_REQUESTS: usize = 32;

/// A blocking push, run by the pool off the serving shards.
type Job = Box<dyn FnOnce() + Send>;
/// A finished push: its connection's token and the reply.
type Pushed = (Token, ChirpResult<u64>);

/// The sharded reactor serving one [`crate::FileServer`].
pub(crate) struct Reactor {
    shards: Vec<Arc<Shard>>,
    /// The shard workers, then the push pool.
    threads: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
}

impl Reactor {
    /// Resolve the worker-shard count for `config`.
    pub(crate) fn worker_count(configured: usize) -> usize {
        if configured > 0 {
            return configured;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    }

    /// Whether this target's poller can watch sockets. Without that
    /// only watcher-backed (in-memory) transports can be served.
    pub(crate) const SUPPORTS_FDS: bool = Poller::SUPPORTS_FDS;

    /// Start the worker shards and, beside them, the push pool: as many
    /// threads as shards, fed by every shard, each running one push at
    /// a time until the last shard is gone.
    pub(crate) fn start(shared: &Arc<Shared>) -> io::Result<Reactor> {
        let workers = Reactor::worker_count(shared.config.reactor_workers);
        let mut shards = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(2 * workers);
        let (jobs, queue) = mpsc::channel::<Job>();
        for i in 0..workers {
            let shard = Arc::new(Shard {
                shared: shared.clone(),
                poller: Arc::new(Poller::new()?),
                inbox: Mutex::new(Vec::new()),
            });
            shards.push(shard.clone());
            let jobs = jobs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("chirp-react-{i}"))
                    .spawn(move || shard.run(jobs))?,
            );
        }
        let queue = Arc::new(Mutex::new(queue));
        for i in 0..workers {
            let queue = queue.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("chirp-push-{i}"))
                    .spawn(move || loop {
                        let job = queue.lock().unwrap().recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => return,
                        }
                    })?,
            );
        }
        Ok(Reactor {
            shards,
            threads: Mutex::new(threads),
            next: AtomicUsize::new(0),
        })
    }

    /// Hand an accepted connection to the next shard (round-robin).
    /// The caller has already counted it in `shared.active`.
    pub(crate) fn dispatch(&self, stream: Box<dyn Transport>, peer: SocketAddr) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].inbox.lock().unwrap().push((stream, peer));
        self.shards[i].poller.wake();
    }

    /// Wake every shard (so it observes the server's shutdown flag,
    /// closes its connections, and exits) and join the workers; the
    /// push pool follows the shards out once their pushes finish.
    pub(crate) fn join(&self) {
        for shard in &self.shards {
            shard.poller.wake();
        }
        for handle in self.threads.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: a poller plus the connections pinned to it.
struct Shard {
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    inbox: Mutex<Vec<(Box<dyn Transport>, SocketAddr)>>,
}

/// Watcher handed to in-process transports: forwards readiness hints
/// into the shard's ready-set and kicks the poller.
struct MemWatcher {
    poller: Arc<Poller>,
}

impl ReadyWatcher for MemWatcher {
    fn notify(&self, token: Token, readable: bool, writable: bool) {
        self.poller.push_ready(token, readable, writable);
        self.poller.wake();
    }
}

/// A shard's side of the push pool: where it sends pushes, and where
/// the pool sends their replies back.
struct Outbound {
    jobs: Sender<Job>,
    done: Sender<Pushed>,
}

impl Shard {
    fn run(self: Arc<Shard>, jobs: Sender<Job>) {
        let shared = &self.shared;
        let (done, pushed) = mpsc::channel();
        let out = Outbound { jobs, done };
        let mut conns: HashMap<Token, Conn> = HashMap::new();
        // Every read on this shard lands here first, and only the bytes
        // read are appended to the connection's buffer: a request costs
        // no zero-fill, and a connection that has sent nothing holds no
        // buffer.
        let mut scratch = vec![0u8; SCRATCH_START];
        let mut next_token: Token = 0;
        let mut events: Vec<(Token, bool, bool)> = Vec::new();
        let mut dirty: Vec<Token> = Vec::new();
        // Connections that spent their turn's budget. A yielded socket that is still writable has `EPOLLOUT` disarmed
        // and a yielded watcher stream has had its hint consumed, so
        // nothing would report either again: the shard comes back to
        // them itself.
        let mut yielded: Vec<Token> = Vec::new();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                for (_, conn) in conns.drain() {
                    self.retire(conn);
                }
                for (stream, _) in self.inbox.lock().unwrap().drain(..) {
                    let _ = stream.shutdown();
                    shared.active.fetch_sub(1, Ordering::Relaxed);
                }
                return;
            }
            // Adopt newly dispatched connections.
            let fresh = std::mem::take(&mut *self.inbox.lock().unwrap());
            for (stream, peer) in fresh {
                let token = next_token;
                next_token = next_token.wrapping_add(1);
                if next_token == WAKE_TOKEN {
                    next_token = 0;
                }
                if let Some(mut conn) = self.adopt(stream, peer, token) {
                    // Pump immediately: bytes may already be buffered
                    // (epoll level-triggering will also re-report them,
                    // but the mem path's initial hint was consumed into
                    // the ready-set before the conn existed in rare
                    // interleavings — a free pump is always sound).
                    self.service(&mut conn, &out, &mut yielded, &mut scratch);
                    if conn.dead {
                        self.retire(conn);
                    } else {
                        conns.insert(token, conn);
                    }
                }
            }
            // Wait for readiness: only poll while yielded connections
            // wait for their next turn. Otherwise a 25 ms tick while an
            // idle policy needs enforcing; a lazy 500 ms safety tick
            // otherwise (shutdown and dispatch both wake the poller
            // explicitly).
            let timeout_ms = if !yielded.is_empty() {
                0
            } else if shared.config.idle_timeout.is_some() {
                25
            } else {
                500
            };
            events.clear();
            self.poller.wait(timeout_ms, &mut events);
            shared.telemetry.reactor_loop();
            shared.telemetry.reactor_wakeup(events.len() as u64);
            // A finished push's reply re-enters its connection, and the
            // token the pool put on the ready-list pumps it below. A
            // connection that retired meanwhile has nobody to answer.
            for (token, reply) in pushed.try_iter() {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.finish_push(shared, reply);
                }
            }
            dirty.clear();
            for &(token, readable, writable) in &events {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.readable |= readable;
                    conn.writable |= writable;
                    // The epoll path reports each fd once per wait;
                    // only watcher pushes can repeat a token, and a
                    // repeated pump is a cheap no-op — not worth a
                    // quadratic dedup scan over a large ready batch.
                    // A yielded connection keeps its place at the back.
                    if !conn.yielded {
                        dirty.push(token);
                    }
                }
            }
            for token in yielded.drain(..) {
                if let Some(conn) = conns.get_mut(&token) {
                    conn.yielded = false;
                    dirty.push(token);
                }
            }
            for token in dirty.drain(..) {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                self.service(conn, &out, &mut yielded, &mut scratch);
                if conn.dead {
                    let conn = conns.remove(&token).expect("present");
                    self.retire(conn);
                }
            }
            // Idle policy: a connection quiet past the timeout ends
            // exactly like a disconnect, freeing its slot and
            // descriptors. One waiting on its own push is not idle.
            if let Some(idle) = shared.config.idle_timeout {
                let now = Instant::now();
                let expired: Vec<Token> = conns
                    .iter()
                    .filter(|(_, c)| c.parked.is_none() && now.duration_since(c.last_active) > idle)
                    .map(|(t, _)| *t)
                    .collect();
                for token in expired {
                    let conn = conns.remove(&token).expect("present");
                    self.retire(conn);
                }
            }
        }
    }

    /// Register a fresh connection with the poller on the fd path or
    /// the watcher path. A transport offering neither (or whose
    /// registration fails) is closed and its slot released: `None`.
    fn adopt(&self, stream: Box<dyn Transport>, peer: SocketAddr, token: Token) -> Option<Conn> {
        let fd = stream.readiness_fd().filter(|_| Poller::SUPPORTS_FDS);
        let registered = stream.set_nonblocking(true).is_ok()
            && match fd {
                Some(fd) => self.poller.add_fd(fd, token, false).is_ok(),
                None => stream.register_ready(
                    token,
                    Arc::new(MemWatcher {
                        poller: self.poller.clone(),
                    }),
                ),
            };
        if !registered {
            let _ = stream.shutdown();
            self.shared.active.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(Conn::new(stream, peer, token, fd, &self.shared))
    }

    /// Give a connection one turn: pump it, queue it for another turn
    /// if it yielded, hand a push it authorized to the pool, and
    /// reconcile its write interest.
    fn service(
        &self,
        conn: &mut Conn,
        out: &Outbound,
        yielded: &mut Vec<Token>,
        scratch: &mut Vec<u8>,
    ) {
        if conn.pump(&self.shared, scratch) && !conn.yielded {
            conn.yielded = true;
            yielded.push(conn.token);
            self.shared.telemetry.reactor_yield();
        }
        if let Some(push) = conn.parked.as_mut().and_then(|p| p.push.take()) {
            let (token, shared, poller) = (conn.token, self.shared.clone(), self.poller.clone());
            let done = out.done.clone();
            let job: Job = Box::new(move || {
                let reply = push_thirdput(&shared, push);
                if done.send((token, reply)).is_ok() {
                    poller.push_ready(token, false, false);
                    poller.wake();
                }
            });
            out.jobs
                .send(job)
                .expect("the push pool outlives the shards");
        }
        self.settle(conn);
    }

    /// Reconcile a connection's epoll write interest with its queue:
    /// `EPOLLOUT` is armed only while untransmitted bytes wait on an
    /// unwritable stream (level-triggered `EPOLLOUT` would otherwise
    /// fire on every wait).
    fn settle(&self, conn: &mut Conn) {
        let Some(fd) = conn.fd else { return };
        if conn.dead {
            return;
        }
        let want = !conn.wq.is_empty() && !conn.writable;
        if want != conn.want_write && self.poller.mod_fd(fd, conn.token, want).is_ok() {
            conn.want_write = want;
        }
    }

    /// Tear down a finished connection and release its slot.
    fn retire(&self, conn: Conn) {
        match conn.fd {
            Some(fd) => self.poller.del_fd(fd),
            None => conn.stream.deregister_ready(),
        }
        let _ = conn.stream.shutdown();
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one connection still owes the wire. Buffers are never empty,
/// so a write that moves bytes always retires or advances the front.
enum WItem {
    /// Plain reply bytes: status lines, inline data, a staged chunk
    /// of a streamed file.
    Bytes(Vec<u8>),
    /// One cache page's share of a scatter-gathered reply.
    Page(PageSlice),
    /// A file streamed from disk in bounded chunks.
    File(std::fs::File, u64),
}

impl WItem {
    /// The bytes this item holds in memory; `None` for a file, whose
    /// next chunk must be staged first.
    fn buffer(&self) -> Option<&[u8]> {
        match self {
            WItem::Bytes(vec) => Some(vec),
            WItem::Page(slice) => Some(slice.as_slice()),
            WItem::File(..) => None,
        }
    }
}

/// Read-side position in the request stream.
enum RState {
    /// Between requests: scanning for the next `\n`.
    Line,
    /// Accumulating a `PWRITE` payload.
    Payload {
        req: Request,
        buf: Vec<u8>,
        span: SpanTimer,
        bytes_in: u64,
    },
    /// Streaming a `PUTFILE` payload straight into the file.
    Putfile {
        upload: PutfileUpload,
        span: SpanTimer,
        bytes_in: u64,
    },
}

/// A `THIRDPUT` its connection waits on while the pool pushes it.
struct Parked {
    /// The request's span, closed when its reply is queued.
    span: SpanTimer,
    /// The authorized transfer, until the shard hands it to the pool.
    push: Option<ThirdputPush>,
}

/// One multiplexed connection: transport, session, and the
/// read/write state machines.
struct Conn {
    stream: Box<dyn Transport>,
    token: Token,
    /// The descriptor epoll watches; `None` for a watcher-backed
    /// stream.
    fd: Option<i32>,
    session: Session,
    rbuf: Vec<u8>,
    rpos: usize,
    /// Scan cursor for `\n` (everything before it is known clean), so
    /// repeated partial arrivals stay O(bytes) not O(bytes²).
    scan: usize,
    rstate: RState,
    wq: std::collections::VecDeque<WItem>,
    /// Bytes of the front `wq` buffer already transmitted — the whole
    /// of the partial-write state, whatever the item kinds.
    whead: usize,
    /// Total untransmitted bytes across `wq` (the backpressure gauge).
    wq_bytes: u64,
    readable: bool,
    writable: bool,
    /// Whether `EPOLLOUT` interest is currently armed (fd path).
    want_write: bool,
    /// Peer sent EOF; serve what is buffered, then close.
    eof: bool,
    /// Protocol violation answered: flush the queue, then close.
    closing: bool,
    dead: bool,
    backpressured: bool,
    /// The push a `THIRDPUT` waits on: no request is served until its
    /// reply is queued.
    parked: Option<Parked>,
    /// Bytes moved and requests served in the current turn.
    turn_bytes: usize,
    turn_requests: usize,
    /// Queued for another turn on the shard's yielded list.
    yielded: bool,
    last_active: Instant,
}

impl Conn {
    fn new(
        stream: Box<dyn Transport>,
        peer: SocketAddr,
        token: Token,
        fd: Option<i32>,
        shared: &Arc<Shared>,
    ) -> Conn {
        Conn {
            stream,
            token,
            fd,
            session: Session::new(shared.clone(), peer.ip()),
            rbuf: Vec::new(),
            rpos: 0,
            scan: 0,
            rstate: RState::Line,
            wq: std::collections::VecDeque::new(),
            whead: 0,
            wq_bytes: 0,
            // Optimistic: a fresh stream is writable until proven
            // otherwise; fd readability arrives level-triggered, mem
            // readability via the registration-time hint.
            readable: false,
            writable: true,
            want_write: false,
            eof: false,
            closing: false,
            dead: false,
            backpressured: false,
            parked: None,
            turn_bytes: 0,
            turn_requests: 0,
            yielded: false,
            last_active: Instant::now(),
        }
    }

    /// Drive the connection for one turn: until it can make no further
    /// progress without new readiness events, or it has spent the
    /// turn's budget, reading through the shard's `scratch`. Returns
    /// whether it yielded with the budget spent, so the shard must come
    /// back to it.
    fn pump(&mut self, shared: &Arc<Shared>, scratch: &mut Vec<u8>) -> bool {
        self.turn_bytes = 0;
        self.turn_requests = 0;
        loop {
            let mut progress = false;
            progress |= self.drain_writes(shared);
            if self.dead {
                return false;
            }
            if self.closing {
                if self.wq.is_empty() {
                    self.dead = true;
                    return false;
                }
            } else {
                progress |= self.process(shared);
                if self.dead {
                    return false;
                }
                progress |= self.fill(scratch);
                if self.dead {
                    return false;
                }
            }
            if !progress {
                break;
            }
        }
        self.compact();
        self.trim();
        self.turn_bytes >= TURN_BYTES || self.turn_requests >= TURN_REQUESTS
    }

    /// Queue the reply of the push this connection is parked on, which
    /// lets its parser go on.
    fn finish_push(&mut self, shared: &Arc<Shared>, reply: ChirpResult<u64>) {
        let parked = self
            .parked
            .take()
            .expect("a push answers a parked connection");
        let reply = reply.map(|n| Reply::Value(n as i64));
        self.queue_reply(shared, "thirdput", 0, parked.span, reply);
    }

    /// Parse and serve whatever complete requests the read buffer
    /// holds. Returns whether anything advanced.
    fn process(&mut self, shared: &Arc<Shared>) -> bool {
        let cap = shared.config.reactor_write_cap as u64;
        let mut progress = false;
        loop {
            if self.dead || self.closing || self.turn_requests >= TURN_REQUESTS {
                return progress;
            }
            if self.parked.is_some() {
                // Waiting on its push: earlier replies still drain and
                // later requests stay buffered, served in order once
                // the push's reply is queued. A peer that hung up is
                // not waited for; the push's reply is then dropped.
                if self.eof {
                    self.dead = true;
                }
                return progress;
            }
            if self.wq_bytes > cap {
                // Slow reader: stop consuming requests until the
                // queued replies drain below the cap.
                if !self.backpressured {
                    self.backpressured = true;
                    shared.telemetry.reactor_backpressure();
                }
                return progress;
            }
            self.backpressured = false;
            match &mut self.rstate {
                RState::Line => {
                    let nl = self.rbuf[self.scan..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|i| self.scan + i);
                    match nl {
                        Some(nl) => {
                            self.scan = nl + 1;
                            if nl - self.rpos > MAX_LINE {
                                // Oversized line: drop the connection
                                // with no reply (wire::read_line).
                                self.dead = true;
                                return progress;
                            }
                            let line = match std::str::from_utf8(&self.rbuf[self.rpos..nl]) {
                                Ok(s) => s.to_owned(),
                                Err(_) => {
                                    // Non-UTF-8: same silent close.
                                    self.dead = true;
                                    return progress;
                                }
                            };
                            self.rpos = nl + 1;
                            self.dispatch_line(shared, &line);
                            progress = true;
                        }
                        None => {
                            let unparsed = self.rbuf.len() - self.rpos;
                            if unparsed > MAX_LINE {
                                self.dead = true;
                                return progress;
                            }
                            if self.eof {
                                // Clean disconnect at a line boundary;
                                // EOF mid-line is the same silent close.
                                self.dead = true;
                            }
                            return progress;
                        }
                    }
                }
                RState::Payload { req, buf, .. } => {
                    let need = (req.payload_len() as usize) - buf.len();
                    let avail = self.rbuf.len() - self.rpos;
                    let take = need.min(avail);
                    buf.extend_from_slice(&self.rbuf[self.rpos..self.rpos + take]);
                    self.rpos += take;
                    self.scan = self.scan.max(self.rpos);
                    if take > 0 {
                        progress = true;
                    }
                    if take == need {
                        let RState::Payload {
                            req,
                            buf,
                            span,
                            bytes_in,
                        } = std::mem::replace(&mut self.rstate, RState::Line)
                        else {
                            unreachable!("matched Payload above");
                        };
                        let op = req.op_name();
                        let reply = self.session.handle(req, Some(buf));
                        self.queue_reply(shared, op, bytes_in, span, reply);
                        progress = true;
                    } else if self.eof {
                        // Payload cut short: report the read error,
                        // then close — framing is lost.
                        let e = ChirpError::from_io(&io::Error::from(io::ErrorKind::UnexpectedEof));
                        self.push_error_line(shared, e);
                        self.closing = true;
                        return progress;
                    } else {
                        return progress;
                    }
                }
                RState::Putfile { upload, .. } => {
                    let avail = &self.rbuf[self.rpos..];
                    if !avail.is_empty() && upload.remaining() > 0 {
                        match self.session.feed_putfile(upload, avail) {
                            Ok(n) => {
                                self.rpos += n;
                                self.scan = self.scan.max(self.rpos);
                                progress = true;
                            }
                            Err(e) => {
                                // A failed file write surfaces as the
                                // request's error reply; the unread
                                // payload remainder stays on the wire
                                // undrained, so framing is lost from
                                // here.
                                let RState::Putfile { span, bytes_in, .. } =
                                    std::mem::replace(&mut self.rstate, RState::Line)
                                else {
                                    unreachable!("matched Putfile above");
                                };
                                self.queue_reply(shared, "putfile", bytes_in, span, Err(e));
                                progress = true;
                                continue;
                            }
                        }
                    }
                    if upload.remaining() == 0 {
                        let RState::Putfile {
                            upload,
                            span,
                            bytes_in,
                        } = std::mem::replace(&mut self.rstate, RState::Line)
                        else {
                            unreachable!("matched Putfile above");
                        };
                        let reply = self.session.finish_putfile(upload);
                        self.queue_reply(shared, "putfile", bytes_in, span, reply);
                        progress = true;
                    } else if self.rbuf.len() == self.rpos {
                        if self.eof {
                            // Upload cut short: error reply, then the
                            // line loop observes EOF and closes.
                            let e =
                                ChirpError::from_io(&io::Error::from(io::ErrorKind::UnexpectedEof));
                            let RState::Putfile { span, bytes_in, .. } =
                                std::mem::replace(&mut self.rstate, RState::Line)
                            else {
                                unreachable!("matched Putfile above");
                            };
                            self.queue_reply(shared, "putfile", bytes_in, span, Err(e));
                            continue;
                        }
                        return progress;
                    }
                }
            }
        }
    }

    /// Serve one request line: reply at once, or enter the payload
    /// state the request calls for.
    fn dispatch_line(&mut self, shared: &Arc<Shared>, line: &str) {
        shared.stats.request();
        self.turn_requests += 1;
        let span = SpanTimer::start();
        let parsed = Request::parse(line);
        let (op, bytes_in) = match &parsed {
            Ok(req) => (req.op_name(), req.payload_len()),
            Err(_) => ("invalid", 0),
        };
        match parsed {
            Err(e) => self.queue_reply(shared, op, bytes_in, span, Err(e)),
            Ok(Request::Putfile { path, mode, length }) => {
                let upload = self.session.begin_putfile(&path, mode, length);
                if upload.remaining() == 0 {
                    let reply = self.session.finish_putfile(upload);
                    self.queue_reply(shared, op, bytes_in, span, reply);
                } else {
                    self.rstate = RState::Putfile {
                        upload,
                        span,
                        bytes_in,
                    };
                }
            }
            Ok(Request::Thirdput {
                path,
                target,
                target_path,
            }) => match self.session.begin_thirdput(&path, &target, &target_path) {
                Ok(push) => {
                    self.parked = Some(Parked {
                        span,
                        push: Some(push),
                    })
                }
                Err(e) => self.queue_reply(shared, op, bytes_in, span, Err(e)),
            },
            Ok(req @ Request::Pwrite { .. }) => {
                let length = req.payload_len();
                if length > MAX_PAYLOAD as u64 {
                    // Over the payload cap: error, flush, close — with
                    // no error-counter bump and no telemetry record
                    // (the request was never served).
                    self.push_error_line(shared, ChirpError::TooBig);
                    self.closing = true;
                } else {
                    self.rstate = RState::Payload {
                        buf: Vec::with_capacity(length as usize),
                        req,
                        span,
                        bytes_in,
                    };
                }
            }
            Ok(req) => {
                let reply = self.session.handle(req, None);
                self.queue_reply(shared, op, bytes_in, span, reply);
            }
        }
    }

    /// Queue a reply's bytes and account for it: the reply write,
    /// `trim_scratch`, and the telemetry record.
    fn queue_reply(
        &mut self,
        shared: &Arc<Shared>,
        op: &'static str,
        bytes_in: u64,
        span: SpanTimer,
        reply: Result<Reply, ChirpError>,
    ) {
        let bytes_out = match &reply {
            Ok(Reply::Data(data)) => data.len() as u64,
            Ok(Reply::Scratch(n)) => *n as u64,
            Ok(Reply::FileStream(_, len)) => *len,
            Ok(Reply::Pages(p)) => p.total() as u64,
            _ => 0,
        };
        let error = reply.as_ref().err().copied();
        match reply {
            Ok(Reply::Value(v)) => self.push_bytes(format!("{v}\n").into_bytes()),
            Ok(Reply::Words(v, words)) => self.push_bytes(format!("{v} {words}\n").into_bytes()),
            Ok(Reply::Data(data)) => {
                self.push_bytes(format!("{}\n", data.len()).into_bytes());
                self.push_bytes(data);
            }
            Ok(Reply::Scratch(n)) => {
                let mut out = format!("{n}\n").into_bytes();
                out.extend_from_slice(&self.session.scratch()[..n]);
                self.push_bytes(out);
            }
            Ok(Reply::FileStream(file, len)) if len <= READ_CHUNK as u64 => {
                // Small enough to hold: read it in behind its status
                // line so both leave in one write. A file that shrank
                // under us kills the connection: the promised length
                // can no longer be delivered.
                let mut out = format!("{len}\n").into_bytes();
                out.reserve(len as usize);
                match file.take(len).read_to_end(&mut out) {
                    Ok(n) if n as u64 == len => self.push_bytes(out),
                    _ => self.dead = true,
                }
            }
            Ok(Reply::FileStream(file, len)) => {
                self.push_bytes(format!("{len}\n").into_bytes());
                self.wq.push_back(WItem::File(file, len));
                self.wq_bytes += len;
            }
            Ok(Reply::Pages(p)) => {
                self.push_bytes(format!("{}\n", p.total()).into_bytes());
                self.wq_bytes += p.total() as u64;
                let pages = p.into_slices().into_iter().filter(|s| !s.is_empty());
                self.wq.extend(pages.map(WItem::Page));
            }
            Err(e) => {
                self.push_bytes(format!("{}\n", e.code()).into_bytes());
            }
        }
        shared.telemetry.reactor_wq_high_water(self.wq_bytes);
        self.session.trim_scratch();
        shared.telemetry.record(
            op,
            self.session.subject(),
            span.elapsed_ns(),
            bytes_in,
            bytes_out,
            error,
        );
    }

    /// Queue a bare error status line with no telemetry side effects
    /// (the pre-dispatch protocol-violation path).
    fn push_error_line(&mut self, shared: &Arc<Shared>, e: ChirpError) {
        self.push_bytes(format!("{}\n", e.code()).into_bytes());
        shared.telemetry.reactor_wq_high_water(self.wq_bytes);
    }

    /// Append reply bytes, coalescing into the queue's tail buffer so
    /// a status line and its data ride one `write`.
    fn push_bytes(&mut self, data: Vec<u8>) {
        if data.is_empty() {
            return;
        }
        self.wq_bytes += data.len() as u64;
        if let Some(WItem::Bytes(tail)) = self.wq.back_mut() {
            if tail.len() + data.len() <= RBUF_CAP {
                tail.extend_from_slice(&data);
                return;
            }
        }
        self.wq.push_back(WItem::Bytes(data));
    }

    /// Transmit queued reply bytes until the stream would block, the
    /// queue empties or the turn's budget is spent: every buffer up to
    /// the next streamed file, as far as the budget reaches, goes to
    /// the socket in one (vectored) write. Returns whether anything was
    /// written.
    fn drain_writes(&mut self, shared: &Arc<Shared>) -> bool {
        let mut writes = 0u64;
        while self.writable && !self.dead && self.turn_bytes < TURN_BYTES {
            let budget = TURN_BYTES - self.turn_bytes;
            let mut taken = 0;
            let ready = self
                .wq
                .iter()
                .take(MAX_IOV)
                .map_while(WItem::buffer)
                .take_while(|buf| {
                    let within = taken < budget;
                    taken += buf.len();
                    within
                })
                .count();
            if ready == 0 {
                if self.wq.is_empty() {
                    break;
                }
                self.stage_file_chunk();
                continue;
            }
            let mut buffers = self.wq.iter().map_while(WItem::buffer);
            let head = &buffers.next().expect("ready > 0")[self.whead..];
            let written = if ready == 1 {
                self.stream.write(head)
            } else {
                let gathered: Vec<io::IoSlice> = std::iter::once(head)
                    .chain(buffers.take(ready - 1))
                    .map(io::IoSlice::new)
                    .collect();
                self.stream.write_vectored(&gathered)
            };
            match written {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    writes += 1;
                    self.turn_bytes += n;
                    self.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.writable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if writes > 0 {
            shared.telemetry.reactor_writes(writes);
        }
        writes > 0
    }

    /// Account for `n` transmitted bytes: retire every buffer they
    /// cover and leave `whead` inside the first one they do not.
    fn advance(&mut self, mut n: usize) {
        self.wq_bytes -= n as u64;
        while n > 0 {
            let front = self.wq.front().and_then(WItem::buffer);
            let left = front.expect("the stream took bytes it was not given").len() - self.whead;
            if n < left {
                self.whead += n;
                return;
            }
            n -= left;
            self.whead = 0;
            self.wq.pop_front();
        }
    }

    /// Replace the file at the front of the queue by its next bounded
    /// chunk, read into memory, ahead of whatever of it remains.
    fn stage_file_chunk(&mut self) {
        let Some(WItem::File(mut file, remaining)) = self.wq.pop_front() else {
            unreachable!("caller saw a file at the front");
        };
        let mut chunk = vec![0u8; READ_CHUNK.min(remaining as usize)];
        match file.read(&mut chunk) {
            // File shrank mid-stream: the promised length cannot be
            // delivered, so the connection dies.
            Ok(0) => self.dead = true,
            Ok(n) => {
                chunk.truncate(n);
                if remaining > n as u64 {
                    self.wq.push_front(WItem::File(file, remaining - n as u64));
                }
                self.wq.push_front(WItem::Bytes(chunk));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                self.wq.push_front(WItem::File(file, remaining));
            }
            Err(_) => self.dead = true,
        }
    }

    /// Read newly arrived bytes into the request buffer through the
    /// shard's `scratch`, up to the buffering cap or the turn's budget.
    /// Returns whether anything arrived (or EOF did).
    fn fill(&mut self, scratch: &mut Vec<u8>) -> bool {
        let mut progress = false;
        while self.readable && !self.eof && !self.dead && self.turn_bytes < TURN_BYTES {
            if self.rbuf.len() - self.rpos >= RBUF_CAP {
                // Plenty buffered; stay marked readable and come back
                // once the parser catches up.
                break;
            }
            self.compact();
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    progress = true;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.turn_bytes += n;
                    self.last_active = Instant::now();
                    progress = true;
                    if n < scratch.len() {
                        // A short read drained the stream at that
                        // instant; skip the confirming WouldBlock
                        // syscall. Level-triggered epoll (and the
                        // watcher's notify-on-write) re-report the
                        // moment more bytes arrive.
                        self.readable = false;
                    } else if scratch.len() < READ_CHUNK {
                        // A full read: more is likely waiting, so the
                        // next one may take more.
                        scratch.resize(2 * scratch.len(), 0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.readable = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        progress
    }

    /// Reclaim consumed read-buffer space.
    fn compact(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
            self.scan = 0;
        } else if self.rpos >= READ_CHUNK {
            self.rbuf.drain(..self.rpos);
            self.scan -= self.rpos;
            self.rpos = 0;
        }
    }

    /// At the end of a turn, shrink an empty read buffer or write queue
    /// that a burst grew back to its watermark, so 50k quiet
    /// connections stay flat in memory.
    fn trim(&mut self) {
        if self.rbuf.is_empty() && self.rbuf.capacity() > RBUF_WATERMARK {
            self.rbuf.shrink_to(RBUF_WATERMARK);
        }
        if self.wq.is_empty() && self.wq.capacity() > WQ_WATERMARK {
            self.wq.shrink_to(WQ_WATERMARK);
        }
    }
}

// ---- the poller --------------------------------------------------------

#[cfg(target_os = "linux")]
use sys_epoll as sys;
#[cfg(not(target_os = "linux"))]
use sys_fallback as sys;

use sys::Poller;

/// Vendored epoll + eventfd poller (Linux). Raw syscall bindings —
/// the workspace carries no libc crate; these symbols come from the
/// libc the standard library already links.
#[cfg(target_os = "linux")]
mod sys_epoll {
    use super::WAKE_TOKEN;
    use chirp_proto::ready::Token;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::sync::Mutex;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const MAX_EVENTS: usize = 256;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: u32, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// One shard's readiness source: an epoll set for fd-backed
    /// streams, an eventfd wake channel, and a ready-list fed by
    /// in-process stream watchers and finished pushes.
    pub(crate) struct Poller {
        epfd: c_int,
        wakefd: c_int,
        ready: Mutex<Vec<(Token, bool, bool)>>,
    }

    impl Poller {
        pub(crate) const SUPPORTS_FDS: bool = true;

        pub(crate) fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let wakefd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if wakefd < 0 {
                let e = io::Error::last_os_error();
                unsafe { close(epfd) };
                return Err(e);
            }
            let poller = Poller {
                epfd,
                wakefd,
                ready: Mutex::new(Vec::new()),
            };
            poller.ctl(EPOLL_CTL_ADD, wakefd, WAKE_TOKEN, false)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: c_int, token: Token, want_write: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP | if want_write { EPOLLOUT } else { 0 },
                data: token as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub(crate) fn add_fd(&self, fd: i32, token: Token, want_write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, want_write)
        }

        pub(crate) fn mod_fd(&self, fd: i32, token: Token, want_write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, want_write)
        }

        pub(crate) fn del_fd(&self, fd: i32) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        pub(crate) fn push_ready(&self, token: Token, readable: bool, writable: bool) {
            self.ready.lock().unwrap().push((token, readable, writable));
        }

        pub(crate) fn wake(&self) {
            let one: u64 = 1;
            unsafe { write(self.wakefd, &one as *const u64 as *const c_void, 8) };
        }

        /// Collect ready tokens, blocking up to `timeout_ms` (0 polls).
        pub(crate) fn wait(&self, timeout_ms: i32, out: &mut Vec<(Token, bool, bool)>) {
            let timeout = if self.ready.lock().unwrap().is_empty() {
                timeout_ms
            } else {
                0
            };
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n =
                unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), MAX_EVENTS as c_int, timeout) };
            if n > 0 {
                for ev in events.iter().take(n as usize) {
                    let mask = { ev.events };
                    let token = { ev.data } as usize;
                    if token == WAKE_TOKEN {
                        let mut buf = 0u64;
                        unsafe { read(self.wakefd, &mut buf as *mut u64 as *mut c_void, 8) };
                        continue;
                    }
                    let readable = mask & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                    let writable = mask & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0;
                    out.push((token, readable, writable));
                }
            }
            out.append(&mut self.ready.lock().unwrap());
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }
}

/// Portable poller for hosts without epoll: watcher-backed streams
/// work exactly as on Linux; fd-backed streams cannot be served (the
/// shard reports no fd support and `FileServer::start` refuses TCP).
#[cfg(not(target_os = "linux"))]
mod sys_fallback {
    use chirp_proto::ready::Token;
    use std::io;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    struct State {
        ready: Vec<(Token, bool, bool)>,
        woken: bool,
    }

    pub(crate) struct Poller {
        state: Mutex<State>,
        cond: Condvar,
    }

    impl Poller {
        pub(crate) const SUPPORTS_FDS: bool = false;

        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                state: Mutex::new(State {
                    ready: Vec::new(),
                    woken: false,
                }),
                cond: Condvar::new(),
            })
        }

        pub(crate) fn add_fd(&self, _fd: i32, _token: Token, _w: bool) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub(crate) fn mod_fd(&self, _fd: i32, _token: Token, _w: bool) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub(crate) fn del_fd(&self, _fd: i32) {}

        pub(crate) fn push_ready(&self, token: Token, readable: bool, writable: bool) {
            self.state
                .lock()
                .unwrap()
                .ready
                .push((token, readable, writable));
        }

        pub(crate) fn wake(&self) {
            self.state.lock().unwrap().woken = true;
            self.cond.notify_all();
        }

        pub(crate) fn wait(&self, timeout_ms: i32, out: &mut Vec<(Token, bool, bool)>) {
            let mut st = self.state.lock().unwrap();
            if st.ready.is_empty() && !st.woken {
                let (next, _) = self
                    .cond
                    .wait_timeout(st, Duration::from_millis(timeout_ms.max(0) as u64))
                    .unwrap();
                st = next;
            }
            st.woken = false;
            out.append(&mut st.ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Acl;
    use crate::config::ServerConfig;
    use chirp_proto::testutil::TempDir;
    use chirp_proto::transport::MemStream;
    use chirp_proto::{Clock, OpenFlags};

    /// A connection served over one end of an in-memory stream, and
    /// the client's end.
    fn conn(shared: &Arc<Shared>) -> (Conn, MemStream) {
        let (a, b) = (
            "127.0.0.1:1".parse().unwrap(),
            "127.0.0.1:2".parse().unwrap(),
        );
        let (client, server) = MemStream::pair(a, b, Clock::wall());
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        (Conn::new(Box::new(server), a, 0, None, shared), client)
    }

    /// Deliver `bytes`, then pump until the turn ends short of its
    /// budget, as the shard would on fresh readiness.
    fn deliver(conn: &mut Conn, client: &mut MemStream, bytes: &[u8], shared: &Arc<Shared>) {
        client.write_all(bytes).unwrap();
        let mut scratch = vec![0u8; SCRATCH_START];
        conn.readable = true;
        while conn.pump(shared, &mut scratch) {}
    }

    fn replies(client: &mut MemStream) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match client.read(&mut buf) {
                Ok(0) => return out,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return out,
                Err(e) => panic!("client read: {e}"),
            }
        }
    }

    fn auth() -> Request {
        Request::Auth {
            method: "hostname".into(),
            name: "localhost".into(),
            credential: String::new(),
        }
    }

    fn utime() -> Request {
        Request::Utime {
            path: "/f".into(),
            mtime: 1_000,
        }
    }

    fn encode(reqs: &[Request]) -> Vec<u8> {
        reqs.iter().flat_map(|r| r.encode().into_bytes()).collect()
    }

    /// A session's requests, with the `PWRITE` carrying `payload`. The
    /// file's attributes are the same at every run's `OPEN`: its bytes
    /// are rewritten as they were and its mtime is put back.
    fn script(payload: &[u8]) -> Vec<u8> {
        let length = payload.len() as u64;
        let open = Request::Open {
            path: "/f".into(),
            flags: OpenFlags::read_write(),
            mode: 0,
        };
        let pwrite = Request::Pwrite {
            fd: 0,
            length,
            offset: 0,
        };
        let rest = [
            Request::Pread {
                fd: 0,
                length,
                offset: 0,
            },
            Request::Stat {
                path: "/missing".into(),
            },
            Request::Close { fd: 0 },
            utime(),
            Request::Whoami,
        ];
        [
            encode(&[auth(), open, pwrite]),
            payload.to_vec(),
            encode(&rest),
        ]
        .concat()
    }

    /// A server whose `/f` holds `payload`, with the mtime the script
    /// puts back.
    fn shared(dir: &TempDir, payload: &[u8]) -> Arc<Shared> {
        let cfg = ServerConfig::localhost(dir.path(), "o")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
        let shared = Shared::new(cfg).unwrap();
        std::fs::write(dir.path().join("f"), payload).unwrap();
        let (mut conn, mut client) = conn(&shared);
        deliver(&mut conn, &mut client, &encode(&[auth(), utime()]), &shared);
        assert_eq!(replies(&mut client), b"0 hostname:localhost\n0\n");
        shared
    }

    /// Requests split at every byte boundary, and a `PWRITE` payload
    /// spanning several reads, are answered exactly as when they arrive
    /// whole; and a drained connection keeps at most the watermark of
    /// read buffer.
    #[test]
    fn requests_split_anywhere_are_answered_alike_and_leave_a_small_buffer() {
        for payload in [b"0123456".to_vec(), vec![7u8; 3 * READ_CHUNK + 17]] {
            let dir = TempDir::new();
            let shared = shared(&dir, &payload);
            let bytes = script(&payload);
            let (mut whole, mut client) = conn(&shared);
            deliver(&mut whole, &mut client, &bytes, &shared);
            let want = replies(&mut client);
            assert!(want.ends_with(b"0 hostname:localhost\n"), "{want:?}");
            let cuts: Vec<usize> = if payload.len() < 64 {
                (0..=bytes.len()).collect()
            } else {
                // The payload alone spans several reads; cut it too.
                vec![0, 40, 40 + READ_CHUNK / 2, bytes.len() - 100]
            };
            for cut in cuts {
                let (mut split, mut client) = conn(&shared);
                deliver(&mut split, &mut client, &bytes[..cut], &shared);
                deliver(&mut split, &mut client, &bytes[cut..], &shared);
                assert_eq!(replies(&mut client), want, "split at byte {cut}");
                assert!(!split.dead);
                assert!(split.rbuf.is_empty());
                assert!(
                    split.rbuf.capacity() <= RBUF_WATERMARK,
                    "split at byte {cut}: {} bytes of read buffer held",
                    split.rbuf.capacity()
                );
            }
        }
    }
}
