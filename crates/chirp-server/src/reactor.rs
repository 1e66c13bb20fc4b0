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
//! its shard's queue. Bulk leaves the shard: the shard parses, checks
//! and opens every request, and hands the long part to a pool of
//! threads beside the shards — a `THIRDPUT`'s push to another server,
//! a `GETFILE` body longer than one `READ_CHUNK` (sent by
//! [`Transport::send_file`], sendfile(2) on a socket), and whatever of
//! a `PUTFILE` body the shard has not already buffered. A body is
//! handed over only once every earlier reply has left, and the pool
//! moves it with blocking calls on a clone of the stream while the
//! shard leaves that stream alone, its readiness muted. The
//! connection's parser is parked meanwhile, exactly as under the write
//! cap, and the pool's answer re-enters the shard through the
//! ready-list. The pool grows whenever a handoff finds no thread idle,
//! so no handoff waits for a busy one: two servers pushing to each
//! other each need a thread for their own push and one for the other's
//! body.
//!
//! Nor does a small request wait behind bulk on the processor. A pool
//! thread copying a body shares a processor with a shard, and the
//! kernel lets a running thread finish its scheduler slice (1.4 ms by
//! default on a two-processor Linux 6.18) before it runs a thread that
//! woke. So each shard, as it starts, asks the kernel for the shortest
//! slice it grants, 100 µs (`sched_setattr`'s `sched_runtime`), and
//! keeps its policy and nice. A slice changes *when* a thread runs, not
//! *how much*: from Linux 6.12 on, a waking thread with a shorter slice
//! preempts the running one at once (`PREEMPT_SHORT`), while the
//! weights stay as they were. The pool's threads run on the kernel's
//! default slice; one that a shard spawns sets it back. An older kernel
//! ignores the request and a refusal is ignored, so the server serves
//! the same either way; `reactor.shard_slice_ns` reports the slice the
//! shards got, 0 for none.
//!
//! [`MemStream`]: chirp_proto::transport::MemStream
//! [`Listener`]: chirp_proto::transport::Listener
//! [`ReadyWatcher`]: chirp_proto::ready::ReadyWatcher

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chirp_proto::ready::{ReadyWatcher, Token, Watcher};
use chirp_proto::transport::Transport;
use chirp_proto::{ChirpError, ChirpResult, Request, MAX_LINE, MAX_PAYLOAD};
use telemetry::SpanTimer;

use crate::cache::PageSlice;
use crate::handlers::{push_thirdput, HostFile, PutfileUpload, Reply, Session, ThirdputPush};
use crate::server::Shared;

/// Token reserved for the poller's own wake channel.
const WAKE_TOKEN: Token = usize::MAX;
/// Bytes read from a stream per `read` call (the most a shard's read
/// scratch grows to); a file reply up to this long is sent inline, a
/// longer one by the pool.
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
/// queue buffer, and a pool thread's buffer for a `PUTFILE` body.
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
/// The scheduler slice a shard asks for, in nanoseconds: the shortest
/// the kernel grants a fair thread (it clamps a shorter one up to it).
const SHARD_SLICE_NS: u64 = 100_000;
/// How long a pool thread beyond the first ones waits for work before
/// it retires.
const IDLE_RETIRE: Duration = Duration::from_secs(5);

/// Blocking work, run by the pool off the serving shards.
type Job = Box<dyn FnOnce() + Send>;
/// A finished handoff: its connection's token and the pool's answer.
type Finished = (Token, Done);

/// The sharded reactor serving one [`crate::FileServer`].
pub(crate) struct Reactor {
    shards: Vec<Arc<Shard>>,
    /// The shard workers.
    threads: Mutex<Vec<JoinHandle<()>>>,
    pool: Arc<Pool>,
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

    /// Start the worker shards and, beside them, the pool: as many
    /// threads as shards to begin with, fed by every shard.
    pub(crate) fn start(shared: &Arc<Shared>) -> io::Result<Reactor> {
        let workers = Reactor::worker_count(shared.config.reactor_workers);
        let pool = Pool::start(workers)?;
        let mut shards = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let shard = Arc::new(Shard {
                shared: shared.clone(),
                poller: Arc::new(Poller::new()?),
                inbox: Mutex::new(Vec::new()),
            });
            shards.push(shard.clone());
            let pool = pool.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("chirp-react-{i}"))
                    .spawn(move || shard.run(pool))?,
            );
        }
        Ok(Reactor {
            shards,
            threads: Mutex::new(threads),
            pool,
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
    /// closes its connections, and exits) and join the workers, then
    /// the pool. Closing a connection severs every clone of its stream,
    /// so a body the pool is moving ends at once; a push ends by its
    /// own timeout.
    pub(crate) fn join(&self) {
        for shard in &self.shards {
            shard.poller.wake();
        }
        for handle in self.threads.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        self.pool.join();
    }
}

/// The pool: threads that run a connection's blocking work off the
/// shards. It starts with a fixed number of threads and grows whenever
/// a job finds none idle, so no job waits for a busy thread; a thread
/// it grew retires after [`IDLE_RETIRE`] without work. A connection has
/// at most one job in flight, so the pool never outgrows the
/// connections the server admits.
struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// A pool thread panicked holding the lock: a bug in a job.
const POISONED: &str = "pool lock poisoned";

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    /// Threads waiting for a job; each queued job has one of them.
    idle: usize,
    closed: bool,
    threads: Vec<JoinHandle<()>>,
    /// Threads started so far, to name the next one.
    started: usize,
}

impl Pool {
    fn start(threads: usize) -> io::Result<Arc<Pool>> {
        let pool = Arc::new(Pool {
            state: Mutex::default(),
            work: Condvar::new(),
        });
        for _ in 0..threads {
            pool.spawn(&mut pool.lock(), false)?;
        }
        Ok(pool)
    }

    fn spawn(self: &Arc<Pool>, st: &mut PoolState, retires: bool) -> io::Result<()> {
        let pool = self.clone();
        let thread = std::thread::Builder::new()
            .name(format!("chirp-push-{}", st.started))
            .spawn(move || pool.serve(retires))?;
        st.started += 1;
        // Collect the threads that retired.
        let (retired, live) = std::mem::take(&mut st.threads)
            .into_iter()
            .partition::<Vec<_>, _>(|t| t.is_finished());
        st.threads = live;
        st.threads.push(thread);
        for thread in retired {
            let _ = thread.join();
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().expect(POISONED)
    }

    /// Run `job` on an idle thread, or on a new one if none is idle.
    fn submit(self: &Arc<Pool>, job: Job) {
        let mut st = self.lock();
        let spare = st.idle > st.queue.len();
        st.queue.push_back(job);
        if spare {
            self.work.notify_one();
        } else {
            // Should the system refuse a thread, the job waits for the
            // next one to come free.
            let _ = self.spawn(&mut st, true);
        }
    }

    /// One thread's life: run jobs until the pool closes, or, for a
    /// thread that `retires`, until it has waited out [`IDLE_RETIRE`].
    fn serve(&self, retires: bool) {
        // A thread the pool grows is spawned by a shard and inherits
        // its short slice; a bulk copy runs on the kernel's default.
        sched_slice(0);
        let mut st = self.lock();
        loop {
            if let Some(job) = st.queue.pop_front() {
                drop(st);
                job();
                st = self.lock();
                continue;
            }
            if st.closed {
                return;
            }
            st.idle += 1;
            let (next, waited) = self.work.wait_timeout(st, IDLE_RETIRE).expect(POISONED);
            st = next;
            st.idle -= 1;
            if retires && waited.timed_out() && st.queue.is_empty() {
                return;
            }
        }
    }

    /// Close the pool and join every thread once the queued jobs ran.
    fn join(&self) {
        let threads = {
            let mut st = self.lock();
            st.closed = true;
            std::mem::take(&mut st.threads)
        };
        self.work.notify_all();
        for thread in threads {
            let _ = thread.join();
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

/// A shard's side of the pool: where it sends work, and where the pool
/// sends its answers back.
struct Outbound {
    pool: Arc<Pool>,
    done: Sender<Finished>,
}

impl Shard {
    fn run(self: Arc<Shard>, pool: Arc<Pool>) {
        let shared = &self.shared;
        shared
            .telemetry
            .reactor_shard_slice(sched_slice(SHARD_SLICE_NS));
        let (done, finished) = mpsc::channel();
        let out = Outbound { pool, done };
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
            // The pool's answer re-enters its connection, and the token
            // the pool put on the ready-list pumps it below. A
            // connection that retired meanwhile has nobody to answer.
            for (token, done) in finished.try_iter() {
                if let Some(conn) = conns.get_mut(&token) {
                    if matches!(conn.parked, Some(Parked::Lent)) {
                        self.unmute(conn);
                    }
                    conn.finish_handoff(shared, done);
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
            // descriptors. One whose work is out on the pool is not
            // idle: a push has its own timeout, and a body's transfer
            // has this one.
            if let Some(idle) = shared.config.idle_timeout {
                let now = Instant::now();
                let expired: Vec<Token> = conns
                    .iter()
                    .filter(|(_, c)| !c.on_pool() && now.duration_since(c.last_active) > idle)
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
                None => stream.register_ready(token, self.watcher()),
            };
        if !registered {
            let _ = stream.shutdown();
            self.shared.active.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(Conn::new(stream, peer, token, fd, &self.shared))
    }

    fn watcher(&self) -> Watcher {
        Arc::new(MemWatcher {
            poller: self.poller.clone(),
        })
    }

    /// Give a connection one turn: pump it, queue it for another turn
    /// if it yielded, reconcile its write interest, and hand work it
    /// parked on to the pool. A connection whose stream the pool holds
    /// is left alone until the pool answers.
    fn service(
        &self,
        conn: &mut Conn,
        out: &Outbound,
        yielded: &mut Vec<Token>,
        scratch: &mut Vec<u8>,
    ) {
        if matches!(conn.parked, Some(Parked::Lent)) {
            return;
        }
        if conn.pump(&self.shared, scratch) && !conn.yielded {
            conn.yielded = true;
            yielded.push(conn.token);
            self.shared.telemetry.reactor_yield();
        }
        self.sync_write_interest(conn);
        self.hand_off(conn, out);
    }

    /// Send the work a connection parked on to the pool: a push at
    /// once, a body once every earlier reply has left (so replies stay
    /// in order), together with a clone of the stream, whose readiness
    /// the shard then mutes.
    fn hand_off(&self, conn: &mut Conn, out: &Outbound) {
        let ready = match &conn.parked {
            Some(Parked::Waiting(Handoff::Push(..))) => true,
            Some(Parked::Waiting(Handoff::Body(_))) => conn.wq.is_empty(),
            _ => false,
        };
        if !ready || conn.dead {
            return;
        }
        let Some(Parked::Waiting(work)) = conn.parked.take() else {
            return;
        };
        let (token, poller, done) = (conn.token, self.poller.clone(), out.done.clone());
        let answer = move |answer: Done| {
            if done.send((token, answer)).is_ok() {
                poller.push_ready(token, false, false);
                poller.wake();
            }
        };
        let job: Job = match work {
            Handoff::Push(push, span) => {
                conn.parked = Some(Parked::Pushing);
                let shared = self.shared.clone();
                Box::new(move || answer(Done::Pushed(push_thirdput(&shared, push), span)))
            }
            Handoff::Body(body) => {
                let Ok(stream) = conn.stream.try_clone() else {
                    conn.dead = true;
                    return;
                };
                conn.parked = Some(Parked::Lent);
                self.mute(conn);
                let timeout = self.shared.config.idle_timeout;
                Box::new(move || answer(body.transfer(stream, timeout)))
            }
        };
        out.pool.submit(job);
    }

    /// Stop watching a connection whose stream the pool holds: a
    /// socket keeps its epoll entry with no events, a watcher stream
    /// loses its watcher.
    fn mute(&self, conn: &mut Conn) {
        match conn.fd {
            Some(fd) => {
                let _ = self.poller.mute_fd(fd, conn.token);
                conn.want_write = false;
            }
            None => conn.stream.deregister_ready(),
        }
    }

    /// Watch the connection again once the pool has answered. Whatever
    /// arrived meanwhile is reported again: by epoll's level
    /// triggering, or by the watcher's registration.
    fn unmute(&self, conn: &mut Conn) {
        match conn.fd {
            Some(fd) => {
                let _ = self.poller.mod_fd(fd, conn.token, false);
            }
            None => {
                conn.stream.register_ready(conn.token, self.watcher());
            }
        }
    }

    /// Reconcile a connection's epoll write interest with its queue:
    /// `EPOLLOUT` is armed only while untransmitted bytes wait on an
    /// unwritable stream (level-triggered `EPOLLOUT` would otherwise
    /// fire on every wait).
    fn sync_write_interest(&self, conn: &mut Conn) {
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
    /// Plain reply bytes: status lines, inline data.
    Bytes(Vec<u8>),
    /// One cache page's share of a scatter-gathered reply.
    Page(PageSlice),
}

impl WItem {
    fn buffer(&self) -> &[u8] {
        match self {
            WItem::Bytes(vec) => vec,
            WItem::Page(slice) => slice.as_slice(),
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
}

/// Work a connection hands to the pool.
enum Handoff {
    /// A `THIRDPUT`'s push to its target, and the request's span.
    Push(ThirdputPush, SpanTimer),
    /// A body the pool moves over the connection's own stream.
    Body(Body),
}

/// A body moved off the shard.
enum Body {
    /// A `GETFILE` body longer than one `READ_CHUNK`, behind its status
    /// line.
    Send(HostFile, u64),
    /// The part of a `PUTFILE` body the shard had not buffered, and the
    /// request's span.
    Receive(PutfileUpload, SpanTimer),
}

/// The pool's answer to a [`Handoff`].
enum Done {
    Pushed(ChirpResult<u64>, SpanTimer),
    Sent(io::Result<()>),
    Received(PutfileUpload, io::Result<()>, SpanTimer),
}

impl Body {
    /// Move the body over `stream`, the pool's clone of the connection:
    /// in blocking mode, each read and write bounded by `timeout`, and
    /// nonblocking again before the answer, so the shard never finds a
    /// stream that blocks.
    fn transfer(self, mut stream: Box<dyn Transport>, timeout: Option<Duration>) -> Done {
        let blocking = stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_read_timeout(timeout))
            .and_then(|()| stream.set_write_timeout(timeout));
        match self {
            Body::Send(file, len) => {
                let sent = blocking.and_then(|()| stream.send_file(file.file(), len));
                Done::Sent(sent.and(stream.set_nonblocking(true)))
            }
            Body::Receive(mut upload, span) => {
                let received = blocking.and_then(|()| receive(stream.as_mut(), &mut upload));
                Done::Received(upload, received.and(stream.set_nonblocking(true)), span)
            }
        }
    }
}

/// Read the rest of an upload's payload off a blocking stream into its
/// file, and not a byte past it: what follows is the next request.
fn receive(stream: &mut dyn Transport, upload: &mut PutfileUpload) -> io::Result<()> {
    // Larger than a shard's reads: a blocking read takes whatever has
    // arrived, and fewer, longer reads keep the upload's pace.
    let mut buf = vec![0u8; RBUF_CAP];
    while upload.remaining() > 0 {
        let want = upload.remaining().min(RBUF_CAP as u64) as usize;
        match stream.read(&mut buf[..want]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                upload.feed(&buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A connection waiting on the pool: no request is served until the
/// pool answers.
enum Parked {
    /// Work the shard has yet to hand over: a body waits for the
    /// replies ahead of it to leave.
    Waiting(Handoff),
    /// A push out on the pool; the shard still watches the stream.
    Pushing,
    /// A body out on the pool, which holds a blocking clone of the
    /// stream: the shard neither reads nor writes it, and its
    /// readiness is muted.
    Lent,
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
    /// The work this connection waits on the pool for.
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

    /// Whether the pool is doing this connection's work right now.
    fn on_pool(&self) -> bool {
        matches!(self.parked, Some(Parked::Pushing | Parked::Lent))
    }

    /// Take the pool's answer and queue the reply it completes, which
    /// lets the parser go on.
    fn finish_handoff(&mut self, shared: &Arc<Shared>, done: Done) {
        self.parked = None;
        // The transfer kept the connection busy, if not the shard.
        self.last_active = Instant::now();
        match done {
            Done::Pushed(reply, span) => {
                let reply = reply.map(|n| Reply::Value(n as i64));
                self.queue_reply(shared, "thirdput", 0, span, reply);
            }
            Done::Sent(Ok(())) => {}
            // The promised length can no longer be delivered.
            Done::Sent(Err(_)) => self.dead = true,
            Done::Received(upload, received, span) => {
                let bytes_in = upload.length();
                let settled = self.session.finish_putfile(upload);
                let reply = match received {
                    Ok(()) => settled,
                    // The peer left or stalled mid-body: framing is
                    // lost, so answer and close.
                    Err(e) => {
                        self.closing = true;
                        Err(ChirpError::from_io(&e))
                    }
                };
                self.queue_reply(shared, "putfile", bytes_in, span, reply);
            }
        }
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
            if let Some(parked) = &self.parked {
                // Waiting on the pool: earlier replies still drain and
                // later requests stay buffered, served in order once
                // the pool answers. A peer that hung up is not waited
                // for on a push, whose reply is then dropped; a body's
                // transfer finds out for itself.
                let push = matches!(parked, Parked::Pushing | Parked::Waiting(Handoff::Push(..)));
                if self.eof && push {
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
                // The part of the body already buffered is fed here,
                // and the pool receives the rest.
                let mut upload = self.session.begin_putfile(&path, mode, length);
                self.rpos += upload.feed(&self.rbuf[self.rpos..]);
                self.scan = self.scan.max(self.rpos);
                if upload.remaining() == 0 {
                    let reply = self.session.finish_putfile(upload);
                    self.queue_reply(shared, op, bytes_in, span, reply);
                } else {
                    let body = Body::Receive(upload, span);
                    self.parked = Some(Parked::Waiting(Handoff::Body(body)));
                }
            }
            Ok(Request::Thirdput {
                path,
                target,
                target_path,
            }) => match self.session.begin_thirdput(&path, &target, &target_path) {
                Ok(push) => self.parked = Some(Parked::Waiting(Handoff::Push(push, span))),
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

    /// Queue a reply's bytes and account for it: the reply write and
    /// the telemetry record.
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
            Ok(Reply::FileStream(file, len)) if len <= READ_CHUNK as u64 => {
                // Small enough to hold: read it in behind its status
                // line so both leave in one write. A file that shrank
                // under us kills the connection: the promised length
                // can no longer be delivered.
                let mut out = format!("{len}\n").into_bytes();
                out.reserve(len as usize);
                match file.file().take(len).read_to_end(&mut out) {
                    Ok(n) if n as u64 == len => self.push_bytes(out),
                    _ => self.dead = true,
                }
            }
            Ok(Reply::FileStream(file, len)) => {
                // Longer: the status line goes first, and the pool
                // sends the body behind it.
                self.push_bytes(format!("{len}\n").into_bytes());
                self.parked = Some(Parked::Waiting(Handoff::Body(Body::Send(file, len))));
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
    /// queue empties or the turn's budget is spent: every buffer, as
    /// far as the budget reaches, goes to the socket in one (vectored)
    /// write. Returns whether anything was written.
    fn drain_writes(&mut self, shared: &Arc<Shared>) -> bool {
        let mut writes = 0u64;
        while self.writable && !self.dead && self.turn_bytes < TURN_BYTES {
            let budget = TURN_BYTES - self.turn_bytes;
            let mut taken = 0;
            let ready = self
                .wq
                .iter()
                .take(MAX_IOV)
                .map(WItem::buffer)
                .take_while(|buf| {
                    let within = taken < budget;
                    taken += buf.len();
                    within
                })
                .count();
            if ready == 0 {
                break;
            }
            let mut buffers = self.wq.iter().map(WItem::buffer);
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
            let front = self
                .wq
                .front()
                .expect("the stream took bytes it was not given");
            let left = front.buffer().len() - self.whead;
            if n < left {
                self.whead += n;
                return;
            }
            n -= left;
            self.whead = 0;
            self.wq.pop_front();
        }
    }

    /// Read newly arrived bytes into the request buffer through the
    /// shard's `scratch`, up to the buffering cap or the turn's budget.
    /// Returns whether anything arrived (or EOF did).
    fn fill(&mut self, scratch: &mut Vec<u8>) -> bool {
        if let Some(Parked::Waiting(Handoff::Body(Body::Receive(..)))) = self.parked {
            // The bytes on the wire are a body the pool is to receive.
            return false;
        }
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

use sys::{sched_slice, Poller};

/// Vendored epoll + eventfd poller (Linux). Raw syscall bindings —
/// the workspace carries no libc crate; these symbols come from the
/// libc the standard library already links.
#[cfg(target_os = "linux")]
mod sys_epoll {
    use super::WAKE_TOKEN;
    use chirp_proto::ready::Token;
    use std::io;
    use std::os::raw::{c_int, c_long, c_void};
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
            poller.ctl(EPOLL_CTL_ADD, wakefd, WAKE_TOKEN, EPOLLIN)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: c_int, token: Token, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        fn interest(want_write: bool) -> u32 {
            EPOLLIN | EPOLLRDHUP | if want_write { EPOLLOUT } else { 0 }
        }

        pub(crate) fn add_fd(&self, fd: i32, token: Token, want_write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, Poller::interest(want_write))
        }

        pub(crate) fn mod_fd(&self, fd: i32, token: Token, want_write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, Poller::interest(want_write))
        }

        /// Keep `fd` in the set but ask for no events (the kernel still
        /// reports an error or hangup).
        pub(crate) fn mute_fd(&self, fd: i32, token: Token) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, 0)
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

    /// `sched_getattr`/`sched_setattr` (glibc 2.36 wraps neither).
    #[cfg(target_arch = "x86_64")]
    const SCHED_ATTR_CALLS: Option<(c_long, c_long)> = Some((315, 314));
    #[cfg(target_arch = "aarch64")]
    const SCHED_ATTR_CALLS: Option<(c_long, c_long)> = Some((275, 274));
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    const SCHED_ATTR_CALLS: Option<(c_long, c_long)> = None;

    extern "C" {
        fn syscall(number: c_long, ...) -> c_long;
    }

    /// A thread's scheduling attributes, the kernel's first
    /// (`SCHED_ATTR_SIZE_VER0`) layout. For a fair-class thread on
    /// Linux ≥ 6.12, `runtime` is its slice.
    #[repr(C)]
    #[derive(Debug, Default)]
    pub(crate) struct SchedAttr {
        size: u32,
        pub(crate) policy: u32,
        flags: u64,
        pub(crate) nice: i32,
        priority: u32,
        pub(crate) runtime: u64,
        deadline: u64,
        period: u64,
    }

    /// The scheduling attributes of thread `tid` (0: the caller).
    pub(crate) fn sched_attr(tid: i32) -> Option<SchedAttr> {
        let (get, _) = SCHED_ATTR_CALLS?;
        let mut attr = SchedAttr::default();
        let size = std::mem::size_of::<SchedAttr>() as c_long;
        // SAFETY: `attr` is a live, writable `SchedAttr` and `size` is
        // its size, the most the kernel writes; it keeps no pointer.
        let rc = unsafe {
            syscall(
                get,
                tid as c_long,
                &mut attr as *mut SchedAttr,
                size,
                0 as c_long,
            )
        };
        (rc == 0).then_some(attr)
    }

    /// Ask the kernel to run the calling thread on a slice of `ns`
    /// nanoseconds (0: the kernel's default), keeping its policy and
    /// nice: writing nice 0 back into a niced thread would be refused.
    /// Returns the slice the kernel then reports, or 0 if it refused;
    /// a kernel before 6.12 ignores the slice of a fair thread and
    /// reports 0 too.
    pub(crate) fn sched_slice(ns: u64) -> u64 {
        let (Some((_, set)), Some(mut attr)) = (SCHED_ATTR_CALLS, sched_attr(0)) else {
            return 0;
        };
        attr.runtime = ns;
        // SAFETY: `attr` is a live `SchedAttr` whose `size` field the
        // kernel filled in with this layout's size; the call only reads
        // it and keeps no pointer.
        let rc = unsafe { syscall(set, 0 as c_long, &attr as *const SchedAttr, 0 as c_long) };
        match sched_attr(0) {
            Some(now) if rc == 0 => now.runtime,
            _ => 0,
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

        pub(crate) fn mute_fd(&self, _fd: i32, _token: Token) -> io::Result<()> {
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

    /// No scheduler slice to ask for here: report it unsupported.
    pub(crate) fn sched_slice(_ns: u64) -> u64 {
        0
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests lay out the export before a server starts on it"
)]
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

    /// The slice a shard is granted: 100 µs on a kernel with custom
    /// slices for fair threads (Linux ≥ 6.12), 0 before.
    #[cfg(target_os = "linux")]
    fn granted_slice() -> u64 {
        let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap();
        let mut numbers = release.split(['.', '-']).map(|n| n.parse().unwrap_or(0));
        let version: (u32, u32) = (numbers.next().unwrap_or(0), numbers.next().unwrap_or(0));
        if version >= (6, 12) {
            SHARD_SLICE_NS
        } else {
            0
        }
    }

    /// Wait until at least `count` threads of this process have names
    /// starting with `prefix` (a thread names itself once it runs), then
    /// until every one of them reports a slice of `want` (it asks for
    /// its slice just after).
    #[cfg(target_os = "linux")]
    fn assert_slices(prefix: &str, count: usize, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let named = || -> Vec<(i32, String)> {
            let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
            tasks
                .filter_map(|task| {
                    let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
                    let tid = task.file_name().to_str()?.parse().ok()?;
                    comm.starts_with(prefix)
                        .then(|| (tid, comm.trim().to_string()))
                })
                .collect()
        };
        let mut threads = named();
        while threads.len() < count {
            assert!(Instant::now() < deadline, "{prefix}*: {threads:?}");
            std::thread::sleep(Duration::from_millis(1));
            threads = named();
        }
        for (tid, name) in threads {
            // A thread that exited meanwhile reports nothing.
            while let Some(attr) = sys::sched_attr(tid) {
                if attr.runtime == want {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{name} (thread {tid}) runs on a {} ns slice, not {want}",
                    attr.runtime
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// The slice the kernel gives a thread that asks for none.
    #[cfg(target_os = "linux")]
    fn default_slice() -> u64 {
        std::thread::spawn(|| sched_slice(0)).join().unwrap()
    }

    /// The hint changes a thread's slice and nothing else: a thread at
    /// nice 5 keeps nice 5 and `SCHED_OTHER`. (Raising one's own nice
    /// needs no privilege.)
    #[test]
    #[cfg(target_os = "linux")]
    fn the_slice_hint_keeps_policy_and_nice() {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        const PRIO_PROCESS: i32 = 0;
        const SCHED_OTHER: u32 = 0;
        std::thread::spawn(|| {
            let nice = sys::sched_attr(0).unwrap().nice.max(5);
            // On Linux `who` 0 is the calling thread, not the process.
            // SAFETY: a plain call with integer arguments.
            assert_eq!(unsafe { setpriority(PRIO_PROCESS, 0, nice) }, 0);
            assert_eq!(sched_slice(SHARD_SLICE_NS), granted_slice());
            let attr = sys::sched_attr(0).unwrap();
            assert_eq!(
                (attr.policy, attr.nice, attr.runtime),
                (SCHED_OTHER, nice, granted_slice())
            );
        })
        .join()
        .unwrap();
    }

    /// In a running server every shard runs on the short slice and
    /// reports it, and every pool thread runs on the kernel's default.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_server_shortens_its_shards_slices_only() {
        let dir = TempDir::new();
        let mut cfg = ServerConfig::localhost(dir.path(), "o");
        cfg.reactor_workers = 2;
        let mut server = crate::FileServer::start(cfg).unwrap();
        let gauge = server
            .telemetry()
            .registry()
            .gauge("reactor.shard_slice_ns");
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge.get() as u64 != granted_slice() {
            assert!(Instant::now() < deadline, "shards report {}", gauge.get());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_slices("chirp-react-", 2, granted_slice());
        assert_slices("chirp-push-", 2, default_slice());
        server.shutdown();
    }

    /// A thread the pool grows is spawned by a shard, whose short slice
    /// it would inherit: it runs on the default all the same.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_pool_thread_grown_by_a_shard_keeps_the_default_slice() {
        let pool = Pool::start(0).unwrap();
        let (tx, rx) = mpsc::channel();
        let grower = pool.clone();
        std::thread::spawn(move || {
            assert_eq!(sched_slice(SHARD_SLICE_NS), granted_slice());
            grower.submit(Box::new(move || {
                tx.send(sys::sched_attr(0).unwrap().runtime).unwrap();
            }));
        })
        .join()
        .unwrap();
        assert_eq!(rx.recv().unwrap(), default_slice());
        pool.join();
    }
}
