//! Deterministic fault injection for the Chirp protocol, at the
//! [`Dialer`] seam every client connection is opened through.
//!
//! The paper's resource layer is defined as much by its failure
//! semantics as by its RPCs: a Chirp disconnect closes every open file,
//! and the abstraction layer (CFS, DPFS) is responsible for masking
//! resource loss. Testing that masking requires faults on demand, so
//! [`FaultDialer`] wraps the client's own [`Dialer`] — real TCP
//! ([`Dialer::tcp`]) or the in-memory network ([`MemNet::dialer`]) —
//! and every stream it produces is a [`FaultTransport`] that injects
//! failures according to a [`FaultPlan`]: drop the stream mid-frame,
//! delay a request, truncate or corrupt a reply, or black-hole a
//! request (accept it, never answer). [`RouteDialer`] points a plan at
//! one server while its peers are reached cleanly.
//!
//! Determinism: every random decision comes from a [`rand::rngs::SmallRng`]
//! seeded from the plan (`FaultPlan::new(seed)`); there is no
//! wall-clock randomness. Counter-based triggers ([`FaultTrigger::NthRpc`]
//! and friends) are exact on a single connection; under concurrent
//! connections the RPC interleaving is scheduler-dependent, so chaos
//! tests assert *outcomes* (data integrity, bounded retries), not which
//! specific RPC a fault landed on.
//!
//! The transport is frame-aware on the client→server direction: it
//! parses each request line as it is written, knows that
//! `PWRITE`/`PUTFILE` carry a payload of the length named on the line,
//! and counts whole RPCs. Replies are read back opaquely, with
//! per-connection flags ("corrupt the next reply chunk", "truncate
//! it") set by the request side: the next bytes read after a flagged
//! request are that request's reply when RPCs go one at a time, and
//! otherwise an earlier reply still in flight, damaged the same way.
//!
//! * **Kill mid-frame** forwards half the request line (or the whole
//!   line plus half the payload) and severs the stream.
//! * **Delay** sleeps on the injected [`Clock`] — wall time over TCP,
//!   simulated time under the harness, where a ten-second stall costs
//!   nothing real.
//! * **Truncate / corrupt reply** mark the connection; the next bytes
//!   read back are cut in half or have their high bits flipped, then
//!   the stream dies.
//! * **Black hole** swallows the request and everything after it; the
//!   connection stays open but mute, and each read charges the
//!   configured read timeout to the clock before failing with
//!   [`io::ErrorKind::TimedOut`] — the client's timeout machinery sees
//!   exactly what a mute server would produce.
//!
//! [`MemNet::dialer`]: chirp_proto::MemNet::dialer

#![warn(missing_docs)]

use std::fmt;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chirp_proto::transport::{Dial, Dialer, Transport};
use chirp_proto::Clock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a fired fault does to the connection it fires on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Forward only part of the request frame, then sever both
    /// directions — the server sees a torn request, the client sees a
    /// dead socket mid-RPC.
    KillMidFrame,
    /// Hold the request for the given duration before forwarding it.
    Delay(Duration),
    /// Forward the request, then sever after relaying only part of the
    /// reply — the client sees a frame that ends early.
    TruncateReply,
    /// Forward the request, flip high bits in the first bytes of the
    /// reply, then sever. The damaged status line is unparseable, which
    /// the client must treat as a transport failure, not a protocol
    /// verdict.
    CorruptReply,
    /// Swallow the request and everything after it without forwarding;
    /// the connection stays open but the server never sees the RPC and
    /// the client never gets a reply (it must rely on its own timeout).
    BlackHole,
}

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// On the `n`th RPC (1-based) observed across the whole dialer.
    NthRpc(u64),
    /// On every `n`th RPC observed across the whole dialer.
    EveryNthRpc(u64),
    /// On the first RPC of the `n`th dialed connection (1-based).
    NthConnection(u64),
    /// On each RPC independently with probability `p`, drawn from the
    /// plan's seeded RNG.
    Probability(f64),
}

/// One trigger/action pair with an optional cap on how often it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What to do.
    pub action: FaultAction,
    /// Maximum number of firings; `0` means unlimited.
    pub max_fires: u64,
}

impl FaultRule {
    /// A rule with unlimited firings.
    pub fn new(trigger: FaultTrigger, action: FaultAction) -> Self {
        FaultRule {
            trigger,
            action,
            max_fires: 0,
        }
    }

    /// Cap the number of times this rule may fire.
    pub fn max_fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }
}

/// A seeded set of fault rules. Rules are consulted in order; the first
/// eligible rule that triggers fires, and at most one rule fires per
/// RPC.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (a transparent dialer) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule with unlimited firings.
    pub fn rule(mut self, trigger: FaultTrigger, action: FaultAction) -> Self {
        self.rules.push(FaultRule::new(trigger, action));
        self
    }

    /// Append a pre-built rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// Counters published by a [`FaultDialer`], all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Connections dialed.
    pub connections: u64,
    /// Whole RPCs observed on the client→server direction.
    pub rpcs: u64,
    /// Faults fired, by action.
    pub kills: u64,
    /// Delays applied.
    pub delays: u64,
    /// Replies truncated.
    pub truncates: u64,
    /// Replies corrupted.
    pub corruptions: u64,
    /// Requests black-holed.
    pub blackholes: u64,
}

/// The dialer's counters live in a telemetry registry (`fault.*`
/// names) so chaos runs can snapshot injected faults alongside the
/// client's recovery counters; these are the prebuilt handles.
struct StatCells {
    registry: telemetry::Registry,
    connections: telemetry::Counter,
    rpcs: telemetry::Counter,
    kills: telemetry::Counter,
    delays: telemetry::Counter,
    truncates: telemetry::Counter,
    corruptions: telemetry::Counter,
    blackholes: telemetry::Counter,
}

impl Default for StatCells {
    fn default() -> StatCells {
        let registry = telemetry::Registry::default();
        StatCells {
            connections: registry.counter("fault.connections"),
            rpcs: registry.counter("fault.rpcs"),
            kills: registry.counter("fault.kills"),
            delays: registry.counter("fault.delays"),
            truncates: registry.counter("fault.truncates"),
            corruptions: registry.counter("fault.corruptions"),
            blackholes: registry.counter("fault.blackholes"),
            registry,
        }
    }
}

impl StatCells {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            connections: self.connections.get(),
            rpcs: self.rpcs.get(),
            kills: self.kills.get(),
            delays: self.delays.get(),
            truncates: self.truncates.get(),
            corruptions: self.corruptions.get(),
            blackholes: self.blackholes.get(),
        }
    }
}

/// Shared trigger state: the seeded RNG and the global counters the
/// triggers consult. One lock keeps rule evaluation atomic per RPC.
struct Decider {
    rng: SmallRng,
    rpc_count: u64,
    conn_count: u64,
    fires: Vec<u64>,
}

struct PlanState {
    rules: Vec<FaultRule>,
    /// When false the dialer forwards transparently (counters still
    /// advance); flipped by [`FaultDialer::set_armed`].
    armed: AtomicBool,
    decider: Mutex<Decider>,
}

impl PlanState {
    fn next_conn(&self) -> u64 {
        let mut d = self.decider.lock().unwrap();
        d.conn_count += 1;
        d.conn_count
    }

    /// Called once per observed RPC; returns the action to apply, if
    /// any. `first_rpc_of_conn` carries the connection ordinal when
    /// this is the connection's first RPC.
    fn decide(&self, first_rpc_of_conn: Option<u64>) -> Option<FaultAction> {
        let mut d = self.decider.lock().unwrap();
        d.rpc_count += 1;
        let rpc = d.rpc_count;
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.max_fires > 0 && d.fires[i] >= rule.max_fires {
                continue;
            }
            let hit = match rule.trigger {
                FaultTrigger::NthRpc(n) => rpc == n,
                FaultTrigger::EveryNthRpc(n) => n > 0 && rpc.is_multiple_of(n),
                FaultTrigger::NthConnection(n) => first_rpc_of_conn == Some(n),
                FaultTrigger::Probability(p) => d.rng.gen_bool(p),
            };
            if hit {
                d.fires[i] += 1;
                return Some(rule.action);
            }
        }
        None
    }
}

/// Payload length named on a request line, for the two verbs that
/// carry one (`PWRITE fd length offset`, `PUTFILE path mode length`).
fn payload_len(line: &[u8]) -> u64 {
    let Ok(text) = std::str::from_utf8(line) else {
        return 0;
    };
    let mut words = text.split_ascii_whitespace();
    match words.next() {
        Some("PWRITE") => words.nth(1).and_then(|w| w.parse().ok()).unwrap_or(0),
        Some("PUTFILE") => words.nth(2).and_then(|w| w.parse().ok()).unwrap_or(0),
        _ => 0,
    }
}

/// A [`Dial`] wrapper injecting faults per a [`FaultPlan`].
///
/// Construct with [`FaultDialer::new`], hand [`FaultDialer::dialer`]
/// to the client configuration, and keep the `Arc` to inspect
/// [`stats`](FaultDialer::stats) and [`fires`](FaultDialer::fires) or
/// to [`set_armed`](FaultDialer::set_armed) mid-test.
pub struct FaultDialer {
    inner: Dialer,
    clock: Clock,
    stats: Arc<StatCells>,
    state: Arc<PlanState>,
}

impl FaultDialer {
    /// Wrap `inner`, applying `plan` to every connection dialed.
    /// Delays and black-hole timeouts are charged to `clock`.
    pub fn new(inner: Dialer, clock: Clock, plan: FaultPlan) -> Arc<FaultDialer> {
        Arc::new(FaultDialer {
            inner,
            clock,
            stats: Arc::new(StatCells::default()),
            state: Arc::new(PlanState {
                armed: AtomicBool::new(true),
                decider: Mutex::new(Decider {
                    rng: SmallRng::seed_from_u64(plan.seed),
                    rpc_count: 0,
                    conn_count: 0,
                    fires: vec![0; plan.rules.len()],
                }),
                rules: plan.rules,
            }),
        })
    }

    /// A [`Dialer`] handle on this wrapper, for client configurations.
    pub fn dialer(self: &Arc<Self>) -> Dialer {
        Dialer::from_arc(self.clone())
    }

    /// Disarm (or re-arm) fault injection; a disarmed dialer forwards
    /// transparently while its counters keep advancing.
    pub fn set_armed(&self, armed: bool) {
        self.state.armed.store(armed, Ordering::SeqCst);
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        self.stats.snapshot()
    }

    /// Total rule firings so far (every fired fault, across all rules).
    /// Chaos tests compare this against the client's observed retry
    /// and failover counters: N injected faults must surface as at
    /// least N recovery actions somewhere downstream.
    pub fn fires(&self) -> u64 {
        self.state.decider.lock().unwrap().fires.iter().sum()
    }

    /// Per-rule firing counts, in plan order.
    pub fn fires_by_rule(&self) -> Vec<u64> {
        self.state.decider.lock().unwrap().fires.clone()
    }

    /// The telemetry registry behind [`FaultDialer::stats`] (`fault.*`
    /// counters), for folding a chaos run's injected-fault counts into
    /// one snapshot with the client's recovery metrics.
    pub fn telemetry(&self) -> &telemetry::Registry {
        &self.stats.registry
    }
}

impl fmt::Debug for FaultDialer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FaultDialer(..)")
    }
}

impl Dial for FaultDialer {
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        let inner = self.inner.dial(endpoint, timeout)?;
        self.stats.connections.inc();
        let conn_index = self.state.next_conn();
        Ok(Box::new(FaultTransport {
            inner,
            conn: Arc::new(ConnState {
                state: self.state.clone(),
                stats: self.stats.clone(),
                clock: self.clock.clone(),
                conn_index,
                killed: AtomicBool::new(false),
                blackholed: AtomicBool::new(false),
                corrupt_next: AtomicBool::new(false),
                truncate_next: AtomicBool::new(false),
                parser: Mutex::new(Parser {
                    line: Vec::new(),
                    payload_left: 0,
                    kill_after_payload: false,
                    first_rpc: true,
                }),
            }),
        }))
    }
}

/// Per-connection injection state, shared by every clone of the
/// stream (reader and writer halves see one set of flags).
struct ConnState {
    state: Arc<PlanState>,
    stats: Arc<StatCells>,
    clock: Clock,
    conn_index: u64,
    /// The stream has been severed by a fault; writes fail, reads see
    /// end-of-stream.
    killed: AtomicBool,
    /// Everything written from here on is swallowed; reads time out.
    blackholed: AtomicBool,
    corrupt_next: AtomicBool,
    truncate_next: AtomicBool,
    parser: Mutex<Parser>,
}

/// Frame parser for the client→server direction: accumulate one
/// request line, decide a fault on completion, then track how much of
/// the frame's payload remains to forward.
struct Parser {
    line: Vec<u8>,
    payload_left: u64,
    /// Sever once `payload_left` drains (kill-mid-frame on a frame
    /// that carries a payload: forward line + half payload, then die).
    kill_after_payload: bool,
    first_rpc: bool,
}

/// A [`Transport`] whose request frames and replies are subject to a
/// [`FaultPlan`]. Produced by [`FaultDialer`]; not constructed
/// directly.
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    conn: Arc<ConnState>,
}

impl fmt::Debug for FaultTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultTransport")
            .field("conn_index", &self.conn.conn_index)
            .finish_non_exhaustive()
    }
}

impl FaultTransport {
    fn sever(&self) {
        self.conn.killed.store(true, Ordering::SeqCst);
        let _ = self.inner.shutdown();
    }
}

impl Read for FaultTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.conn.killed.load(Ordering::SeqCst) {
            return Ok(0);
        }
        if self.conn.blackholed.load(Ordering::SeqCst) {
            // A mute server: the client waits out its own read timeout.
            // Charge it to the clock (instant under simulation) and
            // fail the way an expired socket timeout does.
            if let Ok(Some(t)) = self.inner.read_timeout() {
                self.conn.clock.sleep(t);
            }
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "black-holed connection",
            ));
        }
        let n = self.inner.read(buf)?;
        if n > 0 && self.conn.corrupt_next.swap(false, Ordering::SeqCst) {
            // Flip high bits in the leading bytes: the status line
            // becomes unparseable, then the stream dies.
            for b in buf.iter_mut().take(n.min(4)) {
                *b |= 0x80;
            }
            self.conn.stats.corruptions.inc();
            self.sever();
            return Ok(n);
        }
        if n > 0 && self.conn.truncate_next.swap(false, Ordering::SeqCst) {
            self.conn.stats.truncates.inc();
            self.sever();
            return Ok(n / 2);
        }
        Ok(n)
    }
}

impl Write for FaultTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.conn.killed.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection severed by fault",
            ));
        }
        if self.conn.blackholed.load(Ordering::SeqCst) {
            return Ok(buf.len());
        }
        // Hold the parser lock via a cloned Arc so `frame_complete`
        // can borrow `self` mutably while the guard lives.
        let conn = self.conn.clone();
        let mut parser = conn.parser.lock().unwrap();
        let mut consumed = 0;
        while consumed < buf.len() {
            // Once a fault fires mid-buffer, accept the rest of the
            // caller's bytes silently (they went to a socket that is
            // now reset); the *next* write observes the severed state.
            if self.conn.killed.load(Ordering::SeqCst)
                || self.conn.blackholed.load(Ordering::SeqCst)
            {
                return Ok(buf.len());
            }
            if parser.payload_left > 0 {
                let want = (buf.len() - consumed).min(parser.payload_left as usize);
                self.inner.write_all(&buf[consumed..consumed + want])?;
                parser.payload_left -= want as u64;
                consumed += want;
                if parser.payload_left == 0 && parser.kill_after_payload {
                    parser.kill_after_payload = false;
                    self.conn.stats.kills.inc();
                    self.sever();
                }
                continue;
            }
            // Accumulate the request line.
            let rest = &buf[consumed..];
            match rest.iter().position(|&b| b == b'\n') {
                None => {
                    parser.line.extend_from_slice(rest);
                    consumed = buf.len();
                }
                Some(pos) => {
                    parser.line.extend_from_slice(&rest[..=pos]);
                    consumed += pos + 1;
                    self.frame_complete(&mut parser)?;
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.conn.killed.load(Ordering::SeqCst) || self.conn.blackholed.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.inner.flush()
    }
}

impl FaultTransport {
    /// One whole request line is buffered in `parser.line`: count it,
    /// consult the plan, and forward (or sabotage) the frame.
    fn frame_complete(&mut self, parser: &mut Parser) -> io::Result<()> {
        let line = std::mem::take(&mut parser.line);
        self.conn.stats.rpcs.inc();
        let body = payload_len(&line[..line.len() - 1]);
        let first = parser.first_rpc.then_some(self.conn.conn_index);
        parser.first_rpc = false;
        match self.conn.state.decide(first) {
            Some(FaultAction::Delay(d)) => {
                self.conn.stats.delays.inc();
                self.conn.clock.sleep(d);
            }
            Some(FaultAction::KillMidFrame) => {
                if body > 0 {
                    // Forward the whole line, then die halfway through
                    // the payload (which has not been written yet).
                    self.inner.write_all(&line)?;
                    parser.payload_left = body / 2;
                    parser.kill_after_payload = true;
                    if parser.payload_left == 0 {
                        parser.kill_after_payload = false;
                        self.conn.stats.kills.inc();
                        self.sever();
                    }
                } else {
                    self.conn.stats.kills.inc();
                    self.inner.write_all(&line[..line.len() / 2])?;
                    self.sever();
                }
                return Ok(());
            }
            Some(FaultAction::TruncateReply) => {
                self.conn.truncate_next.store(true, Ordering::SeqCst);
            }
            Some(FaultAction::CorruptReply) => {
                self.conn.corrupt_next.store(true, Ordering::SeqCst);
            }
            Some(FaultAction::BlackHole) => {
                self.conn.stats.blackholes.inc();
                self.conn.blackholed.store(true, Ordering::SeqCst);
                return Ok(());
            }
            None => {}
        }
        self.inner.write_all(&line)?;
        parser.payload_left = body;
        Ok(())
    }
}

impl Transport for FaultTransport {
    fn try_clone(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(FaultTransport {
            inner: self.inner.try_clone()?,
            conn: self.conn.clone(),
        }))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn read_timeout(&self) -> io::Result<Option<Duration>> {
        self.inner.read_timeout()
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }

    fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn shutdown(&self) -> io::Result<()> {
        self.conn.killed.store(true, Ordering::SeqCst);
        self.inner.shutdown()
    }
}

/// A dialer routing chosen endpoints through designated dialers and
/// everything else through a default — how a test points one
/// [`FaultPlan`] at one server while its peers stay clean.
pub struct RouteDialer {
    routes: Vec<(String, Dialer)>,
    fallback: Dialer,
}

impl RouteDialer {
    /// Route every endpoint through `fallback` until [`route`]d
    /// otherwise.
    ///
    /// [`route`]: RouteDialer::route
    pub fn new(fallback: Dialer) -> RouteDialer {
        RouteDialer {
            routes: Vec::new(),
            fallback,
        }
    }

    /// Route `endpoint` through `via`. Returns `self` for chaining.
    pub fn route(mut self, endpoint: &str, via: Dialer) -> RouteDialer {
        self.routes.push((endpoint.to_string(), via));
        self
    }

    /// Finish into a [`Dialer`] handle.
    pub fn dialer(self) -> Dialer {
        Dialer::from_arc(Arc::new(self))
    }
}

impl Dial for RouteDialer {
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        for (ep, via) in &self.routes {
            if ep == endpoint {
                return via.dial(endpoint, timeout);
            }
        }
        self.fallback.dial(endpoint, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::transport::Listener;
    use chirp_proto::MemNet;
    use std::io::{BufRead, BufReader};

    /// A line server over the in-memory network: `PING x` → `PONG x`,
    /// `PWRITE fd len off` + payload → the payload length. Each
    /// connection is served on its own thread.
    fn spawn_line_server(net: &MemNet) -> (String, std::thread::JoinHandle<()>) {
        let listener = net.listen();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || serve_lines(stream));
            }
        });
        (addr, handle)
    }

    fn serve_lines(stream: Box<dyn Transport>) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let words: Vec<&str> = line.split_ascii_whitespace().collect();
            let reply = match words.first().copied() {
                Some("PING") => format!("PONG {}\n", words.get(1).unwrap_or(&"")),
                Some("PWRITE") => {
                    let len: u64 = words.get(2).and_then(|w| w.parse().ok()).unwrap_or(0);
                    let mut payload = vec![0u8; len as usize];
                    if reader.read_exact(&mut payload).is_err() {
                        break;
                    }
                    format!("{len}\n")
                }
                _ => "-1\n".to_string(),
            };
            if writer.write_all(reply.as_bytes()).is_err() {
                break;
            }
            let _ = writer.flush();
        }
    }

    fn connect(
        fd: &Arc<FaultDialer>,
        addr: &str,
    ) -> (BufReader<Box<dyn Transport>>, Box<dyn Transport>) {
        let stream = fd.dialer().dial(addr, Duration::from_secs(5)).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    fn rpc(
        reader: &mut BufReader<Box<dyn Transport>>,
        writer: &mut Box<dyn Transport>,
        req: &str,
    ) -> io::Result<String> {
        writer.write_all(req.as_bytes())?;
        writer.flush()?;
        let mut reply = String::new();
        let n = reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply.trim_end().to_string())
    }

    #[test]
    fn transparent_when_plan_is_empty() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), FaultPlan::new(1));
        let (mut r, mut w) = connect(&fd, &addr);
        assert_eq!(rpc(&mut r, &mut w, "PING a\n").unwrap(), "PONG a");
        assert_eq!(rpc(&mut r, &mut w, "PING b\n").unwrap(), "PONG b");
        let s = fd.stats();
        assert_eq!(s.rpcs, 2);
        assert_eq!(fd.fires(), 0);
    }

    #[test]
    fn kill_mid_frame_tears_the_stream() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(FaultTrigger::NthRpc(2), FaultAction::KillMidFrame);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        let (mut r, mut w) = connect(&fd, &addr);
        assert_eq!(rpc(&mut r, &mut w, "PING a\n").unwrap(), "PONG a");
        // The second RPC dies: either the write fails or the reply
        // never comes (torn frame ⇒ EOF).
        let err = rpc(&mut r, &mut w, "PING b\n").unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::BrokenPipe
            ),
            "unexpected error: {err:?}"
        );
        assert_eq!(fd.stats().kills, 1);
    }

    #[test]
    fn kill_mid_frame_with_payload_forwards_half() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(FaultTrigger::NthRpc(1), FaultAction::KillMidFrame);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        let (mut r, mut w) = connect(&fd, &addr);
        let err = rpc(&mut r, &mut w, &format!("PWRITE 3 8 0\n{}", "ABCDEFGH")).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::UnexpectedEof | io::ErrorKind::BrokenPipe
        ));
        assert_eq!(fd.stats().kills, 1);
        // Subsequent writes observe the severed stream.
        assert!(w.write_all(b"PING x\n").is_err());
    }

    #[test]
    fn delay_charges_the_virtual_clock() {
        let clock = Clock::fresh_virtual();
        let net = MemNet::new(clock.clone());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(
            FaultTrigger::NthRpc(1),
            FaultAction::Delay(Duration::from_secs(30)),
        );
        let fd = FaultDialer::new(net.dialer(), clock.clone(), plan);
        let (mut r, mut w) = connect(&fd, &addr);
        let t0 = clock.now();
        let wall = std::time::Instant::now();
        assert_eq!(rpc(&mut r, &mut w, "PING a\n").unwrap(), "PONG a");
        assert!(clock.elapsed_since(t0) >= Duration::from_secs(30));
        assert!(wall.elapsed() < Duration::from_secs(5));
        assert_eq!(fd.stats().delays, 1);
    }

    #[test]
    fn blackhole_times_out_on_simulated_clock() {
        let clock = Clock::fresh_virtual();
        let net = MemNet::new(clock.clone());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(FaultTrigger::NthRpc(2), FaultAction::BlackHole);
        let fd = FaultDialer::new(net.dialer(), clock.clone(), plan);
        let (mut r, mut w) = connect(&fd, &addr);
        assert_eq!(rpc(&mut r, &mut w, "PING a\n").unwrap(), "PONG a");
        let t0 = clock.now();
        let err = rpc(&mut r, &mut w, "PING b\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The 200ms read timeout was charged to simulated time.
        assert!(clock.elapsed_since(t0) >= Duration::from_millis(200));
        assert_eq!(fd.stats().blackholes, 1);
    }

    #[test]
    fn corrupt_reply_flips_high_bits_then_dies() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(FaultTrigger::NthRpc(1), FaultAction::CorruptReply);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        let (mut r, mut w) = connect(&fd, &addr);
        w.write_all(b"PING a\n").unwrap();
        w.flush().unwrap();
        let mut reply = Vec::new();
        let _ = r.read_until(b'\n', &mut reply);
        assert!(
            reply.iter().take(4).all(|&b| b & 0x80 != 0),
            "leading bytes not corrupted: {reply:?}"
        );
        assert_eq!(fd.stats().corruptions, 1);
    }

    #[test]
    fn truncate_reply_halves_the_first_chunk() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(FaultTrigger::NthRpc(1), FaultAction::TruncateReply);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        let (mut r, mut w) = connect(&fd, &addr);
        w.write_all(b"PING abcdefgh\n").unwrap();
        w.flush().unwrap();
        let mut reply = Vec::new();
        let _ = r.read_until(b'\n', &mut reply);
        // "PONG abcdefgh\n" is 14 bytes; we must see strictly fewer,
        // with no trailing newline (the frame ends early).
        assert!(reply.len() < 14, "reply not truncated: {reply:?}");
        assert_eq!(fd.stats().truncates, 1);
    }

    #[test]
    fn disarmed_dialer_is_transparent_until_rearmed() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).rule(FaultTrigger::EveryNthRpc(1), FaultAction::KillMidFrame);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        fd.set_armed(false);
        let (mut r, mut w) = connect(&fd, &addr);
        for i in 0..5 {
            assert_eq!(
                rpc(&mut r, &mut w, &format!("PING {i}\n")).unwrap(),
                format!("PONG {i}")
            );
        }
        assert_eq!(fd.fires(), 0);
        assert_eq!(fd.stats().rpcs, 5);
        // Re-armed, the plan fires on the same connection.
        fd.set_armed(true);
        assert!(rpc(&mut r, &mut w, "PING x\n").is_err());
        assert_eq!(fd.stats().kills, 1);
        assert_eq!(fd.stats().rpcs, 6);
    }

    #[test]
    fn payload_frames_pass_intact() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), FaultPlan::new(1));
        let (mut r, mut w) = connect(&fd, &addr);
        // A payload that reads like a request line is forwarded as
        // payload, not counted, and the stream stays framed after it.
        assert_eq!(rpc(&mut r, &mut w, "PWRITE 3 7 0\nPING p\n").unwrap(), "7");
        assert_eq!(rpc(&mut r, &mut w, "PING z\n").unwrap(), "PONG z");
        assert_eq!(fd.stats().rpcs, 2);
    }

    #[test]
    fn nth_connection_targets_one_connection() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan =
            FaultPlan::new(7).rule(FaultTrigger::NthConnection(2), FaultAction::KillMidFrame);
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        let (mut r1, mut w1) = connect(&fd, &addr);
        assert_eq!(rpc(&mut r1, &mut w1, "PING a\n").unwrap(), "PONG a");
        let (mut r2, mut w2) = connect(&fd, &addr);
        assert!(rpc(&mut r2, &mut w2, "PING b\n").is_err());
        assert_eq!(rpc(&mut r1, &mut w1, "PING c\n").unwrap(), "PONG c");
        assert_eq!(fd.stats().kills, 1);
    }

    #[test]
    fn max_fires_caps_a_rule() {
        let net = MemNet::new(Clock::fresh_virtual());
        let (addr, _h) = spawn_line_server(&net);
        let plan = FaultPlan::new(7).with_rule(
            FaultRule::new(FaultTrigger::EveryNthRpc(1), FaultAction::KillMidFrame).max_fires(2),
        );
        let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
        for _ in 0..2 {
            let (mut r, mut w) = connect(&fd, &addr);
            assert!(rpc(&mut r, &mut w, "PING x\n").is_err());
        }
        let (mut r, mut w) = connect(&fd, &addr);
        assert_eq!(rpc(&mut r, &mut w, "PING y\n").unwrap(), "PONG y");
        assert_eq!(fd.stats().kills, 2);
    }

    #[test]
    fn probability_draws_are_seed_deterministic() {
        // Two dialers with the same seed make identical decisions for
        // the same sequential RPC stream.
        let outcomes = |seed: u64| -> Vec<bool> {
            let net = MemNet::new(Clock::fresh_virtual());
            let (addr, _h) = spawn_line_server(&net);
            let plan = FaultPlan::new(seed)
                .rule(FaultTrigger::Probability(0.5), FaultAction::KillMidFrame);
            let fd = FaultDialer::new(net.dialer(), net.clock().clone(), plan);
            (0..8)
                .map(|i| {
                    let (mut r, mut w) = connect(&fd, &addr);
                    rpc(&mut r, &mut w, &format!("PING {i}\n")).is_ok()
                })
                .collect()
        };
        let a = outcomes(42);
        assert_eq!(a, outcomes(42));
        assert!(a.contains(&true) && a.contains(&false));
    }

    #[test]
    fn payload_len_parses_only_data_verbs() {
        assert_eq!(payload_len(b"PWRITE 4 1024 0"), 1024);
        assert_eq!(payload_len(b"PUTFILE /a/b 420 77"), 77);
        assert_eq!(payload_len(b"PREAD 4 1024 0"), 0);
        assert_eq!(payload_len(b"OPEN /x r 420"), 0);
        assert_eq!(payload_len(b"\xff\xfe"), 0);
    }
}
