//! Declarative mass-tenant scenarios with asserted telemetry envelopes.
//!
//! A [`Scenario`] composes a fleet — N in-process servers, M client
//! sessions with weighted roles — and a phased load schedule (ramp,
//! stampede, steady state) over the [`SimTss`]
//! harness: everything runs on the in-memory network and the shared
//! virtual clock, so a thousand-tenant stampede needs no ports and no
//! wall-clock sleeps. After the fleet drains, the runner evaluates
//! *envelopes* — named predicates over a [`ScenarioReport`] holding
//! the client-side metrics, the merged server-side telemetry delta,
//! and resource measurements (RSS growth, wall/virtual elapsed).
//!
//! Determinism and reproduction follow the rest of the crate's
//! contract: every client's behavior is a function of
//! `(scenario seed, phase, client index)`, a failed envelope prints a
//! `SCENARIO_SEED=<n>` repro line, and small fleets are delta-debugged
//! ([`ddmin`]) down to a minimal set of clients that still violates
//! the envelope — which is sound because an envelope is a function of
//! the report, and the report carries the (shrunken) fleet size.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use chirp_client::{AuthMethod, Connection};
use chirp_server::KeyRing;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use telemetry::{MetricsSnapshot, Registry};

use crate::diff::ddmin;
use crate::harness::{SimTss, SIM_TIMEOUT};

/// Fleets above this size are not delta-debugged on failure: each
/// shrink candidate replays the whole scenario against a fresh
/// instance, which is only worth the cycles when the fleet is small
/// enough to minimize quickly.
const SHRINK_CAP: usize = 96;

/// Number of files the [`standard_setup`] fixture creates under
/// `/shared` on every server.
pub const SHARED_FILES: usize = 8;

/// The scenario seed: `SCENARIO_SEED` env override, else `default`.
pub fn scenario_seed(default: u64) -> u64 {
    std::env::var("SCENARIO_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The fleet multiplier from `SCENARIO_SCALE` (default 1.0). Values
/// below 1 shrink every scenario for quick iteration; values above 1
/// scale soaks up toward headline sizes.
pub fn scenario_scale() -> f64 {
    std::env::var("SCENARIO_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// A fleet size: the debug or release base (optimized builds push the
/// simulated tenancy an order of magnitude higher) scaled by
/// [`scenario_scale`], never below 1. Shared by the scenario suite,
/// the connection-scale bench, and the idle soak so one knob resizes
/// every mass-tenant workload.
pub fn fleet_size(debug_base: usize, release_base: usize) -> usize {
    let base = if cfg!(debug_assertions) {
        debug_base
    } else {
        release_base
    };
    ((base as f64 * scenario_scale()).round() as usize).max(1)
}

/// Resident set size in bytes (`/proc/self/statm`), `None` where the
/// host doesn't offer it.
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// What one simulated tenant does each round.
#[derive(Clone)]
pub enum Role {
    /// Cold-opens the shared tree: stat, list, and read one of the
    /// [`standard_setup`] files — the SP5 init-stampede access shape.
    Reader,
    /// Writes a private file and reads it back, verifying the bytes.
    Writer,
    /// Replicates a shared file with `THIRDPUT` to any server, its own
    /// included (server-to-server transfer, the distribution-tree
    /// primitive).
    Replicator,
    /// Pushes a shared file with `THIRDPUT` from server `from` to
    /// server `to` every round: one fixed edge of a push graph, so a
    /// phase can hold cycles (`from == to` pushes to itself).
    Pusher {
        /// The server the session is on.
        from: usize,
        /// The server it pushes to.
        to: usize,
    },
    /// Grants and revokes rights for a crowd of virtual users on its
    /// own directory — mass ACL churn.
    AclChurner,
    /// Reads one fixed path and verifies its length — the fan-in side
    /// of an artifact distribution (every CI consumer pulls the same
    /// file from whichever replica it landed on).
    PathReader {
        /// Path to fetch.
        path: String,
        /// Expected byte count.
        len: usize,
    },
    /// Runs a full challenge–response handshake on a fresh connection
    /// every round (connect, nonce, MAC, verify, drop).
    AuthStormer {
        /// Auth method label the key is registered under.
        method: String,
        /// Subject name to claim.
        name: String,
        /// Key material to sign the challenge with.
        key: Vec<u8>,
        /// Whether the handshake should be granted. `false` models a
        /// rotated-out or never-registered credential: the denial is
        /// counted as expected, and a *grant* is the failure.
        expect_success: bool,
    },
}

impl fmt::Debug for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Reader => write!(f, "Reader"),
            Role::Writer => write!(f, "Writer"),
            Role::Replicator => write!(f, "Replicator"),
            Role::Pusher { from, to } => write!(f, "Pusher({from}->{to})"),
            Role::AclChurner => write!(f, "AclChurner"),
            Role::PathReader { path, len } => write!(f, "PathReader({path}, {len}B)"),
            // Key bytes stay out of failure reports and logs.
            Role::AuthStormer {
                method,
                name,
                expect_success,
                ..
            } => write!(
                f,
                "AuthStormer({method}:{name}, expect_success={expect_success})"
            ),
        }
    }
}

/// One client session: a role and how many rounds it runs before the
/// session ends.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// The tenant's behavior.
    pub role: Role,
    /// Rounds before the session closes (a stampede is rounds = 1 at
    /// huge fleet width; a soak is many rounds at moderate width).
    pub rounds: usize,
}

/// One step of the load schedule. All of a phase's clients run to
/// completion (on the worker pool) before the next phase starts, so a
/// ramp is successive phases of growing width and a stampede is one
/// maximally wide phase.
#[derive(Clone)]
pub struct Phase {
    /// Phase label (failure reports and minimized fleets name it).
    pub name: &'static str,
    /// Runs on the harness at the phase boundary — where a rotation
    /// scenario swaps keys in the shared [`KeyRing`] under load.
    pub on_start: Option<fn(&SimTss)>,
    /// The client sessions this phase launches.
    pub clients: Vec<ClientSpec>,
}

impl Phase {
    /// An empty phase named `name`.
    pub fn new(name: &'static str) -> Phase {
        Phase {
            name,
            on_start: None,
            clients: Vec::new(),
        }
    }

    /// Install a phase-boundary hook.
    pub fn on_start(mut self, f: fn(&SimTss)) -> Phase {
        self.on_start = Some(f);
        self
    }

    /// Add `count` clients of `role`, each running `rounds` rounds.
    pub fn with(mut self, count: usize, role: Role, rounds: usize) -> Phase {
        for _ in 0..count {
            self.clients.push(ClientSpec {
                role: role.clone(),
                rounds,
            });
        }
        self
    }
}

/// A named envelope: the check name and a predicate over the report.
/// Written as plain function pointers so a scenario stays `Clone` and
/// a shrink re-run evaluates the identical predicate.
pub type Check = (&'static str, fn(&ScenarioReport) -> Result<(), String>);

/// A declarative mass-tenant scenario. Build one with [`Scenario::new`]
/// plus the chained knobs, then [`Scenario::run`].
#[derive(Clone)]
pub struct Scenario {
    name: &'static str,
    seed: u64,
    servers: usize,
    workers: usize,
    max_connections: Option<usize>,
    reactor_workers: usize,
    keys: Option<KeyRing>,
    setup: Option<fn(&SimTss)>,
    phases: Vec<Phase>,
    checks: Vec<Check>,
}

impl Scenario {
    /// A scenario named `name`, seeded with `seed` (pass it through
    /// [`scenario_seed`] so `SCENARIO_SEED` reproduces failures).
    pub fn new(name: &'static str, seed: u64) -> Scenario {
        Scenario {
            name,
            seed,
            servers: 1,
            workers: 32,
            max_connections: None,
            reactor_workers: 0,
            keys: None,
            setup: None,
            phases: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Number of servers in the instance (default 1).
    pub fn servers(mut self, n: usize) -> Scenario {
        self.servers = n;
        self
    }

    /// Worker threads multiplexing the client sessions (default 32):
    /// thousands of short-lived tenants run on a bounded pool, so the
    /// fleet scales without a thread per client.
    pub fn workers(mut self, n: usize) -> Scenario {
        self.workers = n.max(1);
        self
    }

    /// Per-server connection limit (default: sized to the widest
    /// phase plus slack, so an intentional stampede isn't refused).
    pub fn max_connections(mut self, n: usize) -> Scenario {
        self.max_connections = Some(n);
        self
    }

    /// Reactor shards per server (default: the production default).
    pub fn reactor_workers(mut self, n: usize) -> Scenario {
        self.reactor_workers = n;
        self
    }

    /// Key ring installed on every server. Keep a clone to rotate
    /// credentials from a phase hook.
    pub fn keys(mut self, ring: KeyRing) -> Scenario {
        self.keys = Some(ring);
        self
    }

    /// Fixture preparation, run once before the first phase
    /// (typically [`standard_setup`]).
    pub fn setup(mut self, f: fn(&SimTss)) -> Scenario {
        self.setup = Some(f);
        self
    }

    /// Append a phase to the schedule.
    pub fn phase(mut self, phase: Phase) -> Scenario {
        self.phases.push(phase);
        self
    }

    /// Append an envelope check.
    pub fn check(
        mut self,
        name: &'static str,
        f: fn(&ScenarioReport) -> Result<(), String>,
    ) -> Scenario {
        self.checks.push((name, f));
        self
    }

    /// Total client sessions across all phases.
    pub fn fleet(&self) -> usize {
        self.phases.iter().map(|p| p.clients.len()).sum()
    }

    /// Run the scenario and evaluate every envelope. On violation the
    /// failure carries the report, the repro line, and (for small
    /// fleets) a minimized fleet that still violates an envelope.
    pub fn run(&self) -> Result<ScenarioReport, Box<ScenarioFailure>> {
        let report = self.execute(&self.phases);
        let failed = self.eval(&report);
        if failed.is_empty() {
            return Ok(report);
        }
        let minimized = (self.fleet() <= SHRINK_CAP).then(|| self.shrink_fleet());
        Err(Box::new(ScenarioFailure {
            name: self.name,
            seed: self.seed,
            failed,
            minimized,
            report,
        }))
    }

    /// Evaluate every check; the violations.
    fn eval(&self, report: &ScenarioReport) -> Vec<(&'static str, String)> {
        self.checks
            .iter()
            .filter_map(|(name, f)| f(report).err().map(|msg| (*name, msg)))
            .collect()
    }

    /// Delta-debug the fleet down to a minimal client set that still
    /// violates some envelope. Each candidate replays against a fresh
    /// instance, so candidates cannot contaminate each other.
    fn shrink_fleet(&self) -> Vec<(usize, ClientSpec)> {
        let items: Vec<(usize, ClientSpec)> = self
            .phases
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| p.clients.iter().map(move |c| (pi, c.clone())))
            .collect();
        ddmin(items, &mut |cand| {
            let phases = self.phases_from(cand);
            let report = self.execute(&phases);
            !self.eval(&report).is_empty()
        })
    }

    /// Rebuild the phase schedule from a shrink candidate: every phase
    /// keeps its position and `on_start` hook (a rotation boundary is
    /// part of the scenario even with zero surviving clients), only
    /// the client lists thin out.
    fn phases_from(&self, fleet: &[(usize, ClientSpec)]) -> Vec<Phase> {
        let mut phases: Vec<Phase> = self
            .phases
            .iter()
            .map(|p| Phase {
                name: p.name,
                on_start: p.on_start,
                clients: Vec::new(),
            })
            .collect();
        for (pi, spec) in fleet {
            phases[*pi].clients.push(spec.clone());
        }
        phases
    }

    /// Stand up a fresh instance and drain the given schedule through
    /// the worker pool.
    fn execute(&self, phases: &[Phase]) -> ScenarioReport {
        let mut builder = SimTss::builder()
            .servers(self.servers)
            .reactor_workers(self.reactor_workers);
        let widest = phases.iter().map(|p| p.clients.len()).max().unwrap_or(0);
        // Every phase client may hold a session at once; servers must
        // not refuse an intentional stampede unless the scenario says so.
        builder = builder.max_connections(self.max_connections.unwrap_or(widest + 16));
        if let Some(ring) = &self.keys {
            builder = builder.keys(ring.clone());
        }
        let sim = builder.build();
        if let Some(setup) = self.setup {
            setup(&sim);
        }

        let registry = Registry::new();
        let before: Vec<MetricsSnapshot> = sim
            .servers()
            .iter()
            .map(|s| s.telemetry().registry().snapshot())
            .collect();
        let rss_before = rss_bytes();
        let vt0 = sim.clock().now();
        let wall0 = Instant::now();

        for (pi, phase) in phases.iter().enumerate() {
            if let Some(hook) = phase.on_start {
                hook(&sim);
            }
            let next = AtomicUsize::new(0);
            let workers = self.workers.min(phase.clients.len().max(1));
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = phase.clients.get(i) else {
                            break;
                        };
                        run_client(
                            &sim,
                            spec,
                            client_seed(self.seed, pi, i),
                            &registry,
                            self.servers,
                        );
                    });
                }
            });
        }

        let wall_elapsed = wall0.elapsed();
        let virtual_elapsed = sim.clock().elapsed_since(vt0);
        let rss_grown = match (rss_before, rss_bytes()) {
            (Some(b), Some(a)) => Some(a.saturating_sub(b)),
            _ => None,
        };
        let mut servers_delta = MetricsSnapshot::default();
        for (server, before) in sim.servers().iter().zip(&before) {
            let after = server.telemetry().registry().snapshot();
            servers_delta.merge(&after.delta(before));
        }
        ScenarioReport {
            name: self.name,
            seed: self.seed,
            fleet: phases.iter().map(|p| p.clients.len()).sum(),
            client: registry.snapshot(),
            servers: servers_delta,
            virtual_elapsed,
            wall_elapsed,
            rss_grown,
        }
    }
}

/// Per-client deterministic seed: a function of the scenario seed,
/// the phase, and the client index only.
fn client_seed(seed: u64, phase: usize, client: usize) -> u64 {
    seed ^ (phase as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Create the shared fixture every role layout assumes: `/shared`
/// with [`SHARED_FILES`] seeded files on every server.
pub fn standard_setup(sim: &SimTss) {
    for i in 0..sim.servers().len() {
        let mut conn = sim.connect(i);
        conn.mkdir("/shared", 0o755).expect("mkdir /shared");
        for k in 0..SHARED_FILES {
            let body: Vec<u8> = (0..512 + 64 * k).map(|j| (j % 251) as u8).collect();
            conn.putfile(&format!("/shared/f{k}"), 0o644, &body)
                .expect("seed shared file");
        }
    }
}

/// Run one client session: dial, authenticate, run the role's rounds,
/// drop the session. Outcomes land in the client registry.
fn run_client(sim: &SimTss, spec: &ClientSpec, seed: u64, reg: &Registry, servers: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ops = reg.counter("client.ops");
    let failures = reg.counter("client.failures");
    let denied = reg.counter("client.denied");
    let latency = reg.histogram("client.latency_ns");

    if let Role::AuthStormer {
        method,
        name,
        key,
        expect_success,
    } = &spec.role
    {
        // Every round is a whole fresh session: the handshake *is*
        // the workload.
        for _ in 0..spec.rounds {
            let si = rng.gen_range(0usize..servers);
            let t = Instant::now();
            let granted = Connection::connect_via(&sim.dialer(), &sim.endpoint(si), SIM_TIMEOUT)
                .and_then(|mut conn| conn.authenticate(&[AuthMethod::key(method, name, key)]));
            latency.record(t.elapsed().as_nanos() as u64);
            match (granted.is_ok(), expect_success) {
                (true, true) | (false, false) => {
                    if granted.is_ok() {
                        ops.inc()
                    } else {
                        denied.inc()
                    }
                }
                // A rotated-out key that still verifies is as much a
                // failure as a live key that doesn't.
                _ => failures.inc(),
            }
        }
        return;
    }

    let si = match spec.role {
        Role::Pusher { from, .. } => from,
        _ => rng.gen_range(0usize..servers),
    };
    let session = Connection::connect_via(&sim.dialer(), &sim.endpoint(si), SIM_TIMEOUT)
        .and_then(|mut conn| conn.authenticate(&[AuthMethod::Hostname]).map(|_| conn));
    let mut conn = match session {
        Ok(conn) => conn,
        Err(_) => {
            failures.inc();
            return;
        }
    };
    let tag = format!("{seed:016x}");
    for round in 0..spec.rounds {
        let t = Instant::now();
        let ok = run_round(sim, &mut conn, &spec.role, &tag, round, &mut rng, servers);
        latency.record(t.elapsed().as_nanos() as u64);
        if ok {
            ops.inc()
        } else {
            failures.inc()
        }
    }
}

/// One round of a hostname-authenticated role. `true` on success.
fn run_round(
    sim: &SimTss,
    conn: &mut Connection,
    role: &Role,
    tag: &str,
    round: usize,
    rng: &mut SmallRng,
    servers: usize,
) -> bool {
    match role {
        Role::Reader => {
            let k = rng.gen_range(0usize..SHARED_FILES);
            conn.stat("/shared").is_ok()
                && conn.getdir("/shared").map(|d| d.len() == SHARED_FILES) == Ok(true)
                && conn
                    .getfile(&format!("/shared/f{k}"))
                    .map(|b| b.len() == 512 + 64 * k)
                    == Ok(true)
        }
        Role::Writer => {
            let len = rng.gen_range(1usize..2048);
            let body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let path = format!("/w_{tag}_{round}");
            conn.putfile(&path, 0o644, &body).is_ok() && conn.getfile(&path) == Ok(body)
        }
        Role::Replicator | Role::Pusher { .. } => {
            let to = match role {
                Role::Pusher { to, .. } => *to,
                _ => rng.gen_range(0usize..servers),
            };
            let k = rng.gen_range(0usize..SHARED_FILES);
            conn.thirdput(
                &format!("/shared/f{k}"),
                &sim.endpoint(to),
                &format!("/rep_{tag}_{round}"),
            )
            .map(|n| n as usize == 512 + 64 * k)
                == Ok(true)
        }
        Role::AclChurner => {
            let dir = format!("/acl_{tag}");
            if round == 0 && conn.mkdir(&dir, 0o755).is_err() {
                return false;
            }
            // Thousands of distinct virtual users churn through the
            // grant table; one in four rounds revokes instead.
            let user = format!("globus:/O=Sim/CN=user{}", rng.gen_range(0u32..4096));
            let rights = if rng.gen_range(0u32..4) == 0 {
                ""
            } else {
                "rl"
            };
            conn.setacl(&dir, &user, rights).is_ok() && conn.getacl(&dir).is_ok()
        }
        Role::PathReader { path, len } => conn.getfile(path).map(|b| b.len() == *len) == Ok(true),
        Role::AuthStormer { .. } => unreachable!("handled by run_client"),
    }
}

/// Everything an envelope can assert on: client-side metrics, the
/// merged server-side telemetry delta, and resource measurements.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// The seed the run used.
    pub seed: u64,
    /// Total client sessions that ran (the shrunken size during
    /// minimization — envelopes must scale their expectations by it).
    pub fleet: usize,
    /// Snapshot of the client-side registry: `client.ops`,
    /// `client.failures`, `client.denied`, `client.latency_ns`.
    pub client: MetricsSnapshot,
    /// Per-server telemetry deltas over the run, merged across the
    /// instance (`rpc.*`, `auth.*`, `reactor.*`).
    pub servers: MetricsSnapshot,
    /// Simulated time the run consumed (retry backoff, breaker
    /// cooldowns — all charged to the virtual clock).
    pub virtual_elapsed: Duration,
    /// Real time the run consumed.
    pub wall_elapsed: Duration,
    /// RSS growth across the run, where the host exposes it.
    pub rss_grown: Option<u64>,
}

impl ScenarioReport {
    /// Successful client operations.
    pub fn ops(&self) -> u64 {
        self.client.counter("client.ops").unwrap_or(0)
    }

    /// Unexpected client failures.
    pub fn failures(&self) -> u64 {
        self.client.counter("client.failures").unwrap_or(0)
    }

    /// Expected denials (auth storms with `expect_success: false`).
    pub fn denied(&self) -> u64 {
        self.client.counter("client.denied").unwrap_or(0)
    }

    /// The `q`-quantile of client-observed per-op wall latency.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        self.client
            .histogram("client.latency_ns")
            .map(|h| Duration::from_nanos(h.quantile(q)))
            .unwrap_or(Duration::ZERO)
    }

    /// Aggregate successful client ops per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops() as f64 / self.wall_elapsed.as_secs_f64().max(1e-9)
    }

    /// One-line metric summary (also the [`fmt::Display`] rendering).
    fn summary(&self) -> String {
        format!(
            "ops={} failures={} denied={} p99={:?} ops/s={:.0} wall={:?} virtual={:?} rss_grown={}",
            self.ops(),
            self.failures(),
            self.denied(),
            self.latency_quantile(0.99),
            self.ops_per_sec(),
            self.wall_elapsed,
            self.virtual_elapsed,
            self.rss_grown
                .map(|b| format!("{}KiB", b / 1024))
                .unwrap_or_else(|| "n/a".into()),
        )
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario '{}' (seed {}, fleet {}): {}",
            self.name,
            self.seed,
            self.fleet,
            self.summary()
        )
    }
}

/// One or more envelopes violated, with the repro line and (for small
/// fleets) the minimized client set.
#[derive(Debug, Clone)]
pub struct ScenarioFailure {
    /// Scenario name.
    pub name: &'static str,
    /// The seed that reproduces the run.
    pub seed: u64,
    /// The violated checks: `(check name, message)`.
    pub failed: Vec<(&'static str, String)>,
    /// The minimal `(phase index, client)` fleet still violating an
    /// envelope; `None` when the fleet was too large to shrink.
    pub minimized: Option<Vec<(usize, ClientSpec)>>,
    /// The full report of the original (unshrunken) run.
    pub report: ScenarioReport,
}

impl fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario '{}' violated {} envelope check(s) (seed {}, fleet {}):",
            self.name,
            self.failed.len(),
            self.seed,
            self.report.fleet
        )?;
        for (name, msg) in &self.failed {
            writeln!(f, "  - {name}: {msg}")?;
        }
        writeln!(f, "  {}", self.report.summary())?;
        write!(
            f,
            "reproduce with: SCENARIO_SEED={} cargo test -p simharness --test scenarios_sim",
            self.seed
        )?;
        if let Ok(scale) = std::env::var("SCENARIO_SCALE") {
            write!(f, " (with SCENARIO_SCALE={scale})")?;
        }
        if let Some(fleet) = &self.minimized {
            write!(f, "\nminimized fleet ({} clients):", fleet.len())?;
            for (pi, spec) in fleet {
                write!(f, "\n  phase[{pi}] {:?} rounds={}", spec.role, spec.rounds)?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for ScenarioFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_fleet_meets_a_zero_failure_envelope() {
        let report = Scenario::new("unit-mixed", 7)
            .servers(2)
            .workers(8)
            .setup(standard_setup)
            .phase(
                Phase::new("steady")
                    .with(6, Role::Reader, 2)
                    .with(4, Role::Writer, 2)
                    .with(2, Role::Replicator, 1)
                    .with(2, Role::AclChurner, 3),
            )
            .check("zero-failures", |r| {
                if r.failures() == 0 {
                    Ok(())
                } else {
                    Err(format!("{} client failures", r.failures()))
                }
            })
            .check("all-ops-counted", |r| {
                // 6×2 + 4×2 + 2×1 + 2×3 = 28 successful rounds.
                if r.ops() == 28 {
                    Ok(())
                } else {
                    Err(format!("expected 28 ops, counted {}", r.ops()))
                }
            })
            .run()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.fleet, 14);
        assert!(report.servers.counter_sum("rpc.") > 0, "server delta empty");
    }

    #[test]
    fn violated_envelope_reports_seed_and_minimizes_the_fleet() {
        let err = Scenario::new("unit-impossible", 11)
            .setup(standard_setup)
            .phase(Phase::new("load").with(9, Role::Reader, 1))
            .check("impossible", |r| {
                Err(format!("fleet of {} can never pass", r.fleet))
            })
            .run()
            .expect_err("check always fails");
        let text = err.to_string();
        assert!(text.contains("SCENARIO_SEED=11"), "{text}");
        assert!(text.contains("impossible"), "{text}");
        // ddmin over a fleet whose envelope always fails lands on one
        // client.
        assert_eq!(err.minimized.as_ref().map(Vec::len), Some(1), "{text}");
    }

    #[test]
    fn fleet_size_scales_and_floors_at_one() {
        // No env manipulation (racy across threads): with the default
        // scale the build-profile base comes straight through.
        if std::env::var("SCENARIO_SCALE").is_err() {
            let expect = if cfg!(debug_assertions) { 10 } else { 100 };
            assert_eq!(fleet_size(10, 100), expect);
        }
        assert!(fleet_size(0, 0) >= 1);
    }
}
