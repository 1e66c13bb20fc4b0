//! Declarative mass-tenant scenarios with asserted telemetry envelopes.
//!
//! A [`Scenario`] composes a fleet — M client sessions with weighted
//! roles — and a phased load schedule (ramp, stampede, steady state)
//! over instances of a [`SimTssBuilder`]: everything runs on the
//! in-memory network and the shared virtual clock, so a
//! thousand-tenant stampede needs no ports and no wall-clock sleeps.
//! A role's round is an [`Op`] script, each op run through
//! [`crate::diff::run`] and held to the result the role expects.
//! After the fleet drains, the runner evaluates
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use chirp_client::{AuthMethod, Connection};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use telemetry::{MetricsSnapshot, Registry};

use crate::diff::{ddmin, run, OpResult};
use crate::gen::Op;
use crate::harness::{SimTss, SimTssBuilder, SIM_TIMEOUT};

/// Fleets above this size are not delta-debugged on failure: each
/// shrink candidate replays the whole scenario against a fresh
/// instance, which is only worth the cycles when the fleet is small
/// enough to minimize quickly.
const SHRINK_CAP: usize = 96;

/// Worker threads multiplexing a phase's client sessions: thousands of
/// short-lived tenants run on a bounded pool, so the fleet scales
/// without a thread per client.
const WORKERS: usize = 32;

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
/// [`scenario_scale`], never below 1. Shared by the scenario suite and
/// the reactor suite's idle-connection soak, so one knob resizes every
/// mass-tenant workload.
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
    /// The listing and the bytes must be the fixture's exactly.
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
    /// Reads one fixed path and verifies its bytes — the fan-in side
    /// of an artifact distribution (every CI consumer pulls the same
    /// file from whichever replica it landed on).
    PathReader {
        /// Path to fetch.
        path: String,
        /// The bytes it must hold (shared by every clone of the role).
        data: Arc<[u8]>,
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
            Role::PathReader { path, data } => write!(f, "PathReader({path}, {}B)", data.len()),
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

/// One round as an op script: each op with the result it must return,
/// or `None` where the role does not pin the value and any success
/// will do.
type Script = Vec<(Op, Option<OpResult>)>;

impl Role {
    /// The ops of round `round` of a session tagged `tag`, drawing from
    /// the session's `rng` on an instance of `servers` servers.
    fn round(&self, tag: &str, round: usize, rng: &mut SmallRng, servers: usize) -> Script {
        use OpResult::{Data, Names, Stat, Unit};
        match self {
            Role::Reader => {
                let (file, bytes) = shared_file(rng.gen_range(0usize..SHARED_FILES));
                let names = (0..SHARED_FILES).map(|k| format!("f{k}")).collect();
                let dir = || "/shared".to_string();
                vec![
                    (Op::Stat { path: dir() }, Some(Stat(true, 0))),
                    (Op::Getdir { path: dir() }, Some(Names(names))),
                    (Op::Getfile { path: file }, Some(Data(bytes))),
                ]
            }
            Role::Writer => {
                let len = rng.gen_range(1usize..2048);
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let path = format!("/w_{tag}_{round}");
                let get = (Op::Getfile { path: path.clone() }, Some(Data(data.clone())));
                vec![(Op::Putfile { path, data }, Some(Unit)), get]
            }
            Role::Replicator | Role::Pusher { .. } => {
                let server = match self {
                    Role::Pusher { to, .. } => *to,
                    _ => rng.gen_range(0usize..servers),
                };
                let (path, bytes) = shared_file(rng.gen_range(0usize..SHARED_FILES));
                let to = format!("/rep_{tag}_{round}");
                let moved = OpResult::from(bytes.len() as u64);
                vec![(Op::Thirdput { path, server, to }, Some(moved))]
            }
            Role::AclChurner => {
                let path = format!("/acl_{tag}");
                let mkdir = (round == 0).then(|| (Op::Mkdir { path: path.clone() }, Some(Unit)));
                // Thousands of distinct virtual users churn through the
                // grant table; one in four rounds revokes instead.
                let subject = format!("globus:/O=Sim/CN=user{}", rng.gen_range(0u32..4096));
                let rights = ["", "rl", "rl", "rl"][rng.gen_range(0u32..4) as usize].into();
                let grant = Op::Setacl {
                    path: path.clone(),
                    subject,
                    rights,
                };
                // The rendered ACL holds every grant so far.
                let edits = [(grant, Some(Unit)), (Op::Getacl { path }, None)];
                mkdir.into_iter().chain(edits).collect()
            }
            Role::PathReader { path, data } => {
                let want = Some(Data(data.to_vec()));
                vec![(Op::Getfile { path: path.clone() }, want)]
            }
            Role::AuthStormer { .. } => unreachable!("an auth storm's round is a handshake"),
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
    /// scenario swaps keys in the shared [`chirp_server::KeyRing`]
    /// under load.
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
    sim: SimTssBuilder,
    setup: Option<fn(&SimTss)>,
    phases: Vec<Phase>,
    checks: Vec<Check>,
}

impl Scenario {
    /// A scenario named `name`, seeded with `seed` (pass it through
    /// [`scenario_seed`] so `SCENARIO_SEED` reproduces failures), on
    /// instances of `sim`. Every run and every shrink candidate builds
    /// a fresh one, with each server's connection limit raised to the
    /// widest phase plus slack, so an intentional stampede isn't
    /// refused.
    pub fn new(name: &'static str, seed: u64, sim: SimTssBuilder) -> Scenario {
        Scenario {
            name,
            seed,
            sim,
            setup: None,
            phases: Vec::new(),
            checks: Vec::new(),
        }
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
        // Every phase client may hold a session at once.
        let widest = phases.iter().map(|p| p.clients.len()).max().unwrap_or(0);
        let sim = self.sim.clone().max_connections(widest + 16).build();
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
            let workers = WORKERS.min(phase.clients.len().max(1));
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = phase.clients.get(i) else {
                            break;
                        };
                        run_client(&sim, spec, client_seed(self.seed, pi, i), &registry);
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

/// The path and the bytes of `/shared/f<k>`, a [`standard_setup`] file.
fn shared_file(k: usize) -> (String, Vec<u8>) {
    let bytes = (0..512 + 64 * k).map(|j| (j % 251) as u8).collect();
    (format!("/shared/f{k}"), bytes)
}

/// Create the shared fixture every role layout assumes on every
/// server: the script `MKDIR /shared` plus one `PUTFILE` for each of
/// the [`SHARED_FILES`] files.
pub fn standard_setup(sim: &SimTss) {
    let mkdir = Op::Mkdir {
        path: "/shared".into(),
    };
    let files = (0..SHARED_FILES).map(shared_file);
    let script: Vec<Op> = std::iter::once(mkdir)
        .chain(files.map(|(path, data)| Op::Putfile { path, data }))
        .collect();
    for i in 0..sim.servers().len() {
        let mut conn = sim.connect(i);
        for op in &script {
            let got = run(sim, i, &mut conn, "", op);
            assert_eq!(got, OpResult::Unit, "fixture op on server {i}");
        }
    }
}

/// Run one client session: dial, authenticate, run the role's rounds,
/// drop the session. Outcomes land in the client registry.
fn run_client(sim: &SimTss, spec: &ClientSpec, seed: u64, reg: &Registry) {
    let servers = sim.servers().len();
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
                (true, true) => ops.inc(),
                (false, false) => denied.inc(),
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
        let script = spec.role.round(&tag, round, &mut rng, servers);
        let ok = script.iter().all(|(op, want)| {
            let got = run(sim, si, &mut conn, "", op);
            match want {
                Some(want) => got == *want,
                None => !matches!(got, OpResult::Err(_)),
            }
        });
        latency.record(t.elapsed().as_nanos() as u64);
        if ok { &ops } else { &failures }.inc();
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
        let report = Scenario::new("unit-mixed", 7, SimTss::builder().servers(2))
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
        let err = Scenario::new("unit-impossible", 11, SimTss::builder())
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
    fn a_reader_fleet_fails_on_one_flipped_fixture_byte() {
        // `/shared/f3` keeps its length but not its bytes: a length
        // check would pass every read of it.
        fn flipped_setup(sim: &SimTss) {
            standard_setup(sim);
            let (path, mut data) = shared_file(3);
            data[100] ^= 1;
            let flip = Op::Putfile { path, data };
            assert_eq!(run(sim, 0, &mut sim.connect(0), "", &flip), OpResult::Unit);
        }
        let err = Scenario::new("unit-flipped-byte", 12, SimTss::builder())
            .setup(flipped_setup)
            .phase(Phase::new("read").with(16, Role::Reader, 2))
            .check("zero-failures", |r| {
                (r.failures() == 0)
                    .then_some(())
                    .ok_or_else(|| format!("{} client failures", r.failures()))
            })
            .run()
            .expect_err("some reader reads f3");
        assert_eq!(err.failed[0].0, "zero-failures", "{err}");
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
