//! Mass-tenant scenario suite: fleets of simulated clients over the
//! in-memory network and virtual clock, with asserted telemetry
//! envelopes.
//!
//! Every scenario is a deterministic function of its seed; failures
//! print a `SCENARIO_SEED=<n>` repro line (and small fleets are
//! delta-debugged to a minimal client set). `SCENARIO_SCALE` resizes
//! every fleet: `SCENARIO_SCALE=0.1` for quick iteration,
//! `SCENARIO_SCALE=4` to push soaks toward headline tenancy. Release
//! builds default an order of magnitude wider than debug builds —
//! the stampede crosses 1000 virtual clients there.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use chirp_server::KeyRing;
use gems::tree::{distribute, ideal_depth, TreeConfig, TreeReport, TreeTarget};
use simharness::harness::{auth, sim_retry, SIM_TIMEOUT};
use simharness::scenario::{fleet_size, scenario_seed, standard_setup, Phase, Role, Scenario};
use simharness::SimTss;
use telemetry::{MetricsSnapshot, Registry};
use tss_core::cfs::{Cfs, CfsConfig};

fn run(scenario: Scenario) {
    match scenario.run() {
        // Visible under --nocapture; EXPERIMENTS.md records a run.
        Ok(report) => eprintln!("{report}"),
        Err(failure) => panic!("{failure}"),
    }
}

// ---------------------------------------------------------------- SP5
// init stampede: a wide fleet of one-round clients cold-opens the same
// shared tree through one reactor-core server — the paper's SP5 burst
// where every batch job stats, lists, and reads the software tree at
// once.

fn stampede(seed: u64, fleet: usize) -> Scenario {
    Scenario::new("sp5-init-stampede", seed)
        .servers(1)
        .setup(standard_setup)
        .phase(Phase::new("stampede").with(fleet, Role::Reader, 1))
        .check("zero-failures", |r| {
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} client failures", r.failures()))
        })
        .check("every-client-served", |r| {
            (r.ops() == r.fleet as u64)
                .then_some(())
                .ok_or_else(|| format!("{} ops for {} one-round clients", r.ops(), r.fleet))
        })
        .check("p99-latency", |r| {
            let p99 = r.latency_quantile(0.99);
            (p99 < Duration::from_millis(500))
                .then_some(())
                .ok_or_else(|| format!("p99 {p99:?} exceeds 500ms"))
        })
        .check("aggregate-throughput", |r| {
            (r.ops_per_sec() > 20.0)
                .then_some(())
                .ok_or_else(|| format!("{:.1} ops/s under the 20/s floor", r.ops_per_sec()))
        })
        .check("flat-rss", |r| match r.rss_grown {
            Some(b) if b >= 96 << 20 => Err(format!("RSS grew {}MiB", b >> 20)),
            _ => Ok(()),
        })
        .check("server-saw-the-burst", |r| {
            // stat + getdir + getfile per client, plus one auth each.
            let rpcs = r.servers.counter_sum("rpc.");
            (rpcs >= 4 * r.fleet as u64)
                .then_some(())
                .ok_or_else(|| format!("only {rpcs} server RPCs for {} clients", r.fleet))
        })
        .check("every-session-authenticated", |r| {
            let granted = r.servers.counter("auth.success").unwrap_or(0);
            (granted == r.fleet as u64)
                .then_some(())
                .ok_or_else(|| format!("{granted} auth grants for {} sessions", r.fleet))
        })
        .check("no-backpressure", |r| {
            let bp = r.servers.counter("reactor.backpressure").unwrap_or(0);
            (bp == 0)
                .then_some(())
                .ok_or_else(|| format!("{bp} backpressure events on sub-KiB replies"))
        })
}

#[test]
fn sp5_init_stampede() {
    let fleet = fleet_size(150, 1200);
    if !cfg!(debug_assertions) && std::env::var("SCENARIO_SCALE").is_err() {
        assert!(fleet >= 1000, "release stampede must cross 1000 clients");
    }
    run(stampede(scenario_seed(1), fleet));
}

// ------------------------------------------------------------ fan-out
// CI-artifact distribution: one publisher pushes a seeded artifact to
// every server over a THIRDPUT tree, then a consumer fleet pulls it
// from random replicas. The tree's structural envelope (log depth, no
// retries, full coverage) is asserted alongside the fleet's.

static ARTIFACT_LEN: AtomicUsize = AtomicUsize::new(0);
static FANOUT: Mutex<Option<(TreeReport, MetricsSnapshot)>> = Mutex::new(None);

fn publish_artifact(sim: &SimTss) {
    let len = ARTIFACT_LEN.load(Ordering::Relaxed);
    let body: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
    sim.connect(0)
        .putfile("/artifact", 0o644, &body)
        .expect("publish artifact");
    let source = TreeTarget::new(&sim.endpoint(0), "/artifact");
    let targets: Vec<TreeTarget> = (1..sim.servers().len())
        .map(|i| TreeTarget::new(&sim.endpoint(i), "/artifact"))
        .collect();
    let cfg = TreeConfig {
        clock: sim.clock().clone(),
        ..TreeConfig::default()
    };
    let conn = |endpoint: &str| {
        let mut cfg = CfsConfig::new(endpoint, auth());
        cfg.timeout = SIM_TIMEOUT;
        cfg.retry = sim_retry();
        cfg.dialer = sim.dialer();
        cfg.clock = sim.clock().clone();
        Arc::new(Cfs::new(cfg))
    };
    let registry = Registry::new();
    let report = distribute(&source, &targets, conn, &cfg, Some(&registry), None);
    *FANOUT.lock().unwrap() = Some((report, registry.snapshot()));
}

#[test]
fn ci_artifact_fanout_over_thirdput_tree() {
    let seed = scenario_seed(2);
    let servers = fleet_size(12, 24);
    let consumers = fleet_size(60, 400);
    // Seed-derived artifact size, stashed where the phase hook (a
    // plain fn) can read it.
    let len = 50_000 + (seed as usize % 7) * 10_000;
    ARTIFACT_LEN.store(len, Ordering::Relaxed);

    let scenario = Scenario::new("ci-artifact-fanout", seed)
        .servers(servers)
        .phase(Phase::new("publish").on_start(publish_artifact))
        .phase(Phase::new("consume").with(
            consumers,
            Role::PathReader {
                path: "/artifact".into(),
                len,
            },
            2,
        ))
        .check("zero-failures", |r| {
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} consumers missed the artifact", r.failures()))
        })
        .check("every-pull-counted", |r| {
            (r.ops() == 2 * r.fleet as u64)
                .then_some(())
                .ok_or_else(|| format!("{} pulls for {} two-round consumers", r.ops(), r.fleet))
        });
    run(scenario);

    // The tree's own envelope, from the stash the publish hook filled.
    let (report, metrics) = FANOUT.lock().unwrap().take().expect("publish hook ran");
    let tree_check = |ok: bool, msg: String| {
        assert!(
            ok,
            "fan-out tree envelope violated: {msg}\n\
             reproduce with: SCENARIO_SEED={seed} cargo test -p simharness --test scenarios_sim"
        );
    };
    let replicas = servers - 1;
    tree_check(
        report.failed.is_empty(),
        format!("{} targets failed", report.failed.len()),
    );
    tree_check(
        report.completed.len() == replicas,
        format!("{}/{replicas} replicas completed", report.completed.len()),
    );
    tree_check(
        report.hops == replicas as u64,
        format!("{} hops", report.hops),
    );
    tree_check(
        report.depth == ideal_depth(replicas),
        format!("depth {} vs ideal {}", report.depth, ideal_depth(replicas)),
    );
    tree_check(report.retries == 0, format!("{} retries", report.retries));
    tree_check(
        metrics.counter("tree.hops") == Some(replicas as u64),
        format!("telemetry hops {:?}", metrics.counter("tree.hops")),
    );
}

// ---------------------------------------------------------- ACL churn
// Thousands of grant/revoke edits for a 4096-user virtual population,
// spread over a churner fleet each working its own directory.

fn acl_churn(seed: u64, fleet: usize) -> Scenario {
    const ROUNDS: usize = 4;
    Scenario::new("mass-acl-churn", seed)
        .servers(1)
        .phase(Phase::new("churn").with(fleet, Role::AclChurner, ROUNDS))
        .check("zero-failures", |r| {
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} churn failures", r.failures()))
        })
        .check("every-edit-counted", |r| {
            (r.ops() == (ROUNDS * r.fleet) as u64)
                .then_some(())
                .ok_or_else(|| format!("{} ops for {} four-round churners", r.ops(), r.fleet))
        })
        .check("server-counted-the-edits", |r| {
            let edits = r.servers.counter("rpc.setacl.count").unwrap_or(0);
            (edits == (ROUNDS * r.fleet) as u64)
                .then_some(())
                .ok_or_else(|| format!("{edits} SETACL RPCs for {} churners", r.fleet))
        })
        .check("p99-latency", |r| {
            let p99 = r.latency_quantile(0.99);
            (p99 < Duration::from_millis(500))
                .then_some(())
                .ok_or_else(|| format!("p99 {p99:?} exceeds 500ms"))
        })
}

#[test]
fn mass_acl_churn() {
    run(acl_churn(scenario_seed(3), fleet_size(80, 500)));
}

// -------------------------------------------------------- mixed soak
// A ramp into a steady state mixing every role — readers, writers,
// replicators, ACL churners, and genuine auth stormers — across a
// three-server instance, watching failures, latency, and RSS.

const SOAK_SUBJECT: &str = "/O=Sim/CN=soaker";
const SOAK_KEY: &[u8] = b"soak-credential-key";

fn mixed_soak(seed: u64, unit: usize) -> Scenario {
    let ring = KeyRing::new();
    ring.register("globus", SOAK_SUBJECT, SOAK_KEY);
    let stormer = Role::AuthStormer {
        method: "globus".into(),
        name: SOAK_SUBJECT.into(),
        key: SOAK_KEY.to_vec(),
        expect_success: true,
    };
    Scenario::new("mixed-fleet-soak", seed)
        .servers(3)
        .keys(ring)
        .setup(standard_setup)
        .phase(Phase::new("ramp-1").with(unit, Role::Reader, 2))
        .phase(
            Phase::new("ramp-2")
                .with(2 * unit, Role::Reader, 2)
                .with(unit, Role::Writer, 2),
        )
        .phase(
            Phase::new("steady")
                .with(3 * unit, Role::Reader, 3)
                .with(2 * unit, Role::Writer, 3)
                .with(unit, Role::Replicator, 2)
                .with(unit, Role::AclChurner, 3)
                .with(unit, stormer, 2),
        )
        .check("zero-failures", |r| {
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} failures across the soak", r.failures()))
        })
        .check("every-client-worked", |r| {
            (r.ops() >= r.fleet as u64)
                .then_some(())
                .ok_or_else(|| format!("{} ops below fleet size {}", r.ops(), r.fleet))
        })
        .check("every-session-authenticated", |r| {
            let granted = r.servers.counter("auth.success").unwrap_or(0);
            (granted >= r.fleet as u64)
                .then_some(())
                .ok_or_else(|| format!("{granted} grants for {} sessions", r.fleet))
        })
        .check("p99-latency", |r| {
            let p99 = r.latency_quantile(0.99);
            (p99 < Duration::from_secs(1))
                .then_some(())
                .ok_or_else(|| format!("p99 {p99:?} exceeds 1s"))
        })
        .check("flat-rss", |r| match r.rss_grown {
            Some(b) if b >= 128 << 20 => Err(format!("RSS grew {}MiB", b >> 20)),
            _ => Ok(()),
        })
}

#[test]
fn mixed_fleet_soak() {
    run(mixed_soak(scenario_seed(4), fleet_size(12, 60)));
}

// -------------------------------------------------------- auth storm
// Hundreds of concurrent challenge–response handshakes, genuine keys
// racing forged ones: every handshake costs a nonce and an HMAC
// verification, the server's auth telemetry must reconcile exactly
// with the client-side ledger, and no forged credential may land.

const STORM_SUBJECT: &str = "/O=Sim/CN=stormer";
const STORM_KEY: &[u8] = b"storm-credential-key";

fn auth_storm(seed: u64, genuine: usize, forged: usize) -> Scenario {
    const ROUNDS: usize = 2;
    let ring = KeyRing::new();
    ring.register("globus", STORM_SUBJECT, STORM_KEY);
    Scenario::new("mass-auth-storm", seed)
        .servers(2)
        .keys(ring)
        .phase(
            Phase::new("storm")
                .with(
                    genuine,
                    Role::AuthStormer {
                        method: "globus".into(),
                        name: STORM_SUBJECT.into(),
                        key: STORM_KEY.to_vec(),
                        expect_success: true,
                    },
                    ROUNDS,
                )
                .with(
                    forged,
                    Role::AuthStormer {
                        method: "globus".into(),
                        name: STORM_SUBJECT.into(),
                        key: b"not-the-registered-key".to_vec(),
                        expect_success: false,
                    },
                    ROUNDS,
                ),
        )
        .check("no-surprises", |r| {
            // A forged key landing, or a genuine key refused, counts
            // here — either is an auth break, not load noise.
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} handshakes broke expectation", r.failures()))
        })
        .check("every-handshake-resolved", |r| {
            let total = r.ops() + r.denied();
            (total == (ROUNDS * r.fleet) as u64)
                .then_some(())
                .ok_or_else(|| format!("{total} outcomes for {} two-round stormers", r.fleet))
        })
        .check("server-ledger-reconciles", |r| {
            let challenged = r.servers.counter("auth.challenge").unwrap_or(0);
            let granted = r.servers.counter("auth.success").unwrap_or(0);
            let refused = r.servers.counter("auth.failure").unwrap_or(0);
            if challenged != (ROUNDS * r.fleet) as u64 {
                Err(format!("{challenged} challenges for {} stormers", r.fleet))
            } else if granted != r.ops() {
                Err(format!(
                    "server granted {granted}, clients counted {}",
                    r.ops()
                ))
            } else if refused != r.denied() {
                Err(format!(
                    "server refused {refused}, clients counted {}",
                    r.denied()
                ))
            } else {
                Ok(())
            }
        })
        .check("handshake-throughput", |r| {
            let rate = (r.ops() + r.denied()) as f64 / r.wall_elapsed.as_secs_f64().max(1e-9);
            (rate > 25.0)
                .then_some(())
                .ok_or_else(|| format!("{rate:.1} handshakes/s under the 25/s floor"))
        })
}

#[test]
fn mass_auth_storm() {
    run(auth_storm(
        scenario_seed(5),
        fleet_size(80, 400),
        fleet_size(20, 100),
    ));
}

// ------------------------------------------------- rotation under load
// A storm with key alpha, then the ring rotates to beta at the phase
// boundary: stale-alpha handshakes must be refused from the instant of
// rotation, beta handshakes must land, and nothing else may wobble.
// The ring lives in a static so the phase hook (a plain fn) can reach
// it; setup re-arms alpha so every (re-)execution starts pristine.

static ROTATION_RING: OnceLock<KeyRing> = OnceLock::new();
const ROTOR_SUBJECT: &str = "/O=Sim/CN=rotor";
const KEY_ALPHA: &[u8] = b"rotation-key-alpha";
const KEY_BETA: &[u8] = b"rotation-key-beta";

fn rotation_ring() -> &'static KeyRing {
    ROTATION_RING.get_or_init(KeyRing::new)
}

fn arm_alpha(_sim: &SimTss) {
    let ring = rotation_ring();
    if !ring.rotate("globus", ROTOR_SUBJECT, KEY_ALPHA) {
        ring.register("globus", ROTOR_SUBJECT, KEY_ALPHA);
    }
}

fn rotate_to_beta(_sim: &SimTss) {
    rotation_ring().rotate("globus", ROTOR_SUBJECT, KEY_BETA);
}

fn rotation_under_load(seed: u64, unit: usize) -> Scenario {
    const ROUNDS: usize = 2;
    let stormer = |key: &[u8], expect_success: bool| Role::AuthStormer {
        method: "globus".into(),
        name: ROTOR_SUBJECT.into(),
        key: key.to_vec(),
        expect_success,
    };
    Scenario::new("rotation-under-load", seed)
        .servers(2)
        .keys(rotation_ring().clone())
        .setup(arm_alpha)
        .phase(Phase::new("alpha-era").with(2 * unit, stormer(KEY_ALPHA, true), ROUNDS))
        .phase(
            Phase::new("beta-era")
                .on_start(rotate_to_beta)
                .with(unit, stormer(KEY_ALPHA, false), ROUNDS)
                .with(2 * unit, stormer(KEY_BETA, true), ROUNDS),
        )
        .check("no-surprises", |r| {
            // Stale alpha landing after rotation, or live keys refused.
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} handshakes broke the rotation contract", r.failures()))
        })
        .check("every-handshake-resolved", |r| {
            let total = r.ops() + r.denied();
            (total == (ROUNDS * r.fleet) as u64)
                .then_some(())
                .ok_or_else(|| format!("{total} outcomes for {} stormers", r.fleet))
        })
        .check("stale-keys-were-refused", |r| {
            // Shrink-sound lower bound: with any stale-alpha client
            // surviving, denials are non-zero; the exact share is
            // checked by the fleet composition itself.
            (r.fleet == 0 || r.denied() > 0 || r.ops() == (ROUNDS * r.fleet) as u64)
                .then_some(())
                .ok_or_else(|| "no denials despite stale-alpha stormers".to_string())
        })
}

#[test]
fn key_rotation_under_auth_load() {
    run(rotation_under_load(scenario_seed(6), fleet_size(25, 120)));
}

// ----------------------------------------------------- cyclic pushes
// THIRDPUT in cycles on one-shard servers, all at once: A and B pushing
// to each other, the 3-cycle A→B→C→A, and C pushing to itself. A push
// runs off its server's serving shard, so none of them waits on its own
// reactor; were it served on the shard, each cycle would park the
// reactors it passes through until the client timeout.

fn cyclic_thirdput(seed: u64, unit: usize) -> Scenario {
    const ROUNDS: usize = 3;
    let edge = |from, to| Role::Pusher { from, to };
    Scenario::new("cyclic-thirdput", seed)
        .servers(3)
        .reactor_workers(1)
        .setup(standard_setup)
        .phase(
            Phase::new("cycles")
                .with(unit, edge(0, 1), ROUNDS)
                .with(unit, edge(1, 0), ROUNDS)
                .with(unit, edge(1, 2), ROUNDS)
                .with(unit, edge(2, 0), ROUNDS)
                .with(unit, edge(2, 2), ROUNDS),
        )
        .check("zero-failures", |r| {
            (r.failures() == 0)
                .then_some(())
                .ok_or_else(|| format!("{} pushes failed", r.failures()))
        })
        .check("every-push-landed", |r| {
            let pushes = (ROUNDS * r.fleet) as u64;
            let served = r.servers.counter("rpc.thirdput.count").unwrap_or(0);
            let landed = r.servers.counter("rpc.putfile.count").unwrap_or(0);
            (r.ops() == pushes && served == pushes && landed == pushes)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "{pushes} pushes: {} ok, {served} THIRDPUTs served, {landed} landed",
                        r.ops()
                    )
                })
        })
        .check("p99-latency", |r| {
            let p99 = r.latency_quantile(0.99);
            (p99 < Duration::from_secs(1))
                .then_some(())
                .ok_or_else(|| format!("p99 {p99:?} exceeds 1s"))
        })
}

#[test]
fn cyclic_thirdput_completes() {
    run(cyclic_thirdput(scenario_seed(8), fleet_size(4, 16)));
}

// --------------------------------------------------- regression corpus
// Satellite: the worst `SCENARIO_SEED` each scenario has produced, kept
// green at small fixed fleets as a fast-tier guard. When a scenario
// failure is minimized, pin its seed here so the regression stays
// covered even after the default seeds move on.

#[test]
fn scenario_seed_regression_corpus() {
    // Initial corpus: the suite's launch seeds plus the seed that
    // exposed the reactor self-THIRDPUT stall during bring-up (a
    // replicator pushing to its own server parked the reactor until
    // the client timeout), and the cyclic-push seed, which stalled the
    // same way until pushes left the serving shard.
    for seed in [1, 3] {
        run(stampede(seed, 12));
    }
    run(acl_churn(3, 8));
    for seed in [4, 7] {
        run(mixed_soak(seed, 2));
    }
    run(auth_storm(5, 10, 4));
    run(cyclic_thirdput(8, 1));
}
