//! `conn-scale` — aggregate small-op throughput vs client count.
//!
//! For each client count N, starts one loopback file server, connects
//! N clients over real TCP, and has every client issue serial 64-byte
//! preads for a fixed window. The table reports aggregate ops/s per N
//! and how many clients never got a session. EXPERIMENTS.md records a
//! run.
//!
//! Env knobs: `CONN_SCALE_CLIENTS` (comma list, default `64,256,1000`
//! scaled by `SCENARIO_SCALE` — the same knob that resizes the
//! scenario suite and the idle soak), `CONN_SCALE_SECS` (measurement
//! window per cell, default 2).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use chirp_client::Connection;
use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::{FileServer, ServerConfig};
use tss_bench::{auth, print_table};

const READ_BYTES: u64 = 64;
const TIMEOUT: Duration = Duration::from_secs(10);

fn env_csv(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// Connect, authenticate, and open the benchmark file, retrying the
/// whole sequence: thousands of simultaneous SYNs can overflow the
/// accept backlog, and a connection the stampede got refused or
/// dropped mid-handshake is ramp-up noise, not signal. `None` after
/// the retry budget — the caller must still reach the start barrier
/// (a panic here would strand every other participant on it), so a
/// failed session becomes a zero-op client counted in the table's
/// `failed` column.
fn session(endpoint: &str) -> Option<(Connection, i32)> {
    for _ in 0..150 {
        let attempt = Connection::connect(endpoint, TIMEOUT).and_then(|mut conn| {
            conn.authenticate(&auth())?;
            let (fd, _) = conn.open("/small", OpenFlags::READ, 0)?;
            Ok((conn, fd))
        });
        match attempt {
            Ok(ready) => return Some(ready),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    None
}

/// Aggregate ops/s for `clients` serial-pread clients against one
/// server, plus how many clients never got a session.
fn measure(clients: usize, window: Duration) -> (f64, usize) {
    let dir = TempDir::new();
    let mut cfg = ServerConfig::localhost(dir.path(), "bench")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap());
    cfg.max_connections = clients + 16;
    let server = FileServer::start(cfg).expect("start server");
    std::fs::write(dir.path().join("small"), vec![0x42u8; READ_BYTES as usize]).unwrap();

    let endpoint = server.endpoint();
    let start = Arc::new(Barrier::new(clients + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::with_capacity(clients);
    for _ in 0..clients {
        let endpoint = endpoint.clone();
        let start = Arc::clone(&start);
        let stop = Arc::clone(&stop);
        // Small stacks: 1000 default-sized client threads would be the
        // benchmark's own memory story, not the server's.
        let t = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let ready = session(&endpoint);
                start.wait();
                let (mut conn, fd) = ready?;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let data = conn.pread(fd, READ_BYTES, 0).expect("pread");
                    assert_eq!(data.len() as u64, READ_BYTES);
                    ops += 1;
                }
                Some(ops)
            })
            .expect("spawn client");
        workers.push(t);
    }

    start.wait();
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut total = 0u64;
    let mut failed = 0usize;
    for w in workers {
        match w.join().expect("client thread") {
            Some(ops) => total += ops,
            None => failed += 1,
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(server);
    (total as f64 / elapsed, failed)
}

fn main() {
    // The default fleet sizes ride the shared SCENARIO_SCALE knob via
    // fleet_size; an explicit CONN_SCALE_CLIENTS list still wins.
    let default: Vec<usize> = [64, 256, 1000]
        .iter()
        .map(|&n| simharness::scenario::fleet_size(n, n))
        .collect();
    let counts = env_csv("CONN_SCALE_CLIENTS", &default);
    let secs: u64 = std::env::var("CONN_SCALE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let window = Duration::from_secs(secs);

    let mut rows = Vec::new();
    for &n in &counts {
        let (ops_per_s, failed) = measure(n, window);
        rows.push(vec![
            n.to_string(),
            format!("{ops_per_s:.0}"),
            failed.to_string(),
        ]);
    }
    print_table(
        "Connection scaling: aggregate 64 B pread ops/s",
        &["clients", "ops/s", "failed sessions"],
        &rows,
    );
    println!(
        "  {} s window per cell, serial preads per client, loopback TCP,\n\
         \x20 {} host cores; every connection is multiplexed onto a fixed\n\
         \x20 worker pool.",
        secs,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
}
