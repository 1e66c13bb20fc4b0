//! The reactor at connection scale, over the in-memory network.
//!
//! * **Idle-connection soak** — thousands of idle connections held on
//!   one server: memory must stay flat while they idle (no
//!   per-connection thread stacks, no buffer creep), the server must
//!   stay responsive through the crowd, and shutdown must retire every
//!   connection cleanly. `REACTOR_SOAK=50000` scales it to the
//!   headline 50k; the default 2000 rides the shared `SCENARIO_SCALE`
//!   knob with the rest of the mass-client workloads.
//! * **Listener-closed-is-terminal** — unbinding the address under a
//!   live server (the simulated host death the tree chaos tests
//!   inflict) must stop the accept loop without spinning, keep
//!   already-accepted connections serving, and still shut down
//!   cleanly.
//!
//! The reactor's replies are checked op-for-op against the model by
//! the differential suite (`tests/differential.rs`).

use std::io::Read;
use std::time::Duration;

use simharness::scenario::rss_bytes;
use simharness::SimTss;

#[test]
fn idle_connection_soak_holds_flat_memory() {
    let n = std::env::var("REACTOR_SOAK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| simharness::scenario::fleet_size(2000, 2000));
    // Room for the crowd plus the probe client.
    let sim = SimTss::builder().max_connections(n + 8).build();
    let mut conns = Vec::with_capacity(n);
    let dialer = sim.net().dialer();
    let endpoint = sim.servers()[0].endpoint();
    for _ in 0..n {
        conns.push(
            dialer
                .dial(&endpoint, Duration::from_secs(5))
                .expect("dial idle conn"),
        );
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while sim.servers()[0].active_connections() < n {
        assert!(
            std::time::Instant::now() < deadline,
            "only {}/{n} connections adopted",
            sim.servers()[0].active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Hold the crowd idle and watch memory: established-state RSS must
    // not creep while nothing happens (level-triggered loops that
    // buffer per-tick would show up here).
    #[cfg(target_os = "linux")]
    let settled = rss_bytes().expect("resident set size");
    let mut probe = sim.connect(0); // arrives pre-authenticated
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(100));
        // The server keeps answering through the idle crowd.
        probe.whoami().expect("responsive under idle crowd");
    }
    #[cfg(target_os = "linux")]
    {
        let held = rss_bytes().expect("resident set size");
        let grown = held.saturating_sub(settled);
        assert!(
            grown < 16 * 1024 * 1024,
            "RSS grew {grown} bytes while {n} connections sat idle"
        );
    }

    // Listener close over the idle crowd: clean retirement, EOF for
    // every client.
    drop(probe);
    let mut sim = sim;
    sim.shutdown();
    let mut byte = [0u8; 1];
    for (i, conn) in conns.iter_mut().enumerate() {
        match conn.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(k) => panic!("idle conn {i} read {k} bytes after shutdown"),
        }
    }
}

#[test]
fn unbound_listener_is_terminal_not_a_spin() {
    let mut sim = SimTss::builder().build();
    let addr = sim.servers()[0].addr();
    let mut conn = sim.connect(0); // arrives pre-authenticated
    conn.mkdir("/survives", 0o755).unwrap();

    // The simulated host death: the address unbinds under the accept
    // loop. New dials fail immediately...
    sim.net().unbind(addr);
    assert!(
        sim.net()
            .dialer()
            .dial(&addr.to_string(), Duration::from_millis(200))
            .is_err(),
        "unbound address must refuse dials"
    );
    // ...while the already-accepted connection keeps serving: the
    // accept loop is dead, the reactor is not.
    assert_eq!(
        conn.getdir("/").unwrap(),
        vec!["survives".to_string()],
        "live connection must keep serving"
    );
    drop(conn);
    // Shutdown still completes promptly: the accept thread exited on
    // the listener-closed error instead of spinning on it.
    sim.shutdown();
}
