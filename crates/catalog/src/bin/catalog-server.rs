//! `catalog-server` — run a TSS catalog.
//!
//! ```text
//! catalog-server [--udp-port N] [--tcp-port N] [--expiry SECS]
//! ```
//!
//! File servers report over UDP; clients query the listing over TCP
//! (send `text\n` or `json\n`, read the body).

use std::time::Duration;

use catalog::{CatalogConfig, CatalogServer};

fn usage() -> ! {
    eprintln!("usage: catalog-server [--udp-port N] [--tcp-port N] [--expiry SECS]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut udp_port = 9097u16;
    let mut tcp_port = 9097u16;
    let mut expiry = Duration::from_secs(900);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--udp-port" => udp_port = val().parse().unwrap_or_else(|_| usage()),
            "--tcp-port" => tcp_port = val().parse().unwrap_or_else(|_| usage()),
            "--expiry" => expiry = Duration::from_secs(val().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let config = CatalogConfig {
        bind_udp: format!("0.0.0.0:{udp_port}").parse().expect("bind"),
        bind_tcp: format!("0.0.0.0:{tcp_port}").parse().expect("bind"),
        expiry,
        clock: chirp_proto::Clock::wall(),
    };
    match CatalogServer::start(config) {
        Ok(server) => {
            println!(
                "catalog-server: reports on udp {}, queries on tcp {}",
                server.udp_addr().expect("start binds a report socket"),
                server.tcp_addr()
            );
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("catalog-server: {e}");
            std::process::exit(1);
        }
    }
}
