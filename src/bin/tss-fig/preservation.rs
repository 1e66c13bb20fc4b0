//! Figure 9 — Data Preservation in the GEMS Distributed Shared
//! Database: a 14 GB dataset under a 40 GB budget, replicated to the
//! budget, surviving induced failures of 1, 5, and 10 disks.
//!
//! Two views: the paper-scale simulation (`simnet::gems`) and a real
//! mini-run of the `gems` crate against live Chirp servers, with data
//! forcibly deleted from 1, 2, and 3 of 12 servers — proportionally
//! the paper's 1/5/10 of 120.

use std::time::Duration;

use tss::chirp_proto::localfs::LocalFs;
use tss::chirp_proto::testutil::TempDir;
use tss::core::stubfs::DataServer;
use tss::gems::{Gems, GemsConfig};
use tss::simnet::gems::{run, GemsParams};

use crate::rig::{auth, open_server, print_table};

pub fn fig9() {
    let p = GemsParams::default();
    let r = run(&p);
    // Downsample the series for a readable table.
    let rows: Vec<Vec<String>> = r
        .series
        .iter()
        .step_by(10)
        .map(|s| {
            vec![
                format!("{:.0}", s.time),
                format!("{:.1}", s.stored as f64 / (1u64 << 30) as f64),
                s.files_alive.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 9 (simulated, paper scale): GEMS preservation",
        &["t (s)", "stored (GB)", "files alive"],
        &rows,
    );
    println!(
        "  14 GB dataset, 40 GB budget, {} disks; failures wipe 1, 5, 10 disks\n\
         \x20 at t=2500/5000/7500; the auditor+replicator restore the budget.\n\
         \x20 files lost: {}",
        p.disks, r.files_lost
    );

    println!("\n== Figure 9 (real mini-run): live gems crate, 12 servers ==");
    let dirs: Vec<TempDir> = (0..12).map(|_| TempDir::new()).collect();
    let servers: Vec<_> = dirs.iter().map(|d| open_server(d.path())).collect();
    let pool = servers
        .iter()
        .map(|s| DataServer::new(&s.endpoint(), "/gems", auth()))
        .collect();
    // The record index lives beside the pool volume on the last
    // server, which no wipe below touches.
    let records = DataServer::new(&servers[11].endpoint(), "/gems-records", auth());
    let mut config = GemsConfig::new(records, pool);
    config.default_target = 3;
    config.timeout = Duration::from_secs(5);
    let g = Gems::connect(config).unwrap();

    // "Dataset": 56 files x 256 KB = 14 MB (scale 1:1000).
    let file_bytes = 256 * 1024;
    for i in 0..56u64 {
        let data: Vec<u8> = (0..file_bytes as u64)
            .map(|j| ((i * 31 + j * 7) % 251) as u8)
            .collect();
        g.ingest(
            &format!("dataset/file{i:03}"),
            &[("project", "fig9")],
            &data,
        )
        .unwrap();
    }
    let stored_mb = || -> f64 {
        let bytes: u64 = dirs
            .iter()
            .map(|d| {
                let volume = LocalFs::new(d.path().join("gems")).expect("volume root");
                tss::chirp_server::handlers::disk_usage(&volume)
            })
            .sum();
        bytes as f64 / 1e6
    };
    println!(
        "  after ingest (1 copy each):   {:>6.1} MB stored",
        stored_mb()
    );
    g.maintain().unwrap();
    println!(
        "  after replication (target 3): {:>6.1} MB stored",
        stored_mb()
    );

    for wipe in [1usize, 2, 3] {
        for dir in dirs.iter().take(wipe) {
            let vol = dir.path().join("gems");
            for entry in std::fs::read_dir(&vol).unwrap().flatten() {
                if entry.file_name() != ".__acl" {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        println!(
            "  wiped {wipe} server(s):          {:>6.1} MB stored",
            stored_mb()
        );
        let (audit, repair) = g.maintain().unwrap();
        println!(
            "  audit found {} missing; replicator copied {}: {:>6.1} MB stored",
            audit.missing,
            repair.copied,
            stored_mb()
        );
    }
    // Final integrity check: every file still fetchable and intact.
    let intact = (0..56u64)
        .filter(|i| g.fetch(&format!("dataset/file{i:03}")).is_ok())
        .count();
    println!("  files intact after all failures: {intact}/56");
}
