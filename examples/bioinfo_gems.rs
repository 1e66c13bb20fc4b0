//! Bioinformatics data management with GEMS (paper §9): index, share,
//! and preserve simulation outputs across a pool of file servers.
//!
//! ```sh
//! cargo run --example bioinfo_gems
//! ```
//!
//! A research group pours PROTOMOL-style simulation outputs into the
//! distributed shared database. The files land on whichever servers
//! have space, are indexed by attributes, and are kept alive by the
//! auditor/replicator pair even as storage owners delete data out from
//! under the system.

use std::time::Duration;

use tss::chirp_client::AuthMethod;
use tss::chirp_proto::testutil::TempDir;
use tss::chirp_server::acl::Acl;
use tss::chirp_server::{FileServer, ServerConfig};
use tss::core::stubfs::DataServer;
use tss::gems::{Gems, GemsConfig};

fn main() -> std::io::Result<()> {
    // A pool of six file servers — workstations, classroom machines,
    // cluster nodes; any directory anyone is willing to share.
    let mut dirs = Vec::new();
    let mut servers = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..6 {
        let dir = TempDir::new();
        let server = FileServer::start(
            ServerConfig::localhost(dir.path(), "grid-owner")
                .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
        )?;
        pool.push(DataServer::new(
            &server.endpoint(),
            "/gems",
            vec![AuthMethod::Hostname],
        ));
        dirs.push(dir);
        servers.push(server);
    }
    // The record index is one more directory on the last server: any
    // Chirp server can hold it, beside the volume it lends the pool.
    let records = DataServer::new(
        &servers[5].endpoint(),
        "/gems-records",
        vec![AuthMethod::Hostname],
    );
    let mut config = GemsConfig::new(records, pool);
    config.default_target = 3;
    config.timeout = Duration::from_secs(5);
    let gems = Gems::connect(config)?;
    println!("GEMS online: record index + {} file servers", servers.len());

    // -- ingest a batch of simulation outputs ---------------------------
    for run in 0..8u32 {
        let temperature = 290 + 10 * (run % 3);
        let data: Vec<u8> = (0..64 * 1024u32)
            .map(|i| ((i.wrapping_mul(2654435761) ^ run) % 251) as u8)
            .collect();
        gems.ingest(
            &format!("protomol/run{run:02}/trajectory.dcd"),
            &[
                ("project", "protomol"),
                ("molecule", if run % 2 == 0 { "bpti" } else { "villin" }),
                ("temperature", &format!("{temperature}K")),
            ],
            &data,
        )?;
    }
    println!("ingested 8 trajectories");

    // -- index queries ---------------------------------------------------
    let bpti = gems.query("molecule", "bpti")?;
    println!("molecule=bpti matches {} runs: {bpti:?}", bpti.len());
    let hot = gems.query("temperature", "31*")?;
    println!("temperature=31xK matches {} runs", hot.len());

    // -- replicate up to the target ---------------------------------------
    let (audit, repair) = gems.maintain()?;
    println!(
        "maintenance: {} records audited, {} new replicas placed",
        audit.records, repair.copied
    );
    let rec = gems.record("protomol/run00/trajectory.dcd")?;
    println!(
        "run00 now has {} replicas on distinct servers",
        rec.replicas.len()
    );

    // -- a storage owner reclaims their disk ------------------------------
    // Resource owners may forcibly delete data placed by other users
    // at any time; preservation must survive it.
    let victim = dirs[0].path().join("gems");
    let mut evicted = 0;
    for entry in std::fs::read_dir(&victim)?.flatten() {
        if entry.file_name() != ".__acl" {
            std::fs::remove_file(entry.path())?;
            evicted += 1;
        }
    }
    println!("server 0's owner evicted {evicted} files");

    let (audit, repair) = gems.maintain()?;
    println!(
        "auditor found {} missing replicas; replicator restored {}",
        audit.missing, repair.copied
    );

    // Every trajectory is still wholly intact (checksum-verified).
    for run in 0..8u32 {
        let name = format!("protomol/run{run:02}/trajectory.dcd");
        let data = gems.fetch(&name)?;
        assert_eq!(data.len(), 64 * 1024);
    }
    println!("all 8 trajectories verified intact — preservation held");
    Ok(())
}
