//! Quickstart: deploy a personal file server, share it, and use it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks the paper's §4 story end to end on your own machine: an
//! ordinary user runs one command to export a directory, controls who
//! may do what through per-directory ACLs over the virtual user space,
//! lets a visitor reserve a private workspace, and discovers servers
//! through a catalog.

use std::time::Duration;

use tss::catalog::{CatalogConfig, CatalogServer};
use tss::chirp_client::{AuthMethod, Connection};
use tss::chirp_proto::testutil::TempDir;
use tss::chirp_server::acl::Acl;
use tss::chirp_server::{FileServer, ServerConfig};

fn main() -> std::io::Result<()> {
    let timeout = Duration::from_secs(5);

    // A catalog for discovery (a site usually runs one or two).
    let catalog = CatalogServer::start(CatalogConfig::localhost(Duration::from_secs(60)))?;

    // -- the resource layer: one command deploys a file server --------
    // The owner exports a directory. No root, no kernel modules, no
    // configuration files: a root ACL and a key for themselves.
    let storage = TempDir::new();
    let server = FileServer::start(
        ServerConfig::localhost(storage.path(), "alice")
            // Visitors identified by hostname may carve out private
            // space (reserve right) but touch nothing else; alice's
            // grid identity has everything.
            .with_root_acl(
                Acl::parse(
                    "hostname:* v(rwl)\n\
                     globus:/O=Demo/CN=alice rwlda\n",
                )
                .unwrap(),
            )
            .with_key("globus", "/O=Demo/CN=alice", b"alice-secret-key")
            // The owner retains access to all data on her server.
            .with_superuser("globus:/O=Demo/CN=alice")
            .with_catalog(
                catalog.udp_addr().expect("UDP catalog"),
                Duration::from_millis(100),
            ),
    )?;
    println!("file server deployed at {}", server.endpoint());

    // -- the owner uses her own server ---------------------------------
    let mut alice = Connection::connect(server.addr(), timeout)?;
    let subject = alice
        .authenticate(&[AuthMethod::key("globus", "", b"alice-secret-key")])
        .map_err(std::io::Error::from)?;
    println!("alice authenticated as: {subject}");
    alice
        .mkdir("/software", 0o755)
        .map_err(std::io::Error::from)?;
    alice
        .putfile("/software/libphysics.so", 0o644, b"pretend shared library")
        .map_err(std::io::Error::from)?;
    println!("alice stored /software/libphysics.so");

    // -- a visitor reserves a private workspace ------------------------
    let mut visitor = Connection::connect(server.addr(), timeout)?;
    let vsubject = visitor
        .authenticate(&[AuthMethod::Hostname])
        .map_err(std::io::Error::from)?;
    println!("visitor authenticated as: {vsubject}");
    // Direct writes at the root are refused...
    assert!(visitor.putfile("/evil", 0o644, b"nope").is_err());
    // ...but mkdir under the reserve right creates a private space
    // whose ACL names only the visitor.
    visitor
        .mkdir("/backup", 0o755)
        .map_err(std::io::Error::from)?;
    visitor
        .putfile("/backup/notes.txt", 0o644, b"my private data")
        .map_err(std::io::Error::from)?;
    let acl = visitor.getacl("/backup").map_err(std::io::Error::from)?;
    println!("visitor's private ACL in /backup:\n  {}", acl.trim());

    // The owner retains access to everything on her server.
    let notes = alice
        .getfile("/backup/notes.txt")
        .map_err(std::io::Error::from)?;
    assert_eq!(notes, b"my private data");

    // -- discovery through the catalog ----------------------------------
    std::thread::sleep(Duration::from_millis(300)); // let a report land
    let listing = tss::catalog::query(catalog.tcp_addr(), timeout)?;
    println!("catalog lists {} server(s):", listing.len());
    for r in &listing {
        println!(
            "  {} owned by {} — {:.1} MB free of {:.1} MB",
            r.address,
            r.owner,
            r.free as f64 / 1e6,
            r.total as f64 / 1e6
        );
    }
    println!("quickstart complete");
    Ok(())
}
