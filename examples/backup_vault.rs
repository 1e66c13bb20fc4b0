//! Distributed backups over tactical storage (paper §10): record
//! images of a working directory into a friend's file server, browse
//! old versions on-line, recover after a mistake, and prune history.
//!
//! ```sh
//! cargo run --example backup_vault
//! ```

use std::sync::Arc;

use tss::chirp_client::AuthMethod;
use tss::chirp_proto::testutil::TempDir;
use tss::chirp_server::acl::Acl;
use tss::chirp_server::{FileServer, ServerConfig};
use tss::core::{BackupVault, Cfs, LocalFs};

fn main() -> std::io::Result<()> {
    // A friend shares a directory on their workstation.
    let friend = TempDir::new();
    let server = FileServer::start(
        ServerConfig::localhost(friend.path(), "trusted-friend")
            .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap()),
    )?;
    let storage = Arc::new(Cfs::connect(&server.endpoint(), vec![AuthMethod::Hostname]));
    let vault = BackupVault::open(storage, "/backups/my-thesis")?;
    println!("vault opened on {}", server.endpoint());

    // A working directory evolves over three days.
    let work = TempDir::new();
    let work_fs = LocalFs::new(work.path())?;
    std::fs::create_dir_all(work.path().join("chapters"))?;
    std::fs::write(work.path().join("chapters/intro.tex"), b"\\section{Intro}")?;
    std::fs::write(work.path().join("refs.bib"), b"@article{thain2005}")?;
    let day1 = vault.backup(&work_fs, "day1")?;
    println!(
        "day1: {} files, {} bytes recorded",
        day1.file_count, day1.total_bytes
    );

    std::fs::write(
        work.path().join("chapters/eval.tex"),
        b"\\section{Evaluation}",
    )?;
    let day2 = vault.backup(&work_fs, "day2")?;
    println!(
        "day2: {} files (only the new chapter uploaded — dedup)",
        day2.file_count
    );

    // Day three: disaster. The intro is overwritten with garbage and
    // backed up before anyone notices.
    std::fs::write(work.path().join("chapters/intro.tex"), b"asdfasdf")?;
    vault.backup(&work_fs, "day3")?;

    // On-line forensics: find when it broke, without restoring.
    for image in vault.images()? {
        let intro = vault.read_file(&image.name, "chapters/intro.tex")?;
        println!(
            "  {}: intro.tex = {:?}",
            image.label,
            String::from_utf8_lossy(&intro)
        );
    }

    // Recovery: pull yesterday's intro back.
    let good = vault.read_file(&day2.name, "chapters/intro.tex")?;
    std::fs::write(work.path().join("chapters/intro.tex"), &good)?;
    println!("recovered intro.tex from {}", day2.label);

    // Or restore a whole image elsewhere.
    let restore_dir = TempDir::new();
    let files = vault.restore(&day2.name, &LocalFs::new(restore_dir.path())?)?;
    println!(
        "restored {} files from {} into a fresh tree",
        files, day2.label
    );

    // Keep history bounded on the borrowed disk.
    let (images_gone, blobs_gone) = vault.prune(2)?;
    println!(
        "pruned {images_gone} old image(s), collected {blobs_gone} unreferenced blob(s); \
         {:.1} KB now stored",
        vault.stored_bytes()? as f64 / 1e3
    );
    Ok(())
}
