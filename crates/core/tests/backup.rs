//! The distributed-backup application over live storage: record,
//! peruse, restore, dedup, prune — the conclusion's closing scenario.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out the tree it backs up, and inspects a restore and the server's export, on the host"
)]

mod common;

use std::sync::Arc;

use chirp_proto::testutil::TempDir;
use common::{cfs, data_count, open_server};
use tss_core::{BackupVault, LocalFs};

/// The host directory `dir` as the side of a backup or a restore.
fn local(dir: &TempDir) -> LocalFs {
    LocalFs::new(dir.path()).unwrap()
}

fn write_tree(root: &std::path::Path) {
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(root.join("README"), b"project docs").unwrap();
    std::fs::write(root.join("src/main.rs"), b"fn main() {}").unwrap();
    std::fs::write(root.join("src/lib.rs"), b"pub fn f() {}").unwrap();
}

fn vault_fixture() -> (TempDir, chirp_server::FileServer, BackupVault) {
    let host = TempDir::new();
    let server = open_server(host.path());
    let fs = Arc::new(cfs(&server.endpoint()));
    let vault = BackupVault::open(fs, "/backups").unwrap();
    (host, server, vault)
}

#[test]
fn backup_restore_round_trip() {
    let (_host, _server, vault) = vault_fixture();
    let src = TempDir::new();
    write_tree(src.path());
    let image = vault.backup(&local(&src), "nightly").unwrap();
    assert_eq!(image.seq, 1);
    assert_eq!(image.file_count, 3);

    let dest = TempDir::new();
    let restored = vault.restore(&image.name, &local(&dest)).unwrap();
    assert_eq!(restored, 3);
    assert_eq!(
        std::fs::read(dest.path().join("README")).unwrap(),
        b"project docs"
    );
    assert_eq!(
        std::fs::read(dest.path().join("src/main.rs")).unwrap(),
        b"fn main() {}"
    );
}

#[test]
fn unchanged_files_share_blobs_across_images() {
    let (host, _server, vault) = vault_fixture();
    let src = TempDir::new();
    write_tree(src.path());
    vault.backup(&local(&src), "one").unwrap();
    let objects_after_first = data_count(&host.path().join("backups/objects"));
    assert_eq!(objects_after_first, 3);

    // Change one file, add none: only one new blob appears.
    std::fs::write(src.path().join("README"), b"project docs v2").unwrap();
    let image2 = vault.backup(&local(&src), "two").unwrap();
    assert_eq!(image2.seq, 2);
    let objects_after_second = data_count(&host.path().join("backups/objects"));
    assert_eq!(
        objects_after_second,
        objects_after_first + 1,
        "dedup: unchanged files upload nothing"
    );
    assert_eq!(vault.images().unwrap().len(), 2);
}

#[test]
fn online_perusal_and_forensics_over_time() {
    let (_host, _server, vault) = vault_fixture();
    let src = TempDir::new();
    write_tree(src.path());
    vault.backup(&local(&src), "before").unwrap();
    std::fs::write(src.path().join("src/main.rs"), b"fn main() { pwned(); }").unwrap();
    vault.backup(&local(&src), "after").unwrap();

    let images = vault.images().unwrap();
    assert_eq!(images.len(), 2);
    // Forensics: compare the same path across points in time without
    // restoring anything.
    let old = vault.read_file(&images[0].name, "src/main.rs").unwrap();
    let new = vault.read_file(&images[1].name, "src/main.rs").unwrap();
    assert_eq!(old, b"fn main() {}");
    assert_eq!(new, b"fn main() { pwned(); }");
    // Perusal lists the tree.
    let listing = vault.list_image(&images[0].name).unwrap();
    assert_eq!(listing.len(), 3);
    assert!(listing.iter().any(|(p, _)| p == "README"));
}

#[test]
fn prune_keeps_recent_images_and_collects_garbage() {
    let (host, _server, vault) = vault_fixture();
    let src = TempDir::new();
    write_tree(src.path());
    for label in ["a", "b", "c"] {
        std::fs::write(src.path().join("README"), format!("version {label}")).unwrap();
        vault.backup(&local(&src), label).unwrap();
    }
    // 3 shared blobs + 3 README versions... shared: main.rs, lib.rs
    // constant; README differs per image.
    assert_eq!(data_count(&host.path().join("backups/objects")), 5);

    let (images_removed, objects_removed) = vault.prune(1).unwrap();
    assert_eq!(images_removed, 2);
    assert_eq!(objects_removed, 2, "two stale README blobs collected");
    let images = vault.images().unwrap();
    assert_eq!(images.len(), 1);
    assert_eq!(images[0].label, "c");
    // The survivor is fully restorable.
    let dest = TempDir::new();
    vault.restore(&images[0].name, &local(&dest)).unwrap();
    assert_eq!(
        std::fs::read(dest.path().join("README")).unwrap(),
        b"version c"
    );
}

#[test]
fn corrupted_blob_is_detected_on_read() {
    let (host, _server, vault) = vault_fixture();
    let src = TempDir::new();
    write_tree(src.path());
    let image = vault.backup(&local(&src), "x").unwrap();
    // Corrupt one object in place on the storage host.
    let objects = host.path().join("backups/objects");
    let victim = std::fs::read_dir(&objects)
        .unwrap()
        .flatten()
        .find(|e| e.file_name() != ".__acl")
        .unwrap();
    std::fs::write(victim.path(), b"garbage").unwrap();
    // At least one file now fails its checksum on perusal.
    let failures = vault
        .list_image(&image.name)
        .unwrap()
        .iter()
        .filter(|(p, _)| vault.read_file(&image.name, p).is_err())
        .count();
    assert_eq!(failures, 1);
}

#[test]
fn labels_are_validated() {
    let (_host, _server, vault) = vault_fixture();
    let src = TempDir::new();
    write_tree(src.path());
    assert!(vault.backup(&local(&src), "").is_err());
    assert!(vault.backup(&local(&src), "has/slash").is_err());
    assert!(vault.backup(&local(&src), "has-dash").is_err());
}
