//! The replicator: examine the deficits the auditor exposed and repair
//! them by re-replicating from the remaining copies.

use std::io;

use crate::record::Replica;
use crate::system::Gems;

/// What one replication pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Records that were below their replica target.
    pub deficient: u64,
    /// Replica copies successfully created.
    pub copied: u64,
    /// Records that could not be repaired (no live source, or no
    /// eligible destination server).
    pub unrepairable: u64,
}

/// Repair up to `max_copies` missing replicas across the database.
///
/// For each under-replicated record: pick a live source replica, place
/// a new copy on the pool server with the most free space that does
/// not already hold one, and update the record. The copy travels
/// server-to-server via the `THIRDPUT` RPC where possible, falling
/// back to a pull-push through this client; either way the new copy is
/// verified with the server-side checksum before it is advertised.
pub fn replicate_once(gems: &Gems, max_copies: usize) -> io::Result<ReplicationReport> {
    let names = gems.list()?;
    let mut report = ReplicationReport::default();
    let mut budget = max_copies;
    for name in names {
        let Ok(mut rec) = gems.record(&name) else {
            continue;
        };
        if rec.deficit() == 0 {
            continue;
        }
        report.deficient += 1;
        let mut progressed = false;
        while rec.deficit() > 0 && budget > 0 {
            let Some(source) = verified_source(gems, &rec) else {
                break;
            };
            // A destination not yet holding this file.
            let Some(server) = gems.place(&rec).cloned() else {
                break;
            };
            let path = format!(
                "{}/{}",
                server.volume,
                tss_core::placement::unique_data_name()
            );
            if !copy_replica(gems, &rec, source, &server, &path) {
                break;
            }
            // Verify the new copy before advertising it.
            let cfs = gems.conn_for(&server.endpoint, &server.auth);
            if cfs.checksum(&path).ok() != Some(rec.checksum) {
                let _ = tss_core::fs::FileSystem::unlink(cfs.as_ref(), &path);
                break;
            }
            // Sidecar beside the new copy keeps rescan-rebuild whole.
            let cfs = gems.conn_for(&server.endpoint, &server.auth);
            cfs.putfile(
                &crate::system::sidecar_path(&path),
                0o644,
                rec.render_sidecar().as_bytes(),
            )?;
            rec.replicas.push(Replica {
                endpoint: server.endpoint.clone(),
                path,
            });
            gems.put_record(&rec)?;
            report.copied += 1;
            budget -= 1;
            progressed = true;
        }
        if !progressed && rec.deficit() > 0 {
            report.unrepairable += 1;
        }
        if budget == 0 {
            break;
        }
    }
    Ok(report)
}

/// Move one copy from `source` to `path` on `server`, preferring a
/// server-to-server `THIRDPUT` so the bulk data never visits the
/// replicator host; fall back to pull-push when the source server
/// cannot reach the target (e.g. it refuses hostname subjects).
fn copy_replica(
    gems: &Gems,
    rec: &crate::FileRecord,
    source: &Replica,
    server: &tss_core::stubfs::DataServer,
    path: &str,
) -> bool {
    let src = gems.conn_for_replica(source);
    if src.thirdput(&source.path, &server.endpoint, path).is_ok() {
        return true;
    }
    // Fallback: pull to this host, push to the target.
    let Ok(data) = src.getfile(&source.path) else {
        return false;
    };
    if chirp_proto::crc64(&data) != rec.checksum {
        return false;
    }
    let dst = gems.conn_for(&server.endpoint, &server.auth);
    dst.putfile(path, 0o644, &data).is_ok()
}

/// The first replica whose server-side checksum matches the record —
/// verified without moving data.
fn verified_source<'a>(gems: &Gems, rec: &'a crate::FileRecord) -> Option<&'a Replica> {
    rec.replicas.iter().find(|replica| {
        let cfs = gems.conn_for_replica(replica);
        cfs.checksum(&replica.path).ok() == Some(rec.checksum)
    })
}
