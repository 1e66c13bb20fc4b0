//! Database recovery by rescanning the file servers.
//!
//! §5: "In the DSDB, the database could even be recovered
//! automatically by rescanning the existing file data." Every replica
//! is stored with a sidecar (`<data>.meta`) carrying the record's
//! name, checksum, target, and attributes; rebuilding walks every pool
//! volume, verifies each replica against its sidecar's checksum, and
//! reassembles the records.

use std::collections::HashMap;
use std::io;

use crate::record::{FileRecord, Replica};
use crate::system::{sidecar_path, Gems};

/// What a rebuild pass reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebuildReport {
    /// Records written into the database.
    pub records: u64,
    /// Verified replicas attached across all records.
    pub replicas: u64,
    /// Replicas skipped because data was missing or failed its
    /// sidecar's checksum.
    pub rejected: u64,
}

/// Rescan every pool server and reconstruct the database.
///
/// Existing records with the same names are replaced (rebuild is for a
/// lost or empty database). Replicas whose contents do not match their
/// sidecar's checksum are rejected, so a stale or tampered copy cannot
/// poison the rebuilt index.
pub fn rebuild(gems: &Gems) -> io::Result<RebuildReport> {
    let mut report = RebuildReport::default();
    // name -> (record core, replicas)
    let mut assembled: HashMap<String, FileRecord> = HashMap::new();
    for server in gems.config.pool.clone() {
        let cfs = gems.conn_for(&server.endpoint, &server.auth);
        let names = match tss_core::fs::FileSystem::readdir(cfs.as_ref(), &server.volume) {
            Ok(n) => n,
            Err(_) => continue, // unreachable server: rebuild from the rest
        };
        for name in names {
            let Some(_) = name.strip_suffix(".meta") else {
                continue;
            };
            let meta_path = format!("{}/{name}", server.volume);
            let data_path = meta_path.trim_end_matches(".meta").to_string();
            debug_assert_eq!(sidecar_path(&data_path), meta_path);
            let Ok(body) = cfs.getfile(&meta_path) else {
                report.rejected += 1;
                continue;
            };
            let Some(core) = std::str::from_utf8(&body).ok().and_then(FileRecord::parse) else {
                report.rejected += 1;
                continue;
            };
            // Verify the data really matches the claimed checksum
            // before advertising it.
            if cfs.checksum(&data_path).ok() != Some(core.checksum) {
                report.rejected += 1;
                continue;
            }
            let entry = assembled
                .entry(core.name.clone())
                .or_insert_with(|| core.clone());
            if entry.checksum != core.checksum {
                // Conflicting generations of the same name: keep the
                // one seen first, reject the other copy.
                report.rejected += 1;
                continue;
            }
            entry.replicas.push(Replica {
                endpoint: server.endpoint.clone(),
                path: data_path,
            });
            report.replicas += 1;
        }
    }
    for rec in assembled.values() {
        gems.put_record(rec)?;
        report.records += 1;
    }
    Ok(report)
}
