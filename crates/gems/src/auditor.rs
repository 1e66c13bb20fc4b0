//! The auditor: periodically verify the location and integrity of
//! every replica, and record the problems for the replicator to fix.

use std::io;

use crate::system::Gems;

/// What one audit pass found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Records examined.
    pub records: u64,
    /// Replicas verified intact.
    pub healthy: u64,
    /// Replicas whose data was missing (evicted, deleted, or on an
    /// unreachable server).
    pub missing: u64,
    /// Replicas present but failing the checksum.
    pub corrupt: u64,
}

/// Scan the whole database, verify every replica with a server-side
/// `stat` plus `CHECKSUM` RPC (no bulk data crosses the network), and
/// prune replicas that are damaged or removed. Returns what was found;
/// the pruned deficits are what [`crate::replicator::replicate_once`]
/// repairs.
pub fn audit_once(gems: &Gems) -> io::Result<AuditReport> {
    let names = gems.list()?;
    let mut report = AuditReport::default();
    for name in names {
        // Fetch fresh state per record: the system keeps running while
        // we scan.
        let Ok(mut rec) = gems.record(&name) else {
            continue; // deleted mid-scan
        };
        report.records += 1;
        let mut changed = false;
        rec.replicas.retain(|replica| {
            let cfs = gems.conn_for_replica(replica);
            let verdict =
                tss_core::fs::FileSystem::stat(cfs.as_ref(), &replica.path).and_then(|st| {
                    if st.size != rec.size {
                        return Ok(false);
                    }
                    Ok(cfs.checksum(&replica.path)? == rec.checksum)
                });
            match verdict {
                Ok(true) => {
                    report.healthy += 1;
                    true
                }
                Ok(false) => {
                    report.corrupt += 1;
                    // Evict the corrupt copy (and its sidecar) so
                    // nobody reads it and the space can be reused.
                    let _ = tss_core::fs::FileSystem::unlink(cfs.as_ref(), &replica.path);
                    let _ = tss_core::fs::FileSystem::unlink(
                        cfs.as_ref(),
                        &crate::system::sidecar_path(&replica.path),
                    );
                    changed = true;
                    false
                }
                Err(_) => {
                    report.missing += 1;
                    changed = true;
                    false
                }
            }
        });
        if changed {
            gems.put_record(&rec)?;
        }
    }
    Ok(report)
}
