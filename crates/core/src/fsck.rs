//! `fsck` for stub filesystems: find and repair the two inconsistent
//! states the DSFS create/delete protocol can leave behind (§5).
//!
//! * **Dangling stubs** — a crash between stub creation and data
//!   creation, or data forcibly evicted by a server owner. The paper:
//!   "an attempt to open such a file yields 'file not found' ... and
//!   is easily deleted by a user." `repair` does that deletion.
//! * **Orphaned data** — data files in a pool volume that no stub
//!   references. The create protocol's ordering makes these impossible
//!   under crashes, but a deleted *tree* (or a pool shared by a
//!   retired filesystem) leaves them; the paper notes the remaining
//!   portions are "stored in distinguishable directories on each of
//!   the file servers, allowing for either manual recovery or complete
//!   removal."

use std::collections::{HashMap, HashSet};
use std::io;

use crate::fs::FileSystem;
use crate::stub::StubRecord;
use crate::stubfs::StubFs;

/// What a scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Logical files whose stub parsed and whose data exists.
    pub healthy: Vec<String>,
    /// Logical paths whose stub points at missing data.
    pub dangling_stubs: Vec<String>,
    /// Logical paths holding unparseable stub files.
    pub corrupt_stubs: Vec<String>,
    /// `(endpoint, data path)` of pool data no stub references.
    pub orphaned_data: Vec<(String, String)>,
    /// Logical paths whose data server could not be reached; nothing
    /// is concluded about them (failure coherence: unreachable is not
    /// lost).
    pub unreachable: Vec<String>,
}

impl FsckReport {
    /// True when nothing needs attention.
    pub fn is_clean(&self) -> bool {
        self.dangling_stubs.is_empty()
            && self.corrupt_stubs.is_empty()
            && self.orphaned_data.is_empty()
    }
}

/// Scan a stub filesystem: walk the directory tree, verify every
/// part of every stub, and cross-check the pool volumes for orphans.
///
/// Classification per logical file: an unparseable or torn stub is
/// corrupt; a file its layout can still serve from the parts that
/// answer is healthy (every part, or any one replica of a mirror);
/// otherwise a part whose server cannot be reached concludes nothing
/// (failure coherence: unreachable is not lost), and with all servers
/// answering the stub is dangling (the create protocol writes the stub
/// before the parts, so a crash leaves exactly this).
pub fn fsck(fs: &StubFs) -> io::Result<FsckReport> {
    let mut report = FsckReport::default();
    // Referenced data paths per endpoint.
    let mut referenced: HashMap<String, HashSet<String>> = HashMap::new();

    let meta = fs.meta().clone();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        for name in meta.readdir(&dir)? {
            let path = crate::fs::join_path(&dir, &name);
            let st = meta.stat(&path)?;
            if st.is_dir() {
                stack.push(path);
                continue;
            }
            let record = match StubRecord::decode(&meta.read_file(&path)?) {
                Ok(record) => record,
                // A zero-length stub is a create that crashed before
                // the stub write: nothing references data, so it is a
                // dangling entry, not corruption.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    report.dangling_stubs.push(path);
                    continue;
                }
                Err(_) => {
                    report.corrupt_stubs.push(path);
                    continue;
                }
            };
            let (mut present, mut unreachable) = (0, 0);
            for (endpoint, part) in &record.parts {
                referenced
                    .entry(endpoint.clone())
                    .or_default()
                    .insert(part.clone());
                match fs.data_conn(endpoint)?.stat(part) {
                    Ok(_) => present += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(_) => unreachable += 1,
                }
            }
            let usable = if record.layout.needs_every_part() {
                present == record.parts.len()
            } else {
                present > 0
            };
            if usable {
                report.healthy.push(path);
            } else if unreachable > 0 {
                report.unreachable.push(path);
            } else {
                report.dangling_stubs.push(path);
            }
        }
    }

    // Orphans: pool volume contents minus everything referenced.
    for server in fs.pool() {
        let conn = fs.data_conn(&server.endpoint)?;
        let names = match conn.readdir(&server.volume) {
            Ok(n) => n,
            Err(_) => continue, // unreachable server: no conclusions
        };
        let refs = referenced.get(&server.endpoint);
        for name in names {
            let data_path = format!("{}/{name}", server.volume);
            if refs.is_none_or(|r| !r.contains(&data_path)) {
                report
                    .orphaned_data
                    .push((server.endpoint.clone(), data_path));
            }
        }
    }
    report.healthy.sort();
    report.dangling_stubs.sort();
    report.corrupt_stubs.sort();
    report.orphaned_data.sort();
    report.unreachable.sort();
    Ok(report)
}

/// Repair options for [`repair`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairOptions {
    /// Delete dangling and corrupt stubs from the tree.
    pub remove_dangling_stubs: bool,
    /// Delete unreferenced data from the pool volumes ("complete
    /// removal"). Off by default: orphans may belong to another
    /// filesystem sharing the volume.
    pub remove_orphans: bool,
}

/// Apply repairs for the problems a scan reported. Returns the number
/// of items removed. Removing a dangling or corrupt multi-part stub
/// surfaces its surviving parts as orphans on the *next* scan (the
/// removed stub no longer references them), so a full clean takes at
/// most two scan/repair rounds — callers should iterate [`fsck`] →
/// `repair` to a fixed point.
pub fn repair(fs: &StubFs, report: &FsckReport, options: RepairOptions) -> io::Result<u64> {
    let mut removed = 0;
    if options.remove_dangling_stubs {
        for path in report.dangling_stubs.iter().chain(&report.corrupt_stubs) {
            fs.meta().unlink(path)?;
            removed += 1;
        }
    }
    if options.remove_orphans {
        for (endpoint, data_path) in &report.orphaned_data {
            let conn = fs.data_conn(endpoint)?;
            match conn.unlink(data_path) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(removed)
}
