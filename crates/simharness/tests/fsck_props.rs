//! Properties of `fsck` + `repair` under arbitrary injected damage.
//!
//! The crash sweep (`crash_sim.rs`) exercises the damage states the
//! protocol can actually reach; this suite covers the full damage
//! *space* — any mix of healthy files, dangling stubs, zero-length
//! stubs, corrupt stubs, and orphaned data files — and pins the
//! recovery contract:
//!
//! * the scan classifies every planted artifact, and nothing else;
//! * one `repair` pass removes exactly the reported artifacts and
//!   yields a clean scan (convergence);
//! * a second pass removes nothing (idempotence);
//! * healthy files are byte-identical before and after repair.

use std::sync::Arc;

use proptest::prelude::*;

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use simharness::SimTss;
use tss_core::fs::FileSystem;
use tss_core::fsck::{fsck, repair, RepairOptions};
use tss_core::localfs::LocalFs;
use tss_core::placement::Placement;
use tss_core::stub::StubRecord;
use tss_core::stubfs::StubFs;

/// The data volume every planted file lives in.
const VOLUME: &str = "/vol";

/// Plant the requested damage mix and return the stub filesystem plus
/// the expected healthy contents.
fn plant(
    sim: &SimTss,
    meta_dir: &TempDir,
    n_healthy: usize,
    n_dangling: usize,
    n_empty: usize,
    n_corrupt: usize,
    n_orphan: usize,
) -> (StubFs, Vec<(String, Vec<u8>)>) {
    let meta = LocalFs::new(meta_dir.path()).unwrap();
    let mut opts = sim.stubfs_options();
    opts.breaker_threshold = 0;
    let fs = StubFs::new(
        Arc::new(meta),
        vec![sim.data_server(0, VOLUME)],
        Placement::round_robin(),
        opts,
    );
    fs.ensure_volumes().unwrap();

    let mut healthy = Vec::new();
    for i in 0..n_healthy {
        let path = format!("/h{i}");
        let data = vec![i as u8 + 1; i + 1];
        fs.write_file(&path, &data).unwrap();
        healthy.push((path, data));
    }
    // Dangling: a real file whose data is then deleted behind the
    // filesystem's back.
    let mut conn = sim.connect(0);
    for i in 0..n_dangling {
        let path = format!("/g{i}");
        fs.write_file(&path, b"doomed").unwrap();
        let raw = std::fs::read_to_string(meta_dir.path().join(format!("g{i}"))).unwrap();
        let stub = StubRecord::parse(&raw).unwrap();
        conn.unlink(&stub.parts[0].1).unwrap();
    }
    // Zero-length stubs: what a crash between directory entry and stub
    // write leaves behind.
    for i in 0..n_empty {
        std::fs::write(meta_dir.path().join(format!("e{i}")), b"").unwrap();
    }
    // Corrupt stubs: bytes that are not a stub at all.
    for i in 0..n_corrupt {
        std::fs::write(meta_dir.path().join(format!("c{i}")), b"not a stub\n").unwrap();
    }
    // Orphans: data files no stub references.
    for i in 0..n_orphan {
        let (fd, _) = conn
            .open(
                &format!("{VOLUME}/orphan{i}.data"),
                OpenFlags::WRITE | OpenFlags::CREATE,
                0o644,
            )
            .unwrap();
        conn.close(fd).unwrap();
    }
    (fs, healthy)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn repair_converges_and_is_idempotent(
        n_healthy in 0usize..6,
        n_dangling in 0usize..4,
        n_empty in 0usize..4,
        n_corrupt in 0usize..4,
        n_orphan in 0usize..4,
    ) {
        let sim = SimTss::builder().cache_bytes(None).build();
        let meta_dir = TempDir::new();
        let (fs, healthy) =
            plant(&sim, &meta_dir, n_healthy, n_dangling, n_empty, n_corrupt, n_orphan);

        // The scan classifies exactly what was planted.
        let report = fsck(&fs).unwrap();
        prop_assert_eq!(report.healthy.len(), n_healthy);
        prop_assert_eq!(report.dangling_stubs.len(), n_dangling + n_empty);
        prop_assert_eq!(report.corrupt_stubs.len(), n_corrupt);
        prop_assert_eq!(report.orphaned_data.len(), n_orphan);
        prop_assert!(report.unreachable.is_empty());

        // One pass removes exactly the reported artifacts…
        let all = RepairOptions { remove_dangling_stubs: true, remove_orphans: true };
        let removed = repair(&fs, &report, all).unwrap();
        prop_assert_eq!(removed as usize, n_dangling + n_empty + n_corrupt + n_orphan);

        // …and converges: the rescan is clean with the healthy set intact.
        let clean = fsck(&fs).unwrap();
        prop_assert!(clean.is_clean(), "not clean after repair: {:?}", clean);
        prop_assert_eq!(clean.healthy.len(), n_healthy);

        // Idempotence: a second pass has nothing to do.
        prop_assert_eq!(repair(&fs, &clean, all).unwrap(), 0);
        let still = fsck(&fs).unwrap();
        prop_assert!(still.is_clean());

        // Healthy files are byte-identical through both passes.
        for (path, data) in &healthy {
            prop_assert_eq!(&fs.read_file(path).unwrap(), data);
        }
    }
}
