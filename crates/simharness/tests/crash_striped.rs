//! Crash-injection sweeps for the striped and mirrored abstractions.
//!
//! Both abstractions are layouts of the one stub engine and so run the
//! DSFS update ordering itself: stub first on create, data first on
//! delete. These sweeps kill a simulated
//! deployment at *every* durability point of a striped (resp.
//! mirrored) create+write+delete sequence — including torn-write mode,
//! where the killing write persists a seeded prefix — then restart and
//! check the ordering theorem end to end:
//!
//! * no data part outlives its stub: the first post-crash scan never
//!   reports orphaned data (a part is only created after the stub that
//!   references it is durable, and a stub is only unlinked after its
//!   parts are gone);
//! * a reader sees full-old, full-new, in-flight-empty, a torn data
//!   write's prefix of new, or an error — never a byte mix of two
//!   states and never a torn stub's garbage;
//! * `fsck` → `repair` converges: removing a dangling
//!   or corrupt stripe stub surfaces its surviving parts as orphans on
//!   the next scan, so at most two repair rounds reach a clean report
//!   and a third repair removes nothing.
//!
//! Since the engine announces its own protocol steps (`StubWrite`, one
//! `DataCreate`/`DataUnlink` per part, `StubUnlink`) and fsyncs the
//! stub and its directory, each sequence crosses more durability
//! points than when striping and mirroring carried private copies of
//! the protocol; the sweeps assert that, so the new kill points cannot
//! go unswept unnoticed.
//!
//! Reproduce a failure with `STRIPE_CRASH_SEED=<seed>` (the torn-mode
//! tear offsets are derived from it).

use std::io;
use std::sync::Arc;

use chirp_proto::persist::{CrashPoint, Persist};
use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use simharness::SimTss;
use tss_core::fs::FileSystem;
use tss_core::fsck::{fsck, repair, RepairOptions};
use tss_core::localfs::LocalFs;
use tss_core::mirrored::MirroredFs;
use tss_core::striped::StripedFs;

/// RAM-backed scratch when the host offers it (same reasoning as the
/// harness's internal `sim_root`).
fn scratch() -> TempDir {
    let shm = std::path::Path::new("/dev/shm");
    if shm.is_dir() {
        TempDir::new_in(shm)
    } else {
        TempDir::new()
    }
}

/// One stripe of payload: the data write is a single part pwrite, so a
/// clean kill leaves each part fully old or fully new.
const PAYLOAD: &[u8] = b"abcd";
const STRIPE: u64 = 4;
const WIDTH: usize = 2;

/// Durability points one create+write+delete sequence crossed before
/// the engines were merged (server- and tree-side points only).
const STRIPED_POINTS_BEFORE: u64 = 8;
const MIRRORED_POINTS_BEFORE: u64 = 9;

struct Sweep {
    sim: SimTss,
    injector: Arc<CrashPoint>,
    persist: Persist,
    run: u64,
}

impl Sweep {
    fn new() -> Sweep {
        let injector = CrashPoint::new();
        let persist = Persist::from_arc(injector.clone());
        let sim = SimTss::builder()
            .servers(WIDTH)
            .cache_bytes(None)
            .persistence(persist.clone())
            .build();
        Sweep {
            sim,
            injector,
            persist,
            run: 0,
        }
    }

    fn striped(&self, meta_dir: &TempDir, volume: &str, instrumented: bool) -> StripedFs {
        let persist = if instrumented {
            self.persist.clone()
        } else {
            Persist::none()
        };
        let meta = LocalFs::with_persistence(meta_dir.path(), persist.clone()).unwrap();
        let mut opts = self.sim.stubfs_options();
        opts.persist = persist;
        opts.breaker_threshold = 0; // crash errors must stay raw
        let pool = (0..WIDTH)
            .map(|i| self.sim.data_server(i, volume))
            .collect();
        StripedFs::new(Arc::new(meta), pool, WIDTH, STRIPE, opts).unwrap()
    }

    fn mirrored(&self, meta_dir: &TempDir, volume: &str, instrumented: bool) -> MirroredFs {
        let persist = if instrumented {
            self.persist.clone()
        } else {
            Persist::none()
        };
        let meta = LocalFs::with_persistence(meta_dir.path(), persist.clone()).unwrap();
        let mut opts = self.sim.stubfs_options();
        opts.persist = persist;
        opts.breaker_threshold = 0;
        let pool = (0..WIDTH)
            .map(|i| self.sim.data_server(i, volume))
            .collect();
        MirroredFs::new(Arc::new(meta), pool, WIDTH, opts).unwrap()
    }

    /// Remove a run's volume from every server root.
    fn cleanup(&self, volume: &str) {
        for i in 0..WIDTH {
            let _ = std::fs::remove_dir_all(self.sim.root(i).join(volume.trim_start_matches('/')));
        }
    }
}

/// The killable sequence: create `/f` with one stripe of payload, then
/// delete it. Stops at the first error (a dead process does nothing
/// further).
fn apply_ops(fs: &dyn FileSystem) -> io::Result<()> {
    let mut h = fs.open("/f", OpenFlags::WRITE | OpenFlags::CREATE, 0o644)?;
    h.pwrite(PAYLOAD, 0)?;
    drop(h);
    fs.unlink("/f")
}

/// What `/f` reads as after a crash. Only four states are legal, and a
/// torn kill adds a fifth: a strict prefix of the payload, left by a
/// data server's torn `PWRITE`.
fn check_read_state(fs: &dyn FileSystem, torn: bool, ctx: &str) {
    match fs.read_file("/f") {
        Ok(b) => assert!(
            b == PAYLOAD || b.is_empty() || (torn && PAYLOAD.starts_with(&b)),
            "{ctx}: read {} bytes, legal states are full payload, in-flight empty \
             or (torn) a payload prefix",
            b.len()
        ),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) if torn && e.kind() == io::ErrorKind::InvalidData => {}
        Err(e) => panic!("{ctx}: unexpected read error {e}"),
    }
}

#[test]
fn striped_create_delete_survives_a_kill_at_every_durability_point() {
    let seed = std::env::var("STRIPE_CRASH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0u64);
    let mut sweep = Sweep::new();

    // Golden run: journal every durability point the sequence touches.
    let meta_dir = scratch();
    let vol = "/golden";
    let fs = sweep.striped(&meta_dir, vol, true);
    fs.ensure_volumes().unwrap();
    sweep.injector.arm(None);
    apply_ops(&fs).expect("golden run succeeds");
    let points = sweep.injector.points();
    sweep.injector.disarm();
    drop(fs);
    sweep.cleanup(vol);
    println!("striped: {points} kill points per sequence (was {STRIPED_POINTS_BEFORE})");
    assert!(
        points > STRIPED_POINTS_BEFORE,
        "the engine's own protocol points must be swept too ({points})"
    );

    let all = RepairOptions {
        remove_dangling_stubs: true,
        remove_orphans: true,
    };
    for torn in [false, true] {
        for k in 0..points {
            let ctx = format!("kill at point {k}/{points} (torn={torn}, seed {seed})");
            let meta_dir = scratch();
            let vol = format!("/s{}", sweep.run);
            let fs = sweep.striped(&meta_dir, &vol, true);
            fs.ensure_volumes().unwrap();
            if torn {
                sweep.injector.arm_torn(Some(k), seed ^ k);
            } else {
                sweep.injector.arm(Some(k));
            }
            let res = apply_ops(&fs);
            assert!(
                sweep.injector.fired() && res.is_err(),
                "{ctx}: the kill must land inside the sequence"
            );
            sweep.injector.disarm();
            drop(fs);

            // Restart over whatever survived, with fresh connections.
            let rfs = sweep.striped(&meta_dir, &vol, false);
            let report = fsck(rfs.stubfs()).unwrap_or_else(|e| panic!("{ctx}: fsck failed: {e}"));
            assert!(
                report.unreachable.is_empty(),
                "{ctx}: unreachable {:?}",
                report.unreachable
            );
            // The ordering theorem: no data part outlives its stub.
            assert!(
                report.orphaned_data.is_empty(),
                "{ctx}: orphaned parts {:?} — a part was created before its \
                 stub was durable, or a stub unlinked before its parts",
                report.orphaned_data
            );
            for s in report.dangling_stubs.iter().chain(&report.corrupt_stubs) {
                assert_eq!(s, "/f", "{ctx}: flagged stub outside the op's target");
            }
            assert!(
                torn || report.corrupt_stubs.is_empty(),
                "{ctx}: corrupt stub from a clean (non-torn) kill: {report:?}"
            );
            check_read_state(&rfs, torn, &ctx);

            // Repair converges: clean within two rounds, then a no-op.
            let mut report = report;
            let mut rounds = 0;
            while !report.is_clean() {
                rounds += 1;
                assert!(rounds <= 2, "{ctx}: repair did not converge: {report:?}");
                let removed = repair(rfs.stubfs(), &report, all)
                    .unwrap_or_else(|e| panic!("{ctx}: repair failed: {e}"));
                assert!(removed > 0, "{ctx}: unclean report but nothing removed");
                report = fsck(rfs.stubfs()).unwrap();
            }
            assert_eq!(
                repair(rfs.stubfs(), &report, all).unwrap(),
                0,
                "{ctx}: repair on a clean report must be a no-op"
            );
            drop(rfs);
            sweep.cleanup(&vol);
            sweep.run += 1;
        }
    }
}

#[test]
fn mirrored_create_delete_survives_a_kill_at_every_durability_point() {
    let seed = std::env::var("STRIPE_CRASH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0u64);
    let mut sweep = Sweep::new();

    let meta_dir = scratch();
    let vol = "/mgolden";
    let fs = sweep.mirrored(&meta_dir, vol, true);
    fs.ensure_volumes().unwrap();
    sweep.injector.arm(None);
    apply_ops(&fs).expect("golden run succeeds");
    let points = sweep.injector.points();
    sweep.injector.disarm();
    drop(fs);
    sweep.cleanup(vol);
    println!("mirrored: {points} kill points per sequence (was {MIRRORED_POINTS_BEFORE})");
    assert!(
        points > MIRRORED_POINTS_BEFORE,
        "the engine's own protocol points must be swept too ({points})"
    );

    for torn in [false, true] {
        for k in 0..points {
            let ctx = format!("mirrored kill at point {k}/{points} (torn={torn}, seed {seed})");
            let meta_dir = scratch();
            let vol = format!("/m{}", sweep.run);
            let fs = sweep.mirrored(&meta_dir, &vol, true);
            fs.ensure_volumes().unwrap();
            if torn {
                sweep.injector.arm_torn(Some(k), seed ^ k);
            } else {
                sweep.injector.arm(Some(k));
            }
            let res = apply_ops(&fs);
            assert!(
                sweep.injector.fired() && res.is_err(),
                "{ctx}: the kill must land inside the sequence"
            );
            sweep.injector.disarm();
            drop(fs);

            // A restarted reader sees one of the four legal states —
            // never a replica mix and never a torn stub's bytes.
            let rfs = sweep.mirrored(&meta_dir, &vol, false);
            check_read_state(&rfs, torn, &ctx);
            drop(rfs);
            sweep.cleanup(&vol);
            sweep.run += 1;
        }
    }
}
