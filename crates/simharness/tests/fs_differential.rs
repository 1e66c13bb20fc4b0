//! File-level differential proptests: an abstraction must be
//! observationally equivalent to a plain local filesystem under
//! arbitrary sequences of [`FsOp`]s — the recursive storage
//! abstraction's core promise, checked op by op through
//! `simharness::fsop::apply` and at the end through the path-pool
//! `snapshot`, with a `LocalFs` tree as the reference. The subjects
//! run on a [`SimTss`]: servers on the in-memory network, timing on
//! the virtual clock.

use std::time::Duration;

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use faultline::{FaultAction, FaultDialer, FaultPlan, FaultRule, FaultTrigger};
use nfs_sim::NfsShape;
use proptest::prelude::*;
use simharness::fsop::{apply, snapshot};
use simharness::{FsOp, SimTss};
use tss_core::cfs::Cfs;
use tss_core::fs::FileSystem;
use tss_core::placement::Placement;
use tss_core::{Dpfs, LocalFs};

/// A small closed set of paths so operations collide interestingly.
const PATHS: &[&str] = &[
    "/a",
    "/b",
    "/c.txt",
    "/dir",
    "/dir/inner",
    "/dir/other",
    "/dir2",
    "/dir2/deep",
];

fn path() -> impl Strategy<Value = String> {
    (0..PATHS.len()).prop_map(|i| PATHS[i].to_string())
}

/// Whole-file writes of fewer than `max_len` bytes.
fn write(max_len: usize) -> impl Strategy<Value = FsOp> {
    (path(), proptest::collection::vec(any::<u8>(), 0..max_len))
        .prop_map(|(path, data)| FsOp::Write(path, data))
}

fn truncate() -> impl Strategy<Value = FsOp> {
    (path(), 0u64..100).prop_map(|(path, size)| FsOp::Truncate(path, size))
}

/// Every op, with writes of fewer than `max_write` bytes.
fn op(max_write: usize) -> impl Strategy<Value = FsOp> {
    prop_oneof![
        write(max_write),
        path().prop_map(FsOp::Read),
        path().prop_map(FsOp::Stat),
        path().prop_map(FsOp::Unlink),
        (path(), path()).prop_map(|(from, to)| FsOp::Rename(from, to)),
        path().prop_map(FsOp::Mkdir),
        path().prop_map(FsOp::Rmdir),
        path().prop_map(FsOp::Readdir),
        truncate(),
        path().prop_map(FsOp::CreateExclusive),
    ]
}

/// The idempotent ops, for the fault-injected run: a fault can fire
/// *after* the server applied an operation, so a retried
/// non-idempotent op (exclusive create, unlink, rename) could
/// legitimately observe its own first attempt and diverge. Writes,
/// reads, stats, listings, and truncates replay to the same outcome.
fn idempotent_op() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        write(64),
        path().prop_map(FsOp::Read),
        path().prop_map(FsOp::Stat),
        path().prop_map(FsOp::Readdir),
        truncate(),
    ]
}

/// Run `ops` on a fresh local reference and on `subject`, comparing
/// every outcome and then the path pool.
fn check_against_reference(subject: &dyn FileSystem, ops: &[FsOp]) {
    let ref_dir = TempDir::new();
    let reference = LocalFs::new(ref_dir.path()).unwrap();
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(
            apply(&reference, op),
            apply(subject, op),
            "op {} = {} diverged",
            i,
            op
        );
    }
    assert_eq!(
        snapshot(&reference, PATHS.iter().copied()),
        snapshot(subject, PATHS.iter().copied()),
        "final state diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn dpfs_matches_the_local_reference(ops in proptest::collection::vec(op(64), 1..24)) {
        // A DPFS over two data servers.
        let sim = SimTss::builder().servers(2).build();
        let meta_dir = TempDir::new();
        let pool = vec![sim.data_server(0, "/vol"), sim.data_server(1, "/vol")];
        let subject = Dpfs::with_options(
            meta_dir.path(),
            pool,
            Placement::round_robin(),
            sim.stubfs_options(),
        )
        .unwrap();
        subject.ensure_volumes().unwrap();
        check_against_reference(&subject, &ops);
    }

    #[test]
    fn nfs_shape_matches_the_local_reference(
        ops in proptest::collection::vec(op(10 * 1024), 1..24)
    ) {
        // The NFS-shaped baseline over a CFS: per-component lookups
        // before every call, writes of up to 10 KiB split into several
        // 4 KiB requests.
        let sim = SimTss::builder().build();
        let subject = NfsShape::new(Cfs::new(sim.cfs_config(0)));
        check_against_reference(&subject, &ops);
    }
}

/// The NFS-shaped baseline accepts and refuses the same open-flag
/// combinations as a local tree, on an existing and a fresh path.
#[test]
fn open_flag_combinations_match_reference() {
    let ref_dir = TempDir::new();
    let reference = LocalFs::new(ref_dir.path()).unwrap();
    let sim = SimTss::builder().build();
    let subject = NfsShape::new(Cfs::new(sim.cfs_config(0)));

    for fs in [&reference as &dyn FileSystem, &subject] {
        fs.write_file("/seed", b"0123456789").unwrap();
    }
    let combos = [
        OpenFlags::READ,
        OpenFlags::read_write(),
        OpenFlags::WRITE | OpenFlags::CREATE,
        OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE,
        OpenFlags::read_write() | OpenFlags::TRUNCATE,
    ];
    for (i, &flags) in combos.iter().enumerate() {
        for path in ["/seed", &format!("/fresh{i}")] {
            let a = reference.open(path, flags, 0o644).is_ok();
            let b = subject.open(path, flags, 0o644).is_ok();
            assert_eq!(a, b, "flags {flags:?} on {path}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fault_dialed_cfs_matches_the_local_reference(
        ops in proptest::collection::vec(idempotent_op(), 1..24),
        plan_seed in any::<u64>(),
    ) {
        // A CFS whose connections are dialed through a fault injector
        // firing recoverable faults — corrupted replies and delays. The
        // recovery layer must make the trace indistinguishable from the
        // fault-free reference.
        let sim = SimTss::builder().build();
        let plan = FaultPlan::new(plan_seed)
            .with_rule(
                FaultRule::new(FaultTrigger::Probability(0.08), FaultAction::CorruptReply)
                    .max_fires(4),
            )
            .with_rule(
                FaultRule::new(
                    FaultTrigger::Probability(0.05),
                    FaultAction::Delay(Duration::from_millis(2)),
                )
                .max_fires(8),
            );
        let faults = FaultDialer::new(sim.dialer(), sim.clock().clone(), plan);
        let subject = Cfs::new(sim.cfs_config(0).with_dialer(faults.dialer()));
        check_against_reference(&subject, &ops);
        // Each corrupted reply severs the connection and costs exactly
        // one retry; a 2 ms delay never reaches the timeout. Any other
        // retry is a fault the plan did not inject.
        prop_assert_eq!(subject.retries(), faults.stats().corruptions, "retries without a cause");
    }
}
