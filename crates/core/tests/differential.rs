//! Differential property test: a DPFS (stub filesystem over live
//! Chirp servers) must be observationally equivalent to a plain local
//! filesystem under arbitrary operation sequences — the recursive
//! storage abstraction's core promise, checked by comparison against
//! `std::fs` as the reference model.

mod common;

use std::time::Duration;

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use common::{auth, cfs_via, fault_dialer, open_server};
use faultline::{FaultAction, FaultPlan, FaultRule, FaultTrigger};
use proptest::prelude::*;
use tss_core::fs::FileSystem;
use tss_core::stubfs::DataServer;
use tss_core::{Dpfs, LocalFs};

/// The operations the model covers.
#[derive(Debug, Clone)]
enum Op {
    Write(usize, Vec<u8>),
    Read(usize),
    Stat(usize),
    Unlink(usize),
    Rename(usize, usize),
    Mkdir(usize),
    Rmdir(usize),
    Readdir(usize),
    Truncate(usize, u64),
    ExclusiveCreate(usize),
}

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

fn op_strategy() -> impl Strategy<Value = Op> {
    let path = 0..PATHS.len();
    prop_oneof![
        (path.clone(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(p, d)| Op::Write(p, d)),
        path.clone().prop_map(Op::Read),
        path.clone().prop_map(Op::Stat),
        path.clone().prop_map(Op::Unlink),
        (path.clone(), 0..PATHS.len()).prop_map(|(a, b)| Op::Rename(a, b)),
        path.clone().prop_map(Op::Mkdir),
        path.clone().prop_map(Op::Rmdir),
        path.clone().prop_map(Op::Readdir),
        (path.clone(), 0u64..100).prop_map(|(p, s)| Op::Truncate(p, s)),
        path.prop_map(Op::ExclusiveCreate),
    ]
}

/// Outcome signature used for comparison: success payload or just
/// "failed" — exact error kinds may legitimately differ between a
/// local syscall and a two-layer distributed path, but success,
/// failure, and all visible state must agree.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Bytes(Option<Vec<u8>>),
    Size(Option<u64>),
    IsDir(Option<bool>),
    Names(Option<Vec<String>>),
    Unit(bool),
}

fn apply(fs: &dyn FileSystem, op: &Op) -> Outcome {
    match op {
        Op::Write(p, data) => Outcome::Unit(fs.write_file(PATHS[*p], data).is_ok()),
        Op::Read(p) => Outcome::Bytes(fs.read_file(PATHS[*p]).ok()),
        Op::Stat(p) => Outcome::IsDir(fs.stat(PATHS[*p]).ok().map(|s| s.is_dir())),
        Op::Unlink(p) => Outcome::Unit(fs.unlink(PATHS[*p]).is_ok()),
        Op::Rename(a, b) => Outcome::Unit(fs.rename(PATHS[*a], PATHS[*b]).is_ok()),
        Op::Mkdir(p) => Outcome::Unit(fs.mkdir(PATHS[*p], 0o755).is_ok()),
        Op::Rmdir(p) => Outcome::Unit(fs.rmdir(PATHS[*p]).is_ok()),
        Op::Readdir(p) => Outcome::Names(fs.readdir(PATHS[*p]).ok()),
        Op::Truncate(p, size) => Outcome::Unit(fs.truncate(PATHS[*p], *size).is_ok()),
        Op::ExclusiveCreate(p) => Outcome::Unit(
            fs.open(
                PATHS[*p],
                OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE,
                0o644,
            )
            .is_ok(),
        ),
    }
}

/// Walk every known path and capture all visible state.
fn snapshot(fs: &dyn FileSystem) -> Vec<(String, Outcome)> {
    let mut out = Vec::new();
    for p in PATHS {
        out.push((
            format!("stat {p}"),
            Outcome::IsDir(fs.stat(p).ok().map(|s| s.is_dir())),
        ));
        out.push((format!("read {p}"), Outcome::Bytes(fs.read_file(p).ok())));
        out.push((
            format!("size {p}"),
            Outcome::Size(fs.stat(p).ok().map(|s| s.size)),
        ));
        out.push((format!("ls {p}"), Outcome::Names(fs.readdir(p).ok())));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn dpfs_matches_the_local_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..24)
    ) {
        // Reference: a plain local tree.
        let ref_dir = TempDir::new();
        let reference = LocalFs::new(ref_dir.path()).unwrap();
        // Subject: a DPFS over two live file servers.
        let meta_dir = TempDir::new();
        let d1 = TempDir::new();
        let d2 = TempDir::new();
        let s1 = open_server(d1.path());
        let s2 = open_server(d2.path());
        let pool = vec![
            DataServer::new(&s1.endpoint(), "/vol", auth()),
            DataServer::new(&s2.endpoint(), "/vol", auth()),
        ];
        let subject = Dpfs::new(meta_dir.path(), pool).unwrap();
        subject.ensure_volumes().unwrap();

        for (i, op) in ops.iter().enumerate() {
            let a = apply(&reference, op);
            let b = apply(&subject, op);
            prop_assert_eq!(a, b, "op {} = {:?} diverged", i, op);
        }
        let a = snapshot(&reference);
        let b = snapshot(&subject);
        prop_assert_eq!(a, b, "final state diverged");
    }
}

/// Idempotent subset of the model for the fault-injected run: a fault
/// can fire *after* the server applied an operation, so a retried
/// non-idempotent op (exclusive create, unlink, rename) could
/// legitimately observe its own first attempt and diverge. Writes,
/// reads, stats, listings, and truncates replay to the same outcome.
fn idempotent_op_strategy() -> impl Strategy<Value = Op> {
    let path = 0..PATHS.len();
    prop_oneof![
        (path.clone(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(p, d)| Op::Write(p, d)),
        path.clone().prop_map(Op::Read),
        path.clone().prop_map(Op::Stat),
        path.clone().prop_map(Op::Readdir),
        (path, 0u64..100).prop_map(|(p, s)| Op::Truncate(p, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fault_dialed_cfs_matches_the_local_reference_model(
        ops in proptest::collection::vec(idempotent_op_strategy(), 1..24),
        plan_seed in any::<u64>(),
    ) {
        // Reference: a plain local tree, no network at all.
        let ref_dir = TempDir::new();
        let reference = LocalFs::new(ref_dir.path()).unwrap();
        // Subject: a CFS whose connections are dialed through a fault
        // injector firing recoverable faults — corrupted replies and
        // delays. The recovery layer must make the trace
        // indistinguishable from the fault-free reference.
        let host = TempDir::new();
        let server = open_server(host.path());
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
        let faults = fault_dialer(plan);
        let subject = cfs_via(&server.endpoint(), faults.dialer());

        for (i, op) in ops.iter().enumerate() {
            let a = apply(&reference, op);
            let b = apply(&subject, op);
            prop_assert_eq!(a, b, "op {} = {:?} diverged", i, op);
        }
        let a = snapshot(&reference);
        let b = snapshot(&subject);
        prop_assert_eq!(a, b, "final state diverged");
        // Each corrupted reply severs the connection and costs exactly
        // one retry; a 2 ms delay never reaches the timeout. Any other
        // retry is a fault the plan did not inject.
        prop_assert_eq!(subject.retries(), faults.stats().corruptions, "retries without a cause");
    }
}
