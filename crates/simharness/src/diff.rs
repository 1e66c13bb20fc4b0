//! Differential replay: real server vs. model, byte for byte.
//!
//! [`DiffRunner`] holds one long-lived in-memory TSS instance and one
//! client connection; each checked seed replays its generated sequence
//! twice — against the real handler stack (under a fresh `/seqN`
//! namespace on the shared server) and against a fresh
//! [`ModelServer`] — and compares the normalized result of every
//! operation, including error codes. On divergence the sequence is
//! shrunk (delta-debugging over op subsets, each candidate replayed in
//! its own fresh namespace) and the failure report carries the seed
//! plus the minimized trace, so reproduction is
//! `SIM_SEED=<n> cargo test -p simharness`.
//!
//! [`run`] is the one place an [`Op`] becomes `Connection` calls: the
//! differential replays through it, and so does every scenario round.
//!
//! Results are *normalized* rather than compared raw: stat replies
//! keep only what the model defines (file-vs-directory and file size),
//! not host inode numbers or mtimes.

use std::fmt;

use chirp_client::Connection;
use chirp_proto::{ChirpError, ChirpResult, Reply, ReplyShape, Request, StatBuf};
use chirp_server::acl::Acl;

use crate::gen::{ops_for_seed, Op};
use crate::harness::SimTss;
use crate::model::ModelServer;

/// One operation's outcome, reduced to the facts both sides define.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// A numeric success (descriptor, byte count).
    Val(i32),
    /// An `OPEN`'s descriptor and the attributes it answered with,
    /// normalized as [`OpResult::Stat`]: the oracle holds them to the
    /// opened file's state exactly as it holds `FSTAT`'s.
    Opened(i32, bool, u64),
    /// Plain success with no interesting value.
    Unit,
    /// Returned bytes (`PREAD`, `GETFILE`).
    Data(Vec<u8>),
    /// Sorted entry names (`GETDIR`).
    Names(Vec<String>),
    /// `(is_dir, size)`; size is only meaningful for files and is
    /// normalized to 0 for directories.
    Stat(bool, u64),
    /// Sorted `(name, is_dir, size)` entries (`GETDIRSTAT`), with the
    /// same directory-size normalization as [`OpResult::Stat`].
    Entries(Vec<(String, bool, u64)>),
    /// One verdict per batched or pipelined sub-operation, in request
    /// order (`STATMULTI`, pipelined bursts). Comparing the vectors
    /// checks both the values *and* the ordering contract: the n-th
    /// verdict must answer the n-th request on both sides.
    Multi(Vec<OpResult>),
    /// A text reply (`WHOAMI`, `GETACL`).
    Text(String),
    /// The protocol error.
    Err(ChirpError),
}

impl OpResult {
    /// A call's outcome: its protocol error, or its value normalized.
    pub(crate) fn of<T: Into<OpResult>>(r: ChirpResult<T>) -> OpResult {
        r.map_or_else(OpResult::Err, Into::into)
    }

    /// The `(is_dir, size)` a stat-shaped value normalizes to.
    fn attrs(st: impl Into<OpResult>) -> (bool, u64) {
        match st.into() {
            OpResult::Stat(is_dir, size) => (is_dir, size),
            other => unreachable!("{other:?} is not stat-shaped"),
        }
    }
}

impl From<()> for OpResult {
    fn from((): ()) -> OpResult {
        OpResult::Unit
    }
}

/// A byte count (`PWRITE`, `THIRDPUT`).
impl From<u64> for OpResult {
    fn from(n: u64) -> OpResult {
        OpResult::Val(n as i32)
    }
}

macro_rules! op_result_from {
    ($($ty:ty => $variant:ident),*) => {$(
        impl From<$ty> for OpResult {
            fn from(v: $ty) -> OpResult {
                OpResult::$variant(v)
            }
        }
    )*};
}
op_result_from!(Vec<u8> => Data, String => Text, Vec<String> => Names);

/// The model's `(is_dir, size)`.
impl From<(bool, u64)> for OpResult {
    fn from((is_dir, size): (bool, u64)) -> OpResult {
        OpResult::Stat(is_dir, if is_dir { 0 } else { size })
    }
}

impl From<StatBuf> for OpResult {
    fn from(st: StatBuf) -> OpResult {
        (st.is_dir(), st.size).into()
    }
}

/// An `OPEN`'s descriptor and attributes.
impl<S: Into<OpResult>> From<(i32, S)> for OpResult {
    fn from((fd, st): (i32, S)) -> OpResult {
        let (is_dir, size) = OpResult::attrs(st);
        OpResult::Opened(fd, is_dir, size)
    }
}

/// A `GETDIRSTAT` listing.
impl<S: Into<OpResult>> From<Vec<(String, S)>> for OpResult {
    fn from(entries: Vec<(String, S)>) -> OpResult {
        OpResult::Entries(
            entries
                .into_iter()
                .map(|(name, st)| {
                    let (is_dir, size) = OpResult::attrs(st);
                    (name, is_dir, size)
                })
                .collect(),
        )
    }
}

/// Per-request verdicts (`STATMULTI`, a burst).
impl<T: Into<OpResult>> From<Vec<ChirpResult<T>>> for OpResult {
    fn from(verdicts: Vec<ChirpResult<T>>) -> OpResult {
        OpResult::Multi(verdicts.into_iter().map(OpResult::of).collect())
    }
}

/// A confirmed real-vs-model divergence, already minimized.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The generator seed that produced the original sequence.
    pub seed: u64,
    /// The minimized operation trace still showing the divergence.
    pub trace: Vec<Op>,
    /// Index into `trace` of the first differing operation.
    pub op_index: usize,
    /// What the real server answered.
    pub real: OpResult,
    /// What the model answered.
    pub model: OpResult,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "real/model divergence (seed {})", self.seed)?;
        writeln!(
            f,
            "reproduce with: SIM_SEED={} cargo test -p simharness",
            self.seed
        )?;
        writeln!(f, "minimized trace ({} ops):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            let marker = if i == self.op_index { ">>" } else { "  " };
            writeln!(f, " {marker} [{i}] {op:?}")?;
        }
        writeln!(f, "  real:  {:?}", self.real)?;
        write!(f, "  model: {:?}", self.model)
    }
}

/// Replays generated sequences against a shared [`SimTss`] instance
/// and fresh models.
pub struct DiffRunner<'a> {
    sim: &'a SimTss,
    conn: Connection,
    subject: String,
    root_acl: Acl,
    next_seq: usize,
}

impl<'a> DiffRunner<'a> {
    /// A runner against server 0 of `sim`. The instance's root ACL
    /// must be `root_acl` (it seeds each namespace's model).
    pub fn new(sim: &'a SimTss, root_acl: Acl) -> DiffRunner<'a> {
        let mut conn = sim.connect(0);
        let subject = conn.whoami().expect("whoami");
        DiffRunner {
            sim,
            conn,
            subject,
            root_acl,
            next_seq: 0,
        }
    }

    /// Check one seed: generate, replay both sides, compare. On
    /// divergence, shrink and return the minimized report.
    pub fn check_seed(&mut self, seed: u64) -> Result<(), Divergence> {
        let ops = ops_for_seed(seed, &self.subject);
        match self.first_divergence(&ops) {
            None => Ok(()),
            Some(_) => {
                let trace = self.shrink(ops);
                let (op_index, real, model) = self
                    .first_divergence(&trace)
                    .expect("shrunk trace still diverges");
                Err(Divergence {
                    seed,
                    trace,
                    op_index,
                    real,
                    model,
                })
            }
        }
    }

    /// Replay `ops` on both sides in a fresh namespace; the index and
    /// both results of the first differing op, if any.
    fn first_divergence(&mut self, ops: &[Op]) -> Option<(usize, OpResult, OpResult)> {
        let base = format!("/seq{}", self.next_seq);
        self.next_seq += 1;
        self.conn.mkdir(&base, 0o755).expect("create namespace");
        // The real namespace directory materializes the server's root
        // ACL on creation (inherit-on-create), which is exactly the
        // model's root state. Descriptor tables start empty on both
        // sides: the runner's connection is swept after every replay.
        let mut model = ModelServer::new(&self.subject, self.root_acl.clone());
        let mut diverged = None;
        for (i, op) in ops.iter().enumerate() {
            let real = run(self.sim, 0, &mut self.conn, &base, op);
            let modeled = model.apply(op);
            if real != modeled {
                diverged = Some((i, real, modeled));
                break;
            }
        }
        if diverged.is_some() {
            // Real and model descriptor state may disagree past the
            // divergent op; a reconnect restores the invariant (and
            // divergences are rare, so the extra session is cheap).
            self.conn = self.sim.connect(0);
        } else {
            // Identical results all the way through mean identical fd
            // tables, so the model knows exactly which descriptors the
            // real connection still holds. Closing them is far cheaper
            // than a reconnect per sequence.
            for fd in model.open_fds() {
                let _ = self.conn.close(fd);
            }
        }
        diverged
    }

    /// Delta-debugging: drop chunks of decreasing size while the
    /// divergence persists. Each candidate replays in a fresh
    /// namespace, so candidates cannot contaminate each other.
    fn shrink(&mut self, ops: Vec<Op>) -> Vec<Op> {
        ddmin(ops, &mut |cand| self.first_divergence(cand).is_some())
    }
}

/// Run `op` on `conn`, a session with server `server` of `sim`, with
/// every path taken under the namespace `base` (empty for the export
/// root). The one place an [`Op`] becomes `Connection` calls: a single
/// op goes through the typed methods `Cfs` calls, a burst through
/// [`Connection::pipeline`], where every request goes onto the wire
/// before the first reply is read and the replies settle strictly in
/// send order — a verdict landing on the wrong request after a
/// mid-pipeline error diverges from the model.
pub fn run(sim: &SimTss, server: usize, conn: &mut Connection, base: &str, op: &Op) -> OpResult {
    let p = |path: &str| match path {
        "/" if !base.is_empty() => base.to_string(),
        _ => format!("{base}{path}"),
    };
    match op {
        Op::Open { path, flags } => OpResult::of(conn.open(&p(path), *flags, 0o644)),
        Op::Close { fd } => OpResult::of(conn.close(*fd)),
        Op::Pread { fd, len, off } => OpResult::of(conn.pread(*fd, *len, *off)),
        Op::Pwrite { fd, data, off } => OpResult::of(conn.pwrite(*fd, data, *off)),
        Op::Fstat { fd } => OpResult::of(conn.fstat(*fd)),
        Op::Fsync { fd } => OpResult::of(conn.fsync(*fd)),
        Op::Stat { path } => OpResult::of(conn.stat(&p(path))),
        Op::Unlink { path } => OpResult::of(conn.unlink(&p(path))),
        Op::Rename { from, to } => OpResult::of(conn.rename(&p(from), &p(to))),
        Op::Mkdir { path } => OpResult::of(conn.mkdir(&p(path), 0o755)),
        Op::Rmdir { path } => OpResult::of(conn.rmdir(&p(path))),
        Op::Getdir { path } => OpResult::of(conn.getdir(&p(path))),
        Op::GetdirStat { path } => OpResult::of(conn.getdir_stat(&p(path))),
        Op::StatMulti { paths } => {
            let full: Vec<String> = paths.iter().map(|x| p(x)).collect();
            OpResult::of(conn.stat_multi(&full))
        }
        Op::Getfile { path } => OpResult::of(conn.getfile(&p(path))),
        Op::Putfile { path, data } => OpResult::of(conn.putfile(&p(path), 0o644, data)),
        Op::Thirdput {
            path,
            server: target,
            to,
        } => OpResult::of(conn.thirdput(&p(path), &sim.endpoint(*target), &p(to))),
        Op::Burst { ops } => OpResult::of(conn.pipeline(ops.len().max(1), |pipe| {
            for op in ops {
                match op {
                    Op::Pread { fd, len, off } => pipe.send(
                        &Request::Pread {
                            fd: *fd,
                            length: *len,
                            offset: *off,
                        },
                        None,
                        ReplyShape::Body,
                    )?,
                    Op::Pwrite { fd, data, off } => pipe.send(
                        &Request::Pwrite {
                            fd: *fd,
                            length: data.len() as u64,
                            offset: *off,
                        },
                        Some(data),
                        ReplyShape::Status,
                    )?,
                    Op::Stat { path } => {
                        pipe.send(&Request::Stat { path: p(path) }, None, ReplyShape::Status)?
                    }
                    other => panic!("{other:?} does not pipeline"),
                }
            }
            let verdicts = ops.iter().zip(pipe.settle_all());
            Ok(OpResult::Multi(
                verdicts
                    .map(|(op, v)| match op {
                        Op::Pread { .. } => OpResult::of(v.map(Reply::into_body)),
                        Op::Pwrite { .. } => OpResult::of(v.map(|r| r.status().value as u64)),
                        _ => OpResult::of(v.and_then(|r| {
                            let words: Vec<&str> =
                                r.status().words.iter().map(String::as_str).collect();
                            StatBuf::from_words(&words)
                        })),
                    })
                    .collect(),
            ))
        })),
        Op::Getacl { path } => OpResult::of(conn.getacl(&p(path))),
        Op::Setacl {
            path,
            subject,
            rights,
        } => OpResult::of(conn.setacl(&p(path), subject, rights)),
        Op::Truncate { path, size } => OpResult::of(conn.truncate(&p(path), *size)),
        Op::Whoami => OpResult::of(conn.whoami()),
        Op::Disconnect => {
            *conn = sim.connect(server);
            OpResult::Unit
        }
    }
}

/// Generic delta-debugging minimizer: drop chunks of decreasing size
/// (8, 4, 2, 1) from `items` while `still_fails` keeps holding, until
/// no single drop preserves the failure. The predicate must be a
/// function of the candidate alone — re-runs with stale shared state
/// produce unsound minima. Shared by the differential checker and the
/// crash harness (op traces) and the scenario runner (client fleets).
pub fn ddmin<T: Clone>(items: Vec<T>, still_fails: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut cur = items;
    loop {
        let mut reduced = false;
        for chunk in [8usize, 4, 2, 1] {
            let mut i = 0;
            while i < cur.len() && cur.len() > 1 {
                let mut cand = cur.clone();
                cand.drain(i..(i + chunk).min(cand.len()));
                if cand.is_empty() {
                    i += chunk;
                    continue;
                }
                if still_fails(&cand) {
                    cur = cand;
                    reduced = true;
                } else {
                    i += chunk;
                }
            }
        }
        if !reduced {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SimTss;
    use chirp_proto::OpenFlags;

    fn runner(sim: &SimTss, acl: Acl) -> DiffRunner<'_> {
        DiffRunner::new(sim, acl)
    }

    #[test]
    fn burst_settles_mid_pipeline_errors_in_send_order() {
        // Protocol errors inside a pipelined burst must land on the
        // request that earned them, not shift onto a neighbor: the
        // failing ops sit *between* two successes against the same
        // descriptor, so any off-by-one in reply matching makes the
        // final pread answer the wrong request and diverge.
        let root_acl = Acl::single("hostname:*", "rwlda").unwrap();
        let sim = SimTss::builder().root_acl(root_acl.clone()).build();
        let mut r = runner(&sim, root_acl);
        let ops = vec![
            Op::Open {
                path: "/f".into(),
                flags: OpenFlags::read_write() | OpenFlags::CREATE,
            },
            Op::Burst {
                ops: vec![
                    Op::Pwrite {
                        fd: 0,
                        data: b"hello".to_vec(),
                        off: 0,
                    },
                    // BadFd mid-pipeline: a settled verdict, pipe alive.
                    Op::Pread {
                        fd: 9,
                        len: 4,
                        off: 0,
                    },
                    // NotFound mid-pipeline, same contract.
                    Op::Stat {
                        path: "/missing".into(),
                    },
                    Op::Pread {
                        fd: 0,
                        len: 5,
                        off: 0,
                    },
                ],
            },
        ];
        assert!(
            r.first_divergence(&ops).is_none(),
            "mid-pipeline error ordering diverged from the model"
        );
    }

    #[test]
    fn putfile_over_cached_pages_reaches_an_open_descriptor() {
        // PUTFILE truncates the inode in place: the pages a PREAD
        // cached must go, and the old descriptor must read the new
        // bytes, at every cache size.
        let root_acl = Acl::single("hostname:*", "rwlda").unwrap();
        for cache in [None, Some(2 * 8192), Some(64 * 1024)] {
            let sim = SimTss::builder()
                .root_acl(root_acl.clone())
                .cache_bytes(cache)
                .build();
            let mut r = runner(&sim, root_acl.clone());
            let ops = vec![
                Op::Putfile {
                    path: "/f".into(),
                    data: vec![1; 300],
                },
                Op::Open {
                    path: "/f".into(),
                    flags: OpenFlags::READ,
                },
                Op::Pread {
                    fd: 0,
                    len: 192,
                    off: 0,
                },
                Op::Putfile {
                    path: "/f".into(),
                    data: vec![2; 200],
                },
                Op::Pread {
                    fd: 0,
                    len: 192,
                    off: 0,
                },
                Op::Fstat { fd: 0 },
            ];
            assert_eq!(r.first_divergence(&ops), None, "cache={cache:?}");
        }
    }

    #[test]
    fn directory_renamed_into_its_own_subtree_is_refused_whole() {
        // `/d1` moves to `/d0/f0` with its own ACL; `/d0` then cannot
        // move over it, whether `/d0/f0` is empty or not, and the
        // refused rename leaves the target's ACL in place.
        let root_acl = Acl::single("hostname:*", "rwlda").unwrap();
        let sim = SimTss::builder().root_acl(root_acl.clone()).build();
        let mut r = runner(&sim, root_acl);
        let setup = |extra: Vec<Op>| {
            let mut ops = vec![
                Op::Mkdir { path: "/d0".into() },
                Op::Mkdir { path: "/d1".into() },
                Op::Setacl {
                    path: "/d1".into(),
                    subject: "unix:alice".into(),
                    rights: "rl".into(),
                },
            ];
            ops.extend(extra);
            ops.extend([
                Op::Rename {
                    from: "/d1".into(),
                    to: "/d0/f0".into(),
                },
                Op::Rename {
                    from: "/d0".into(),
                    to: "/d0/f0".into(),
                },
                Op::Getacl {
                    path: "/d0/f0".into(),
                },
                Op::Getdir {
                    path: "/d0/f0".into(),
                },
            ]);
            ops
        };
        let full = vec![Op::Putfile {
            path: "/d1/f0".into(),
            data: b"x".to_vec(),
        }];
        for ops in [setup(Vec::new()), setup(full)] {
            assert_eq!(r.first_divergence(&ops), None, "{ops:?}");
        }
    }
}
