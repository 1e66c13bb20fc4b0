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
//! Results are *normalized* rather than compared raw: stat replies
//! keep only what the model defines (file-vs-directory and file size),
//! not host inode numbers or mtimes.

use std::fmt;

use chirp_client::Connection;
use chirp_proto::{ChirpError, ChirpResult, Reply, ReplyShape, Request, StatBuf};
use chirp_server::acl::Acl;

use crate::gen::{ops_for_seed, BurstOp, Op};
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
    /// Returned bytes (`PREAD`) or rendered text (`GETACL`).
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
    /// A text reply (`WHOAMI`).
    Text(String),
    /// The protocol error.
    Err(ChirpError),
}

impl OpResult {
    pub(crate) fn from_val(r: ChirpResult<i32>) -> OpResult {
        match r {
            Ok(v) => OpResult::Val(v),
            Err(e) => OpResult::Err(e),
        }
    }

    pub(crate) fn from_open(r: ChirpResult<(i32, (bool, u64))>) -> OpResult {
        match r {
            Ok((fd, (is_dir, size))) => OpResult::Opened(fd, is_dir, if is_dir { 0 } else { size }),
            Err(e) => OpResult::Err(e),
        }
    }

    pub(crate) fn from_unit(r: ChirpResult<()>) -> OpResult {
        match r {
            Ok(()) => OpResult::Unit,
            Err(e) => OpResult::Err(e),
        }
    }

    pub(crate) fn from_data(r: ChirpResult<Vec<u8>>) -> OpResult {
        match r {
            Ok(d) => OpResult::Data(d),
            Err(e) => OpResult::Err(e),
        }
    }

    pub(crate) fn from_names(r: ChirpResult<Vec<String>>) -> OpResult {
        match r {
            Ok(n) => OpResult::Names(n),
            Err(e) => OpResult::Err(e),
        }
    }

    pub(crate) fn from_text(r: ChirpResult<String>) -> OpResult {
        match r {
            Ok(t) => OpResult::Text(t),
            Err(e) => OpResult::Err(e),
        }
    }

    pub(crate) fn from_stat(r: ChirpResult<(bool, u64)>) -> OpResult {
        match r {
            Ok((is_dir, size)) => OpResult::Stat(is_dir, if is_dir { 0 } else { size }),
            Err(e) => OpResult::Err(e),
        }
    }

    fn from_statbuf(r: ChirpResult<StatBuf>) -> OpResult {
        OpResult::from_stat(r.map(|st| (st.is_dir(), st.size)))
    }

    pub(crate) fn from_entries(r: ChirpResult<Vec<(String, bool, u64)>>) -> OpResult {
        match r {
            Ok(entries) => OpResult::Entries(
                entries
                    .into_iter()
                    .map(|(name, is_dir, size)| (name, is_dir, if is_dir { 0 } else { size }))
                    .collect(),
            ),
            Err(e) => OpResult::Err(e),
        }
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

    /// The authenticated subject (also the model's identity).
    pub fn subject(&self) -> &str {
        &self.subject
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
            let real = self.apply_real(&base, op);
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
            self.reconnect();
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

    fn reconnect(&mut self) {
        self.conn = self.sim.connect(0);
    }

    /// Run one op against the real server, under the `base` namespace.
    fn apply_real(&mut self, base: &str, op: &Op) -> OpResult {
        let p = |path: &str| {
            if path == "/" {
                base.to_string()
            } else {
                format!("{base}{path}")
            }
        };
        match op {
            Op::Open { path, flags } => OpResult::from_open(
                self.conn
                    .open(&p(path), *flags, 0o644)
                    .map(|(fd, st)| (fd, (st.is_dir(), st.size))),
            ),
            Op::Close { fd } => OpResult::from_unit(self.conn.close(*fd)),
            Op::Pread { fd, len, off } => OpResult::from_data(self.conn.pread(*fd, *len, *off)),
            Op::Pwrite { fd, data, off } => {
                OpResult::from_val(self.conn.pwrite(*fd, data, *off).map(|n| n as i32))
            }
            Op::Fstat { fd } => OpResult::from_statbuf(self.conn.fstat(*fd)),
            Op::Fsync { fd } => OpResult::from_unit(self.conn.fsync(*fd)),
            Op::Stat { path } => OpResult::from_statbuf(self.conn.stat(&p(path))),
            Op::Unlink { path } => OpResult::from_unit(self.conn.unlink(&p(path))),
            Op::Rename { from, to } => OpResult::from_unit(self.conn.rename(&p(from), &p(to))),
            Op::Mkdir { path } => OpResult::from_unit(self.conn.mkdir(&p(path), 0o755)),
            Op::Rmdir { path } => OpResult::from_unit(self.conn.rmdir(&p(path))),
            Op::Getdir { path } => OpResult::from_names(self.conn.getdir(&p(path))),
            Op::Getacl { path } => OpResult::from_text(self.conn.getacl(&p(path))),
            Op::Setacl {
                path,
                subject,
                rights,
            } => OpResult::from_unit(self.conn.setacl(&p(path), subject, rights)),
            Op::Truncate { path, size } => OpResult::from_unit(self.conn.truncate(&p(path), *size)),
            Op::GetdirStat { path } => {
                OpResult::from_entries(self.conn.getdir_stat(&p(path)).map(|entries| {
                    entries
                        .into_iter()
                        .map(|(name, st)| (name, st.is_dir(), st.size))
                        .collect()
                }))
            }
            Op::StatMulti { paths } => {
                let full: Vec<String> = paths.iter().map(|x| p(x)).collect();
                match self.conn.stat_multi(&full) {
                    Ok(verdicts) => {
                        OpResult::Multi(verdicts.into_iter().map(OpResult::from_statbuf).collect())
                    }
                    Err(e) => OpResult::Err(e),
                }
            }
            Op::Burst { ops } => self.apply_burst_real(base, ops),
            Op::Whoami => OpResult::from_text(self.conn.whoami()),
            Op::Disconnect => {
                self.reconnect();
                OpResult::Unit
            }
        }
    }

    /// Run a burst pipelined for real: every request goes onto the wire
    /// before the first reply is read, then the replies settle strictly
    /// in send order. Divergence here — including a verdict landing on
    /// the wrong request after a mid-pipeline protocol error — is an
    /// ordering-contract violation, not just a value mismatch.
    fn apply_burst_real(&mut self, base: &str, ops: &[BurstOp]) -> OpResult {
        let p = |path: &str| {
            if path == "/" {
                base.to_string()
            } else {
                format!("{base}{path}")
            }
        };
        let verdicts = self.conn.pipeline(ops.len().max(1), |pipe| {
            for op in ops {
                match op {
                    BurstOp::Pread { fd, len, off } => pipe.send(
                        &Request::Pread {
                            fd: *fd,
                            length: *len,
                            offset: *off,
                        },
                        None,
                        ReplyShape::Body,
                    )?,
                    BurstOp::Pwrite { fd, data, off } => pipe.send(
                        &Request::Pwrite {
                            fd: *fd,
                            length: data.len() as u64,
                            offset: *off,
                        },
                        Some(data),
                        ReplyShape::Status,
                    )?,
                    BurstOp::Stat { path } => {
                        pipe.send(&Request::Stat { path: p(path) }, None, ReplyShape::Status)?
                    }
                }
            }
            Ok(pipe.settle_all())
        });
        let verdicts = match verdicts {
            Ok(v) => v,
            Err(e) => return OpResult::Err(e),
        };
        OpResult::Multi(
            ops.iter()
                .zip(verdicts)
                .map(|(op, v)| match op {
                    BurstOp::Pread { .. } => OpResult::from_data(v.map(Reply::into_body)),
                    BurstOp::Pwrite { .. } => {
                        OpResult::from_val(v.map(|r| r.status().value as i32))
                    }
                    BurstOp::Stat { .. } => OpResult::from_statbuf(v.and_then(|r| {
                        let words: Vec<&str> =
                            r.status().words.iter().map(String::as_str).collect();
                        StatBuf::from_words(&words)
                    })),
                })
                .collect(),
        )
    }

    /// Delta-debugging: drop chunks of decreasing size while the
    /// divergence persists. Each candidate replays in a fresh
    /// namespace, so candidates cannot contaminate each other.
    fn shrink(&mut self, ops: Vec<Op>) -> Vec<Op> {
        ddmin(ops, &mut |cand| self.first_divergence(cand).is_some())
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
    use crate::gen::BurstOp;
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
                    BurstOp::Pwrite {
                        fd: 0,
                        data: b"hello".to_vec(),
                        off: 0,
                    },
                    // BadFd mid-pipeline: a settled verdict, pipe alive.
                    BurstOp::Pread {
                        fd: 9,
                        len: 4,
                        off: 0,
                    },
                    // NotFound mid-pipeline, same contract.
                    BurstOp::Stat {
                        path: "/missing".into(),
                    },
                    BurstOp::Pread {
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
}
