//! Seeded generation of Chirp operation sequences.
//!
//! [`Op`] is the one Chirp-level op vocabulary of this crate: the
//! differential draws sequences of it here, the scenarios script their
//! rounds in it, [`crate::diff::run`] is the one place an op becomes
//! `Connection` calls, and [`crate::model::ModelServer::apply`] the one
//! oracle that answers it.
//!
//! The generator draws from small, fixed pools of paths, flags, and
//! ACL specs, chosen so that interesting collisions are frequent: the
//! same few names are opened, unlinked, renamed over each other, and
//! re-created; directories are made, removed and renamed under paths
//! that files also target; descriptors are referenced by raw number so
//! stale-fd and double-close cases arise naturally. A sequence is a
//! pure function of its seed.
//!
//! Deliberately *not* generated, to keep the model honest:
//!
//! * `APPEND` opens — Linux `pwrite(2)` ignores the offset on
//!   `O_APPEND` descriptors, a platform quirk this system does not
//!   promise to reproduce;
//! * flag combinations the real `OpenOptions` rejects up front
//!   (truncate or create without write);
//! * `THIRDPUT` — whether the target accepts the push is another
//!   server's ACL decision, which a one-server model cannot answer.

use chirp_proto::OpenFlags;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One generated client operation. Paths are protocol paths relative
/// to the sequence's namespace root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `OPEN` with a flag combination from the fixed pool.
    Open {
        /// Target path.
        path: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// `CLOSE` a raw descriptor number (may be stale or never opened).
    Close {
        /// Descriptor number.
        fd: i32,
    },
    /// `PREAD`.
    Pread {
        /// Descriptor number.
        fd: i32,
        /// Bytes requested.
        len: u64,
        /// File offset.
        off: u64,
    },
    /// `PWRITE`.
    Pwrite {
        /// Descriptor number.
        fd: i32,
        /// Payload bytes.
        data: Vec<u8>,
        /// File offset.
        off: u64,
    },
    /// `FSTAT`.
    Fstat {
        /// Descriptor number.
        fd: i32,
    },
    /// `FSYNC` a raw descriptor number (may be stale or never opened).
    Fsync {
        /// Descriptor number.
        fd: i32,
    },
    /// `STAT` by path.
    Stat {
        /// Target path.
        path: String,
    },
    /// `UNLINK`.
    Unlink {
        /// Target path.
        path: String,
    },
    /// `RENAME`.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// `MKDIR`.
    Mkdir {
        /// Target path.
        path: String,
    },
    /// `RMDIR`.
    Rmdir {
        /// Target path.
        path: String,
    },
    /// `GETDIR`.
    Getdir {
        /// Target path.
        path: String,
    },
    /// `GETDIRSTAT`: listing with attributes in one exchange.
    GetdirStat {
        /// Target path.
        path: String,
    },
    /// `STATMULTI`: a batch of paths statted in one exchange, one
    /// verdict per path.
    StatMulti {
        /// Target paths, in reply order.
        paths: Vec<String>,
    },
    /// A pipelined burst: the ops ride the connection back to back and
    /// their replies settle strictly in order — the generator's probe
    /// for FIFO reply matching, including error verdicts landing
    /// mid-pipeline without shifting later replies.
    Burst {
        /// The pipelined operations, in send order; each satisfies
        /// [`Op::pipelines`].
        ops: Vec<Op>,
    },
    /// `GETFILE`: the whole file, streamed back.
    Getfile {
        /// Target path.
        path: String,
    },
    /// `PUTFILE`: the whole file, uploaded in one request. It truncates
    /// an existing file in place, so open descriptors see the new bytes.
    Putfile {
        /// Target path.
        path: String,
        /// The file's new bytes.
        data: Vec<u8>,
    },
    /// `THIRDPUT`: the server pushes `path` to `to` on another server.
    /// Never generated (see the module docs); scenarios script it.
    Thirdput {
        /// Source path.
        path: String,
        /// Index of the target server in the instance.
        server: usize,
        /// Path on the target server.
        to: String,
    },
    /// `GETACL`.
    Getacl {
        /// Target path.
        path: String,
    },
    /// `SETACL`.
    Setacl {
        /// Target directory.
        path: String,
        /// Subject pattern to grant or revoke.
        subject: String,
        /// Rights spec (possibly empty = revoke, possibly invalid).
        rights: String,
    },
    /// `TRUNCATE` by path.
    Truncate {
        /// Target path.
        path: String,
        /// New size.
        size: u64,
    },
    /// `WHOAMI`.
    Whoami,
    /// Drop the connection and reconnect: the server must close every
    /// descriptor and a fresh session must renumber from zero.
    Disconnect,
}

impl Op {
    /// Whether the op may ride a [`Op::Burst`]: exactly one reply and
    /// no change to the descriptor table, so the fd-sweep invariant
    /// between runner and model survives any burst.
    pub fn pipelines(&self) -> bool {
        matches!(self, Op::Pread { .. } | Op::Pwrite { .. } | Op::Stat { .. })
    }
}

/// File-name pool. Nested names share the two directory names so
/// operations race over the same tree.
const FILES: &[&str] = &["/f0", "/f1", "/f2", "/d0/f0", "/d0/f1", "/d1/f0"];
/// Directory-name pool, disjoint from file leaf names (a directory
/// reaches a file name only by `RENAME`).
const DIRS: &[&str] = &["/d0", "/d1"];
/// Flag pool: every combination the real `OpenOptions` accepts and the
/// model reproduces.
const FLAG_POOL: &[fn() -> OpenFlags] = &[
    || OpenFlags::READ,
    || OpenFlags::WRITE | OpenFlags::CREATE,
    || OpenFlags::READ | OpenFlags::WRITE | OpenFlags::CREATE,
    || OpenFlags::READ | OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE,
    || OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE,
    || OpenFlags::READ | OpenFlags::WRITE,
];
/// Rights specs for `SETACL`, including a revocation (empty), reserve
/// grants, and one spec the parser rejects.
const RIGHTS_POOL: &[&str] = &["rwlda", "rl", "rwl", "", "v(rwl)", "rwldav(rl)", "x!"];

/// Seeded operation-sequence generator.
pub struct OpGen {
    rng: SmallRng,
    subject: String,
}

impl OpGen {
    /// A generator for `seed`, granting/revoking ACL entries against
    /// `subject` (the differential session's identity).
    pub fn new(seed: u64, subject: &str) -> OpGen {
        OpGen {
            rng: SmallRng::seed_from_u64(seed),
            subject: subject.to_string(),
        }
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.rng.gen_range(0..pool.len())]
    }

    /// A path from files ∪ dirs, plus the root if `root` (ops that
    /// resolve a parent never get it: the namespace root must stay put).
    fn path(&mut self, root: bool) -> String {
        let len = FILES.len() + DIRS.len() + usize::from(root);
        let n = self.rng.gen_range(0..len);
        FILES.iter().chain(DIRS).nth(n).unwrap_or(&"/").to_string()
    }

    fn fd(&mut self) -> i32 {
        self.rng.gen_range(0..5i32)
    }

    /// One op for a pipelined burst: mostly reads, some writes, some
    /// path stats, drawn against the same stale-fd-prone pools so
    /// error verdicts land mid-pipeline often.
    fn burst_op(&mut self) -> Op {
        match self.rng.gen_range(0u32..10) {
            0..=3 => self.pread(None),
            4..=6 => self.pwrite(),
            _ => Op::Stat {
                path: self.path(false),
            },
        }
    }

    fn one(&mut self) -> Op {
        match self.rng.gen_range(0u32..100) {
            // Descriptor traffic dominates, as it does in real
            // workloads.
            0..=14 => Op::Open {
                path: self.path(false),
                flags: FLAG_POOL[self.rng.gen_range(0..FLAG_POOL.len())](),
            },
            15..=23 => Op::Close { fd: self.fd() },
            24..=34 => self.pread(None),
            35..=46 => self.pwrite(),
            47..=49 => Op::Fstat { fd: self.fd() },
            50 => Op::Fsync { fd: self.fd() },
            // Stat's rights come from the *parent* of the target, so
            // "/" is excluded: the namespace root's parent lies outside
            // the modeled tree. (Ops that check rights on the target
            // itself — getdir, getacl, setacl — do include "/".)
            51..=54 => Op::Stat {
                path: self.path(false),
            },
            55..=56 => {
                let n = self.rng.gen_range(1usize..5);
                Op::StatMulti {
                    paths: (0..n).map(|_| self.path(false)).collect(),
                }
            }
            57..=62 => Op::Unlink {
                path: self.path(false),
            },
            // Files and directories alike: a directory moves with its
            // subtree and its ACL, onto a file name, over another
            // directory, or into its own subtree.
            63..=67 => Op::Rename {
                from: self.path(false),
                to: self.path(false),
            },
            68..=73 => Op::Mkdir {
                path: self.pick(DIRS).to_string(),
            },
            74..=77 => Op::Rmdir {
                path: self.pick(DIRS).to_string(),
            },
            78..=79 => Op::Getdir {
                path: self.path(true),
            },
            80..=81 => Op::GetdirStat {
                path: self.path(true),
            },
            82..=83 => Op::Getacl {
                path: self.path(true),
            },
            84..=86 => {
                let subject = match self.rng.gen_range(0u32..3) {
                    0 => self.subject.clone(),
                    1 => "hostname:*".to_string(),
                    _ => "unix:alice".to_string(),
                };
                Op::Setacl {
                    path: if self.rng.gen_bool(0.5) {
                        "/".to_string()
                    } else {
                        self.pick(DIRS).to_string()
                    },
                    subject,
                    rights: self.pick(RIGHTS_POOL).to_string(),
                }
            }
            87..=88 => Op::Truncate {
                path: self.pick(FILES).to_string(),
                size: self.rng.gen_range(0u64..320),
            },
            89..=91 => Op::Getfile {
                path: self.path(false),
            },
            92..=95 => self.putfile(None),
            96 => {
                let n = self.rng.gen_range(2usize..7);
                Op::Burst {
                    ops: (0..n).map(|_| self.burst_op()).collect(),
                }
            }
            97 => Op::Whoami,
            _ => Op::Disconnect,
        }
    }

    /// A `PREAD` on `fd`, or on a drawn descriptor.
    fn pread(&mut self, fd: Option<i32>) -> Op {
        Op::Pread {
            fd: fd.unwrap_or_else(|| self.fd()),
            len: self.rng.gen_range(0u64..192),
            off: self.rng.gen_range(0u64..256),
        }
    }

    fn pwrite(&mut self) -> Op {
        let len = self.rng.gen_range(0usize..48);
        let byte = self.rng.gen_range(0u8..255);
        Op::Pwrite {
            fd: self.fd(),
            data: vec![byte; len],
            off: self.rng.gen_range(0u64..200),
        }
    }

    /// A `PUTFILE` to `path`, or to a drawn path. One upload in four
    /// outgrows a shard's 64 KiB read, so its payload is received (or
    /// drained) off the shard.
    fn putfile(&mut self, path: Option<String>) -> Op {
        let len = match self.rng.gen_range(0u32..4) {
            0 => self.rng.gen_range(64 * 1024..80 * 1024),
            _ => self.rng.gen_range(0usize..320),
        };
        let byte = self.rng.gen_range(0u8..255);
        Op::Putfile {
            path: path.unwrap_or_else(|| self.path(false)),
            data: vec![byte; len],
        }
    }

    /// A `PUTFILE` over a file a descriptor has read, drawn whole
    /// because random draws almost never line it up: a fresh session
    /// opens the file as fd 0 and reads it twice (a second miss admits
    /// a page to a full cache), the file is replaced, and fd 0 reads
    /// again — it must see the new bytes.
    fn replace_under_reader(&mut self) -> Vec<Op> {
        let path = self.path(false);
        let put = self.putfile(Some(path.clone()));
        let open = Op::Open {
            path: path.clone(),
            flags: OpenFlags::READ,
        };
        let (read, reread) = (self.pread(Some(0)), self.pread(Some(0)));
        let replace = self.putfile(Some(path));
        let last = self.pread(Some(0));
        vec![Op::Disconnect, put, open, read, reread, replace, last]
    }

    /// Generate one sequence: 4–24 operations, one in eight followed by
    /// a `PUTFILE` under a reader (`OpGen::replace_under_reader`).
    pub fn sequence(&mut self) -> Vec<Op> {
        let n = self.rng.gen_range(4usize..24);
        let mut ops: Vec<Op> = (0..n).map(|_| self.one()).collect();
        if self.rng.gen_range(0u32..8) == 0 {
            ops.extend(self.replace_under_reader());
        }
        ops
    }
}

/// The ops for `seed`, as the differential checker replays them.
pub fn ops_for_seed(seed: u64, subject: &str) -> Vec<Op> {
    OpGen::new(seed, subject).sequence()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let a = ops_for_seed(42, "hostname:x");
        let b = ops_for_seed(42, "hostname:x");
        assert_eq!(a, b);
        assert!(a.len() >= 4);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut distinct = 0;
        for seed in 0..20 {
            if ops_for_seed(seed, "s") != ops_for_seed(seed + 1, "s") {
                distinct += 1;
            }
        }
        assert!(distinct >= 18, "only {distinct}/20 neighbours differed");
    }

    #[test]
    fn pools_cover_every_op_kind() {
        // Across a modest seed range every drawn variant should appear,
        // and a directory should be renamed.
        let mut seen = [false; 23];
        for seed in 0..500 {
            for op in ops_for_seed(seed, "s") {
                let idx = match op {
                    Op::Open { .. } => 0,
                    Op::Close { .. } => 1,
                    Op::Pread { .. } => 2,
                    Op::Pwrite { .. } => 3,
                    Op::Fstat { .. } => 4,
                    Op::Fsync { .. } => 19,
                    Op::Stat { .. } => 5,
                    Op::Unlink { .. } => 6,
                    Op::Rename { ref from, .. } if DIRS.contains(&from.as_str()) => 21,
                    Op::Rename { .. } => 7,
                    Op::Mkdir { .. } => 8,
                    Op::Rmdir { .. } => 9,
                    Op::Getdir { .. } => 10,
                    Op::Getacl { .. } => 11,
                    Op::Setacl { .. } => 12,
                    Op::Truncate { .. } => 13,
                    Op::Whoami => 14,
                    Op::Disconnect => 15,
                    Op::GetdirStat { .. } => 16,
                    Op::StatMulti { .. } => 17,
                    Op::Burst { .. } => 18,
                    Op::Getfile { .. } => 20,
                    Op::Putfile { .. } => 22,
                    Op::Thirdput { .. } => panic!("THIRDPUT is never generated"),
                };
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "unreached op kinds: {seen:?}");
    }

    #[test]
    fn bursts_mix_op_shapes() {
        // Every burst member must pipeline, and bursts must carry every
        // such kind somewhere in the seed range, or the pipelined
        // replay never sees mixed reply shapes.
        let (mut preads, mut pwrites, mut stats) = (0, 0, 0);
        for seed in 0..2000 {
            for op in ops_for_seed(seed, "s") {
                if let Op::Burst { ops } = op {
                    assert!((2..=6).contains(&ops.len()));
                    for b in ops {
                        assert!(b.pipelines(), "{b:?} rode a burst");
                        match b {
                            Op::Pread { .. } => preads += 1,
                            Op::Pwrite { .. } => pwrites += 1,
                            _ => stats += 1,
                        }
                    }
                }
            }
        }
        assert!(
            preads > 0 && pwrites > 0 && stats > 0,
            "burst shape mix missing: {preads} preads, {pwrites} pwrites, {stats} stats"
        );
    }
}
