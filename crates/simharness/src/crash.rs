//! Crash-injection differential testing for the dsfs update protocol.
//!
//! The typestate layer (`tss_core::protocol`) proves the *order* of the
//! stub/data updates at compile time; this module proves the order is
//! *sufficient*: no matter where a crash lands, the surviving on-disk
//! state is one the paper's §5 argument accepts. For each seeded
//! sequence of whole-file operations against a simulated dsfs:
//!
//! 1. **Golden run** — replay with an armed [`CrashPoint`] journaling
//!    every durability point (stub writes, metadata creates/pwrites/
//!    fsyncs/dirsyncs/renames/unlinks, data-server creates/pwrites/
//!    truncates/unlinks) but unlimited budget, differentially checking
//!    each op's verdict and the final state against a model. The
//!    journal's length `N` is the number of places this sequence
//!    touches stable storage.
//! 2. **Crash sweep** — for every prefix length `k < N`, replay the
//!    same sequence with budget `k`: the k-th durability point (and
//!    every later one) fails, exactly as if the process died there —
//!    a dead process performs no further writes. The surviving state
//!    is then *restarted*: a fresh stub filesystem over the same
//!    metadata directory and data volume, with fresh connections.
//! 3. **Acceptance** — `fsck` the restarted filesystem and check the
//!    crash state against the model:
//!    * every path not named by the crashed op is byte-identical to
//!      the pre-crash model (failure coherence: a crash during one
//!      op cannot disturb another file);
//!    * the crashed op's own targets are in a state the protocol
//!      allows — fully old, fully new, or (for an in-flight create)
//!      an empty data file; a dangling or zero-length stub reads as
//!      "file not found", never as garbage;
//!    * orphaned data appears only where a rename clobber can leave
//!      it, never from a crashed create or delete — the ordering
//!      theorem;
//!    * one `repair` pass yields a clean report, a second removes
//!      nothing, and repair never touches a healthy file.
//!
//! A failure prints the seed, the crash budget, and a delta-debugged
//! minimal op trace, reproducible with `CRASH_SEED=<seed>`.
//!
//! **Torn-write mode** ([`CrashHarness::run_seed_torn`]) repeats the
//! sweep with the injector in partial-sector mode: the killing write
//! persists a seeded strict prefix of its bytes before the process
//! dies, modeling a power cut mid-sector instead of a clean kill. The
//! stub writes tear (the metadata tree is a `LocalFs`) and so does the
//! data server's `PWRITE` (its descriptors hold a `LocalHandle`); the
//! acceptance relaxes exactly two clauses, both for the crashed op's
//! own target only: a *corrupt* stub — one fsck cannot parse — is
//! allowed iff it reads as an error (never as garbage data) and is
//! removed by the same repair pass that removes dangling stubs; and a
//! crashed write's file may read as a strict prefix of its bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::sync::Arc;

use chirp_proto::persist::{CrashPoint, Persist};
use chirp_proto::OpenFlags;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tss_core::fs::FileSystem;
use tss_core::fsck::{fsck, repair, RepairOptions};
use tss_core::localfs::LocalFs;
use tss_core::placement::Placement;
use tss_core::stubfs::StubFs;

use crate::harness::{sim_root, SimTss};

/// One whole-file operation against the simulated dsfs. Coarser than
/// the RPC-level [`crate::gen::Op`] mix on purpose: each op is a full
/// protocol transaction, so every crash budget lands *inside* a
/// create, delete, rename, or truncate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashOp {
    /// Create or overwrite `path` with `data` (one open, one pwrite).
    Write {
        /// Tree path.
        path: String,
        /// File contents, written in a single pwrite.
        data: Vec<u8>,
    },
    /// Delete `path` (data first, then stub).
    Delete {
        /// Tree path.
        path: String,
    },
    /// Rename `from` over `to` (tree-only; clobber orphans data).
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Create directory `path` in the tree.
    Mkdir {
        /// Tree path.
        path: String,
    },
    /// Truncate `path` to `size`.
    Truncate {
        /// Tree path.
        path: String,
        /// New size.
        size: u64,
    },
}

impl CrashOp {
    /// The tree paths this op mutates — the only paths a crash during
    /// it may disturb.
    pub fn targets(&self) -> BTreeSet<String> {
        let mut t = BTreeSet::new();
        match self {
            CrashOp::Write { path, .. }
            | CrashOp::Delete { path }
            | CrashOp::Mkdir { path }
            | CrashOp::Truncate { path, .. } => {
                t.insert(path.clone());
            }
            CrashOp::Rename { from, to } => {
                t.insert(from.clone());
                t.insert(to.clone());
            }
        }
        t
    }
}

impl fmt::Display for CrashOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashOp::Write { path, data } => {
                write!(
                    f,
                    "write {path} ({} x {:#04x})",
                    data.len(),
                    data.first().copied().unwrap_or(0)
                )
            }
            CrashOp::Delete { path } => write!(f, "delete {path}"),
            CrashOp::Rename { from, to } => write!(f, "rename {from} -> {to}"),
            CrashOp::Mkdir { path } => write!(f, "mkdir {path}"),
            CrashOp::Truncate { path, size } => write!(f, "truncate {path} to {size}"),
        }
    }
}

/// File-name pool: a few root names plus nested names under the one
/// generated directory, so creates race missing parents and renames
/// clobber often.
const FILES: &[&str] = &["/a", "/b", "/c", "/d0/x", "/d0/y"];
/// Directory-name pool.
const DIRS: &[&str] = &["/d0"];

/// The op sequence for `seed` — a pure function of the seed.
pub fn crash_ops_for_seed(seed: u64) -> Vec<CrashOp> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A5_1DE7);
    let n = rng.gen_range(2usize..6);
    (0..n)
        .map(|_| {
            let pick = |rng: &mut SmallRng| FILES[rng.gen_range(0..FILES.len())].to_string();
            match rng.gen_range(0u32..100) {
                0..=44 => {
                    let len = rng.gen_range(1usize..25);
                    let byte = rng.gen_range(1u8..255);
                    CrashOp::Write {
                        path: pick(&mut rng),
                        data: vec![byte; len],
                    }
                }
                45..=64 => CrashOp::Delete {
                    path: pick(&mut rng),
                },
                65..=79 => CrashOp::Rename {
                    from: pick(&mut rng),
                    to: pick(&mut rng),
                },
                80..=89 => CrashOp::Mkdir {
                    path: DIRS[rng.gen_range(0..DIRS.len())].to_string(),
                },
                _ => CrashOp::Truncate {
                    path: pick(&mut rng),
                    size: rng.gen_range(0u64..33),
                },
            }
        })
        .collect()
}

/// What a path holds, in the model or on the real filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    File(Vec<u8>),
    Dir,
    Absent,
    /// A stub the filesystem refuses to follow (`InvalidData`): the
    /// remains of a torn stub write. Never produced by the model; only
    /// torn-mode acceptance may admit it, and only on the crashed
    /// op's own target.
    Torn,
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            State::File(b) => write!(f, "file[{} bytes]", b.len()),
            State::Dir => write!(f, "dir"),
            State::Absent => write!(f, "absent"),
            State::Torn => write!(f, "torn stub"),
        }
    }
}

/// The model: a map of whole files plus the directory set, with a
/// count of data files operations have knowingly orphaned (rename
/// clobbers — the only legal source of orphans).
#[derive(Debug, Clone, Default)]
pub struct CrashModel {
    files: BTreeMap<String, Vec<u8>>,
    dirs: BTreeSet<String>,
    orphans: u64,
}

impl CrashModel {
    /// An empty tree.
    pub fn new() -> CrashModel {
        CrashModel::default()
    }

    /// Count of data files legally orphaned so far.
    pub fn orphans(&self) -> u64 {
        self.orphans
    }

    fn parent_exists(&self, path: &str) -> bool {
        match path.rfind('/') {
            Some(0) => true,
            Some(i) => self.dirs.contains(&path[..i]),
            None => false,
        }
    }

    fn state(&self, path: &str) -> State {
        if self.dirs.contains(path) {
            State::Dir
        } else if let Some(b) = self.files.get(path) {
            State::File(b.clone())
        } else {
            State::Absent
        }
    }

    /// Apply `op`; returns whether the op succeeds (the real side must
    /// agree).
    pub fn apply(&mut self, op: &CrashOp) -> bool {
        match op {
            CrashOp::Write { path, data } => {
                if !self.parent_exists(path) {
                    return false;
                }
                self.files.insert(path.clone(), data.clone());
                true
            }
            CrashOp::Delete { path } => self.files.remove(path).is_some(),
            CrashOp::Rename { from, to } => {
                if !self.files.contains_key(from) || !self.parent_exists(to) {
                    return false;
                }
                if from == to {
                    return true;
                }
                if self.files.contains_key(to) {
                    // The clobbered stub's data file is now referenced
                    // by nothing: a legal, repairable orphan.
                    self.orphans += 1;
                }
                let v = self.files.remove(from).expect("checked above");
                self.files.insert(to.clone(), v);
                true
            }
            CrashOp::Mkdir { path } => {
                if self.dirs.contains(path)
                    || self.files.contains_key(path)
                    || !self.parent_exists(path)
                {
                    return false;
                }
                self.dirs.insert(path.clone());
                true
            }
            CrashOp::Truncate { path, size } => match self.files.get_mut(path) {
                Some(v) => {
                    v.resize(*size as usize, 0);
                    true
                }
                None => false,
            },
        }
    }
}

/// A rejected post-crash state (or a pre-crash differential mismatch).
#[derive(Debug, Clone)]
pub struct CrashDivergence {
    /// The generating seed.
    pub seed: u64,
    /// Durability-point budget of the failing run; `None` for the
    /// golden (crash-free) run.
    pub budget: Option<u64>,
    /// Index of the op the crash landed in, if any.
    pub crashed_op: Option<usize>,
    /// What the checker rejected.
    pub detail: String,
    /// The (possibly shrunk) op trace.
    pub trace: Vec<CrashOp>,
}

impl fmt::Display for CrashDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "crash divergence (seed {}):", self.seed)?;
        match self.budget {
            Some(k) => writeln!(
                f,
                "  killed at durability point {k}{}",
                match self.crashed_op {
                    Some(i) => format!(" (inside op {i})"),
                    None => String::new(),
                }
            )?,
            None => writeln!(f, "  golden (crash-free) run")?,
        }
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  trace ({} ops):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "    {i}: {op}")?;
        }
        write!(
            f,
            "  reproduce: CRASH_SEED={} cargo test --release -p simharness --test crash_sim",
            self.seed
        )
    }
}

/// Counters from a sweep, for reporting and EXPERIMENTS numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashStats {
    /// Sequences fully swept.
    pub sequences: u64,
    /// Generated ops replayed in golden runs.
    pub ops: u64,
    /// Durability points enumerated = simulated kills performed.
    pub crash_points: u64,
}

impl CrashStats {
    /// Accumulate another sweep's counters.
    pub fn add(&mut self, other: CrashStats) {
        self.sequences += other.sequences;
        self.ops += other.ops;
        self.crash_points += other.crash_points;
    }
}

/// The crash-injection harness: one simulated data server plus a
/// shared [`CrashPoint`] injector threaded through the server
/// handlers, the metadata filesystem, and the stub protocol.
pub struct CrashHarness {
    sim: SimTss,
    injector: Arc<CrashPoint>,
    persist: Persist,
    run: u64,
}

impl Default for CrashHarness {
    fn default() -> CrashHarness {
        CrashHarness::new()
    }
}

impl CrashHarness {
    /// Stand up the simulated deployment. The server cache is off:
    /// crash semantics are about stable storage, and the sweep
    /// white-box-cleans volumes between runs, which a cache keyed on
    /// recycled inodes must not observe.
    pub fn new() -> CrashHarness {
        let injector = CrashPoint::new();
        let persist = Persist::from_arc(injector.clone());
        let sim = SimTss::builder()
            .cache_bytes(None)
            .persistence(persist.clone())
            .build();
        CrashHarness {
            sim,
            injector,
            persist,
            run: 0,
        }
    }

    /// Sweep one seed: golden run, then a kill at every durability
    /// point. On failure the trace is delta-debug shrunk first.
    pub fn run_seed(&mut self, seed: u64) -> Result<CrashStats, CrashDivergence> {
        let ops = crash_ops_for_seed(seed);
        match self.sweep(seed, &ops, false) {
            Ok(stats) => Ok(stats),
            Err(div) => Err(self.shrink(seed, ops, div, false)),
        }
    }

    /// [`CrashHarness::run_seed`] with the injector in torn-write
    /// mode: the killing write persists a seeded strict prefix of its
    /// bytes before dying, so stub writes can leave *corrupt* (not
    /// just dangling) stubs for fsck to classify and repair.
    pub fn run_seed_torn(&mut self, seed: u64) -> Result<CrashStats, CrashDivergence> {
        let ops = crash_ops_for_seed(seed);
        match self.sweep(seed, &ops, true) {
            Ok(stats) => Ok(stats),
            Err(div) => Err(self.shrink(seed, ops, div, true)),
        }
    }

    /// Golden run plus full budget sweep over `ops`.
    fn sweep(
        &mut self,
        seed: u64,
        ops: &[CrashOp],
        torn: bool,
    ) -> Result<CrashStats, CrashDivergence> {
        let total = self.run_once(seed, ops, None, torn)?;
        for k in 0..total {
            self.run_once(seed, ops, Some(k), torn)?;
        }
        Ok(CrashStats {
            sequences: 1,
            ops: ops.len() as u64,
            crash_points: total,
        })
    }

    /// Delta-debug `ops` down to a minimal still-failing trace.
    fn shrink(
        &mut self,
        seed: u64,
        ops: Vec<CrashOp>,
        original: CrashDivergence,
        torn: bool,
    ) -> CrashDivergence {
        let mut best_ops = ops;
        let mut best = original;
        let mut chunk = (best_ops.len() / 2).max(1);
        loop {
            let mut shrunk = false;
            let mut i = 0;
            while i < best_ops.len() && best_ops.len() > 1 {
                let mut candidate = best_ops.clone();
                let end = (i + chunk).min(candidate.len());
                candidate.drain(i..end);
                if candidate.is_empty() {
                    i += chunk;
                    continue;
                }
                match self.sweep(seed, &candidate, torn) {
                    Err(d) => {
                        best_ops = candidate;
                        best = d;
                        shrunk = true;
                    }
                    Ok(_) => i += chunk,
                }
            }
            if chunk == 1 && !shrunk {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        best.trace = best_ops;
        best
    }

    /// One replay of `ops` with the given crash budget (`None` =
    /// golden). Returns the number of durability points the run
    /// committed (meaningful for the golden run).
    fn run_once(
        &mut self,
        seed: u64,
        ops: &[CrashOp],
        budget: Option<u64>,
        torn: bool,
    ) -> Result<u64, CrashDivergence> {
        let run = self.run;
        self.run += 1;
        let volume = format!("/crash{run}");
        let fail = |detail: String, crashed_op: Option<usize>| CrashDivergence {
            seed,
            budget,
            crashed_op,
            detail,
            trace: ops.to_vec(),
        };

        // Fresh per-run namespace, built with the injector disarmed.
        let meta_dir = sim_root();
        let meta =
            LocalFs::with_persistence(meta_dir.path(), self.persist.clone()).expect("meta root");
        let mut opts = self.sim.stubfs_options();
        opts.persist = self.persist.clone();
        opts.breaker_threshold = 0; // crash errors must stay raw
        let fs = StubFs::new(
            Arc::new(meta),
            vec![self.sim.data_server(0, &volume)],
            Placement::round_robin(),
            opts,
        );
        fs.ensure_volumes().expect("create volume");

        // The killable region: exactly the generated ops.
        if torn {
            self.injector.arm_torn(budget, seed);
        } else {
            self.injector.arm(budget);
        }
        let mut model = CrashModel::new();
        let mut crashed: Option<usize> = None;
        for (i, op) in ops.iter().enumerate() {
            let res = apply_real(&fs, op);
            if self.injector.fired() {
                crashed = Some(i);
                break;
            }
            let expect = model.apply(op);
            if res.is_ok() != expect {
                self.injector.disarm();
                self.cleanup(&volume);
                return Err(fail(
                    format!(
                        "pre-crash differential mismatch on op {i} ({op}): real {:?}, model {}",
                        res.err().map(|e| e.kind()),
                        if expect { "success" } else { "failure" },
                    ),
                    None,
                ));
            }
        }
        let points = self.injector.points();
        self.injector.disarm();
        drop(fs); // return pooled connections before the restart view

        // Restart: fresh metadata filesystem and fresh connections
        // over whatever survived on disk.
        let rfs = StubFs::new(
            Arc::new(LocalFs::new(meta_dir.path()).expect("reopen meta root")),
            vec![self.sim.data_server(0, &volume)],
            Placement::round_robin(),
            {
                let mut o = self.sim.stubfs_options();
                o.breaker_threshold = 0;
                o
            },
        );
        let crashed_op = crashed.map(|i| &ops[i]);
        let verdict = verify_post_state(&rfs, &model, crashed_op, torn);
        drop(rfs);
        self.cleanup(&volume);
        verdict.map_err(|detail| fail(detail, crashed))?;
        Ok(points)
    }

    /// White-box removal of a run's volume from the server's root, so
    /// tens of thousands of runs don't accumulate on RAM-backed disk.
    fn cleanup(&self, volume: &str) {
        let _ = std::fs::remove_dir_all(self.sim.root(0).join(volume.trim_start_matches('/')));
    }
}

fn apply_real(fs: &StubFs, op: &CrashOp) -> io::Result<()> {
    match op {
        CrashOp::Write { path, data } => {
            let mut h = fs.open(
                path,
                OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::TRUNCATE,
                0o644,
            )?;
            h.pwrite(data, 0)?;
            Ok(())
        }
        CrashOp::Delete { path } => fs.unlink(path),
        CrashOp::Rename { from, to } => fs.rename(from, to),
        CrashOp::Mkdir { path } => fs.mkdir(path, 0o755),
        CrashOp::Truncate { path, size } => fs.truncate(path, *size),
    }
}

/// The state of `path` on the restarted filesystem.
fn real_state(fs: &StubFs, path: &str) -> Result<State, String> {
    match fs.stat(path) {
        Ok(st) if st.is_dir() => Ok(State::Dir),
        Ok(_) => match fs.read_file(path) {
            Ok(b) => Ok(State::File(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(State::Absent),
            Err(e) => Err(format!("read {path}: unexpected error {e}")),
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(State::Absent),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(State::Torn),
        Err(e) => Err(format!("stat {path}: unexpected error {e}")),
    }
}

/// Check a restarted filesystem against the model. `crashed_op` is the
/// op the crash landed in (`None` for the golden run, where the state
/// must match the model exactly). `torn` marks a torn-write run, the
/// only mode in which a corrupt stub is an acceptable crash remnant.
fn verify_post_state(
    fs: &StubFs,
    pre: &CrashModel,
    crashed_op: Option<&CrashOp>,
    torn: bool,
) -> Result<(), String> {
    let report = fsck(fs).map_err(|e| format!("fsck failed: {e}"))?;
    if !report.unreachable.is_empty() {
        return Err(format!(
            "unreachable paths after crash: {:?}",
            report.unreachable
        ));
    }

    let (post, targets) = match crashed_op {
        Some(op) => {
            let mut m = pre.clone();
            m.apply(op);
            (m, op.targets())
        }
        None => (pre.clone(), BTreeSet::new()),
    };

    // Dangling stubs may only name the crashed op's own targets.
    for d in &report.dangling_stubs {
        if !targets.contains(d) {
            return Err(format!(
                "dangling stub {d} outside the crashed op's targets"
            ));
        }
    }
    // A clean kill leaves stubs whole or empty (= dangling), never
    // torn: every stub lands in a single pwrite. Only a torn-write
    // run may leave a corrupt stub, and then only on the crashed op's
    // own target.
    for c in &report.corrupt_stubs {
        if !torn {
            return Err(format!("corrupt stub {c} from a clean (non-torn) kill"));
        }
        if !targets.contains(c) {
            return Err(format!("corrupt stub {c} outside the crashed op's targets"));
        }
    }
    // Every healthy file must be one the model knows (no phantoms).
    for h in &report.healthy {
        if !pre.files.contains_key(h) && !post.files.contains_key(h) {
            return Err(format!("phantom file {h} not in the model"));
        }
    }
    // Orphans: only rename clobbers make them; a crash mid-op may or
    // may not have reached the clobber.
    let lo = pre.orphans.min(post.orphans);
    let hi = pre.orphans.max(post.orphans);
    let n = report.orphaned_data.len() as u64;
    if n < lo || n > hi {
        return Err(format!(
            "{n} orphaned data files; the ordering theorem allows {lo}..={hi}"
        ));
    }

    // Per-path acceptance: untouched paths exactly match the pre-crash
    // model (failure coherence); the crashed op's targets may be in
    // the pre state, the post state, or — for a write — the in-flight
    // empty data file.
    let mut paths: BTreeSet<String> = BTreeSet::new();
    paths.extend(pre.files.keys().cloned());
    paths.extend(post.files.keys().cloned());
    paths.extend(pre.dirs.iter().cloned());
    paths.extend(post.dirs.iter().cloned());
    paths.extend(targets.iter().cloned());
    for p in &paths {
        let got = real_state(fs, p)?;
        let s_pre = pre.state(p);
        let s_post = post.state(p);
        let in_flight_write = matches!(
            crashed_op,
            Some(CrashOp::Write { path, .. }) if path == p
        ) && got == State::File(Vec::new());
        // A torn stub reads as an error (InvalidData), never as
        // garbage bytes; acceptable only where the crash landed.
        let torn_target = torn && targets.contains(p) && got == State::Torn;
        // A torn data-server PWRITE leaves a strict prefix of the
        // crashed write's bytes behind a whole stub.
        let torn_write = torn
            && matches!(
                (crashed_op, &got),
                (Some(CrashOp::Write { path, data }), State::File(b))
                    if path == p && b.len() < data.len() && data.starts_with(b)
            );
        if got != s_pre && got != s_post && !in_flight_write && !torn_target && !torn_write {
            return Err(format!(
                "{p}: found {got}, accepted states are pre={s_pre} / post={s_post}"
            ));
        }
    }

    // Repair must converge in one pass, be a no-op on the second, and
    // remove exactly what the scan reported.
    let all = RepairOptions {
        remove_dangling_stubs: true,
        remove_orphans: true,
    };
    let removed = repair(fs, &report, all).map_err(|e| format!("repair failed: {e}"))?;
    let expected = (report.dangling_stubs.len()
        + report.corrupt_stubs.len()
        + report.orphaned_data.len()) as u64;
    if removed != expected {
        return Err(format!(
            "repair removed {removed} items, scan reported {expected}"
        ));
    }
    let after = fsck(fs).map_err(|e| format!("post-repair fsck failed: {e}"))?;
    if !after.is_clean() || !after.unreachable.is_empty() {
        return Err(format!("repair did not converge: {after:?}"));
    }
    let removed2 = repair(fs, &after, all).map_err(|e| format!("second repair failed: {e}"))?;
    if removed2 != 0 {
        return Err(format!(
            "second repair removed {removed2} items; must be a no-op"
        ));
    }
    // Repair must not have touched any path the crash did not.
    for (p, bytes) in &pre.files {
        if targets.contains(p) {
            continue;
        }
        let got = real_state(fs, p)?;
        if got != State::File(bytes.clone()) {
            return Err(format!("repair disturbed healthy file {p}: now {got}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::DurabilityPoint;

    /// Build a StubFs over a fresh meta dir and a named volume on the
    /// harness's server, instrumented (or not) with its injector.
    fn fixture(
        h: &CrashHarness,
        volume: &str,
        instrumented: bool,
    ) -> (chirp_proto::testutil::TempDir, StubFs) {
        let meta_dir = sim_root();
        let persist = if instrumented {
            h.persist.clone()
        } else {
            Persist::none()
        };
        let meta = LocalFs::with_persistence(meta_dir.path(), persist.clone()).unwrap();
        let mut opts = h.sim.stubfs_options();
        opts.persist = persist;
        opts.breaker_threshold = 0;
        let fs = StubFs::new(
            Arc::new(meta),
            vec![h.sim.data_server(0, volume)],
            Placement::round_robin(),
            opts,
        );
        fs.ensure_volumes().unwrap();
        (meta_dir, fs)
    }

    #[test]
    fn golden_journal_orders_stub_before_data_on_create() {
        let h = CrashHarness::new();
        let (_meta, fs) = fixture(&h, "/order", true);
        h.injector.arm(None);
        apply_real(
            &fs,
            &CrashOp::Write {
                path: "/f".into(),
                data: b"payload".to_vec(),
            },
        )
        .unwrap();
        let entries = h.injector.journal().entries();
        h.injector.disarm();
        let stub = entries
            .iter()
            .position(|e| e.point == DurabilityPoint::StubWrite)
            .expect("stub write journaled");
        let data = entries
            .iter()
            .position(|e| e.point == DurabilityPoint::DataCreate)
            .expect("data create journaled");
        assert!(
            stub < data,
            "stub must be durable before data exists: {entries:?}"
        );
        h.cleanup("/order");
    }

    #[test]
    fn golden_journal_orders_data_before_stub_on_delete() {
        let h = CrashHarness::new();
        let (_meta, fs) = fixture(&h, "/order2", true);
        apply_real(
            &fs,
            &CrashOp::Write {
                path: "/f".into(),
                data: b"payload".to_vec(),
            },
        )
        .unwrap();
        h.injector.arm(None);
        fs.unlink("/f").unwrap();
        let entries = h.injector.journal().entries();
        h.injector.disarm();
        let data = entries
            .iter()
            .position(|e| e.point == DurabilityPoint::DataUnlink)
            .expect("data unlink journaled");
        let stub = entries
            .iter()
            .position(|e| e.point == DurabilityPoint::StubUnlink)
            .expect("stub unlink journaled");
        assert!(
            data < stub,
            "data must go before the stub on delete: {entries:?}"
        );
        h.cleanup("/order2");
    }

    #[test]
    fn create_killed_between_stub_and_data_reads_not_found_and_repairs() {
        let h = CrashHarness::new();
        let (meta_dir, fs) = fixture(&h, "/dangle", true);
        let op = CrashOp::Write {
            path: "/f".into(),
            data: b"payload".to_vec(),
        };
        // Golden pass to learn where the data-create point sits.
        h.injector.arm(None);
        apply_real(&fs, &op).unwrap();
        let pos = h
            .injector
            .journal()
            .entries()
            .iter()
            .position(|e| e.point == DurabilityPoint::DataCreate)
            .expect("data create journaled") as u64;
        fs.unlink("/f").unwrap();
        // Replay, killed right before the data file is created: the
        // stub is durable, the data is not — the paper's dangling case.
        h.injector.arm(Some(pos));
        let err = apply_real(&fs, &op).expect_err("create must die");
        assert!(h.injector.fired(), "injector fired");
        assert!(chirp_proto::persist::is_crash(&err) || err.kind() == io::ErrorKind::Other);
        h.injector.disarm();
        // White-box: the stub file itself survived with content.
        let host_stub = meta_dir.path().join("f");
        assert!(host_stub.exists(), "stub survived the crash");
        assert!(std::fs::metadata(&host_stub).unwrap().len() > 0);
        // The mandated read-side behavior: file not found, not garbage.
        let e = fs.read_file("/f").expect_err("dangling stub must not read");
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        // fsck sees exactly one dangling stub; repair converges.
        let report = fsck(&fs).unwrap();
        assert_eq!(report.dangling_stubs, vec!["/f".to_string()]);
        let all = RepairOptions {
            remove_dangling_stubs: true,
            remove_orphans: true,
        };
        assert_eq!(repair(&fs, &report, all).unwrap(), 1);
        let clean = fsck(&fs).unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(repair(&fs, &clean, all).unwrap(), 0);
        h.cleanup("/dangle");
    }

    #[test]
    fn torn_stub_write_is_classified_corrupt_and_repaired() {
        let h = CrashHarness::new();
        let (_meta, fs) = fixture(&h, "/torn", true);
        // Golden pass to learn where the stub's pwrite point sits in a
        // create's durability sequence (same shape for every root
        // path).
        h.injector.arm(None);
        apply_real(
            &fs,
            &CrashOp::Write {
                path: "/probe".into(),
                data: b"payload".to_vec(),
            },
        )
        .unwrap();
        let pos = h
            .injector
            .journal()
            .entries()
            .iter()
            .position(|e| e.point == DurabilityPoint::Pwrite)
            .expect("stub pwrite journaled") as u64;
        fs.unlink("/probe").unwrap();

        // Tear the stub write of eight creates with distinct seeds.
        // The torn prefix length is `seed`-dependent; a zero-length
        // tear leaves a dangling (empty) stub, any other length a
        // corrupt one — never a healthy file.
        let paths: Vec<String> = (0..8).map(|i| format!("/f{i}")).collect();
        for (i, path) in paths.iter().enumerate() {
            h.injector.arm_torn(Some(pos), i as u64);
            let err = apply_real(
                &fs,
                &CrashOp::Write {
                    path: path.clone(),
                    data: b"payload".to_vec(),
                },
            )
            .expect_err("create must die at the stub write");
            assert!(h.injector.fired(), "injector fired for {path}");
            assert!(chirp_proto::persist::is_crash(&err) || err.kind() == io::ErrorKind::Other);
            h.injector.disarm();
            // The mandated read-side behavior: an error, never
            // garbage bytes.
            let e = fs.read_file(path).expect_err("torn stub must not read");
            assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::NotFound | io::ErrorKind::InvalidData
                ),
                "torn stub read gave {e}"
            );
        }
        let report = fsck(&fs).unwrap();
        let mut flagged: Vec<String> = report
            .dangling_stubs
            .iter()
            .chain(&report.corrupt_stubs)
            .cloned()
            .collect();
        flagged.sort();
        assert_eq!(flagged, paths, "every torn create flagged: {report:?}");
        assert!(
            !report.corrupt_stubs.is_empty(),
            "some seed must tear mid-stub (non-empty prefix): {report:?}"
        );
        assert!(
            report.orphaned_data.is_empty(),
            "stub-first create cannot orphan data"
        );
        // One repair pass removes them all; a second is a no-op.
        let all = RepairOptions {
            remove_dangling_stubs: true,
            remove_orphans: true,
        };
        assert_eq!(repair(&fs, &report, all).unwrap(), paths.len() as u64);
        let clean = fsck(&fs).unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(repair(&fs, &clean, all).unwrap(), 0);
        h.cleanup("/torn");
    }

    #[test]
    fn checker_rejects_planted_orphan() {
        let h = CrashHarness::new();
        let (_meta, fs) = fixture(&h, "/teeth1", false);
        let mut model = CrashModel::new();
        let op = CrashOp::Write {
            path: "/a".into(),
            data: b"abc".to_vec(),
        };
        apply_real(&fs, &op).unwrap();
        assert!(model.apply(&op));
        verify_post_state(&fs, &model, None, false).expect("clean state accepted");
        // Plant a data file no stub references, behind the fs's back.
        let mut conn = h.sim.connect(0);
        let fd = conn
            .open(
                "/teeth1/planted.data",
                OpenFlags::WRITE | OpenFlags::CREATE,
                0o644,
            )
            .unwrap();
        conn.close(fd).unwrap();
        let err = verify_post_state(&fs, &model, None, false).expect_err("orphan must be rejected");
        assert!(err.contains("orphaned"), "unexpected detail: {err}");
        h.cleanup("/teeth1");
    }

    #[test]
    fn checker_rejects_phantom_file() {
        let h = CrashHarness::new();
        let (_meta, fs) = fixture(&h, "/teeth2", false);
        let model = CrashModel::new();
        // A file exists that the model never created.
        apply_real(
            &fs,
            &CrashOp::Write {
                path: "/ghost".into(),
                data: b"boo".to_vec(),
            },
        )
        .unwrap();
        let err =
            verify_post_state(&fs, &model, None, false).expect_err("phantom must be rejected");
        assert!(err.contains("phantom"), "unexpected detail: {err}");
        h.cleanup("/teeth2");
    }

    #[test]
    fn model_rename_clobber_counts_an_orphan() {
        let mut m = CrashModel::new();
        assert!(m.apply(&CrashOp::Write {
            path: "/a".into(),
            data: vec![1],
        }));
        assert!(m.apply(&CrashOp::Write {
            path: "/b".into(),
            data: vec![2],
        }));
        assert!(m.apply(&CrashOp::Rename {
            from: "/a".into(),
            to: "/b".into(),
        }));
        assert_eq!(m.orphans(), 1);
        // Self-rename is a no-op, not a clobber.
        assert!(m.apply(&CrashOp::Rename {
            from: "/b".into(),
            to: "/b".into(),
        }));
        assert_eq!(m.orphans(), 1);
        // Missing parent fails without touching state.
        assert!(!m.apply(&CrashOp::Write {
            path: "/d0/x".into(),
            data: vec![3],
        }));
        assert!(m.apply(&CrashOp::Mkdir { path: "/d0".into() }));
        assert!(m.apply(&CrashOp::Write {
            path: "/d0/x".into(),
            data: vec![3],
        }));
    }
}
