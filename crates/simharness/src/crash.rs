//! Crash-injection differential testing for the dsfs update protocol.
//!
//! The typestate layer (`tss_core::protocol`) proves the *order* of the
//! stub/data updates at compile time; this module proves the order is
//! *sufficient*: no matter where a crash lands, the surviving on-disk
//! state is one the paper's §5 argument accepts. Every seed runs on
//! each [`Cell`] — the stub engine's single, striped and mirrored
//! layouts over a local tree, and the single layout over a tree on a
//! file server (DSFS). For each seeded sequence of whole-file
//! [`FsOp`]s:
//!
//! 1. **Reference** — the ops run on a plain `LocalFs` tree, giving
//!    each op's verdict and the path pool's [`snapshot`] around every
//!    op; the harness counts rename clobbers itself (one orphaned data
//!    file per part of the clobbered file).
//! 2. **Golden run** — replay on the cell with an armed [`CrashPoint`]
//!    journaling every durability point (stub writes, tree
//!    creates/pwrites/fsyncs/dirsyncs/renames/unlinks, data-server
//!    creates/pwrites/truncates/unlinks) but unlimited budget, checking
//!    each verdict and the final state against the reference. The
//!    journal's length `N` is the number of places this sequence
//!    touches stable storage.
//! 3. **Crash sweep** — for every `k < N`, replay with budget `k`: the
//!    k-th durability point and every later one fail, exactly as if
//!    the process died there. The survivors are then *restarted*: a
//!    fresh filesystem over the same tree and volumes, with fresh
//!    connections.
//! 4. **Acceptance** — `fsck` the restarted filesystem and check it
//!    against the reference: every pool path the crashed op does not
//!    target is identical to its pre-crash state (failure coherence);
//!    the crashed op's own targets are fully old, fully new, or an
//!    in-flight create's empty file, and a dangling or zero-length stub
//!    reads as "file not found", never as garbage; orphaned data
//!    appears only where a rename clobber can leave it — the ordering
//!    theorem; one `repair` pass yields a clean report, a further pass
//!    removes nothing, and repair never touches a healthy file.
//!
//! **Striped files** change part by part, so three rules differ for
//! them: the crashed op's target may read as a per-part mix (a
//! stripe-aligned prefix in which each stripe equals that stripe of the
//! pre or of the post state); a clobber orphans every part; and repair
//! may take two rounds, since removing a dangling stub surfaces its
//! surviving part as an orphan. The fan-out runs parts on threads, so
//! kill totals are deterministic but which part the k-th point lands
//! on is not: a trace that fails once may pass when swept again.
//!
//! A failure prints the cell, the seed, the crash budget and a
//! delta-debugged minimal op trace, reproducible with
//! `CRASH_SEED=<seed>`; a trace that did not fail again is reported as
//! first seen and marked so.
//!
//! **Torn-write mode** (`torn` in [`CrashHarness::run_seed`]): the
//! killing write persists a seeded strict prefix of its bytes before
//! the process dies, a power cut mid-sector instead of a clean kill.
//! Stub writes tear (in the local tree and on the DSFS tree server)
//! and so does the data server's `PWRITE`. Two clauses relax, for the
//! crashed op's own target only: a *corrupt* stub — one fsck cannot
//! parse — is allowed iff it reads as an error and the repair pass
//! that removes dangling stubs removes it; and a crashed write's file
//! may read as a strict prefix of its bytes (for a striped file, its
//! last stripe may be a strict prefix of its post stripe).

use std::fmt;
use std::io;
use std::ops::RangeInclusive;
use std::sync::Arc;

use chirp_proto::persist::{CrashPoint, Persist};
use chirp_proto::testutil::TempDir;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tss_core::fs::FileSystem;
use tss_core::fsck::{fsck, repair, RepairOptions};
use tss_core::localfs::LocalFs;
use tss_core::mirrored::MirroredFs;
use tss_core::placement::Placement;
use tss_core::striped::StripedFs;
use tss_core::stubfs::StubFs;
use tss_core::Dsfs;

use crate::diff::ddmin;
use crate::fsop::{apply, path_state, snapshot, FsOp, PathState, Snapshot};
use crate::harness::{auth, sim_root, SimTss};

/// File-name pool: a few root names plus nested names under the one
/// generated directory, so creates race missing parents and renames
/// clobber often.
const FILES: &[&str] = &["/a", "/b", "/c", "/d0/x", "/d0/y"];
/// Directory-name pool.
const DIRS: &[&str] = &["/d0"];

/// Every path the sweep generates ops on, and so checks.
fn pool() -> impl Iterator<Item = &'static str> {
    FILES.iter().chain(DIRS).copied()
}

/// The op sequence for `seed` — a pure function of the seed. Coarser
/// than the RPC-level [`crate::gen::Op`] mix on purpose: each op is a
/// full protocol transaction, so every crash budget lands *inside* a
/// create, delete, rename, or truncate.
pub fn crash_ops_for_seed(seed: u64) -> Vec<FsOp> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A5_1DE7);
    let n = rng.gen_range(2usize..6);
    (0..n)
        .map(|_| {
            let pick = |rng: &mut SmallRng| FILES[rng.gen_range(0..FILES.len())].to_string();
            match rng.gen_range(0u32..100) {
                0..=44 => {
                    let len = rng.gen_range(1usize..25);
                    let byte = rng.gen_range(1u8..255);
                    FsOp::Write(pick(&mut rng), vec![byte; len])
                }
                45..=64 => FsOp::Unlink(pick(&mut rng)),
                65..=79 => FsOp::Rename(pick(&mut rng), pick(&mut rng)),
                80..=89 => FsOp::Mkdir(DIRS[rng.gen_range(0..DIRS.len())].to_string()),
                _ => FsOp::Truncate(pick(&mut rng), rng.gen_range(0u64..33)),
            }
        })
        .collect()
}

/// Stripe size of the striped cell: a few bytes, so the generated
/// writes (1–24 bytes) span several stripes.
const STRIPE: u64 = 4;
/// Parts per striped file and replicas per mirrored file.
const WIDTH: usize = 2;
/// The sim server holding the DSFS cell's tree (servers `0..WIDTH`
/// hold data).
const TREE_SERVER: usize = WIDTH;

/// One deployment the sweep runs every seed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// DPFS: the tree on a local `LocalFs`, each file one part on
    /// server 0.
    Single,
    /// The tree on a local `LocalFs`, each file striped in 4-byte
    /// stripes over servers 0 and 1.
    Striped,
    /// The tree on a local `LocalFs`, each file mirrored on servers 0
    /// and 1.
    Mirrored,
    /// DSFS: the tree on server 2 through a `Cfs`, each file one part
    /// on server 0.
    Dsfs,
}

impl Cell {
    /// Data files per logical file: what a rename clobber orphans.
    fn parts(self) -> u64 {
        match self {
            Cell::Striped | Cell::Mirrored => WIDTH as u64,
            Cell::Single | Cell::Dsfs => 1,
        }
    }

    /// fsck/repair rounds that reach a clean scan.
    fn repair_rounds(self) -> usize {
        if self == Cell::Striped {
            2
        } else {
            1
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format!("{self:?}").to_lowercase())
    }
}

/// A rejected post-crash state (or a pre-crash differential mismatch).
#[derive(Debug, Clone)]
pub struct CrashDivergence {
    /// The cell the sweep ran on.
    pub cell: Cell,
    /// The generating seed.
    pub seed: u64,
    /// Whether the injector ran in torn-write mode.
    pub torn: bool,
    /// Durability-point budget of the failing run; `None` for the
    /// golden (crash-free) run.
    pub budget: Option<u64>,
    /// Index of the op the crash landed in, if any.
    pub crashed_op: Option<usize>,
    /// What the checker rejected.
    pub detail: String,
    /// The (possibly shrunk) op trace.
    pub trace: Vec<FsOp>,
    /// False when the failing trace passed on a second sweep: the
    /// divergence is the first one seen, on the unshrunk trace.
    pub replayed: bool,
}

impl fmt::Display for CrashDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = if self.torn { ", torn" } else { "" };
        writeln!(
            f,
            "crash divergence ({} cell, seed {}{mode}):",
            self.cell, self.seed
        )?;
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
        if !self.replayed {
            writeln!(
                f,
                "  did not replay: the trace passed when swept again (kill placement \
                 over parallel parts is scheduler-dependent); shown as first seen"
            )?;
        }
        writeln!(f, "  trace ({} ops):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "    {i}: {op}")?;
        }
        write!(
            f,
            "  reproduce: CRASH_SEED={} cargo test --release -p simharness --test crash_sim {}_{}",
            self.seed,
            self.cell,
            if self.torn { "torn" } else { "clean" }
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

/// The reference run of a sequence on a plain `LocalFs` tree.
struct Reference {
    /// Each op's verdict.
    verdicts: Vec<bool>,
    /// The pool before op `i`, and after the last op at the end.
    states: Vec<Snapshot>,
    /// Data files rename clobbers have orphaned before op `i`, and
    /// after the last op at the end.
    orphans: Vec<u64>,
}

impl Reference {
    /// Run `ops` on a fresh local tree; a clobbered file orphans
    /// `parts` data files.
    fn run(ops: &[FsOp], parts: u64) -> Reference {
        let dir = sim_root();
        let fs = LocalFs::new(dir.path()).expect("reference root");
        let mut r = Reference {
            verdicts: Vec::new(),
            states: vec![snapshot(&fs, pool())],
            orphans: vec![0],
        };
        for op in ops {
            let before = r.states.last().expect("initial state");
            let ok = apply(&fs, op).succeeded();
            let is_file = |p: &str| matches!(before.get(p), Some(PathState::File(_)));
            let clobber = match op {
                FsOp::Rename(from, to) => ok && from != to && is_file(from) && is_file(to),
                _ => false,
            };
            let orphans =
                r.orphans.last().expect("initial count") + if clobber { parts } else { 0 };
            r.verdicts.push(ok);
            r.states.push(snapshot(&fs, pool()));
            r.orphans.push(orphans);
        }
        r
    }
}

/// A cell's filesystem, built with its layout's own constructor.
enum CellFs {
    Single(StubFs),
    Striped(StripedFs),
    Mirrored(MirroredFs),
    Dsfs(Dsfs),
}

impl CellFs {
    /// The stub engine underneath: the layouts delegate every
    /// `FileSystem` call to it, and `fsck` and `repair` take it.
    fn engine(&self) -> &StubFs {
        match self {
            CellFs::Single(fs) => fs,
            CellFs::Striped(fs) => fs.stubfs(),
            CellFs::Mirrored(fs) => fs.stubfs(),
            CellFs::Dsfs(fs) => fs.stubfs(),
        }
    }
}

/// One run's private namespace: a local tree and, on the servers, a
/// data volume and, for the DSFS cell, a tree base.
struct RunDirs {
    tree: TempDir,
    volume: String,
    base: Option<String>,
}

/// The crash-injection harness: simulated data servers and a tree
/// server plus a shared [`CrashPoint`] injector threaded through the
/// server handlers, the local tree, and the stub protocol.
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
            .servers(TREE_SERVER + 1)
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

    /// Sweep one seed on `cell`: golden run, then a kill at every
    /// durability point, the killing write torn if `torn` (it persists
    /// a seeded strict prefix of its bytes before dying, so stub writes
    /// can leave *corrupt*, not just dangling, stubs). On failure the
    /// trace is delta-debug shrunk first.
    pub fn run_seed(
        &mut self,
        cell: Cell,
        seed: u64,
        torn: bool,
    ) -> Result<CrashStats, CrashDivergence> {
        let ops = crash_ops_for_seed(seed);
        let first = match self.sweep(cell, seed, &ops, torn) {
            Ok(stats) => return Ok(stats),
            Err(div) => div,
        };
        Err(shrink(first, &mut |trace| {
            self.sweep(cell, seed, trace, torn)
        }))
    }

    /// Reference, golden run plus full budget sweep over `ops`.
    fn sweep(
        &mut self,
        cell: Cell,
        seed: u64,
        ops: &[FsOp],
        torn: bool,
    ) -> Result<CrashStats, CrashDivergence> {
        let reference = Reference::run(ops, cell.parts());
        let total = self.run_once(cell, seed, ops, &reference, None, torn)?;
        for k in 0..total {
            self.run_once(cell, seed, ops, &reference, Some(k), torn)?;
        }
        Ok(CrashStats {
            sequences: 1,
            ops: ops.len() as u64,
            crash_points: total,
        })
    }

    /// One replay of `ops` with the given crash budget (`None` =
    /// golden). Returns the number of durability points the run
    /// committed (meaningful for the golden run).
    fn run_once(
        &mut self,
        cell: Cell,
        seed: u64,
        ops: &[FsOp],
        reference: &Reference,
        budget: Option<u64>,
        torn: bool,
    ) -> Result<u64, CrashDivergence> {
        let dirs = self.fresh_dirs(cell);
        let fail = |detail: String, crashed_op: Option<usize>| CrashDivergence {
            cell,
            seed,
            torn,
            budget,
            crashed_op,
            detail,
            trace: ops.to_vec(),
            replayed: true,
        };

        // Fresh per-run namespace, built with the injector disarmed.
        let subject = self.open_cell(cell, &dirs, self.persist.clone());
        subject.engine().ensure_volumes().expect("create volumes");

        // The killable region: exactly the generated ops.
        if torn {
            self.injector.arm_torn(budget, seed);
        } else {
            self.injector.arm(budget);
        }
        let mut crashed: Option<usize> = None;
        for (i, op) in ops.iter().enumerate() {
            let got = apply(subject.engine(), op);
            if self.injector.fired() {
                crashed = Some(i);
                break;
            }
            if got.succeeded() != reference.verdicts[i] {
                self.injector.disarm();
                drop(subject);
                self.cleanup(&dirs);
                let want = reference.verdicts[i];
                return Err(fail(
                    format!(
                        "pre-crash mismatch on op {i} ({op}): real {got:?}, reference ok={want}"
                    ),
                    None,
                ));
            }
        }
        let points = self.injector.points();
        self.injector.disarm();
        drop(subject); // return pooled connections before the restart view
        if let (Some(k), None) = (budget, crashed) {
            self.cleanup(&dirs);
            return Err(fail(
                format!("the kill at durability point {k} did not land inside the sequence"),
                None,
            ));
        }

        // Restart: a fresh filesystem and fresh connections over
        // whatever survived on disk.
        let restarted = self.open_cell(cell, &dirs, Persist::none());
        let at = crashed.unwrap_or(ops.len());
        let after = (at + 1).min(ops.len());
        let verdict = verify_post_state(
            restarted.engine(),
            cell,
            &reference.states[at],
            &reference.states[after],
            reference.orphans[at]..=reference.orphans[after],
            crashed.map(|i| &ops[i]),
            torn,
        );
        drop(restarted);
        self.cleanup(&dirs);
        verdict.map_err(|detail| fail(detail, crashed))?;
        Ok(points)
    }

    /// A fresh namespace for the next run on `cell`, a DSFS tree base
    /// already made (white-box, like [`CrashHarness::cleanup`]).
    fn fresh_dirs(&mut self, cell: Cell) -> RunDirs {
        let run = self.run;
        self.run += 1;
        let base = (cell == Cell::Dsfs).then(|| format!("/tree{run}"));
        if let Some(base) = &base {
            std::fs::create_dir(self.host_path(TREE_SERVER, base)).expect("tree base");
        }
        RunDirs {
            tree: sim_root(),
            volume: format!("/crash{run}"),
            base,
        }
    }

    /// `cell`'s filesystem over `dirs`, its tree and engine reporting
    /// to `persist` (the servers always report to the injector).
    fn open_cell(&self, cell: Cell, dirs: &RunDirs, persist: Persist) -> CellFs {
        let mut opts = self.sim.stubfs_options();
        opts.persist = persist.clone();
        opts.breaker_threshold = 0; // crash errors must stay raw
        let pool = |n: usize| -> Vec<_> {
            (0..n)
                .map(|i| self.sim.data_server(i, &dirs.volume))
                .collect()
        };
        let tree = || -> Arc<dyn FileSystem> {
            Arc::new(
                LocalFs::with_persistence(dirs.tree.path(), persist.clone()).expect("tree root"),
            )
        };
        match cell {
            Cell::Single => {
                CellFs::Single(StubFs::new(tree(), pool(1), Placement::round_robin(), opts))
            }
            Cell::Striped => CellFs::Striped(
                StripedFs::new(tree(), pool(WIDTH), WIDTH, STRIPE, opts).expect("striped fs"),
            ),
            Cell::Mirrored => CellFs::Mirrored(
                MirroredFs::new(tree(), pool(WIDTH), WIDTH, opts).expect("mirrored fs"),
            ),
            Cell::Dsfs => CellFs::Dsfs(
                Dsfs::with_options(
                    &self.sim.endpoint(TREE_SERVER),
                    dirs.base.as_deref().expect("a DSFS run has a tree base"),
                    auth(),
                    pool(1),
                    Placement::round_robin(),
                    opts,
                )
                .expect("dsfs"),
            ),
        }
    }

    /// Where server `i` keeps `path` on the host.
    fn host_path(&self, i: usize, path: &str) -> std::path::PathBuf {
        self.sim.root(i).join(path.trim_start_matches('/'))
    }

    /// White-box removal of a run's volumes and tree base from the
    /// servers' roots, so tens of thousands of runs don't accumulate
    /// on RAM-backed disk.
    fn cleanup(&self, dirs: &RunDirs) {
        for i in 0..WIDTH {
            let _ = std::fs::remove_dir_all(self.host_path(i, &dirs.volume));
        }
        if let Some(base) = &dirs.base {
            let _ = std::fs::remove_dir_all(self.host_path(TREE_SERVER, base));
        }
    }
}

/// Delta-debug the failing trace of `first` down to a minimal one that
/// still fails under `sweep` with [`ddmin`], then sweep it again for
/// the divergence to report (whose `trace` is the minimized one). If
/// that sweep passes — kill placement over parallel parts is
/// scheduler-dependent — report `first` marked as not replayed.
fn shrink(
    first: CrashDivergence,
    sweep: &mut dyn FnMut(&[FsOp]) -> Result<CrashStats, CrashDivergence>,
) -> CrashDivergence {
    let trace = ddmin(first.trace.clone(), &mut |c| sweep(c).is_err());
    match sweep(&trace) {
        Err(div) => div,
        Ok(_) => CrashDivergence {
            replayed: false,
            ..first
        },
    }
}

/// Whether `got` is a state a crash inside `op` may leave on its own
/// target `path`, beyond the target's pre and post states.
fn crash_remnant(
    cell: Cell,
    op: &FsOp,
    path: &str,
    got: &PathState,
    pre: &PathState,
    post: &PathState,
    torn: bool,
) -> bool {
    // A torn stub reads as an error (InvalidData), never as garbage
    // bytes.
    if torn && *got == PathState::Error(io::ErrorKind::InvalidData) {
        return true;
    }
    let PathState::File(got) = got else {
        return false;
    };
    // A striped file's parts are written, truncated and removed one
    // at a time; a rename moves one stub, all or nothing.
    let per_part = |p: &String| {
        cell == Cell::Striped && p == path && stripe_mix(got, pre.bytes(), post.bytes(), torn)
    };
    match op {
        // The in-flight create (data file made, nothing written yet),
        // or a torn data-server PWRITE: a strict prefix of the
        // write's bytes behind a whole stub.
        FsOp::Write(p, data) if p == path => {
            got.is_empty()
                || (torn && got.len() < data.len() && data.starts_with(got))
                || per_part(p)
        }
        FsOp::Truncate(p, _) | FsOp::Unlink(p) => per_part(p),
        _ => false,
    }
}

/// Whether striped bytes `got` are a per-part mix of `pre` and `post`:
/// non-empty, each stripe equals that stripe of one of them, and in
/// torn mode the last stripe may be a strict prefix of its post stripe.
fn stripe_mix(got: &[u8], pre: &[u8], post: &[u8], torn: bool) -> bool {
    fn nth(b: &[u8], i: usize) -> &[u8] {
        let s = STRIPE as usize;
        &b[(i * s).min(b.len())..((i + 1) * s).min(b.len())]
    }
    let n = got.len().div_ceil(STRIPE as usize);
    n > 0
        && (0..n).all(|i| {
            let (g, post_i) = (nth(got, i), nth(post, i));
            g == nth(pre, i)
                || g == post_i
                || (torn && i + 1 == n && g.len() < post_i.len() && post_i.starts_with(g))
        })
}

/// Check a restarted filesystem against the reference. `pre` and
/// `post` are the pool around the op the crash landed in, `crashed_op`
/// (`None` for the golden run, where both are the final state and the
/// filesystem must match it exactly); `orphans` is what rename clobbers
/// explain. `torn` marks a torn-write run, the only mode in which a
/// corrupt stub is an acceptable crash remnant.
fn verify_post_state(
    fs: &StubFs,
    cell: Cell,
    pre: &Snapshot,
    post: &Snapshot,
    orphans: RangeInclusive<u64>,
    crashed_op: Option<&FsOp>,
    torn: bool,
) -> Result<(), String> {
    let report = fsck(fs).map_err(|e| format!("fsck failed: {e}"))?;
    if !report.unreachable.is_empty() {
        return Err(format!(
            "unreachable paths after crash: {:?}",
            report.unreachable
        ));
    }
    let targets = crashed_op.map(FsOp::targets).unwrap_or_default();

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
    // Every healthy file must be one the reference has (no phantoms).
    let is_file = |s: &Snapshot, p: &str| matches!(s.get(p), Some(PathState::File(_)));
    for h in &report.healthy {
        if !is_file(pre, h) && !is_file(post, h) {
            return Err(format!("phantom file {h} not in the reference"));
        }
    }
    // Orphans: only rename clobbers make them; a crash mid-op may or
    // may not have reached the clobber.
    let n = report.orphaned_data.len() as u64;
    if !orphans.contains(&n) {
        return Err(format!(
            "{n} orphaned data files; the ordering theorem allows {orphans:?}"
        ));
    }

    // Per-path acceptance: untouched paths exactly match the pre-crash
    // state (failure coherence); the crashed op's targets may be in
    // the pre state, the post state, or a remnant the op may leave.
    for (p, got) in snapshot(fs, pool()) {
        let (s_pre, s_post) = (&pre[&p], &post[&p]);
        let remnant = || {
            crashed_op.is_some_and(|op| {
                targets.contains(&p) && crash_remnant(cell, op, &p, &got, s_pre, s_post, torn)
            })
        };
        if got != *s_pre && got != *s_post && !remnant() {
            return Err(format!(
                "{p}: found {got}, accepted states are pre={s_pre} / post={s_post}"
            ));
        }
    }

    // Repair must reach a clean scan within the cell's rounds, each
    // round removing exactly what its scan reported, and then be a
    // no-op.
    let all = RepairOptions {
        remove_dangling_stubs: true,
        remove_orphans: true,
    };
    let mut report = report;
    for round in 1..=cell.repair_rounds() {
        let removed = repair(fs, &report, all).map_err(|e| format!("repair failed: {e}"))?;
        let expected = (report.dangling_stubs.len()
            + report.corrupt_stubs.len()
            + report.orphaned_data.len()) as u64;
        if removed != expected {
            return Err(format!(
                "repair round {round} removed {removed} items, scan reported {expected}"
            ));
        }
        report = fsck(fs).map_err(|e| format!("post-repair fsck failed: {e}"))?;
        if report.is_clean() && report.unreachable.is_empty() {
            break;
        }
    }
    if !report.is_clean() || !report.unreachable.is_empty() {
        return Err(format!(
            "repair did not converge in {} round(s): {report:?}",
            cell.repair_rounds()
        ));
    }
    let again = repair(fs, &report, all).map_err(|e| format!("final repair failed: {e}"))?;
    if again != 0 {
        return Err(format!(
            "repair on a clean scan removed {again} items; must be a no-op"
        ));
    }
    // Repair must not have touched any file the crash did not.
    for (p, s) in pre {
        if targets.contains(p) || !matches!(s, PathState::File(_)) {
            continue;
        }
        let got = path_state(fs, p);
        if got != *s {
            return Err(format!("repair disturbed healthy file {p}: now {got}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::{DurabilityPoint, OpenFlags};

    fn write(path: &str, data: &[u8]) -> FsOp {
        FsOp::Write(path.into(), data.to_vec())
    }

    /// A single-layout filesystem over a fresh namespace on the
    /// harness's servers, instrumented (or not) with its injector.
    fn fixture(h: &mut CrashHarness, instrumented: bool) -> (RunDirs, StubFs) {
        let dirs = h.fresh_dirs(Cell::Single);
        let persist = if instrumented {
            h.persist.clone()
        } else {
            Persist::none()
        };
        let CellFs::Single(fs) = h.open_cell(Cell::Single, &dirs, persist) else {
            unreachable!("the single cell is a plain StubFs")
        };
        fs.ensure_volumes().unwrap();
        (dirs, fs)
    }

    #[test]
    fn golden_journal_orders_stub_before_data_on_create() {
        let mut h = CrashHarness::new();
        let (dirs, fs) = fixture(&mut h, true);
        h.injector.arm(None);
        assert!(apply(&fs, &write("/f", b"payload")).succeeded());
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
        h.cleanup(&dirs);
    }

    #[test]
    fn golden_journal_orders_data_before_stub_on_delete() {
        let mut h = CrashHarness::new();
        let (dirs, fs) = fixture(&mut h, true);
        assert!(apply(&fs, &write("/f", b"payload")).succeeded());
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
        h.cleanup(&dirs);
    }

    #[test]
    fn create_killed_between_stub_and_data_reads_not_found_and_repairs() {
        let mut h = CrashHarness::new();
        let (dirs, fs) = fixture(&mut h, true);
        let fs = &fs;
        let op = write("/f", b"payload");
        // Golden pass to learn where the data-create point sits.
        h.injector.arm(None);
        assert!(apply(fs, &op).succeeded());
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
        let err = fs
            .write_file("/f", b"payload")
            .expect_err("create must die");
        assert!(h.injector.fired(), "injector fired");
        assert!(chirp_proto::persist::is_crash(&err) || err.kind() == io::ErrorKind::Other);
        h.injector.disarm();
        // White-box: the stub file itself survived with content.
        let host_stub = dirs.tree.path().join("f");
        assert!(host_stub.exists(), "stub survived the crash");
        assert!(std::fs::metadata(&host_stub).unwrap().len() > 0);
        // The mandated read-side behavior: file not found, not garbage.
        let e = fs.read_file("/f").expect_err("dangling stub must not read");
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        // fsck sees exactly one dangling stub; repair converges.
        let report = fsck(fs).unwrap();
        assert_eq!(report.dangling_stubs, vec!["/f".to_string()]);
        let all = RepairOptions {
            remove_dangling_stubs: true,
            remove_orphans: true,
        };
        assert_eq!(repair(fs, &report, all).unwrap(), 1);
        let clean = fsck(fs).unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(repair(fs, &clean, all).unwrap(), 0);
        h.cleanup(&dirs);
    }

    #[test]
    fn torn_stub_write_is_classified_corrupt_and_repaired() {
        let mut h = CrashHarness::new();
        let (dirs, fs) = fixture(&mut h, true);
        let fs = &fs;
        // Golden pass to learn where the stub's pwrite point sits in a
        // create's durability sequence (same shape for every root
        // path).
        h.injector.arm(None);
        assert!(apply(fs, &write("/probe", b"payload")).succeeded());
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
            let err = fs
                .write_file(path, b"payload")
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
        let report = fsck(fs).unwrap();
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
        assert_eq!(repair(fs, &report, all).unwrap(), paths.len() as u64);
        let clean = fsck(fs).unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(repair(fs, &clean, all).unwrap(), 0);
        h.cleanup(&dirs);
    }

    /// Verify `fs` against the reference's final state after `ops`.
    fn verify_final(fs: &StubFs, ops: &[FsOp]) -> Result<(), String> {
        let r = Reference::run(ops, 1);
        let (end, orphans) = (r.states.last().unwrap(), *r.orphans.last().unwrap());
        verify_post_state(fs, Cell::Single, end, end, orphans..=orphans, None, false)
    }

    #[test]
    fn checker_rejects_planted_orphan() {
        let mut h = CrashHarness::new();
        let (dirs, fs) = fixture(&mut h, false);
        let ops = [write("/a", b"abc")];
        assert!(apply(&fs, &ops[0]).succeeded());
        verify_final(&fs, &ops).expect("clean state accepted");
        // Plant a data file no stub references, behind the fs's back.
        let mut conn = h.sim.connect(0);
        let (fd, _) = conn
            .open(
                &format!("{}/planted.data", dirs.volume),
                OpenFlags::WRITE | OpenFlags::CREATE,
                0o644,
            )
            .unwrap();
        conn.close(fd).unwrap();
        let err = verify_final(&fs, &ops).expect_err("orphan must be rejected");
        assert!(err.contains("orphaned"), "unexpected detail: {err}");
        h.cleanup(&dirs);
    }

    #[test]
    fn checker_rejects_phantom_file() {
        let mut h = CrashHarness::new();
        let (dirs, fs) = fixture(&mut h, false);
        // A file exists that the reference never created.
        assert!(apply(&fs, &write("/ghost", b"boo")).succeeded());
        let err = verify_final(&fs, &[]).expect_err("phantom must be rejected");
        assert!(err.contains("phantom"), "unexpected detail: {err}");
        h.cleanup(&dirs);
    }

    #[test]
    fn reference_counts_one_orphan_per_part_of_a_clobbered_file() {
        let rename = |from: &str, to: &str| FsOp::Rename(from.into(), to.into());
        let ops = [
            write("/a", &[1]),
            write("/b", &[2]),
            rename("/a", "/b"),
            // Self-rename is a no-op, not a clobber.
            rename("/b", "/b"),
            // A missing parent fails without touching state.
            write("/d0/x", &[3]),
            FsOp::Mkdir("/d0".into()),
            write("/d0/x", &[3]),
            rename("/b", "/c"),
        ];
        let r = Reference::run(&ops, 2);
        assert_eq!(
            r.verdicts,
            [true, true, true, true, false, true, true, true]
        );
        assert_eq!(r.orphans, [0, 0, 0, 2, 2, 2, 2, 2, 2]);
        let end = r.states.last().unwrap();
        assert_eq!(end["/c"], PathState::File(vec![1]));
        assert_eq!(end["/d0"], PathState::Dir(vec!["x".into()]));
    }

    #[test]
    fn stripe_mix_admits_per_part_states_only() {
        // Seed 53's shape: 17 bytes truncated to 22, killed between
        // the two parts' truncates, reads 20 bytes.
        let pre = vec![7u8; 17];
        let mut post = pre.clone();
        post.resize(22, 0);
        assert!(stripe_mix(&post[..20], &pre, &post, false));
        assert!(stripe_mix(&post[..4], &[], &post, false));
        // A short last stripe that is neither state's is torn-only.
        assert!(!stripe_mix(&post[..2], &[], &post, false));
        assert!(stripe_mix(&post[..2], &[], &post, true));
        // A stripe from neither state is never accepted.
        assert!(!stripe_mix(&[9, 9, 9, 9], &pre, &post, true));
        // Nor is an empty file, which mixes no stripe at all.
        assert!(!stripe_mix(&[], &pre, &post, true));

        // Only ops that change parts one at a time leave a mix.
        let (a, b) = (vec![1u8; 8], vec![2u8; 8]);
        let (old, new) = (PathState::File(b.clone()), PathState::File(a.clone()));
        let mixed = PathState::File([&b[..4], &a[4..]].concat());
        let empty = PathState::File(Vec::new());
        let ok = |cell, op: &FsOp, got| crash_remnant(cell, op, "/b", got, &old, &new, true);
        // A rename moves one stub: its target is never a mix of the
        // renamed and the clobbered file.
        let clobber = FsOp::Rename("/a".into(), "/b".into());
        assert!(!ok(Cell::Striped, &clobber, &mixed));
        // A write changes a striped file's parts one at a time.
        assert!(ok(Cell::Striped, &write("/b", &a), &mixed));
        assert!(!ok(Cell::Single, &write("/b", &a), &mixed));
        // Only a crashed write's own target may read empty.
        assert!(ok(Cell::Striped, &write("/b", &a), &empty));
        assert!(!ok(Cell::Striped, &FsOp::Unlink("/b".into()), &empty));
    }

    #[test]
    fn shrink_reports_the_first_divergence_when_the_trace_does_not_replay() {
        let ops = vec![write("/a", b"x"), FsOp::Unlink("/a".into())];
        let first = CrashDivergence {
            cell: Cell::Striped,
            seed: 7,
            torn: false,
            budget: Some(3),
            crashed_op: Some(1),
            detail: "first".into(),
            trace: ops.clone(),
            replayed: true,
        };
        // The sweep that produced `first` failed; every later one
        // passes, as a scheduler-dependent kill placement can.
        let mut sweep = |_: &[FsOp]| Ok(CrashStats::default());
        let div = shrink(first, &mut sweep);
        assert!(!div.replayed);
        assert_eq!(div.trace, ops, "the unshrunk trace is reported");
        assert_eq!(div.detail, "first");
        let text = div.to_string();
        assert!(text.contains("striped cell"), "{text}");
        assert!(text.contains("did not replay"), "{text}");
    }

    /// The one-stripe create+write+delete, swept on `cell` at every
    /// point, clean and torn; returns the points per sequence. For these
    /// ops the acceptance is the strict four-state read of `/a` (absent,
    /// empty, the payload, or torn only a prefix or an InvalidData
    /// stub), no orphaned part and a converging repair.
    fn one_stripe_create_delete(cell: Cell) -> u64 {
        let ops = [write("/a", b"abcd"), FsOp::Unlink("/a".into())];
        let mut h = CrashHarness::new();
        let points: Vec<u64> = [false, true]
            .into_iter()
            .map(|torn| {
                h.sweep(cell, 0, &ops, torn)
                    .unwrap_or_else(|d| panic!("{d}"))
                    .crash_points
            })
            .collect();
        assert_eq!(points[0], points[1], "clean and torn sweep the same points");
        points[0]
    }

    /// Since the engines merged, striping and mirroring also cross the
    /// engine's own `StubWrite`/`DataCreate`/`DataUnlink`/`StubUnlink`
    /// points and the stub fsyncs: 17 and 18 points, up from 8 and 9
    /// when each carried a private copy of the protocol.
    #[test]
    fn striped_one_stripe_create_delete_survives_every_kill() {
        assert_eq!(one_stripe_create_delete(Cell::Striped), 17);
    }

    #[test]
    fn mirrored_one_stripe_create_delete_survives_every_kill() {
        assert_eq!(one_stripe_create_delete(Cell::Mirrored), 18);
    }
}
