//! Deterministic simulation testing for the tactical storage system.
//!
//! The paper's thesis is that storage *abstractions* should be
//! separable from storage *resources*. This crate applies the same
//! separation to testing: the entire system — file servers, client
//! connections, striped and mirrored abstractions, retry and breaker
//! recovery, fault injection — runs in one process on an in-memory
//! transport ([`chirp_proto::MemNet`]) with a virtual clock, so a
//! whole multi-server deployment becomes a deterministic function of
//! a seed.
//!
//! The pieces:
//!
//! * [`harness`] — [`SimTss`], a builder that stands
//!   up N real `FileServer`s in-process and wires clients, pools and
//!   abstractions to the shared memory network and virtual clock.
//! * [`model`] — [`ModelServer`], an executable
//!   specification of one Chirp server: an in-memory tree with ACL
//!   inheritance and POSIX-style fd semantics, small enough to audit
//!   by eye.
//! * [`gen`] + [`diff`] — a seeded generator of operation sequences
//!   and a differential checker that replays each sequence against
//!   the real handler stack and the model, diffing results
//!   byte-for-byte including error codes, and shrinks any divergence
//!   to a minimal trace.
//! * [`fsop`] — the file-level op vocabulary ([`FsOp`]),
//!   its one `apply` through the `FileSystem` interface, and the one
//!   path-pool `snapshot`; a plain `LocalFs` tree run through them is
//!   the reference for every file-level check.
//! * [`crash`] — crash-injection differential testing: every seeded
//!   sequence is re-run on each stub layout with a simulated kill at
//!   *each* durability point the golden run journals, and the
//!   restarted filesystem is checked (`fsck`, repair convergence,
//!   byte-level state) against the set of post-crash states the
//!   paper's stub/data ordering argument accepts.
//! * [`scenario`] — declarative mass-tenant scenarios: fleets of
//!   weighted client roles over phased load schedules, with named
//!   telemetry *envelopes* (latency quantiles, throughput, failure
//!   and RSS bounds) asserted over the run's metric deltas.
//!
//! Reproducing a failure is one number: the checker prints the seed,
//! and `SIM_SEED=<n> cargo test -p simharness` replays it exactly
//! (`CRASH_SEED=<n>` for the crash suite, `SCENARIO_SEED=<n>` for the
//! scenario suite).

#![warn(missing_docs)]

pub mod crash;
pub mod diff;
pub mod fsop;
pub mod gen;
pub mod harness;
pub mod model;
pub mod scenario;

pub use crash::{CrashDivergence, CrashHarness, CrashStats};
pub use diff::{ddmin, Divergence, OpResult};
pub use fsop::FsOp;
pub use gen::{Op, OpGen};
pub use harness::SimTss;
pub use model::ModelServer;
pub use scenario::{
    fleet_size, scenario_seed, standard_setup, ClientSpec, Phase, Role, Scenario, ScenarioFailure,
    ScenarioReport,
};
