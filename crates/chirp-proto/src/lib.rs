//! The Chirp wire protocol.
//!
//! Chirp is a Unix-like remote I/O protocol carried over a single TCP
//! connection: the client authenticates, then issues remote procedure
//! calls that correspond closely to Unix (`open`, `pread`, `pwrite`,
//! `stat`, `rename`, ...). All file data travels on the same connection
//! as control traffic so the TCP window stays open, in contrast to
//! FTP-style split control/data designs.
//!
//! Each request is one escaped text line, optionally followed by a raw
//! binary payload whose length is named on the line. Each response is a
//! status line (a non-negative result value or a negative error code),
//! optionally followed by result words or a raw payload.
//!
//! This crate holds the protocol — message types, encoding and
//! decoding, error codes, framing helpers, and the checksum used by the
//! `CHECKSUM` RPC — and the file interface both ends speak: the
//! [`fs::FileSystem`] trait every abstraction implements and
//! [`localfs::LocalFs`], the host filesystem behind it, which the
//! server exports and `tss-core` re-exports. The server lives in
//! `chirp-server`, the client in `chirp-client`.

#![warn(missing_docs)]

pub mod checksum;
pub mod clock;
pub mod crypto;
pub mod error;
pub mod escape;
pub mod flags;
pub mod fs;
pub mod localfs;
pub mod message;
pub mod persist;
pub mod pipeline;
pub mod ready;
pub mod retry;
pub mod stat;
#[doc(hidden)]
pub mod testutil;
pub mod transport;
pub mod wire;

pub use checksum::crc64;
pub use clock::{Clock, Tick, VirtualClock};
pub use error::{ChirpError, ChirpResult, ErrorClass};
pub use flags::OpenFlags;
pub use message::Request;
pub use persist::{CrashPoint, DurabilityPoint, Persist, Persistence, WriteFate};
pub use pipeline::{PipelinedConn, Reply, ReplyShape};
pub use ready::{ReadyWatcher, Token, Watcher};
pub use retry::{RetryPolicy, RetryState};
pub use stat::{StatBuf, StatFs};
pub use transport::{Dial, Dialer, Listener, MemListener, MemNet, MemStream, Transport};

/// Maximum length of a single request or response line, in bytes.
///
/// Lines beyond this are a protocol violation; both sides drop the
/// connection rather than buffer unboundedly.
pub const MAX_LINE: usize = 64 * 1024;

/// Maximum size of a single binary payload (one `pwrite`/`pread` body or
/// one `putfile`/`getfile` stream chunk).
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Protocol version announced in catalog reports.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default TCP port for Chirp file servers (the historical default).
pub const DEFAULT_PORT: u16 = 9094;
