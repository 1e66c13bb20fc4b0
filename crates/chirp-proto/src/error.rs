//! Protocol error codes.
//!
//! Chirp responses carry a single signed status value. Non-negative
//! values are results (a file descriptor, a byte count, zero for plain
//! success); negative values are one of the error codes below. The
//! mapping to and from `std::io::ErrorKind` lets the abstractions in
//! `tss-core` surface remote failures through ordinary `io::Error`s.

use std::fmt;
use std::io;

/// Result alias used throughout the protocol crates.
pub type ChirpResult<T> = Result<T, ChirpError>;

/// What a recovery layer may do about an error: try again on a fresh
/// connection, or surface it immediately. Every [`ChirpError`] maps to
/// exactly one class via [`ChirpError::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// A transport-level failure (lost connection, timeout, transient
    /// server busy): the same request may succeed if retried.
    Retriable,
    /// A definitive answer (ACL denial, missing file, bad request,
    /// server-side I/O fault): retrying cannot change the outcome.
    Fatal,
}

/// An error reported by a Chirp server or detected by the client.
///
/// The discriminant values are the on-wire codes; they must never be
/// renumbered once deployed, only extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i64)]
pub enum ChirpError {
    /// The client has not completed authentication.
    NotAuthenticated = -1,
    /// The authenticated subject lacks the required ACL right.
    NotAuthorized = -2,
    /// The named file or directory does not exist.
    NotFound = -3,
    /// The target already exists (exclusive create, mkdir).
    AlreadyExists = -4,
    /// The operation requires a file but the target is a directory.
    IsADirectory = -5,
    /// The operation requires a directory but the target is a file.
    NotADirectory = -6,
    /// rmdir on a non-empty directory.
    NotEmpty = -7,
    /// The file descriptor is not open on this connection.
    BadFd = -8,
    /// The connection's descriptor table is full.
    TooManyOpen = -9,
    /// The request could not be parsed or had invalid arguments.
    InvalidRequest = -10,
    /// The server's storage is full.
    NoSpace = -11,
    /// A payload exceeded [`crate::MAX_PAYLOAD`].
    TooBig = -12,
    /// The server is shutting down or refused the operation.
    Busy = -13,
    /// A server-side I/O error not covered by a more specific code.
    Io = -14,
    /// The TCP connection failed or was closed mid-operation.
    ///
    /// Never sent on the wire; synthesized client-side.
    Disconnected = -15,
    /// A client-side timeout expired. Never sent on the wire.
    Timeout = -16,
    /// Authentication was attempted but every offered method failed.
    AuthFailed = -17,
    /// The operation is recognized but not supported by this server.
    NotSupported = -18,
    /// The file handle refers to a file that was replaced or removed
    /// while the adapter was reconnecting ("stale file handle").
    ///
    /// Never sent on the wire; synthesized by the adapter.
    Stale = -19,
}

impl ChirpError {
    /// Every variant, for exhaustive table tests (the classification
    /// and code round-trip properties quantify over this).
    pub const ALL: &'static [ChirpError] = &[
        ChirpError::NotAuthenticated,
        ChirpError::NotAuthorized,
        ChirpError::NotFound,
        ChirpError::AlreadyExists,
        ChirpError::IsADirectory,
        ChirpError::NotADirectory,
        ChirpError::NotEmpty,
        ChirpError::BadFd,
        ChirpError::TooManyOpen,
        ChirpError::InvalidRequest,
        ChirpError::NoSpace,
        ChirpError::TooBig,
        ChirpError::Busy,
        ChirpError::Io,
        ChirpError::Disconnected,
        ChirpError::Timeout,
        ChirpError::AuthFailed,
        ChirpError::NotSupported,
        ChirpError::Stale,
    ];

    /// The on-wire status code for this error.
    pub fn code(self) -> i64 {
        self as i64
    }

    /// Decode an on-wire status code. Unknown negative codes map to
    /// [`ChirpError::Io`] so that old clients survive new servers.
    pub fn from_code(code: i64) -> ChirpError {
        match code {
            -1 => ChirpError::NotAuthenticated,
            -2 => ChirpError::NotAuthorized,
            -3 => ChirpError::NotFound,
            -4 => ChirpError::AlreadyExists,
            -5 => ChirpError::IsADirectory,
            -6 => ChirpError::NotADirectory,
            -7 => ChirpError::NotEmpty,
            -8 => ChirpError::BadFd,
            -9 => ChirpError::TooManyOpen,
            -10 => ChirpError::InvalidRequest,
            -11 => ChirpError::NoSpace,
            -12 => ChirpError::TooBig,
            -13 => ChirpError::Busy,
            -15 => ChirpError::Disconnected,
            -16 => ChirpError::Timeout,
            -17 => ChirpError::AuthFailed,
            -18 => ChirpError::NotSupported,
            -19 => ChirpError::Stale,
            _ => ChirpError::Io,
        }
    }

    /// The total classification every error falls into: either the
    /// transport (or a transiently overloaded server) failed and the
    /// same request may succeed on a fresh connection, or the server
    /// gave a definitive protocol answer that retrying cannot change.
    ///
    /// ACL denials (`NotAuthenticated`/`NotAuthorized`/`AuthFailed`)
    /// are deliberately fatal: retrying an authorization failure only
    /// hammers the server and delays the real error. Exactly one arm
    /// matches each variant — the property test in `retry.rs` holds
    /// this table total.
    pub fn classify(self) -> ErrorClass {
        match self {
            // The connection died, a client-side timer fired, or the
            // server refused transiently — a reconnect may fix it.
            ChirpError::Disconnected | ChirpError::Timeout | ChirpError::Busy => {
                ErrorClass::Retriable
            }
            // Definitive protocol answers and client-side verdicts.
            ChirpError::NotAuthenticated
            | ChirpError::NotAuthorized
            | ChirpError::NotFound
            | ChirpError::AlreadyExists
            | ChirpError::IsADirectory
            | ChirpError::NotADirectory
            | ChirpError::NotEmpty
            | ChirpError::BadFd
            | ChirpError::TooManyOpen
            | ChirpError::InvalidRequest
            | ChirpError::NoSpace
            | ChirpError::TooBig
            | ChirpError::Io
            | ChirpError::AuthFailed
            | ChirpError::NotSupported
            | ChirpError::Stale => ErrorClass::Fatal,
        }
    }

    /// Whether the adapter should attempt reconnection and retry after
    /// this error (see §6 of the paper: recovery is an adapter policy,
    /// not a server one). Shorthand for
    /// `classify() == ErrorClass::Retriable`.
    pub fn is_retryable(self) -> bool {
        self.classify() == ErrorClass::Retriable
    }

    /// Map a local I/O failure into the closest protocol error, used by
    /// the server when a filesystem operation on its export fails.
    pub fn from_io(err: &io::Error) -> ChirpError {
        match err.kind() {
            io::ErrorKind::NotFound => ChirpError::NotFound,
            io::ErrorKind::PermissionDenied => ChirpError::NotAuthorized,
            io::ErrorKind::AlreadyExists => ChirpError::AlreadyExists,
            io::ErrorKind::TimedOut => ChirpError::Timeout,
            io::ErrorKind::WouldBlock => ChirpError::Timeout,
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof => ChirpError::Disconnected,
            io::ErrorKind::IsADirectory => ChirpError::IsADirectory,
            io::ErrorKind::NotADirectory => ChirpError::NotADirectory,
            io::ErrorKind::DirectoryNotEmpty => ChirpError::NotEmpty,
            io::ErrorKind::StorageFull => ChirpError::NoSpace,
            io::ErrorKind::InvalidInput => ChirpError::InvalidRequest,
            io::ErrorKind::Unsupported => ChirpError::NotSupported,
            _ => ChirpError::Io,
        }
    }

    /// The `io::ErrorKind` this error surfaces as through the
    /// `FileSystem` trait.
    pub fn io_kind(self) -> io::ErrorKind {
        match self {
            ChirpError::NotAuthenticated | ChirpError::NotAuthorized | ChirpError::AuthFailed => {
                io::ErrorKind::PermissionDenied
            }
            ChirpError::NotFound | ChirpError::Stale => io::ErrorKind::NotFound,
            ChirpError::AlreadyExists => io::ErrorKind::AlreadyExists,
            ChirpError::IsADirectory => io::ErrorKind::IsADirectory,
            ChirpError::NotADirectory => io::ErrorKind::NotADirectory,
            ChirpError::NotEmpty => io::ErrorKind::DirectoryNotEmpty,
            ChirpError::BadFd | ChirpError::InvalidRequest | ChirpError::TooBig => {
                io::ErrorKind::InvalidInput
            }
            ChirpError::TooManyOpen | ChirpError::Busy => io::ErrorKind::ResourceBusy,
            ChirpError::NoSpace => io::ErrorKind::StorageFull,
            ChirpError::Disconnected => io::ErrorKind::ConnectionAborted,
            ChirpError::Timeout => io::ErrorKind::TimedOut,
            ChirpError::NotSupported => io::ErrorKind::Unsupported,
            ChirpError::Io => io::ErrorKind::Other,
        }
    }
}

impl fmt::Display for ChirpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ChirpError::NotAuthenticated => "not authenticated",
            ChirpError::NotAuthorized => "not authorized",
            ChirpError::NotFound => "file not found",
            ChirpError::AlreadyExists => "already exists",
            ChirpError::IsADirectory => "is a directory",
            ChirpError::NotADirectory => "not a directory",
            ChirpError::NotEmpty => "directory not empty",
            ChirpError::BadFd => "bad file descriptor",
            ChirpError::TooManyOpen => "too many open files",
            ChirpError::InvalidRequest => "invalid request",
            ChirpError::NoSpace => "no space on device",
            ChirpError::TooBig => "payload too large",
            ChirpError::Busy => "server busy",
            ChirpError::Io => "i/o error",
            ChirpError::Disconnected => "connection lost",
            ChirpError::Timeout => "operation timed out",
            ChirpError::AuthFailed => "authentication failed",
            ChirpError::NotSupported => "operation not supported",
            ChirpError::Stale => "stale file handle",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ChirpError {}

impl From<ChirpError> for io::Error {
    fn from(err: ChirpError) -> io::Error {
        io::Error::new(err.io_kind(), err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[ChirpError] = ChirpError::ALL;

    #[test]
    fn codes_round_trip() {
        for &e in ALL {
            assert_eq!(ChirpError::from_code(e.code()), e, "{e:?}");
        }
    }

    #[test]
    fn codes_are_negative_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &e in ALL {
            assert!(e.code() < 0, "{e:?} must be negative");
            assert!(seen.insert(e.code()), "{e:?} code collides");
        }
    }

    #[test]
    fn unknown_code_maps_to_io() {
        assert_eq!(ChirpError::from_code(-9999), ChirpError::Io);
        assert_eq!(ChirpError::from_code(-14), ChirpError::Io);
    }

    #[test]
    fn io_round_trip_preserves_common_kinds() {
        for kind in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::AlreadyExists,
        ] {
            let chirp = ChirpError::from_io(&io::Error::from(kind));
            assert_eq!(chirp.io_kind(), kind);
        }
    }

    #[test]
    fn retryable_classification() {
        assert!(ChirpError::Disconnected.is_retryable());
        assert!(ChirpError::Timeout.is_retryable());
        assert!(!ChirpError::NotFound.is_retryable());
        assert!(!ChirpError::NotAuthorized.is_retryable());
    }

    #[test]
    fn classification_is_total_and_consistent() {
        for &e in ALL {
            // Exactly one class per error, and `is_retryable` is
            // literally the Retriable arm of it.
            let class = e.classify();
            assert!(matches!(class, ErrorClass::Retriable | ErrorClass::Fatal));
            assert_eq!(e.is_retryable(), class == ErrorClass::Retriable, "{e:?}");
        }
    }

    #[test]
    fn acl_and_protocol_errors_are_fatal() {
        for e in [
            ChirpError::NotAuthenticated,
            ChirpError::NotAuthorized,
            ChirpError::AuthFailed,
            ChirpError::NotFound,
            ChirpError::InvalidRequest,
            ChirpError::Stale,
        ] {
            assert_eq!(e.classify(), ErrorClass::Fatal, "{e:?}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        for &e in ALL {
            assert!(!e.to_string().is_empty());
        }
    }
}
