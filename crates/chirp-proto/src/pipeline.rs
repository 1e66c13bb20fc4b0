//! The client half of one Chirp stream: every request leaves, and
//! every status line arrives, through [`PipelinedConn`].
//!
//! Chirp replies carry no tags: the stream is strictly FIFO, so the
//! n-th reply always answers the n-th request. That means a client may
//! overlap round trips — write several requests, flush once, read the
//! replies in order — without any change to the server's one-RPC-at-a-
//! time semantics per message. [`PipelinedConn`] is that discipline as
//! a type: it owns the two stream halves and a bounded window of
//! in-flight requests, each queued with the [`ReplyShape`] its answer
//! is framed with, settled strictly in order. A window of one is the
//! classic request/reply loop; because the queue lives with the
//! stream, a request sent into a full window is refused
//! (`InvalidRequest`) instead of being answered by somebody else's
//! status line.
//!
//! # Failure semantics
//!
//! Error classification over a pipeline is *total*: every queued
//! request gets exactly one verdict.
//!
//! - A well-formed negative status line is a **settled** protocol
//!   verdict for the oldest in-flight request (error replies carry no
//!   body, so the stream stays framed and the pipeline continues).
//! - A transport failure — EOF, timeout, a garbled status line, a body
//!   cut short or longer than asked for — means the framing is lost,
//!   so no later line can be attributed to any request. The failing
//!   request settles with the transport error and every request queued
//!   behind it settles as [`ChirpError::Disconnected`]: never
//!   answered, safe to retry on a fresh connection. Replies read
//!   *before* the failure remain settled; a retry layer must not
//!   replay them.

use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};

use crate::error::{ChirpError, ChirpResult};
use crate::message::Request;
use crate::wire::{self, StatusLine};

/// Default number of requests a pipelined client keeps in flight.
pub const DEFAULT_PIPELINE_DEPTH: usize = 8;

/// How a queued request's reply is framed on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyShape {
    /// A status line only; the value and result words are the answer
    /// (`OPEN`, `CLOSE`, `PWRITE`, `STAT`, ...).
    Status,
    /// A status line whose non-negative value names the length of a
    /// raw payload that follows (`PREAD`, `GETDIR`, `GETDIRSTAT`,
    /// `STATMULTI`, ...).
    Body,
}

/// One settled successful reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The decoded status line of a [`ReplyShape::Status`] request.
    Status(StatusLine),
    /// The status line and payload of a [`ReplyShape::Body`] request.
    Body(StatusLine, Vec<u8>),
}

impl Reply {
    /// The status line of either shape.
    pub fn status(&self) -> &StatusLine {
        match self {
            Reply::Status(st) | Reply::Body(st, _) => st,
        }
    }

    /// The status line of either shape, by value.
    pub fn into_status(self) -> StatusLine {
        match self {
            Reply::Status(st) | Reply::Body(st, _) => st,
        }
    }

    /// The payload, for [`Reply::Body`]; empty for a bare status.
    pub fn into_body(self) -> Vec<u8> {
        match self {
            Reply::Status(_) => Vec::new(),
            Reply::Body(_, body) => body,
        }
    }
}

/// A bounded FIFO window of in-flight requests over one stream, and
/// the only code that writes a request or reads a status line.
///
/// Owns the buffered stream halves (`&mut R` is itself a `BufRead`, so
/// a caller that wants its stream back lends it). The stream stays
/// usable exactly when [`PipelinedConn::is_dead`] is false.
pub struct PipelinedConn<R: BufRead, W: Write> {
    reader: R,
    writer: W,
    depth: usize,
    /// Reply shapes of requests written but not yet settled, FIFO.
    queue: VecDeque<ReplyShape>,
    /// Set by the first transport failure; everything after it fails
    /// fast as `Disconnected`.
    dead: bool,
    /// Requests written since the last flush.
    unflushed: bool,
}

impl<R: BufRead, W: Write> PipelinedConn<R, W> {
    /// A pipeline of at most `depth` (clamped to at least 1) in-flight
    /// requests over `reader`/`writer`.
    pub fn new(reader: R, writer: W, depth: usize) -> PipelinedConn<R, W> {
        PipelinedConn {
            reader,
            writer,
            depth: depth.max(1),
            queue: VecDeque::new(),
            dead: false,
            unflushed: false,
        }
    }

    /// The window size.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Resize the window (clamped to at least 1). Requests already in
    /// flight stay queued; a smaller window only refuses new sends.
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
    }

    /// Requests written but not yet settled.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// True while another request fits in the window.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// True once a transport failure has poisoned the stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Declare the framing lost: for a caller that finds a reply it
    /// settled malformed, or that abandons replies still owed.
    pub fn poison(&mut self) {
        self.dead = true;
    }

    fn lost<T>(&mut self, e: ChirpError) -> ChirpResult<T> {
        self.dead = true;
        Err(e)
    }

    /// Write one request line and whatever `payload` adds behind it,
    /// and queue its reply shape. A full window is a usage error
    /// reported as `InvalidRequest`, not a wire event.
    fn enqueue(
        &mut self,
        req: &Request,
        shape: ReplyShape,
        payload: impl FnOnce(&mut W) -> std::io::Result<()>,
    ) -> ChirpResult<()> {
        if self.dead {
            return Err(ChirpError::Disconnected);
        }
        if !self.has_room() {
            return Err(ChirpError::InvalidRequest);
        }
        let res = self
            .writer
            .write_all(req.encode().as_bytes())
            .and_then(|_| payload(&mut self.writer));
        if let Err(e) = res {
            // A partial write loses framing: nothing sent after this
            // point can be attributed, so the stream is dead.
            return self.lost(ChirpError::from_io(&e));
        }
        self.unflushed = true;
        self.queue.push_back(shape);
        Ok(())
    }

    /// Queue one request (and its raw payload, which must match
    /// [`Request::payload_len`]). The caller must leave room: settle
    /// with [`PipelinedConn::recv`] until [`has_room`] before sending
    /// into a full window.
    ///
    /// [`has_room`]: PipelinedConn::has_room
    pub fn send(
        &mut self,
        req: &Request,
        payload: Option<&[u8]>,
        shape: ReplyShape,
    ) -> ChirpResult<()> {
        debug_assert_eq!(
            payload.map_or(0, |p| p.len() as u64),
            req.payload_len(),
            "payload must match the length named on the request line"
        );
        self.enqueue(req, shape, |w| payload.map_or(Ok(()), |p| w.write_all(p)))
    }

    /// [`PipelinedConn::send`] with the payload streamed from `source`
    /// through a bounded buffer: exactly [`Request::payload_len`]
    /// bytes. A source that ends early has already put the line on the
    /// wire, so it kills the stream like any partial write.
    pub fn send_from(
        &mut self,
        req: &Request,
        source: &mut impl Read,
        shape: ReplyShape,
    ) -> ChirpResult<()> {
        let len = req.payload_len();
        self.enqueue(req, shape, |w| wire::copy_exact(source, w, len))
    }

    /// Push all queued request bytes to the wire.
    pub fn flush(&mut self) -> ChirpResult<()> {
        if self.dead {
            return Err(ChirpError::Disconnected);
        }
        if !self.unflushed {
            return Ok(());
        }
        match self.writer.flush() {
            Ok(()) => {
                self.unflushed = false;
                Ok(())
            }
            Err(e) => self.lost(ChirpError::from_io(&e)),
        }
    }

    /// Pop the oldest in-flight request (flushing first if needed) and
    /// read its status line; any body is still in the stream.
    fn recv_status(&mut self) -> ChirpResult<(ReplyShape, StatusLine)> {
        let shape = match self.queue.pop_front() {
            Some(s) => s,
            None => return Err(ChirpError::InvalidRequest),
        };
        if self.dead {
            // Queued behind a transport failure: never answered, so
            // retriable — never a verdict borrowed from a later line.
            return Err(ChirpError::Disconnected);
        }
        self.flush()?;
        match wire::read_status(&mut self.reader) {
            Ok(st) => Ok((shape, st)),
            // EOF, timeout, or a garbled line: framing lost. (`Busy`
            // rides along: the server answers it while closing the
            // stream.)
            Err(e) if e.is_retryable() => self.lost(e),
            // A well-formed negative status: a settled verdict. Error
            // replies carry no body, so the stream is still framed
            // and the pipeline continues.
            Err(e) => Err(e),
        }
    }

    /// Settle the oldest in-flight request.
    ///
    /// `Ok` is its reply; `Err` is either its settled protocol verdict
    /// (pipeline still live) or a transport failure (pipeline dead;
    /// every later `recv` answers `Disconnected`). Calling with nothing
    /// in flight is a usage error reported as `InvalidRequest`.
    pub fn recv(&mut self) -> ChirpResult<Reply> {
        let (shape, st) = self.recv_status()?;
        match shape {
            ReplyShape::Status => Ok(Reply::Status(st)),
            ReplyShape::Body => match wire::read_payload(&mut self.reader, st.value as u64) {
                Ok(body) => Ok(Reply::Body(st, body)),
                // The body is unread (oversized) or half-read: either
                // way the framing is lost.
                Err(e) => self.lost(e),
            },
        }
    }

    /// Settle the oldest in-flight request, a [`ReplyShape::Body`]
    /// one, reading its body straight into `buf` (one copy, no
    /// allocation). Returns the body length. A body longer than `buf`
    /// — more than was asked for — is left unread and kills the
    /// stream.
    pub fn recv_into(&mut self, buf: &mut [u8]) -> ChirpResult<usize> {
        let (_, st) = self.recv_status()?;
        let n = st.value as u64;
        if n > buf.len() as u64 {
            return self.lost(ChirpError::InvalidRequest);
        }
        match self.reader.read_exact(&mut buf[..n as usize]) {
            Ok(()) => Ok(n as usize),
            Err(e) => self.lost(ChirpError::from_io(&e)),
        }
    }

    /// Settle the oldest in-flight request, a [`ReplyShape::Body`]
    /// one, streaming its body into `out` through a bounded buffer.
    /// Returns the body length. A failing sink leaves the body
    /// half-read, so it kills the stream like a failing transport.
    pub fn recv_to(&mut self, out: &mut impl Write) -> ChirpResult<u64> {
        let (_, st) = self.recv_status()?;
        let len = st.value as u64;
        match wire::copy_exact(&mut self.reader, out, len) {
            Ok(()) => Ok(len),
            Err(e) => self.lost(ChirpError::from_io(&e)),
        }
    }

    /// Settle everything still in flight, in order. Total: one verdict
    /// per outstanding request, settled replies and protocol errors
    /// as-is, everything behind a transport failure as `Disconnected`.
    pub fn settle_all(&mut self) -> Vec<ChirpResult<Reply>> {
        let mut out = Vec::with_capacity(self.queue.len());
        while !self.queue.is_empty() {
            out.push(self.recv());
        }
        out
    }
}

impl<R: BufRead, W: Write> std::fmt::Debug for PipelinedConn<R, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedConn")
            .field("depth", &self.depth)
            .field("in_flight", &self.queue.len())
            .field("dead", &self.dead)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn pread(fd: i32, length: u64, offset: u64) -> Request {
        Request::Pread { fd, length, offset }
    }

    #[test]
    fn replies_settle_in_request_order() {
        // Replies for: CLOSE ok, PREAD 3 bytes, STAT not found.
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 0).unwrap();
        wire::write_status(&mut replies, 3).unwrap();
        replies.extend_from_slice(b"abc");
        wire::write_error(&mut replies, ChirpError::NotFound).unwrap();
        let mut reader = BufReader::new(&replies[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, 4);
        pipe.send(&Request::Close { fd: 1 }, None, ReplyShape::Status)
            .unwrap();
        pipe.send(&pread(1, 3, 0), None, ReplyShape::Body).unwrap();
        pipe.send(
            &Request::Stat { path: "/x".into() },
            None,
            ReplyShape::Status,
        )
        .unwrap();
        assert_eq!(pipe.in_flight(), 3);
        assert_eq!(
            pipe.recv().unwrap(),
            Reply::Status(StatusLine {
                value: 0,
                words: vec![]
            })
        );
        assert_eq!(
            pipe.recv().unwrap(),
            Reply::Body(
                StatusLine {
                    value: 3,
                    words: vec![]
                },
                b"abc".to_vec()
            )
        );
        // A settled protocol error does not kill the pipe.
        assert_eq!(pipe.recv().unwrap_err(), ChirpError::NotFound);
        assert!(!pipe.is_dead());
        assert_eq!(pipe.in_flight(), 0);
        // All three requests hit the wire in order.
        let sent = String::from_utf8(writer).unwrap();
        assert_eq!(sent, "CLOSE 1\nPREAD 1 3 0\nSTAT /x\n");
    }

    #[test]
    fn window_is_bounded() {
        let empty = b"";
        let mut reader = BufReader::new(&empty[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, 2);
        pipe.send(&Request::Whoami, None, ReplyShape::Status)
            .unwrap();
        pipe.send(&Request::Whoami, None, ReplyShape::Status)
            .unwrap();
        assert!(!pipe.has_room());
        assert_eq!(
            pipe.send(&Request::Whoami, None, ReplyShape::Status)
                .unwrap_err(),
            ChirpError::InvalidRequest
        );
    }

    #[test]
    fn transport_failure_settles_everything_behind_it() {
        // One good reply, then the stream dies mid-pipeline.
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 7).unwrap();
        let mut reader = BufReader::new(&replies[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, 4);
        for _ in 0..3 {
            pipe.send(&Request::Whoami, None, ReplyShape::Status)
                .unwrap();
        }
        let verdicts = pipe.settle_all();
        assert_eq!(verdicts.len(), 3);
        assert_eq!(verdicts[0].as_ref().unwrap().status().value, 7);
        // EOF for the second; the third was queued behind it.
        assert_eq!(*verdicts[1].as_ref().unwrap_err(), ChirpError::Disconnected);
        assert_eq!(*verdicts[2].as_ref().unwrap_err(), ChirpError::Disconnected);
        assert!(pipe.is_dead());
        // A dead pipe refuses new work: never sent, safe to retry.
        assert_eq!(
            pipe.send(&Request::Whoami, None, ReplyShape::Status)
                .unwrap_err(),
            ChirpError::Disconnected
        );
    }

    #[test]
    fn garbled_status_line_is_never_a_later_verdict() {
        // Reply 1 ok; reply 2 garbled; a well-formed "-2" follows that
        // must NOT be taken as request 3's verdict.
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 0).unwrap();
        replies.extend_from_slice(b"\xff\xfe garbage\n");
        wire::write_error(&mut replies, ChirpError::NotFound).unwrap();
        let mut reader = BufReader::new(&replies[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, 4);
        for _ in 0..3 {
            pipe.send(&Request::Whoami, None, ReplyShape::Status)
                .unwrap();
        }
        assert!(pipe.recv().is_ok());
        assert_eq!(pipe.recv().unwrap_err(), ChirpError::Disconnected);
        assert_eq!(pipe.recv().unwrap_err(), ChirpError::Disconnected);
        assert!(pipe.is_dead());
    }

    #[test]
    fn payloads_ride_between_request_lines() {
        let empty = b"";
        let mut reader = BufReader::new(&empty[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, 4);
        pipe.send(
            &Request::Pwrite {
                fd: 2,
                length: 4,
                offset: 8,
            },
            Some(b"data"),
            ReplyShape::Status,
        )
        .unwrap();
        pipe.send(&Request::Fsync { fd: 2 }, None, ReplyShape::Status)
            .unwrap();
        pipe.flush().unwrap();
        assert_eq!(&writer[..], b"PWRITE 2 4 8\ndataFSYNC 2\n");
    }

    #[test]
    fn bodies_land_in_the_callers_buffer_or_sink() {
        // Replies for: PREAD 3 bytes, GETFILE 2 bytes.
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 3).unwrap();
        replies.extend_from_slice(b"abc");
        wire::write_status(&mut replies, 2).unwrap();
        replies.extend_from_slice(b"xy");
        let mut pipe = PipelinedConn::new(BufReader::new(&replies[..]), Vec::new(), 2);
        pipe.send(&pread(1, 8, 0), None, ReplyShape::Body).unwrap();
        pipe.send(
            &Request::Getfile { path: "/f".into() },
            None,
            ReplyShape::Body,
        )
        .unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(pipe.recv_into(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        let mut sink = Vec::new();
        assert_eq!(pipe.recv_to(&mut sink).unwrap(), 2);
        assert_eq!(sink, b"xy");
        assert!(!pipe.is_dead());
    }

    #[test]
    fn a_body_longer_than_asked_for_kills_the_stream() {
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 3).unwrap();
        replies.extend_from_slice(b"abc");
        let mut pipe = PipelinedConn::new(BufReader::new(&replies[..]), Vec::new(), 1);
        pipe.send(&pread(1, 2, 0), None, ReplyShape::Body).unwrap();
        let mut buf = [0u8; 2];
        assert_eq!(
            pipe.recv_into(&mut buf).unwrap_err(),
            ChirpError::InvalidRequest
        );
        assert!(pipe.is_dead());
    }

    #[test]
    fn a_streamed_payload_is_exactly_the_named_length() {
        let put = |length| Request::Putfile {
            path: "/f".into(),
            mode: 0o644,
            length,
        };
        let empty = b"";
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(BufReader::new(&empty[..]), &mut writer, 2);
        pipe.send_from(&put(4), &mut &b"datamore"[..], ReplyShape::Status)
            .unwrap();
        // A source that ends early leaves a line without its payload
        // on the wire: the stream is dead.
        assert_eq!(
            pipe.send_from(&put(9), &mut &b"short"[..], ReplyShape::Status)
                .unwrap_err(),
            ChirpError::Disconnected
        );
        assert!(pipe.is_dead());
        assert!(writer.starts_with(b"PUTFILE /f 420 4\ndata"));
    }

    #[test]
    fn recv_with_nothing_in_flight_is_a_usage_error() {
        let empty = b"";
        let mut reader = BufReader::new(&empty[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, 1);
        assert_eq!(pipe.recv().unwrap_err(), ChirpError::InvalidRequest);
        assert!(!pipe.is_dead());
    }
}
