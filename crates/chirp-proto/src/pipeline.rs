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
//!
//! A request whose verdict nobody wants (a dropped handle's `CLOSE`)
//! is sent [`ReplyShape::Unclaimed`]: it waits unflushed and leaves in
//! the same write as the next request, and the `recv` that settles a
//! request behind it reads its status line and drops it, negative or
//! not. A transport failure while reading one is a transport failure
//! like any other: everything behind it settles as `Disconnected`.
//! Unclaimed entries take no room in the window and are not counted in
//! [`PipelinedConn::in_flight`].

use std::collections::VecDeque;
use std::io::{BufRead, Write};

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
    /// A status line only, which no caller settles: it is read and
    /// dropped ahead of the next claimed reply.
    Unclaimed,
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
    /// How many of `queue` are [`ReplyShape::Unclaimed`].
    unclaimed: usize,
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
            unclaimed: 0,
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

    /// Requests written but not yet settled, unclaimed ones aside.
    pub fn in_flight(&self) -> usize {
        self.queue.len() - self.unclaimed
    }

    /// True while another request fits in the window.
    pub fn has_room(&self) -> bool {
        self.in_flight() < self.depth
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

    /// Write one request line and whatever `payload` writes behind it,
    /// which must be exactly [`Request::payload_len`] bytes, and queue
    /// its reply shape: the hook for a payload that is not a slice in
    /// memory, such as a file sent with [`Transport::send_file`]. A
    /// payload that fails part way has already put the line on the
    /// wire, so it kills the stream like any partial write. A full
    /// window is a usage error reported as `InvalidRequest`, not a wire
    /// event; an unclaimed request takes no room.
    ///
    /// [`Transport::send_file`]: crate::transport::Transport::send_file
    pub fn send_with(
        &mut self,
        req: &Request,
        shape: ReplyShape,
        payload: impl FnOnce(&mut W) -> std::io::Result<()>,
    ) -> ChirpResult<()> {
        if self.dead {
            return Err(ChirpError::Disconnected);
        }
        let unclaimed = shape == ReplyShape::Unclaimed;
        if !unclaimed && !self.has_room() {
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
        self.unclaimed += usize::from(unclaimed);
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
        self.send_with(req, shape, |w| payload.map_or(Ok(()), |p| w.write_all(p)))
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

    /// Pop the oldest claimed request, reading and dropping the
    /// unclaimed status lines ahead of it, and read its status line
    /// (flushing first if needed); any body is still in the stream.
    fn recv_status(&mut self) -> ChirpResult<(ReplyShape, StatusLine)> {
        if self.in_flight() == 0 {
            return Err(ChirpError::InvalidRequest);
        }
        while let Some(ReplyShape::Unclaimed) = self.queue.front() {
            self.queue.pop_front();
            self.unclaimed -= 1;
            if !self.dead {
                // Its verdict, even a negative one, is nobody's; a
                // transport failure still kills the stream.
                let _ = self.read_status();
            }
        }
        let shape = self.queue.pop_front().expect("a claimed request is queued");
        if self.dead {
            // Queued behind a transport failure: never answered, so
            // retriable — never a verdict borrowed from a later line.
            return Err(ChirpError::Disconnected);
        }
        Ok((shape, self.read_status()?))
    }

    /// Flush, then read the next status line off the stream.
    fn read_status(&mut self) -> ChirpResult<StatusLine> {
        self.flush()?;
        match wire::read_status(&mut self.reader) {
            Ok(st) => Ok(st),
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
            ReplyShape::Status | ReplyShape::Unclaimed => Ok(Reply::Status(st)),
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
    /// one, streaming its body into `out` straight from the reader's
    /// own buffer. Returns the body length. A failing sink leaves the
    /// body half-read, so it kills the stream like a failing transport.
    pub fn recv_to(&mut self, out: &mut impl Write) -> ChirpResult<u64> {
        let (_, st) = self.recv_status()?;
        let len = st.value as u64;
        let mut remaining = len;
        while remaining > 0 {
            let copied = self.reader.fill_buf().and_then(|buf| {
                if buf.is_empty() {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                let n = remaining.min(buf.len() as u64) as usize;
                out.write_all(&buf[..n]).map(|()| n)
            });
            match copied {
                Ok(n) => {
                    self.reader.consume(n);
                    remaining -= n as u64;
                }
                Err(e) => return self.lost(ChirpError::from_io(&e)),
            }
        }
        Ok(len)
    }

    /// Settle everything still in flight, in order. Total: one verdict
    /// per outstanding request, settled replies and protocol errors
    /// as-is, everything behind a transport failure as `Disconnected`.
    pub fn settle_all(&mut self) -> Vec<ChirpResult<Reply>> {
        let mut out = Vec::with_capacity(self.in_flight());
        while self.in_flight() > 0 {
            out.push(self.recv());
        }
        out
    }
}

impl<R: BufRead, W: Write> std::fmt::Debug for PipelinedConn<R, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedConn")
            .field("depth", &self.depth)
            .field("in_flight", &self.in_flight())
            .field("unclaimed", &self.unclaimed)
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
        let from = |source: &'static [u8], len| {
            move |w: &mut &mut Vec<u8>| wire::copy_exact(&mut &source[..], w, len)
        };
        pipe.send_with(&put(4), ReplyShape::Status, from(b"datamore", 4))
            .unwrap();
        // A source that ends early leaves a line without its payload
        // on the wire: the stream is dead.
        assert_eq!(
            pipe.send_with(&put(9), ReplyShape::Status, from(b"short", 9))
                .unwrap_err(),
            ChirpError::Disconnected
        );
        assert!(pipe.is_dead());
        assert!(writer.starts_with(b"PUTFILE /f 420 4\ndata"));
    }

    /// A writer that keeps what each flush pushed, so a test can see
    /// which requests left together.
    #[derive(Default)]
    struct Flushes {
        pending: Vec<u8>,
        flushed: std::rc::Rc<std::cell::RefCell<Vec<Vec<u8>>>>,
    }

    impl Write for Flushes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let out = std::mem::take(&mut self.pending);
            self.flushed.borrow_mut().push(out);
            Ok(())
        }
    }

    #[test]
    fn unclaimed_closes_ride_the_next_request_and_are_dropped_on_the_way() {
        // Replies for: CLOSE ok, STAT words, CLOSE refused, PREAD 2
        // bytes.
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 0).unwrap();
        replies.extend_from_slice(b"0 st\n");
        wire::write_error(&mut replies, ChirpError::BadFd).unwrap();
        wire::write_status(&mut replies, 2).unwrap();
        replies.extend_from_slice(b"ab");
        let writer = Flushes::default();
        let flushed = writer.flushed.clone();
        let mut pipe = PipelinedConn::new(BufReader::new(&replies[..]), writer, 1);
        let close = |fd| Request::Close { fd };
        pipe.send(&close(3), None, ReplyShape::Unclaimed).unwrap();
        // Nothing owed, nothing on the wire, and the window is free.
        assert_eq!(pipe.in_flight(), 0);
        assert!(pipe.has_room());
        assert!(flushed.borrow().is_empty());
        // Nothing claimed: a recv is a usage error that reads nothing.
        assert_eq!(pipe.recv().unwrap_err(), ChirpError::InvalidRequest);
        let stat = Request::Stat { path: "/x".into() };
        pipe.send(&stat, None, ReplyShape::Status).unwrap();
        // A full window still takes an unclaimed request.
        assert!(!pipe.has_room());
        pipe.send(&close(4), None, ReplyShape::Unclaimed).unwrap();
        assert_eq!(pipe.in_flight(), 1);
        assert_eq!(pipe.recv().unwrap().status().words, vec!["st"]);
        // Everything written by then left in one flush.
        assert_eq!(
            *flushed.borrow(),
            vec![b"CLOSE 3\nSTAT /x\nCLOSE 4\n".to_vec()]
        );
        // The refused close is dropped, and the pipe stays live.
        pipe.send(&pread(1, 2, 0), None, ReplyShape::Body).unwrap();
        assert_eq!(pipe.recv().unwrap().into_body(), b"ab");
        assert!(!pipe.is_dead());
        assert_eq!(pipe.in_flight(), 0);
    }

    #[test]
    fn a_transport_failure_in_an_unclaimed_reply_settles_what_is_behind_it() {
        let mut replies = Vec::new();
        wire::write_status(&mut replies, 0).unwrap();
        replies.extend_from_slice(b"\xff garbage\n");
        wire::write_status(&mut replies, 0).unwrap();
        let mut pipe = PipelinedConn::new(BufReader::new(&replies[..]), Vec::new(), 4);
        pipe.send(&Request::Whoami, None, ReplyShape::Status)
            .unwrap();
        pipe.send(&Request::Close { fd: 1 }, None, ReplyShape::Unclaimed)
            .unwrap();
        pipe.send(&Request::Whoami, None, ReplyShape::Status)
            .unwrap();
        pipe.send(&Request::Whoami, None, ReplyShape::Status)
            .unwrap();
        let verdicts = pipe.settle_all();
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts[0].is_ok());
        // The well-formed line after the garble answers nobody.
        assert_eq!(*verdicts[1].as_ref().unwrap_err(), ChirpError::Disconnected);
        assert_eq!(*verdicts[2].as_ref().unwrap_err(), ChirpError::Disconnected);
        assert!(pipe.is_dead());
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
