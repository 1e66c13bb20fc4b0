//! Framing helpers shared by the client and the server.
//!
//! Everything here works on plain `Read`/`Write` streams so the same
//! code serves TCP sockets in production and in-memory pipes in tests.

use std::io::{self, BufRead, Read, Write};

use crate::error::ChirpError;
use crate::MAX_LINE;

/// Read one `\n`-terminated line, enforcing [`MAX_LINE`].
///
/// Returns `Ok(None)` on a clean EOF at a line boundary (the peer hung
/// up between requests), `Err` on EOF mid-line or oversized lines.
pub fn read_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(io::ErrorKind::UnexpectedEof.into())
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if line.len() > MAX_LINE {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
                }
                let text = String::from_utf8(line)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 line"))?;
                return Ok(Some(text));
            }
            None => {
                let n = buf.len();
                line.extend_from_slice(buf);
                reader.consume(n);
                if line.len() > MAX_LINE {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
                }
            }
        }
    }
}

/// Write a bare status line: `code\n`.
pub fn write_status<W: Write>(writer: &mut W, code: i64) -> io::Result<()> {
    writeln!(writer, "{code}")
}

/// Write a status line with trailing result words: `code words...\n`.
pub fn write_status_words<W: Write>(writer: &mut W, code: i64, words: &str) -> io::Result<()> {
    writeln!(writer, "{code} {words}")
}

/// Write an error status line.
pub fn write_error<W: Write>(writer: &mut W, err: ChirpError) -> io::Result<()> {
    write_status(writer, err.code())
}

/// A decoded response status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusLine {
    /// The non-negative result value.
    pub value: i64,
    /// Result words after the status code, still escaped.
    pub words: Vec<String>,
}

/// Read and decode a response status line; protocol errors become
/// `Err(ChirpError)`, transport errors become `Err(Disconnected)` or
/// `Err(Timeout)`.
///
/// A line that cannot be decoded as a status — non-UTF-8 bytes, a
/// first token that is not a number — means the stream framing is
/// lost: the bytes were damaged in flight or the peer is not speaking
/// Chirp. That is a *transport* failure, not a server answer, so it
/// surfaces as [`ChirpError::Disconnected`] (retriable on a fresh
/// connection) rather than the fatal `InvalidRequest` that
/// [`parse_status`] reports for malformed text. Well-formed negative
/// status codes still decode to their protocol error unchanged.
pub fn read_status<R: BufRead>(reader: &mut R) -> Result<StatusLine, ChirpError> {
    let line = match read_line(reader) {
        Ok(line) => line.ok_or(ChirpError::Disconnected)?,
        // Garbage on the stream (non-UTF-8, oversized line) is framing
        // loss, not a protocol verdict.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(ChirpError::Disconnected),
        Err(e) => return Err(ChirpError::from_io(&e)),
    };
    // A server sending `-10` answered InvalidRequest (fatal, kept);
    // a first token that does not parse as a number at all is noise.
    if line
        .split(' ')
        .find(|w| !w.is_empty())
        .is_none_or(|w| w.parse::<i64>().is_err())
    {
        return Err(ChirpError::Disconnected);
    }
    parse_status(&line)
}

/// Decode a status line that has already been read.
pub fn parse_status(line: &str) -> Result<StatusLine, ChirpError> {
    let mut words = line.split(' ').filter(|w| !w.is_empty());
    let code: i64 = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or(ChirpError::InvalidRequest)?;
    if code < 0 {
        return Err(ChirpError::from_code(code));
    }
    Ok(StatusLine {
        value: code,
        words: words.map(str::to_string).collect(),
    })
}

/// Copy exactly `len` bytes from `reader` to `writer` through a bounded
/// buffer, so a multi-megabyte `putfile` payload never occupies more
/// than one buffer of memory.
pub fn copy_exact<R: Read + ?Sized, W: Write + ?Sized>(
    reader: &mut R,
    writer: &mut W,
    len: u64,
) -> io::Result<()> {
    let mut buf = [0u8; 64 * 1024];
    let mut remaining = len;
    while remaining > 0 {
        let want = buf.len().min(remaining as usize);
        let got = reader.read(&mut buf[..want])?;
        if got == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        writer.write_all(&buf[..got])?;
        remaining -= got as u64;
    }
    Ok(())
}

/// Write every byte of every buffer, preferring a single vectored
/// write per round trip to the OS. The scatter-gather reply path uses
/// this to send cached pages without assembling them into one
/// contiguous allocation first.
///
/// Handles partial progress the hard way: a `write_vectored` may stop
/// mid-buffer, so the slice list is rebuilt from the first unwritten
/// byte each round.
pub fn write_all_vectored<W: Write>(writer: &mut W, bufs: &[&[u8]]) -> io::Result<()> {
    let mut bufs: Vec<&[u8]> = bufs.iter().filter(|b| !b.is_empty()).copied().collect();
    while !bufs.is_empty() {
        let slices: Vec<io::IoSlice> = bufs.iter().map(|b| io::IoSlice::new(b)).collect();
        let mut n = writer.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        let mut consumed = 0;
        for b in &mut bufs {
            if n >= b.len() {
                n -= b.len();
                consumed += 1;
            } else {
                *b = &b[n..];
                break;
            }
        }
        bufs.drain(..consumed);
    }
    Ok(())
}

/// Read exactly `len` bytes into a fresh buffer, enforcing
/// [`crate::MAX_PAYLOAD`].
pub fn read_payload<R: Read>(reader: &mut R, len: u64) -> Result<Vec<u8>, ChirpError> {
    if len > crate::MAX_PAYLOAD as u64 {
        return Err(ChirpError::TooBig);
    }
    let mut buf = vec![0u8; len as usize];
    reader
        .read_exact(&mut buf)
        .map_err(|e| ChirpError::from_io(&e))?;
    Ok(buf)
}

/// Discard exactly `len` bytes from `reader` (used by a server that must
/// drain the payload of a request it is rejecting, to keep the stream
/// framed).
pub fn discard_exact<R: Read>(reader: &mut R, len: u64) -> io::Result<()> {
    let mut sink = io::sink();
    copy_exact(reader, &mut sink, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn read_line_splits_on_newline() {
        let mut r = BufReader::new(&b"hello world\nsecond\n"[..]);
        assert_eq!(read_line(&mut r).unwrap().unwrap(), "hello world");
        assert_eq!(read_line(&mut r).unwrap().unwrap(), "second");
        assert!(read_line(&mut r).unwrap().is_none());
    }

    #[test]
    fn read_line_rejects_eof_mid_line() {
        let mut r = BufReader::new(&b"partial"[..]);
        assert!(read_line(&mut r).is_err());
    }

    #[test]
    fn read_line_enforces_max() {
        let big = vec![b'x'; MAX_LINE + 10];
        let mut r = BufReader::new(&big[..]);
        assert!(read_line(&mut r).is_err());
    }

    #[test]
    fn status_round_trip() {
        let mut buf = Vec::new();
        write_status_words(&mut buf, 0, "1 2 f 420 1 99 0").unwrap();
        let mut r = BufReader::new(&buf[..]);
        let st = read_status(&mut r).unwrap();
        assert_eq!(st.value, 0);
        assert_eq!(st.words.len(), 7);
    }

    #[test]
    fn negative_status_becomes_error() {
        let mut buf = Vec::new();
        write_error(&mut buf, ChirpError::NotFound).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_status(&mut r).unwrap_err(), ChirpError::NotFound);
    }

    #[test]
    fn eof_becomes_disconnected() {
        let mut r = BufReader::new(&b""[..]);
        assert_eq!(read_status(&mut r).unwrap_err(), ChirpError::Disconnected);
    }

    #[test]
    fn garbled_status_line_is_a_transport_error() {
        // Corrupted-in-flight bytes: framing is lost, so the client
        // must treat the stream as dead (retriable), not report a
        // fatal protocol error.
        for garbage in [&b"\x80\xb5\xb0 5\n"[..], b"xyz 1\n", b"   \n"] {
            let mut r = BufReader::new(garbage);
            assert_eq!(
                read_status(&mut r).unwrap_err(),
                ChirpError::Disconnected,
                "{garbage:?}"
            );
        }
        // A well-formed protocol error code is NOT remapped.
        let mut r = BufReader::new(&b"-10\n"[..]);
        assert_eq!(read_status(&mut r).unwrap_err(), ChirpError::InvalidRequest);
    }

    #[test]
    fn copy_exact_moves_the_right_bytes() {
        let src = (0..200_000u32).map(|i| i as u8).collect::<Vec<_>>();
        let mut out = Vec::new();
        copy_exact(&mut &src[..], &mut out, 150_000).unwrap();
        assert_eq!(out, src[..150_000]);
    }

    #[test]
    fn copy_exact_detects_short_source() {
        let src = [0u8; 10];
        let mut out = Vec::new();
        assert!(copy_exact(&mut &src[..], &mut out, 20).is_err());
    }

    #[test]
    fn write_all_vectored_is_identity() {
        let bufs: Vec<Vec<u8>> = vec![vec![1; 3], vec![], vec![2; 5], vec![3; 1]];
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let mut out = Vec::new();
        write_all_vectored(&mut out, &refs).unwrap();
        assert_eq!(out, [vec![1; 3], vec![2; 5], vec![3; 1]].concat());
        let mut empty = Vec::new();
        write_all_vectored(&mut empty, &[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn write_all_vectored_survives_partial_writes() {
        // A writer that takes at most 2 bytes per call, exercising the
        // mid-buffer resumption path.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(2);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let a: Vec<u8> = (0..7).collect();
        let b: Vec<u8> = (7..10).collect();
        let mut w = Dribble(Vec::new());
        write_all_vectored(&mut w, &[&a, &b]).unwrap();
        assert_eq!(w.0, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn read_payload_enforces_cap() {
        let mut r = BufReader::new(&b""[..]);
        assert_eq!(
            read_payload(&mut r, crate::MAX_PAYLOAD as u64 + 1).unwrap_err(),
            ChirpError::TooBig
        );
    }

    #[test]
    fn discard_exact_leaves_stream_framed() {
        let mut r = BufReader::new(&b"0123456789rest\n"[..]);
        discard_exact(&mut r, 10).unwrap();
        assert_eq!(read_line(&mut r).unwrap().unwrap(), "rest");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn status_words_round_trip(
                value in 0i64..1_000_000,
                words in proptest::collection::vec("[!-~]{1,12}", 0..6),
            ) {
                let mut buf = Vec::new();
                let joined = words.join(" ");
                if joined.is_empty() {
                    write_status(&mut buf, value).unwrap();
                } else {
                    write_status_words(&mut buf, value, &joined).unwrap();
                }
                let mut r = BufReader::new(&buf[..]);
                let st = read_status(&mut r).unwrap();
                prop_assert_eq!(st.value, value);
                prop_assert_eq!(st.words, words);
            }

            #[test]
            fn copy_exact_is_identity(
                data in proptest::collection::vec(any::<u8>(), 0..100_000),
            ) {
                let mut out = Vec::new();
                copy_exact(&mut &data[..], &mut out, data.len() as u64).unwrap();
                prop_assert_eq!(out, data);
            }

            #[test]
            fn parse_status_never_panics(line in "\\PC{0,64}") {
                let _ = parse_status(&line);
            }

            #[test]
            fn interleaved_lines_and_payloads_stay_framed(
                payload in proptest::collection::vec(any::<u8>(), 0..500),
            ) {
                // line, payload, line — the stream discipline every
                // data-carrying RPC relies on.
                let mut buf = Vec::new();
                write_status(&mut buf, payload.len() as i64).unwrap();
                buf.extend_from_slice(&payload);
                write_status(&mut buf, 0).unwrap();
                let mut r = BufReader::new(&buf[..]);
                let st = read_status(&mut r).unwrap();
                let body = read_payload(&mut r, st.value as u64).unwrap();
                prop_assert_eq!(body, payload);
                prop_assert_eq!(read_status(&mut r).unwrap().value, 0);
            }
        }
    }
}
