//! Property corpus for the pipelined data path.
//!
//! `frame_roundtrip.rs` pins single frames; this suite pins *queues* of
//! them: arbitrary mixes of requests — with and without raw payloads,
//! naming framing-hostile paths — written through [`PipelinedConn`]
//! must decode server-side to exactly the op sequence that was queued,
//! and replies must settle strictly in send order no matter how sends
//! and receives interleave within the window — including the two moves
//! a pipeline that owns its stream allows between bursts: a plain RPC
//! (one round trip at window one, refused untouched while replies are
//! owed) and a deferred send (flushed now, settled whenever). The
//! failure half of the
//! contract is a property too: a garbled status line anywhere in the
//! reply stream settles the request it answers as a transport loss and
//! everything queued behind it as [`ChirpError::Disconnected`] — a
//! well-formed line *after* the garble must never surface as a later
//! request's verdict.

use std::io::BufReader;

use proptest::prelude::*;

use chirp_proto::wire::{self, read_line, read_payload, StatusLine};
use chirp_proto::{ChirpError, OpenFlags, PipelinedConn, Reply, ReplyShape, Request};

/// The bytes that break naive line protocols, drawn with the same
/// weight as the whole rest of the byte space combined.
const HOSTILE: &[u8] = &[b'\n', b'\r', b' ', b'%', b'\t', 0x00, 0x7f, 0xff];

fn hostile_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0usize..HOSTILE.len()).prop_map(|i| HOSTILE[i]),
        any::<u8>(),
    ]
}

fn hostile_path() -> impl Strategy<Value = String> {
    proptest::collection::vec(hostile_byte(), 1..32)
        .prop_map(|bs| bs.into_iter().map(|b| b as char).collect())
}

/// One queued request: what goes on the wire and how its reply is
/// framed.
#[derive(Debug, Clone)]
enum Queued {
    Open(String),
    Stat(String),
    Pread { fd: i32, len: u64, off: u64 },
    Pwrite { fd: i32, data: Vec<u8>, off: u64 },
    Putfile { path: String, data: Vec<u8> },
    GetdirStat(String),
    StatMulti(Vec<String>),
}

impl Queued {
    fn request(&self) -> Request {
        match self {
            Queued::Open(path) => Request::Open {
                path: path.clone(),
                flags: OpenFlags::read_write() | OpenFlags::CREATE,
                mode: 0o644,
            },
            Queued::Stat(path) => Request::Stat { path: path.clone() },
            Queued::Pread { fd, len, off } => Request::Pread {
                fd: *fd,
                length: *len,
                offset: *off,
            },
            Queued::Pwrite { fd, data, off } => Request::Pwrite {
                fd: *fd,
                length: data.len() as u64,
                offset: *off,
            },
            Queued::Putfile { path, data } => Request::Putfile {
                path: path.clone(),
                mode: 0o644,
                length: data.len() as u64,
            },
            Queued::GetdirStat(path) => Request::GetdirStat { path: path.clone() },
            Queued::StatMulti(paths) => Request::StatMulti {
                paths: paths.clone(),
            },
        }
    }

    fn payload(&self) -> Option<&[u8]> {
        match self {
            Queued::Pwrite { data, .. } | Queued::Putfile { data, .. } => Some(data),
            _ => None,
        }
    }

    fn shape(&self) -> ReplyShape {
        match self {
            Queued::Pread { .. } | Queued::GetdirStat(_) | Queued::StatMulti(_) => ReplyShape::Body,
            _ => ReplyShape::Status,
        }
    }
}

fn queued() -> impl Strategy<Value = Queued> {
    prop_oneof![
        hostile_path().prop_map(Queued::Open),
        hostile_path().prop_map(Queued::Stat),
        (0i32..8, 0u64..256, 0u64..256).prop_map(|(fd, len, off)| Queued::Pread { fd, len, off }),
        (
            0i32..8,
            proptest::collection::vec(any::<u8>(), 0..128),
            0u64..256
        )
            .prop_map(|(fd, data, off)| Queued::Pwrite { fd, data, off }),
        (
            hostile_path(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(path, data)| Queued::Putfile { path, data }),
        hostile_path().prop_map(Queued::GetdirStat),
        proptest::collection::vec(hostile_path(), 1..4).prop_map(Queued::StatMulti),
    ]
}

/// A reply the "server" side stages for one queued request, and the
/// verdict the client must settle for it.
#[derive(Debug, Clone)]
enum Staged {
    /// A non-negative status (with a body for [`ReplyShape::Body`]).
    Ok(Vec<u8>),
    /// A well-formed negative status: a settled protocol verdict that
    /// keeps the pipeline alive.
    ProtocolErr(ChirpError),
}

fn staged() -> impl Strategy<Value = Staged> {
    prop_oneof![
        proptest::collection::vec(hostile_byte(), 0..64).prop_map(Staged::Ok),
        (0usize..4).prop_map(|i| Staged::ProtocolErr(
            [
                ChirpError::NotFound,
                ChirpError::NotAuthorized,
                ChirpError::BadFd,
                ChirpError::IsADirectory,
            ][i]
        )),
    ]
}

/// Encode `staged` replies for `specs` into one reply stream and the
/// verdict list the client must observe, in order.
fn stage_replies(specs: &[Queued], staged: &[Staged]) -> (Vec<u8>, Vec<Result<Reply, ChirpError>>) {
    let mut stream = Vec::new();
    let mut expected = Vec::new();
    for (spec, st) in specs.iter().zip(staged) {
        match st {
            Staged::ProtocolErr(e) => {
                wire::write_error(&mut stream, *e).unwrap();
                expected.push(Err(*e));
            }
            Staged::Ok(body) => match spec.shape() {
                ReplyShape::Status => {
                    let value = body.len() as i64;
                    wire::write_status(&mut stream, value).unwrap();
                    expected.push(Ok(Reply::Status(StatusLine {
                        value,
                        words: vec![],
                    })));
                }
                ReplyShape::Body => {
                    wire::write_status(&mut stream, body.len() as i64).unwrap();
                    stream.extend_from_slice(body);
                    expected.push(Ok(Reply::Body(
                        StatusLine {
                            value: body.len() as i64,
                            words: vec![],
                        },
                        body.clone(),
                    )));
                }
            },
        }
    }
    (stream, expected)
}

/// One step of an interleaving over a single owned pipeline.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Queue the next request into the open window.
    Send,
    /// Settle the oldest in-flight request.
    Recv,
    /// A plain RPC: close the window to one, send, settle at once.
    Plain,
    /// Queue the next request and flush it; its reply is settled by
    /// whichever later move gets to it.
    Defer,
}

fn moves() -> impl Strategy<Value = Move> {
    (0usize..4).prop_map(|i| [Move::Send, Move::Recv, Move::Plain, Move::Defer][i])
}

/// The plain server-side read loop over what the client wrote: the
/// frames must decode to exactly `specs`, in order, and nothing more.
fn assert_decodes_to(written: &[u8], specs: &[Queued]) {
    let mut server = BufReader::new(written);
    for spec in specs {
        let line = read_line(&mut server).unwrap().expect("a queued frame");
        let decoded = Request::parse(&line).unwrap();
        assert_eq!(decoded, spec.request());
        let body = read_payload(&mut server, decoded.payload_len()).unwrap();
        assert_eq!(body.as_slice(), spec.payload().unwrap_or(&[]));
    }
    assert!(
        read_line(&mut server).unwrap().is_none(),
        "stream fully consumed"
    );
}

/// Bytes that must never parse as a status line: either a non-numeric
/// first token, or raw non-UTF-8 noise.
fn garble() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        "[a-zA-Z%]{1,12}".prop_map(|junk| format!("{junk} 5\n").into_bytes()),
        (0u8..2).prop_map(|_| b"\xff\xfe mid-stream noise\n".to_vec()),
        // Immediate EOF: the stream just ends.
        (0u8..2).prop_map(|_| Vec::new()),
    ]
}

proptest! {
    // Client side of the framing contract: an arbitrary queue of
    // requests — hostile paths, raw payloads riding between request
    // lines — written through the pipeline decodes, with the plain
    // server-side read loop, to exactly the op sequence that was
    // queued. One leaked newline or one mis-sized payload length and
    // a later frame shears.
    #[test]
    fn queued_requests_decode_to_the_same_op_sequence(
        specs in proptest::collection::vec(queued(), 1..10),
    ) {
        let empty = b"";
        let mut reader = BufReader::new(&empty[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, specs.len());
        for spec in &specs {
            pipe.send(&spec.request(), spec.payload(), spec.shape()).unwrap();
        }
        pipe.flush().unwrap();
        prop_assert_eq!(pipe.in_flight(), specs.len());
        drop(pipe);
        assert_decodes_to(&writer, &specs);
    }

    // FIFO settlement under arbitrary interleavings of bursts, plain
    // RPCs and deferred sends on one pipeline: however the schedule
    // slices the window, the k-th settled verdict is the k-th staged
    // reply — values, bodies, and protocol errors alike — and a plain
    // RPC attempted while replies are owed is refused without a byte
    // written or a reply consumed.
    #[test]
    fn replies_settle_fifo_under_arbitrary_interleavings(
        pairs in proptest::collection::vec((queued(), staged()), 1..10),
        schedule in proptest::collection::vec(moves(), 0..24),
        depth in 1usize..5,
    ) {
        let (specs, staged): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let (stream, expected) = stage_replies(&specs, &staged);
        let mut reader = BufReader::new(&stream[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, depth);

        let mut next_send = 0;
        let mut verdicts: Vec<Result<Reply, ChirpError>> = Vec::new();
        // A move that cannot be made at a window edge falls back to
        // the other kind.
        for mv in schedule {
            let can_send = next_send < specs.len() && pipe.has_room();
            let owed = pipe.in_flight();
            match mv {
                Move::Plain if next_send < specs.len() => {
                    let spec = &specs[next_send];
                    pipe.set_depth(1);
                    match pipe.send(&spec.request(), spec.payload(), spec.shape()) {
                        Ok(()) => {
                            prop_assert_eq!(owed, 0, "a plain RPC went out past owed replies");
                            verdicts.push(pipe.recv());
                            next_send += 1;
                        }
                        Err(e) => {
                            prop_assert!(owed > 0, "a plain RPC refused on an idle stream");
                            prop_assert_eq!(e, ChirpError::InvalidRequest);
                            prop_assert_eq!(pipe.in_flight(), owed);
                            prop_assert!(!pipe.is_dead());
                        }
                    }
                    pipe.set_depth(depth);
                }
                Move::Send | Move::Defer if can_send => {
                    let spec = &specs[next_send];
                    pipe.send(&spec.request(), spec.payload(), spec.shape()).unwrap();
                    next_send += 1;
                    if matches!(mv, Move::Defer) {
                        pipe.flush().unwrap();
                    }
                }
                _ if owed > 0 => verdicts.push(pipe.recv()),
                _ if can_send => {
                    let spec = &specs[next_send];
                    pipe.send(&spec.request(), spec.payload(), spec.shape()).unwrap();
                    next_send += 1;
                }
                _ => {}
            }
        }
        while next_send < specs.len() {
            if pipe.has_room() {
                let spec = &specs[next_send];
                pipe.send(&spec.request(), spec.payload(), spec.shape()).unwrap();
                next_send += 1;
            } else {
                verdicts.push(pipe.recv());
            }
        }
        verdicts.extend(pipe.settle_all());

        prop_assert!(!pipe.is_dead());
        prop_assert_eq!(verdicts.len(), expected.len());
        for (i, (got, want)) in verdicts.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got, want, "verdict {i} out of order");
        }
        drop(pipe);
        // Refused sends wrote nothing: the wire holds each request once.
        assert_decodes_to(&writer, &specs);
    }

    // Total error classification: a garbled status line (or EOF) at
    // position `g` settles request `g` as a transport loss and every
    // request behind it as `Disconnected` — even when perfectly
    // well-formed status lines follow the garble. A later request must
    // never inherit one of those as its verdict.
    #[test]
    fn garbled_status_mid_pipeline_never_becomes_a_later_verdict(
        pairs in proptest::collection::vec((queued(), staged()), 1..8),
        extra in proptest::collection::vec(queued(), 1..5),
        noise in garble(),
        g_pick in 0usize..8,
    ) {
        let (specs, staged): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let g = g_pick % specs.len();
        // Stage good replies only for the first `g` requests...
        let (mut stream, expected) = stage_replies(&specs[..g], &staged[..g]);
        // ...then the garble, then lines that would be valid verdicts
        // (a success and a protocol error) if framing were ignored.
        stream.extend_from_slice(&noise);
        if !noise.is_empty() {
            wire::write_status(&mut stream, 0).unwrap();
            wire::write_error(&mut stream, ChirpError::NotFound).unwrap();
        }

        let all: Vec<Queued> = specs.into_iter().chain(extra).collect();
        let mut reader = BufReader::new(&stream[..]);
        let mut writer = Vec::new();
        let mut pipe = PipelinedConn::new(&mut reader, &mut writer, all.len());
        for spec in &all {
            pipe.send(&spec.request(), spec.payload(), spec.shape()).unwrap();
        }
        let verdicts = pipe.settle_all();

        prop_assert_eq!(verdicts.len(), all.len(), "classification is total");
        for (i, (got, want)) in verdicts.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got, want, "settled verdict {i} changed");
        }
        for (i, v) in verdicts.iter().enumerate().skip(g) {
            prop_assert_eq!(
                v.as_ref().unwrap_err(),
                &ChirpError::Disconnected,
                "request {i} took a verdict from beyond the garble"
            );
        }
        prop_assert!(pipe.is_dead());
        prop_assert_eq!(
            pipe.send(&Request::Whoami, None, ReplyShape::Status).unwrap_err(),
            ChirpError::Disconnected,
            "a dead pipe must refuse new work"
        );
    }
}
