//! Stub files: the pointers a distributed filesystem's directory tree
//! keeps in place of file data.
//!
//! Where a DPFS/DSFS directory structure indicates a file, it actually
//! contains a small *stub* naming the file server and the server-side
//! path holding the data, e.g. `/paper.txt` → `host5:9094`,
//! `/mydpfs/file596`. Name-only operations (`rename`, `mkdir`) touch
//! only stubs; data operations follow the pointer.
//!
//! A stub also says how the file is *laid out* over the servers it
//! names — one data file, stripes dealt over several part files, or
//! identical replicas — so the stub, not the Rust type that opened the
//! tree, decides how a file is read.

use std::io;

/// The v1 stub: one file server, one data file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stub {
    /// File server endpoint, `host:port`.
    pub endpoint: String,
    /// Absolute server-side path of the data file.
    pub data_path: String,
}

impl Stub {
    /// Render to the on-disk stub format.
    pub fn render(&self) -> String {
        render_v1(&self.endpoint, &self.data_path)
    }
}

fn render_v1(endpoint: &str, data_path: &str) -> String {
    format!("{STUB_MAGIC}\n{endpoint}\n{data_path}\n")
}

/// First line of a [`Layout::Single`] stub; versioned so layouts can
/// evolve.
pub const STUB_MAGIC: &str = "#tss-stub-v1";
/// First line of a [`Layout::Striped`] stub.
pub const STRIPE_MAGIC: &str = "#tss-stripe-v1";
/// First line of a [`Layout::Mirrored`] stub.
pub const MIRROR_MAGIC: &str = "#tss-mirror-v1";

/// How a file's bytes are arranged over its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The one part is the file.
    Single,
    /// Fixed-size stripes dealt round-robin over the parts.
    Striped {
        /// Bytes per stripe.
        stripe_size: u64,
    },
    /// Every part is a full replica.
    Mirrored,
}

impl Layout {
    /// Whether the file is unusable as soon as any one part is missing
    /// or unreachable. A mirrored file reads from any surviving
    /// replica; the other layouts need every part.
    pub fn needs_every_part(self) -> bool {
        match self {
            Layout::Single | Layout::Striped { .. } => true,
            Layout::Mirrored => false,
        }
    }
}

/// What a stub file holds: the layout and where each part lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StubRecord {
    /// How the parts make up the file.
    pub layout: Layout,
    /// `(endpoint, server-side path)` per part, in layout order. Never
    /// empty; exactly one for [`Layout::Single`].
    pub parts: Vec<(String, String)>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl StubRecord {
    /// Render to the on-disk format of this record's layout. The
    /// multi-part headers carry the part count so a torn
    /// (prefix-truncated) stub can never parse as a healthy file with
    /// fewer stripes or less redundancy.
    pub fn render(&self) -> String {
        let mut out = match self.layout {
            Layout::Single => return render_v1(&self.parts[0].0, &self.parts[0].1),
            Layout::Striped { stripe_size } => {
                format!("{STRIPE_MAGIC}\n{stripe_size} {}\n", self.parts.len())
            }
            Layout::Mirrored => format!("{MIRROR_MAGIC}\n{}\n", self.parts.len()),
        };
        for (endpoint, path) in &self.parts {
            out.push_str(&format!("{endpoint} {path}\n"));
        }
        out
    }

    /// Parse a stub file's text, dispatching on its first line.
    ///
    /// Strict: the final newline is part of every format and a part
    /// list must match its declared count. A torn write that truncates
    /// a stub mid-line would otherwise parse "healthy" with a wrong
    /// (prefix) data path or a shorter part list — silently pointing
    /// at data that does not exist. This makes every strict prefix of
    /// a rendered stub invalid.
    pub fn parse(text: &str) -> io::Result<StubRecord> {
        if !text.ends_with('\n') {
            return Err(bad("stub truncated (missing final newline)"));
        }
        let mut lines = text.lines();
        match lines.next() {
            Some(STUB_MAGIC) => {
                let endpoint = lines
                    .next()
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| bad("stub missing endpoint"))?;
                let data_path = lines
                    .next()
                    .filter(|s| s.starts_with('/'))
                    .ok_or_else(|| bad("stub missing data path"))?;
                Ok(StubRecord {
                    layout: Layout::Single,
                    parts: vec![(endpoint.to_string(), data_path.to_string())],
                })
            }
            Some(STRIPE_MAGIC) => {
                let (stripe_size, count) = lines
                    .next()
                    .and_then(|l| l.split_once(' '))
                    .and_then(|(s, c)| Some((s.parse::<u64>().ok()?, c.parse::<usize>().ok()?)))
                    .filter(|&(s, _)| s > 0)
                    .ok_or_else(|| bad("bad stripe header"))?;
                Ok(StubRecord {
                    layout: Layout::Striped { stripe_size },
                    parts: part_list(lines, count)?,
                })
            }
            Some(MIRROR_MAGIC) => {
                let count = lines
                    .next()
                    .and_then(|l| l.parse::<usize>().ok())
                    .ok_or_else(|| bad("bad replica count"))?;
                Ok(StubRecord {
                    layout: Layout::Mirrored,
                    parts: part_list(lines, count)?,
                })
            }
            _ => Err(bad("not a TSS stub file")),
        }
    }

    /// Decode the bytes of a tree entry — the one place a stub file is
    /// classified, for the engine and for `fsck` alike. `NotFound` for
    /// a zero-length body: the signature of a create that crashed
    /// between the entry's creation and the stub write, when nothing
    /// references any data yet, so the paper's mandated answer for a
    /// dangling entry applies. `InvalidData` for anything that is not a
    /// whole stub.
    pub fn decode(body: &[u8]) -> io::Result<StubRecord> {
        if body.is_empty() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "file not found"));
        }
        let text = std::str::from_utf8(body).map_err(|_| bad("stub is not utf-8"))?;
        StubRecord::parse(text)
    }
}

/// The `endpoint path` lines shared by the stripe and mirror formats:
/// every remaining line is a part, and there are exactly `count`.
fn part_list(lines: std::str::Lines<'_>, count: usize) -> io::Result<Vec<(String, String)>> {
    let parts = lines
        .map(|line| {
            line.split_once(' ')
                .filter(|(_, path)| path.starts_with('/'))
                .map(|(endpoint, path)| (endpoint.to_string(), path.to_string()))
                .ok_or_else(|| bad("bad part line"))
        })
        .collect::<io::Result<Vec<_>>>()?;
    if parts.is_empty() || parts.len() != count {
        return Err(bad("part count mismatch"));
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_parts() -> Vec<(String, String)> {
        vec![
            ("h1:9094".into(), "/vol/a".into()),
            ("h2:9094".into(), "/vol/b".into()),
        ]
    }

    /// One record per layout with the exact bytes the parent commit's
    /// three renderers produced for it: a tree written before the
    /// engines were merged is readable after.
    fn golden() -> Vec<(StubRecord, &'static str)> {
        vec![
            (
                StubRecord {
                    layout: Layout::Single,
                    parts: vec![("host5:9094".into(), "/mydpfs/file596".into())],
                },
                "#tss-stub-v1\nhost5:9094\n/mydpfs/file596\n",
            ),
            (
                StubRecord {
                    layout: Layout::Striped { stripe_size: 65536 },
                    parts: two_parts(),
                },
                "#tss-stripe-v1\n65536 2\nh1:9094 /vol/a\nh2:9094 /vol/b\n",
            ),
            (
                StubRecord {
                    layout: Layout::Mirrored,
                    parts: two_parts(),
                },
                "#tss-mirror-v1\n2\nh1:9094 /vol/a\nh2:9094 /vol/b\n",
            ),
        ]
    }

    #[test]
    fn all_three_formats_render_to_their_golden_bytes_and_back() {
        for (record, bytes) in golden() {
            assert_eq!(record.render(), bytes);
            assert_eq!(StubRecord::parse(bytes).unwrap(), record);
        }
        let v1 = Stub {
            endpoint: "host5:9094".into(),
            data_path: "/mydpfs/file596".into(),
        };
        assert_eq!(v1.render(), golden()[0].1);
    }

    #[test]
    fn every_torn_prefix_is_invalid() {
        // A crash mid-write leaves a strict prefix of the rendered
        // stub; none may parse. In particular a 2-part layout cut after
        // its first part line must NOT parse as a healthy 1-part one.
        for (_, full) in golden() {
            for k in 0..full.len() {
                assert!(
                    StubRecord::decode(&full.as_bytes()[..k]).is_err(),
                    "torn prefix of {k} bytes of {full:?} parsed as healthy"
                );
            }
        }
    }

    #[test]
    fn rejects_non_stubs() {
        let invalid = |text: &str| {
            let e = StubRecord::parse(text).expect_err(text);
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{text:?}");
        };
        invalid("");
        invalid("hello world");
        // An unknown first line — a future format, or no stub at all.
        invalid("#tss-stub-v9\nhost:1\n/p\n");
        // Regular file contents must never parse as a stub.
        invalid("The quick brown fox\njumps over\n/the lazy dog\n");
        invalid("#tss-stub-v1\n");
        invalid("#tss-stub-v1\nhost:1\nrelative/path\n");
        invalid("#tss-stripe-v1\n0 1\nh /p\n");
        invalid("#tss-stripe-v1\n64\n");
        invalid("#tss-stripe-v1\n64 1\nnospacepath\n");
        invalid("#tss-mirror-v1\n");
        invalid("#tss-mirror-v1\nnospace\n");
        // A header of one format over the body of another.
        invalid("#tss-mirror-v1\n64 1\nh /p\n");
        invalid("#tss-stripe-v1\n1\nh /p\n");
        // The declared count must match the part list exactly.
        invalid("#tss-stripe-v1\n64 2\nh /p\n");
        invalid("#tss-stripe-v1\n64 1\nh /p\nh2 /q\n");
        invalid("#tss-mirror-v1\n2\nh /p\n");
        invalid("#tss-mirror-v1\n1\nh /p\nh2 /q\n");
        invalid("#tss-mirror-v1\n0\n");
    }

    #[test]
    fn decode_classifies_empty_and_binary_bodies() {
        assert_eq!(
            StubRecord::decode(b"").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            StubRecord::decode(&[0xff, 0xfe, b'\n']).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    proptest! {
        #[test]
        fn round_trip_any(
            host in "[a-z0-9.]{1,20}",
            port in 1u16..,
            path in "(/[a-zA-Z0-9._-]{1,12}){1,4}",
            width in 1usize..5,
            stripe_size in 1u64..,
        ) {
            let parts: Vec<(String, String)> = (0..width)
                .map(|i| (format!("{host}{i}:{port}"), format!("{path}{i}")))
                .collect();
            let single = StubRecord { layout: Layout::Single, parts: parts[..1].to_vec() };
            let striped = StubRecord { layout: Layout::Striped { stripe_size }, parts: parts.clone() };
            let mirrored = StubRecord { layout: Layout::Mirrored, parts };
            for record in [single, striped, mirrored] {
                prop_assert_eq!(StubRecord::parse(&record.render()).unwrap(), record);
            }
        }
    }
}
