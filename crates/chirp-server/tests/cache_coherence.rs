//! Cache coherence at the handler layer.
//!
//! Two sessions over one `Shared` are two connections to the same
//! server: pages cached for one descriptor must be invalidated or
//! patched by writes, truncates, unlinks, and renames issued through
//! *any* descriptor or path. Each scenario uses a deliberately tiny
//! cache so the hit, miss, and eviction paths are all crossed, and
//! every read is checked against what the filesystem itself says.

#![allow(
    clippy::disallowed_methods,
    reason = "a test lays out and inspects the export on the host, as its owner would"
)]

use std::io::Read;
use std::net::IpAddr;
use std::sync::Arc;

use chirp_proto::message::Request;
use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use chirp_server::acl::Acl;
use chirp_server::handlers::{Reply, Session};
use chirp_server::server::Shared;
use chirp_server::ServerConfig;

const PAGE: u64 = 8192;

fn rig(root: &std::path::Path, cache_bytes: u64) -> Arc<Shared> {
    let cfg = ServerConfig::localhost(root, "owner")
        .with_root_acl(Acl::single("hostname:*", "rwlda").unwrap())
        .with_cache(cache_bytes);
    Shared::new(cfg).unwrap()
}

fn session(shared: &Arc<Shared>) -> Session {
    let ip: IpAddr = "127.0.0.1".parse().unwrap();
    let mut s = Session::new(shared.clone(), ip);
    s.handle(
        Request::Auth {
            method: "hostname".into(),
            name: "localhost".into(),
            credential: String::new(),
        },
        None,
    )
    .expect("hostname auth");
    s
}

fn open(s: &mut Session, path: &str, flags: OpenFlags) -> i32 {
    match s.handle(
        Request::Open {
            path: path.into(),
            flags,
            mode: 0o644,
        },
        None,
    ) {
        Ok(Reply::Words(fd, _)) => fd as i32,
        other => panic!("open {path}: {other:?}"),
    }
}

fn rw() -> OpenFlags {
    OpenFlags::read_write() | OpenFlags::CREATE
}

fn pwrite(s: &mut Session, fd: i32, data: &[u8], offset: u64) {
    let r = s.handle(
        Request::Pwrite {
            fd,
            length: data.len() as u64,
            offset,
        },
        Some(data.to_vec()),
    );
    match r {
        Ok(Reply::Value(n)) => assert_eq!(n as usize, data.len()),
        other => panic!("pwrite: {other:?}"),
    }
}

fn pread(s: &mut Session, fd: i32, length: u64, offset: u64) -> Vec<u8> {
    match s.handle(Request::Pread { fd, length, offset }, None) {
        Ok(Reply::Pages(p)) => {
            let mut out = Vec::with_capacity(p.total());
            for sl in p.slices() {
                out.extend_from_slice(sl.as_slice());
            }
            assert_eq!(out.len(), p.total(), "PageReply total mismatch");
            out
        }
        Ok(Reply::Scratch(n)) => s.scratch()[..n].to_vec(),
        other => panic!("pread: {other:?}"),
    }
}

/// A write through one descriptor is immediately visible to a read
/// through another, even when the reader had already cached the page.
#[test]
fn write_through_one_fd_is_visible_through_another() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 64 * 1024);
    let mut a = session(&shared);
    let mut b = session(&shared);

    let fa = open(&mut a, "/f", rw());
    pwrite(&mut a, fa, &[1u8; 3 * PAGE as usize], 0);
    let fb = open(&mut b, "/f", rw());
    // b populates its view of page 1.
    assert_eq!(pread(&mut b, fb, PAGE, PAGE), vec![1u8; PAGE as usize]);
    // a overwrites the middle of that page.
    pwrite(&mut a, fa, b"TACTICAL", PAGE + 100);
    let seen = pread(&mut b, fb, 8, PAGE + 100);
    assert_eq!(
        &seen, b"TACTICAL",
        "cached page must be patched by the write"
    );
    // And the whole file still matches the disk byte for byte.
    let disk = std::fs::read(dir.path().join("f")).unwrap();
    assert_eq!(pread(&mut b, fb, 3 * PAGE, 0), disk);
}

/// Truncate down then extend: the page that straddled the truncation
/// point gets reused, and the re-grown region must read as zeros, not
/// as the stale bytes the cache held before the truncate.
#[test]
fn truncate_then_extend_reuses_the_cached_page_with_zeros() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 64 * 1024);
    let mut s = session(&shared);

    let fd = open(&mut s, "/t", rw());
    pwrite(&mut s, fd, &[0xAA; 2 * PAGE as usize], 0);
    // Cache both pages.
    assert_eq!(
        pread(&mut s, fd, 2 * PAGE, 0),
        vec![0xAA; 2 * PAGE as usize]
    );
    // Truncate into the middle of page 0, then extend past it again.
    s.handle(Request::Ftruncate { fd, size: 1000 }, None)
        .unwrap();
    s.handle(
        Request::Ftruncate {
            fd,
            size: PAGE + 500,
        },
        None,
    )
    .unwrap();
    let mut expect = vec![0u8; PAGE as usize + 500];
    expect[..1000].fill(0xAA);
    assert_eq!(
        pread(&mut s, fd, 2 * PAGE, 0),
        expect,
        "re-grown region must be zeros, not resurrected cache bytes"
    );
    assert_eq!(expect, std::fs::read(dir.path().join("t")).unwrap());
}

/// Unlink while a descriptor is open: the survivor keeps reading the
/// doomed file's true content, and a new file that may reuse the inode
/// number must never see the old file's pages.
#[test]
fn unlink_while_open_keeps_content_and_poisons_nothing() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 64 * 1024);
    let mut s = session(&shared);

    let fd = open(&mut s, "/doomed", rw());
    pwrite(&mut s, fd, &[7u8; PAGE as usize], 0);
    assert_eq!(pread(&mut s, fd, PAGE, 0), vec![7u8; PAGE as usize]);
    s.handle(
        Request::Unlink {
            path: "/doomed".into(),
        },
        None,
    )
    .unwrap();
    // The survivor still reads its (now unlinked) bytes.
    assert_eq!(pread(&mut s, fd, PAGE, 0), vec![7u8; PAGE as usize]);
    // A fresh file — quite likely recycling the freed inode number —
    // must read its own bytes, not the doomed file's cached pages.
    let fd2 = open(&mut s, "/fresh", rw());
    pwrite(&mut s, fd2, &[9u8; 512], 0);
    assert_eq!(pread(&mut s, fd2, 512, 0), vec![9u8; 512]);
    assert_eq!(pread(&mut s, fd2, PAGE, 0), vec![9u8; 512]);
    // Writes through the doomed fd stay correct too (no repopulation
    // that could collide with the recycled inode).
    pwrite(&mut s, fd, b"last words", PAGE);
    let mut expect = vec![7u8; PAGE as usize];
    expect.extend_from_slice(b"last words");
    assert_eq!(pread(&mut s, fd, 2 * PAGE, 0), expect);
}

/// A partial last page that grows across the page boundary: the gap
/// between the old EOF and the page edge must read as zeros (sparse
/// extension), and the spilled bytes land on the next page.
#[test]
fn partial_last_page_grows_across_the_boundary() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 64 * 1024);
    let mut s = session(&shared);

    let fd = open(&mut s, "/grow", rw());
    pwrite(&mut s, fd, &[3u8; 1000], 0);
    assert_eq!(pread(&mut s, fd, PAGE, 0), vec![3u8; 1000]);
    // Sparse write far past the page boundary.
    pwrite(&mut s, fd, &[4u8; 100], PAGE + 50);
    let mut expect = vec![0u8; (PAGE + 150) as usize];
    expect[..1000].fill(3);
    expect[(PAGE + 50) as usize..].fill(4);
    assert_eq!(pread(&mut s, fd, 2 * PAGE, 0), expect);
    assert_eq!(expect, std::fs::read(dir.path().join("grow")).unwrap());
}

/// Renaming over a cached file invalidates the clobbered pages: reads
/// of the path afterwards see the renamed file's bytes.
#[test]
fn rename_clobber_invalidates_the_victim() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 64 * 1024);
    let mut s = session(&shared);

    let fv = open(&mut s, "/victim", rw());
    pwrite(&mut s, fv, &[1u8; 2000], 0);
    assert_eq!(pread(&mut s, fv, 2000, 0), vec![1u8; 2000]);
    let fr = open(&mut s, "/replacement", rw());
    pwrite(&mut s, fr, &[2u8; 500], 0);
    s.handle(
        Request::Rename {
            from: "/replacement".into(),
            to: "/victim".into(),
        },
        None,
    )
    .unwrap();
    // A fresh open of the path reads the replacement's bytes.
    let f2 = open(&mut s, "/victim", OpenFlags::READ);
    assert_eq!(pread(&mut s, f2, PAGE, 0), vec![2u8; 500]);
    // The surviving descriptor on the clobbered inode still reads the
    // unlinked original.
    assert_eq!(pread(&mut s, fv, 2000, 0), vec![1u8; 2000]);
}

/// GETFILE always streams from disk, a fully-resident file too, and
/// the bytes are the ones written through the cache.
#[test]
fn getfile_from_cache_matches_the_disk() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 64 * 1024);
    let mut s = session(&shared);

    let fd = open(&mut s, "/g", rw());
    let body: Vec<u8> = (0..(PAGE + 777) as usize)
        .map(|i| (i % 251) as u8)
        .collect();
    pwrite(&mut s, fd, &body, 0);
    // Make the file fully resident.
    assert_eq!(pread(&mut s, fd, 2 * PAGE, 0), body);
    match s
        .handle(Request::Getfile { path: "/g".into() }, None)
        .unwrap()
    {
        Reply::FileStream(file, len) => {
            let mut out = Vec::new();
            file.take(len).read_to_end(&mut out).unwrap();
            assert_eq!(out, body, "GETFILE must serve exact bytes");
        }
        other => panic!("expected a stream from disk, got {other:?}"),
    }
}

/// Randomized mirror test against a plain `Vec<u8>` with a pathological
/// two-page cache: constant eviction, every page contended, every
/// operation still byte-exact.
#[test]
fn randomized_ops_mirror_a_flat_buffer() {
    let dir = TempDir::new();
    let shared = rig(dir.path(), 2 * PAGE); // two pages, one shard
    let mut s = session(&shared);
    let fd = open(&mut s, "/m", rw());

    const MAX: usize = 10 * PAGE as usize;
    let mut mirror: Vec<u8> = Vec::new();
    let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    for round in 0..2_000u32 {
        match next(10) {
            0..=3 => {
                let off = next(MAX as u64 / 2);
                let len = 1 + next(3 * PAGE) as usize;
                let len = len.min(MAX - off as usize);
                let fill = (round % 255 + 1) as u8;
                pwrite(&mut s, fd, &vec![fill; len], off);
                let end = off as usize + len;
                if mirror.len() < end {
                    mirror.resize(end, 0);
                }
                mirror[off as usize..end].fill(fill);
            }
            4..=8 => {
                let off = next(MAX as u64);
                let len = next(3 * PAGE) + 1;
                let got = pread(&mut s, fd, len, off);
                let start = (off as usize).min(mirror.len());
                let end = (off as usize + len as usize).min(mirror.len());
                assert_eq!(
                    got,
                    &mirror[start..end],
                    "round {round}: pread({len}@{off}) diverged"
                );
            }
            _ => {
                let size = next(MAX as u64);
                s.handle(Request::Ftruncate { fd, size }, None).unwrap();
                mirror.resize(size as usize, 0);
            }
        }
    }
    assert_eq!(mirror, std::fs::read(dir.path().join("m")).unwrap());
}
