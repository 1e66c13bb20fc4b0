//! The handlers serve any `FileSystem`: a server over a store whose
//! handles lend no host file answers every request with the same bytes
//! as one over the export's own `LocalFs`.
//!
//! Two `Shared`s serve one export directory. The first is the server
//! as `Shared::new` builds it, over `LocalFs`, with the page cache on:
//! its handles lend their host file, so `PREAD` goes through the cache,
//! `GETFILE` streams, `PUTFILE` writes the file's cursor and
//! `THIRDPUT` sends the file. The second is over [`NoHostFs`], which
//! delegates every call to a `LocalFs` but boxes handles that lend no
//! host file (and keeps the trait's default `open_stat`), so each of
//! those paths falls back to `pread`/`pwrite` and owned bytes.
//!
//! Every step of one script runs on the first server and then on the
//! second. Each step is idempotent (creates never exclusive, no
//! unlinks, writes of the same bytes at the same offsets), so the
//! second run meets the state the first left, inode numbers and
//! mtimes included: the two replies must match byte for byte on the
//! wire, error codes included, and the second run must leave the
//! export's files as the first left them.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::fs::{FileHandle, FileSystem};
use chirp_proto::localfs::LocalFs;
use chirp_proto::message::Request;
use chirp_proto::testutil::TempDir;
use chirp_proto::transport::Transport;
use chirp_proto::{ChirpResult, Clock, MemNet, OpenFlags, StatBuf, VirtualClock};
use chirp_server::acl::Acl;
use chirp_server::handlers::{push_thirdput, Reply, Session};
use chirp_server::server::Shared;
use chirp_server::{FileServer, ServerConfig};

/// A `LocalFs` whose handles lend no host file.
struct NoHostFs(LocalFs);

/// A `LocalFs` handle behind the trait's default `host_file`.
struct NoHostHandle(Box<dyn FileHandle>);

impl FileHandle for NoHostHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
        self.0.pread(buf, offset)
    }
    fn pwrite(&mut self, buf: &[u8], offset: u64) -> std::io::Result<usize> {
        self.0.pwrite(buf, offset)
    }
    fn fstat(&mut self) -> std::io::Result<StatBuf> {
        self.0.fstat()
    }
    fn fsync(&mut self) -> std::io::Result<()> {
        self.0.fsync()
    }
    fn ftruncate(&mut self, size: u64) -> std::io::Result<()> {
        self.0.ftruncate(size)
    }
}

impl FileSystem for NoHostFs {
    fn open(
        &self,
        path: &str,
        flags: OpenFlags,
        mode: u32,
    ) -> std::io::Result<Box<dyn FileHandle>> {
        Ok(Box::new(NoHostHandle(self.0.open(path, flags, mode)?)))
    }
    fn stat(&self, path: &str) -> std::io::Result<StatBuf> {
        self.0.stat(path)
    }
    fn unlink(&self, path: &str) -> std::io::Result<()> {
        self.0.unlink(path)
    }
    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.0.rename(from, to)
    }
    fn mkdir(&self, path: &str, mode: u32) -> std::io::Result<()> {
        self.0.mkdir(path, mode)
    }
    fn rmdir(&self, path: &str) -> std::io::Result<()> {
        self.0.rmdir(path)
    }
    fn readdir(&self, path: &str) -> std::io::Result<Vec<String>> {
        self.0.readdir(path)
    }
    fn truncate(&self, path: &str, size: u64) -> std::io::Result<()> {
        self.0.truncate(path, size)
    }
    fn set_mtime(&self, path: &str, mtime: u64) -> std::io::Result<()> {
        self.0.set_mtime(path, mtime)
    }
    fn sync_dir(&self, path: &str) -> std::io::Result<()> {
        self.0.sync_dir(path)
    }
    fn read_file(&self, path: &str) -> std::io::Result<Vec<u8>> {
        self.0.read_file(path)
    }
    fn readdir_stat(&self, path: &str) -> std::io::Result<Vec<(String, StatBuf)>> {
        self.0.readdir_stat(path)
    }
    fn write_file(&self, path: &str, data: &[u8]) -> std::io::Result<()> {
        self.0.write_file(path, data)
    }
}

/// One request of the script.
enum Step {
    /// Through `Session::handle`, with a `PWRITE`'s payload.
    Handle(Request, Option<Vec<u8>>),
    /// A streamed upload, fed in chunks as the reactor feeds it.
    Putfile(&'static str, Vec<u8>),
    /// A third-party push to the target server.
    Thirdput(&'static str, &'static str),
}

/// The reply's kind, to check which path served it.
#[derive(Debug, PartialEq)]
enum Kind {
    Stream,
    Data,
    Other,
}

/// One server under test and an authenticated session on it.
struct Side {
    shared: Arc<Shared>,
    session: Session,
}

impl Side {
    fn new(shared: Arc<Shared>) -> Side {
        let mut session = Session::new(shared.clone(), "127.0.0.1".parse().unwrap());
        let auth = Request::Auth {
            method: "hostname".into(),
            name: "localhost".into(),
            credential: String::new(),
        };
        session.handle(auth, None).unwrap();
        Side { shared, session }
    }

    /// Run one step and answer its reply as the reactor would put it
    /// on the wire.
    fn run(&mut self, step: &Step, target: &str) -> (Vec<u8>, Kind) {
        let reply = match step {
            Step::Handle(req, payload) => self.session.handle(req.clone(), payload.clone()),
            Step::Putfile(path, data) => {
                let mut upload = self.session.begin_putfile(path, 0o644, data.len() as u64);
                for chunk in data.chunks(7_000) {
                    assert_eq!(upload.feed(chunk), chunk.len());
                }
                self.session.finish_putfile(upload)
            }
            Step::Thirdput(path, target_path) => self
                .session
                .begin_thirdput(path, target, target_path)
                .and_then(|push| push_thirdput(&self.shared, push))
                .map(|n| Reply::Value(n as i64)),
        };
        wire(reply)
    }

    fn cache_hits(&self) -> u64 {
        self.shared.telemetry.registry().counter("cache.hits").get()
    }
}

/// A reply's bytes on the wire: its status line and any body.
fn wire(reply: ChirpResult<Reply>) -> (Vec<u8>, Kind) {
    let line = |status: String| format!("{status}\n").into_bytes();
    match reply {
        Ok(Reply::Value(v)) => (line(v.to_string()), Kind::Other),
        Ok(Reply::Words(v, words)) => (line(format!("{v} {words}")), Kind::Other),
        Ok(Reply::Data(data)) => ([line(data.len().to_string()), data].concat(), Kind::Data),
        Ok(Reply::FileStream(file, len)) => {
            let mut out = line(len.to_string());
            file.file().take(len).read_to_end(&mut out).unwrap();
            (out, Kind::Stream)
        }
        Ok(Reply::Pages(pages)) => {
            let mut out = line(pages.total().to_string());
            for slice in pages.slices() {
                out.extend_from_slice(slice.as_slice());
            }
            (out, Kind::Other)
        }
        Err(e) => (line(e.code().to_string()), Kind::Other),
    }
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

fn open(path: &str, flags: OpenFlags) -> Step {
    let path = path.into();
    Step::Handle(
        Request::Open {
            path,
            flags,
            mode: 0o644,
        },
        None,
    )
}

fn pread(fd: i32, length: u64, offset: u64) -> Step {
    Step::Handle(Request::Pread { fd, length, offset }, None)
}

fn pwrite(fd: i32, offset: u64, data: Vec<u8>) -> Step {
    let length = data.len() as u64;
    Step::Handle(Request::Pwrite { fd, length, offset }, Some(data))
}

fn by_path(make: fn(String) -> Request, path: &str) -> Step {
    Step::Handle(make(path.into()), None)
}

const BIG: usize = 200_000;

#[test]
fn a_server_over_handles_without_a_host_file_answers_byte_for_byte() {
    let net = MemNet::new(Clock::virtual_at(VirtualClock::new()));
    let acl = Acl::single("hostname:*", "rwlda").unwrap();
    let target_dir = TempDir::new();
    let target_cfg = ServerConfig::localhost(target_dir.path(), "owner").with_root_acl(acl.clone());
    let target = FileServer::start_on(target_cfg, Arc::new(net.listen())).unwrap();

    let dir = TempDir::new();
    let export = LocalFs::new(dir.path()).unwrap();
    export.mkdir("/d", 0o755).unwrap();
    let mut cfg = ServerConfig::localhost(dir.path(), "owner")
        .with_root_acl(acl)
        .with_cache(1 << 20);
    cfg.dialer = net.dialer();
    let mut host = Side::new(Shared::new(cfg.clone()).unwrap());
    let no_host_fs = NoHostFs(LocalFs::new(dir.path()).unwrap());
    let mut no_host = Side::new(Shared::with_fs(cfg.clone(), Arc::new(no_host_fs)).unwrap());

    let rw = OpenFlags::READ | OpenFlags::WRITE | OpenFlags::CREATE;
    let mut patched = pattern(BIG, 1);
    patched[1_000..1_005].copy_from_slice(b"patch");
    let script = [
        open("/f", rw),
        pwrite(0, 0, pattern(BIG, 1)),
        pread(0, 4_096, 0),
        pread(0, 4_096, 0),
        pread(0, 20_000, BIG as u64 - 10_000),
        pread(0, 0, 0),
        pwrite(0, 1_000, b"patch".to_vec()),
        pread(0, 4_096, 0),
        Step::Handle(Request::Fstat { fd: 0 }, None),
        open("/w", OpenFlags::WRITE | OpenFlags::CREATE),
        pread(1, 10, 0),
        pread(7, 10, 0),
        open("/missing", OpenFlags::READ),
        Step::Handle(
            Request::Utime {
                path: "/f".into(),
                mtime: 1_120_000_000,
            },
            None,
        ),
        Step::Handle(
            Request::Utime {
                path: "/missing".into(),
                mtime: 1,
            },
            None,
        ),
        by_path(|path| Request::Stat { path }, "/f"),
        by_path(|path| Request::Stat { path }, "/missing"),
        Step::Putfile("/s", pattern(100, 2)),
        Step::Putfile("/p", pattern(150_000, 3)),
        Step::Putfile("/q", pattern(128 * 1024, 4)),
        Step::Putfile("/d", pattern(10, 5)),
        by_path(|path| Request::Stat { path }, "/p"),
        by_path(|path| Request::Getfile { path }, "/s"),
        by_path(|path| Request::Getfile { path }, "/f"),
        by_path(|path| Request::Getfile { path }, "/d"),
        by_path(|path| Request::Getfile { path }, "/missing"),
        by_path(|path| Request::Checksum { path }, "/f"),
        by_path(|path| Request::Checksum { path }, "/p"),
        by_path(|path| Request::Checksum { path }, "/q"),
        by_path(|path| Request::Checksum { path }, "/missing"),
        Step::Handle(
            Request::Ftruncate {
                fd: 0,
                size: 150_000,
            },
            None,
        ),
        pread(0, 20_000, 140_000),
        Step::Thirdput("/f", "/t"),
        Step::Thirdput("/missing", "/u"),
    ];

    let endpoint = target.endpoint();
    let mut kinds = Vec::new();
    for (i, step) in script.iter().enumerate() {
        let (expected, host_kind) = host.run(step, &endpoint);
        let left = tree(&export);
        let (got, no_host_kind) = no_host.run(step, &endpoint);
        assert!(
            tree(&export) == left,
            "step {i}: the run over handles without a host file left another export"
        );
        assert!(
            expected == got,
            "step {i}: the reply over handles without a host file differs:\n  \
             host file: {:?}\n  none:      {:?}",
            String::from_utf8_lossy(&expected[..expected.len().min(120)]),
            String::from_utf8_lossy(&got[..got.len().min(120)]),
        );
        kinds.push((host_kind, no_host_kind));
    }

    // Each fallback branch was taken: the host side streamed both
    // `GETFILE`s and hit its cache, the other answered owned bytes and
    // never touched its cache.
    let streamed: Vec<_> = kinds.iter().filter(|(k, _)| *k == Kind::Stream).collect();
    assert_eq!(streamed, [&(Kind::Stream, Kind::Data); 2], "both GETFILEs");
    assert!(
        host.cache_hits() > 0,
        "the host side reads through its cache"
    );
    assert_eq!(no_host.cache_hits(), 0);
    let target_fs = LocalFs::new(target_dir.path()).unwrap();
    let pushed = target_fs.read_file("/t").unwrap();
    assert_eq!(pushed, patched[..150_000], "THIRDPUT delivers the file");

    // The host side's large `GETFILE`, through a real server on the
    // same export: the reactor sends a body longer than its read chunk
    // from the pool, and the bytes match the owned reply.
    let server = FileServer::start_on(cfg, Arc::new(net.listen())).unwrap();
    let mut t = net
        .dialer()
        .dial(&server.endpoint(), Duration::from_secs(5))
        .unwrap();
    t.write_all(b"AUTH hostname x x\nGETFILE /f\n").unwrap();
    let auth_line = read_line(t.as_mut());
    assert!(auth_line.starts_with(b"0 "), "auth: {auth_line:?}");
    let status = read_line(t.as_mut());
    let len: usize = String::from_utf8(status.clone()).unwrap().parse().unwrap();
    let mut served = [status, b"\n".to_vec()].concat();
    let start = served.len();
    served.resize(start + len, 0);
    t.read_exact(&mut served[start..]).unwrap();
    let (owned, kind) = no_host.run(&by_path(|path| Request::Getfile { path }, "/f"), "");
    assert_eq!(kind, Kind::Data);
    assert!(
        served == owned,
        "a streamed GETFILE matches the owned reply"
    );
}

/// Every file under the export's root: its path, size and bytes.
fn tree(fs: &LocalFs) -> Vec<(String, u64, Vec<u8>)> {
    let mut files = Vec::new();
    let mut dirs = vec!["/".to_string()];
    while let Some(dir) = dirs.pop() {
        for (name, st) in fs.readdir_stat(&dir).unwrap() {
            let path = chirp_proto::fs::join_path(&dir, &name);
            if st.is_dir() {
                dirs.push(path);
            } else {
                files.push((path.clone(), st.size, fs.read_file(&path).unwrap()));
            }
        }
    }
    files
}

/// One `\n`-terminated line off a raw transport, without the newline.
fn read_line(t: &mut dyn Transport) -> Vec<u8> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        t.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            return line;
        }
        line.push(byte[0]);
    }
}
