//! Spans recorded from outside the program, at the two seams it
//! already has: `tss_core::fs::FileSystem` (between adapter and
//! abstraction) and `chirp_proto::transport::Dial` (between client
//! and wire).
//!
//! The traced run drives one client on one thread, so the recorder is
//! a thread-local: a decorator finds its parent span on the stack
//! without any handle being passed through the code under test. On a
//! thread with no recorder installed every hook is a single branch.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chirp_proto::transport::{Dial, Dialer, Transport};
use chirp_proto::{OpenFlags, StatBuf};
use tss_core::fs::{FileHandle, FileSystem};

/// One timed interval. `parent` is 0 for an application call;
/// `request` numbers the application call the span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, outermost first.
    stack: Vec<usize>,
    request: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        })
    });
}

/// Stop recording on this thread and hand back what was recorded.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

fn open(name: &'static str, new_request: bool) -> bool {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let Some(rec) = guard.as_mut() else {
            return false;
        };
        if new_request {
            rec.request += 1;
        }
        let parent = rec.stack.last().map_or(0, |&i| rec.spans[i].id);
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.push(rec.spans.len());
        rec.spans.push(Span {
            id: rec.spans.len() as u32 + 1,
            parent,
            request: rec.request,
            name,
            start_ns: now,
            end_ns: now,
        });
        true
    })
}

fn close() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let i = rec.stack.pop().expect("close without open");
            rec.spans[i].end_ns = rec.epoch.elapsed().as_nanos() as u64;
        }
    });
}

/// Time `f` as a child of whatever span is open on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let recording = open(name, false);
    let out = f();
    if recording {
        close();
    }
    out
}

/// Time `f` as one application call: a root span with a fresh request
/// number.
pub fn request<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let recording = open(name, true);
    let out = f();
    if recording {
        close();
    }
    out
}

/// Record an interval that already happened (a wait whose start was
/// only known in hindsight) as a child of the open span.
fn record_past(name: &'static str, start: Instant, end: Instant) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.stack.last().map_or(0, |&i| rec.spans[i].id);
            let since = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
            rec.spans.push(Span {
                id: rec.spans.len() as u32 + 1,
                parent,
                request: rec.request,
                name,
                start_ns: since(start),
                end_ns: since(end),
            });
        }
    });
}

/// Self time per span: its duration minus the part of that interval
/// its children cover. Children are clipped to the parent and
/// overlapping children are counted once. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of = |id: u32| id as usize - 1;
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[index_of(s.parent)];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[index_of(s.parent)].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The layer a span name belongs to: the text before the first dot
/// (`app`, `fs`, `wire`).
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Spans as JSON: a name table plus one row per span, columns as in
/// the `columns` field. Written once, after the run.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = String::with_capacity(spans.len() * 40 + 256);
    let mut rows = String::with_capacity(spans.len() * 40);
    for (i, s) in spans.iter().enumerate() {
        let name = match names.iter().position(|n| *n == s.name) {
            Some(k) => k,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n[{},{},{},{},{},{}]",
            s.id, s.parent, s.request, name, s.start_ns, s.end_ns
        ));
    }
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\"names\":["
    ));
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{n}\""));
    }
    out.push_str("],\"spans\":[");
    out.push_str(&rows);
    out.push_str("\n]}\n");
    out
}

// ---- the FileSystem seam --------------------------------------------------

/// A `FileSystem` that times every call into the abstraction behind it.
pub struct TracedFs(pub Arc<dyn FileSystem>);

impl FileSystem for TracedFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> io::Result<Box<dyn FileHandle>> {
        let inner = span("fs.open", || self.0.open(path, flags, mode))?;
        Ok(Box::new(TracedHandle(Some(inner))))
    }
    fn stat(&self, path: &str) -> io::Result<StatBuf> {
        span("fs.stat", || self.0.stat(path))
    }
    fn unlink(&self, path: &str) -> io::Result<()> {
        span("fs.unlink", || self.0.unlink(path))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        span("fs.rename", || self.0.rename(from, to))
    }
    fn mkdir(&self, path: &str, mode: u32) -> io::Result<()> {
        span("fs.mkdir", || self.0.mkdir(path, mode))
    }
    fn rmdir(&self, path: &str) -> io::Result<()> {
        span("fs.rmdir", || self.0.rmdir(path))
    }
    fn readdir(&self, path: &str) -> io::Result<Vec<String>> {
        span("fs.readdir", || self.0.readdir(path))
    }
    fn truncate(&self, path: &str, size: u64) -> io::Result<()> {
        span("fs.truncate", || self.0.truncate(path, size))
    }
    fn sync_dir(&self, path: &str) -> io::Result<()> {
        span("fs.sync_dir", || self.0.sync_dir(path))
    }
    // The provided methods are forwarded too, so the abstraction's own
    // overrides (GETFILE, PUTFILE, GETDIRSTAT) run, not the defaults.
    fn read_file(&self, path: &str) -> io::Result<Vec<u8>> {
        span("fs.read_file", || self.0.read_file(path))
    }
    fn write_file(&self, path: &str, data: &[u8]) -> io::Result<()> {
        span("fs.write_file", || self.0.write_file(path, data))
    }
    fn readdir_stat(&self, path: &str) -> io::Result<Vec<(String, StatBuf)>> {
        span("fs.readdir_stat", || self.0.readdir_stat(path))
    }
}

/// Handle counterpart of [`TracedFs`]. The inner handle is dropped
/// inside a span of its own because dropping it is an RPC (`CLOSE`).
struct TracedHandle(Option<Box<dyn FileHandle>>);

impl TracedHandle {
    fn inner(&mut self) -> &mut dyn FileHandle {
        self.0.as_mut().expect("present until drop").as_mut()
    }
}

impl FileHandle for TracedHandle {
    fn pread(&mut self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        span("fs.pread", || self.inner().pread(buf, offset))
    }
    fn pwrite(&mut self, buf: &[u8], offset: u64) -> io::Result<usize> {
        span("fs.pwrite", || self.inner().pwrite(buf, offset))
    }
    fn fstat(&mut self) -> io::Result<StatBuf> {
        span("fs.fstat", || self.inner().fstat())
    }
    fn fsync(&mut self) -> io::Result<()> {
        span("fs.fsync", || self.inner().fsync())
    }
    fn ftruncate(&mut self, size: u64) -> io::Result<()> {
        span("fs.ftruncate", || self.inner().ftruncate(size))
    }
}

impl Drop for TracedHandle {
    fn drop(&mut self) {
        span("fs.close", || drop(self.0.take()));
    }
}

// ---- the Dial seam ----------------------------------------------------------

/// How many request and status lines a traced dialer keeps as codec
/// probe inputs.
const LINE_SAMPLES: usize = 512;

/// Counts taken where bytes cross between client and socket, summed
/// over every connection one [`TracedDialer`] opened.
#[derive(Debug, Default)]
pub struct WireStats {
    pub dials: AtomicU64,
    pub write_calls: AtomicU64,
    pub read_calls: AtomicU64,
    pub bytes_out: AtomicU64,
    pub bytes_in: AtomicU64,
    /// Request → first reply byte turnarounds.
    pub rpcs: AtomicU64,
    /// Summed last-byte-out → first-byte-in time of those turnarounds.
    pub wait_ns: AtomicU64,
    /// The first request lines and status lines seen (newline
    /// stripped): the workload's own codec inputs.
    pub request_lines: Mutex<Vec<String>>,
    pub status_lines: Mutex<Vec<String>>,
}

impl WireStats {
    fn sample(into: &Mutex<Vec<String>>, bytes: &[u8]) {
        let mut lines = into.lock().expect("sample list poisoned");
        if lines.len() < LINE_SAMPLES {
            let line = bytes.split(|&b| b == b'\n').next().unwrap_or(bytes);
            if let Ok(text) = std::str::from_utf8(line) {
                lines.push(text.to_string());
            }
        }
    }
}

/// A dialer that opens real connections through `inner` and wraps
/// each in a counting, span-recording transport.
pub struct TracedDialer {
    inner: Dialer,
    stats: Arc<WireStats>,
}

impl TracedDialer {
    /// The dialer to hand to `AdapterConfig`/`StubFsOptions`/`CfsConfig`
    /// and the counters it feeds.
    pub fn tcp() -> (Dialer, Arc<WireStats>) {
        let stats = Arc::new(WireStats::default());
        let dial = TracedDialer {
            inner: Dialer::tcp(),
            stats: stats.clone(),
        };
        (Dialer::from_arc(Arc::new(dial)), stats)
    }
}

impl Dial for TracedDialer {
    fn dial(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Transport>> {
        self.stats.dials.fetch_add(1, Ordering::Relaxed);
        let inner = span("wire.connect", || self.inner.dial(endpoint, timeout))?;
        Ok(Box::new(TracedTransport {
            inner,
            stats: self.stats.clone(),
            conn: Arc::new(ConnState::default()),
        }))
    }
}

/// Per-connection state shared by the reader and writer clones.
#[derive(Debug, Default)]
struct ConnState {
    /// A request has gone out and no reply byte has come back yet.
    awaiting: AtomicBool,
    /// When the last write returned.
    last_write: Mutex<Option<Instant>>,
}

#[derive(Debug)]
struct TracedTransport {
    inner: Box<dyn Transport>,
    stats: Arc<WireStats>,
    conn: Arc<ConnState>,
}

impl Read for TracedTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stats.read_calls.fetch_add(1, Ordering::Relaxed);
        if !self.conn.awaiting.load(Ordering::Relaxed) {
            // The rest of a reply whose head has already arrived.
            let n = span("wire.recv", || self.inner.read(buf))?;
            self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            return Ok(n);
        }
        let n = self.inner.read(buf)?;
        let now = Instant::now();
        if n > 0 {
            self.conn.awaiting.store(false, Ordering::Relaxed);
            let sent = self
                .conn
                .last_write
                .lock()
                .expect("write stamp poisoned")
                .unwrap_or(now);
            self.stats.rpcs.fetch_add(1, Ordering::Relaxed);
            self.stats.wait_ns.fetch_add(
                now.saturating_duration_since(sent).as_nanos() as u64,
                Ordering::Relaxed,
            );
            self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            WireStats::sample(&self.stats.status_lines, &buf[..n]);
            record_past("wire.wait", sent, now);
        }
        Ok(n)
    }
}

impl Write for TracedTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stats.write_calls.fetch_add(1, Ordering::Relaxed);
        if !self.conn.awaiting.swap(true, Ordering::Relaxed) {
            WireStats::sample(&self.stats.request_lines, buf);
        }
        let n = span("wire.send", || self.inner.write(buf))?;
        self.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
        *self.conn.last_write.lock().expect("write stamp poisoned") = Some(Instant::now());
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for TracedTransport {
    fn try_clone(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(TracedTransport {
            inner: self.inner.try_clone()?,
            stats: self.stats.clone(),
            conn: self.conn.clone(),
        }))
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn read_timeout(&self) -> io::Result<Option<Duration>> {
        self.inner.read_timeout()
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
    fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
    fn shutdown(&self) -> io::Result<()> {
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t.x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // 1 [0,100) > 2 [10,60) > 3 [20,30); 1 > 4 [70,90)
        let spans = [
            s(1, 0, 0, 100),
            s(2, 1, 10, 60),
            s(3, 2, 20, 30),
            s(4, 1, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        // Self times of a tree partition its root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        // Children [10,50) and [30,70) overlap; [90,130) sticks out.
        let spans = [
            s(1, 0, 0, 100),
            s(2, 1, 10, 50),
            s(3, 1, 30, 70),
            s(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child wholly inside another adds nothing.
        let spans = [s(1, 0, 0, 100), s(2, 1, 10, 50), s(3, 1, 20, 30)];
        assert_eq!(self_times(&spans)[0], 60);
        // A child wholly outside the parent subtracts nothing.
        let spans = [s(1, 0, 0, 100), s(2, 1, 100, 150)];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn recorder_nests_spans_and_numbers_requests() {
        start();
        request("app.a", || span("fs.a", || span("wire.send", || ())));
        request("app.b", || ());
        let spans = finish();
        let got: Vec<(u32, u32, u32, &str)> = spans
            .iter()
            .map(|s| (s.id, s.parent, s.request, s.name))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, 0, 1, "app.a"),
                (2, 1, 1, "fs.a"),
                (3, 2, 1, "wire.send"),
                (4, 0, 2, "app.b")
            ]
        );
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Nothing is recorded once the recorder is taken down.
        span("fs.late", || ());
        assert!(finish().is_empty());
    }

    #[test]
    fn trace_json_is_parseable_and_keeps_every_span() {
        let spans = [s(1, 0, 0, 100), s(2, 1, 10, 60)];
        let text = to_json("w", 3, &spans);
        let v = telemetry::json::Value::parse(&text).expect("valid json");
        assert_eq!(
            v.get("spans").and_then(|a| a.as_array()).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(layer("wire.wait"), "wire");
    }
}
