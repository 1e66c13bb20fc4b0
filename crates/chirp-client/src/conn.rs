//! The client connection: one TCP session, one subject, file data
//! interleaved on the same stream as control.
//!
//! A [`Connection`] is the typed RPC surface over one
//! [`PipelinedConn`], which owns the stream and the queue of replies
//! still owed on it. Every call here is a `send` and a `recv` on that
//! pipe with the window at one, so no reply is owed between calls.
//! [`Connection::pipeline`] opens the window wider for the length of a
//! closure and poisons the connection if the closure leaves a reply
//! unsettled.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use chirp_proto::escape::unescape;
use chirp_proto::pipeline::{PipelinedConn, ReplyShape};
use chirp_proto::transport::{Dialer, Transport};
use chirp_proto::wire::{self, StatusLine};
use chirp_proto::{ChirpError, ChirpResult, OpenFlags, Request, StatBuf, StatFs};

/// The pipeline a [`Connection`] sends and receives through.
pub type ConnPipeline = PipelinedConn<BufReader<Box<dyn Transport>>, BufWriter<Box<dyn Transport>>>;

/// An authentication method the client can offer, in the order given.
/// The first method the server accepts fixes the session subject.
#[derive(Clone)]
pub enum AuthMethod {
    /// Identify as the connecting host's name (server-resolved).
    Hostname,
    /// Filesystem challenge/response proving a shared local account
    /// namespace; claims the identity `uid<N>` of the calling process.
    Unix,
    /// Challenge–response under an arbitrary method label (`globus`,
    /// `kerberos`, ...) carrying a free-form subject name. The server
    /// issues a nonce; the client answers with an HMAC-SHA256 over the
    /// handshake transcript under a key registered with the server —
    /// the key itself never crosses the wire.
    Key {
        /// Method label, e.g. `globus`.
        method: String,
        /// Registered subject name, e.g. an X.509 DN. May be empty to
        /// accept whatever name the key is registered under.
        name: String,
        /// The secret key shared with the server's key ring.
        key: Vec<u8>,
    },
}

impl AuthMethod {
    /// Convenience constructor for key credentials.
    pub fn key(method: &str, name: &str, key: &[u8]) -> AuthMethod {
        AuthMethod::Key {
            method: method.to_string(),
            name: name.to_string(),
            key: key.to_vec(),
        }
    }
}

impl std::fmt::Debug for AuthMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthMethod::Hostname => f.write_str("Hostname"),
            AuthMethod::Unix => f.write_str("Unix"),
            AuthMethod::Key { method, name, key } => f
                .debug_struct("Key")
                .field("method", method)
                .field("name", name)
                .field("key_id", &chirp_proto::crypto::key_fingerprint(key))
                .finish(),
        }
    }
}

/// A connection to one Chirp file server.
pub struct Connection {
    /// The stream and the replies owed on it. Once it is dead the
    /// framing is unknown and every further call fails fast with
    /// `Disconnected`.
    pipe: ConnPipeline,
    addr: SocketAddr,
    subject: Option<String>,
}

impl Connection {
    /// Connect to `addr` (anything resolvable, e.g. `"127.0.0.1:9094"`)
    /// over TCP with `timeout` applied to the connect and to every
    /// subsequent read and write.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> ChirpResult<Connection> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| ChirpError::from_io(&e))?
            .next()
            .ok_or(ChirpError::InvalidRequest)?;
        Connection::connect_via(&Dialer::tcp(), &addr.to_string(), timeout)
    }

    /// Connect to `endpoint` (a `host:port` string) through `dialer`,
    /// with `timeout` applied to the dial and to every subsequent read
    /// and write. This is how every layer that can run under the
    /// simulation harness opens its connections; [`Connection::connect`]
    /// is the TCP shorthand.
    pub fn connect_via(
        dialer: &Dialer,
        endpoint: &str,
        timeout: Duration,
    ) -> ChirpResult<Connection> {
        let stream = dialer
            .dial(endpoint, timeout)
            .map_err(|e| ChirpError::from_io(&e))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| ChirpError::from_io(&e))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| ChirpError::from_io(&e))?;
        let addr = stream.peer_addr().map_err(|e| ChirpError::from_io(&e))?;
        let reader = BufReader::with_capacity(
            256 * 1024,
            stream.try_clone().map_err(|e| ChirpError::from_io(&e))?,
        );
        let writer = BufWriter::with_capacity(256 * 1024, stream);
        Ok(Connection {
            pipe: PipelinedConn::new(reader, writer, 1),
            addr,
            subject: None,
        })
    }

    /// The server address this connection is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The subject granted at authentication, if any.
    pub fn subject(&self) -> Option<&str> {
        self.subject.as_deref()
    }

    /// True once a transport failure has poisoned the connection.
    pub fn is_broken(&self) -> bool {
        self.pipe.is_dead()
    }

    // ---- plumbing -------------------------------------------------------

    /// One round trip whose answer is the status line.
    fn rpc(&mut self, req: &Request) -> ChirpResult<StatusLine> {
        self.pipe.send(req, None, ReplyShape::Status)?;
        Ok(self.pipe.recv()?.into_status())
    }

    /// One round trip whose answer is the body behind the status line.
    fn rpc_body(&mut self, req: &Request) -> ChirpResult<Vec<u8>> {
        self.pipe.send(req, None, ReplyShape::Body)?;
        Ok(self.pipe.recv()?.into_body())
    }

    fn decode_word(words: &[String], idx: usize) -> ChirpResult<String> {
        let raw = words.get(idx).ok_or(ChirpError::InvalidRequest)?;
        let bytes = unescape(raw).ok_or(ChirpError::InvalidRequest)?;
        String::from_utf8(bytes).map_err(|_| ChirpError::InvalidRequest)
    }

    /// Run `f` with the window opened to `depth` requests in flight.
    /// The pipeline's FIFO reply matching and failure classification
    /// are documented on [`chirp_proto::pipeline`]; a pipeline that
    /// dies on a transport failure, or that `f` leaves with replies
    /// unsettled, poisons the connection exactly as a plain RPC
    /// failure would.
    pub fn pipeline<T>(
        &mut self,
        depth: usize,
        f: impl FnOnce(&mut ConnPipeline) -> ChirpResult<T>,
    ) -> ChirpResult<T> {
        if self.pipe.is_dead() {
            return Err(ChirpError::Disconnected);
        }
        self.pipe.set_depth(depth);
        let out = f(&mut self.pipe);
        self.pipe.set_depth(1);
        if self.pipe.in_flight() > 0 {
            // Nobody is left to settle them.
            self.pipe.poison();
        }
        out
    }

    // ---- authentication -------------------------------------------------

    /// Try each method in order; the first success fixes the subject.
    pub fn authenticate(&mut self, methods: &[AuthMethod]) -> ChirpResult<String> {
        let mut last = ChirpError::AuthFailed;
        for m in methods {
            match self.try_method(m) {
                Ok(subject) => return Ok(subject),
                Err(e) if e.is_retryable() || e == ChirpError::Disconnected => return Err(e),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn try_method(&mut self, method: &AuthMethod) -> ChirpResult<String> {
        match method {
            AuthMethod::Hostname => self.auth_round("hostname", "", ""),
            AuthMethod::Key { method, name, key } => self.auth_key(method, name, key),
            AuthMethod::Unix => self.auth_unix(),
        }
    }

    fn auth_round(&mut self, method: &str, name: &str, credential: &str) -> ChirpResult<String> {
        let st = self.rpc(&Request::Auth {
            method: method.to_string(),
            name: name.to_string(),
            credential: credential.to_string(),
        })?;
        match st.value {
            0 => {
                let subject = Self::decode_word(&st.words, 0)?;
                self.subject = Some(subject.clone());
                Ok(subject)
            }
            _ => Err(ChirpError::AuthFailed),
        }
    }

    /// A key method: request a nonce challenge, MAC the handshake
    /// transcript under the key, present `<key_id>:<hex_mac>` back.
    /// The key never leaves the process.
    fn auth_key(&mut self, method: &str, name: &str, key: &[u8]) -> ChirpResult<String> {
        use chirp_proto::crypto::{auth_mac, key_fingerprint};
        let st = self.rpc(&Request::Auth {
            method: method.to_string(),
            name: name.to_string(),
            credential: String::new(),
        })?;
        if st.value != 1 {
            return Err(ChirpError::AuthFailed);
        }
        let nonce = Self::decode_word(&st.words, 0)?;
        let key_id = key_fingerprint(key);
        let mac = auth_mac(key, method, name, &key_id, &nonce);
        self.auth_round(method, name, &format!("{key_id}:{mac}"))
    }

    /// The `unix` method: request a challenge path, create the file,
    /// present the path back as the credential.
    fn auth_unix(&mut self) -> ChirpResult<String> {
        let name = format!("uid{}", current_uid()?);
        let st = self.rpc(&Request::Auth {
            method: "unix".to_string(),
            name: name.clone(),
            credential: String::new(),
        })?;
        if st.value != 1 {
            return Err(ChirpError::AuthFailed);
        }
        let challenge = Self::decode_word(&st.words, 0)?;
        std::fs::write(&challenge, b"").map_err(|_| ChirpError::AuthFailed)?;
        self.auth_round("unix", &name, &challenge)
    }

    // ---- the RPC surface --------------------------------------------------

    /// Ask the server which subject this session carries.
    pub fn whoami(&mut self) -> ChirpResult<String> {
        let st = self.rpc(&Request::Whoami)?;
        Self::decode_word(&st.words, 0)
    }

    /// Open a file: the descriptor, valid until `close` or
    /// disconnection, and the opened file's attributes (the server
    /// answers `OPEN` with `FSTAT`'s words, in the same round trip).
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> ChirpResult<(i32, StatBuf)> {
        let st = self.rpc(&Request::Open {
            path: path.to_string(),
            flags,
            mode,
        })?;
        let words: Vec<&str> = st.words.iter().map(String::as_str).collect();
        Ok((st.value as i32, StatBuf::from_words(&words)?))
    }

    /// Close a descriptor.
    pub fn close(&mut self, fd: i32) -> ChirpResult<()> {
        self.rpc(&Request::Close { fd })?;
        Ok(())
    }

    /// Close a descriptor without waiting for the verdict: the `CLOSE`
    /// leaves in the same write as the next request on this stream,
    /// and its status line is read and dropped ahead of that
    /// request's reply (see [`ReplyShape::Unclaimed`]).
    pub fn close_later(&mut self, fd: i32) -> ChirpResult<()> {
        self.pipe
            .send(&Request::Close { fd }, None, ReplyShape::Unclaimed)
    }

    /// Positional read of up to `length` bytes at `offset`. Short
    /// reads happen only at end of file.
    pub fn pread(&mut self, fd: i32, length: u64, offset: u64) -> ChirpResult<Vec<u8>> {
        self.rpc_body(&Request::Pread { fd, length, offset })
    }

    /// Positional read directly into `buf`, avoiding the per-call
    /// allocation of [`Connection::pread`]. Returns the bytes read;
    /// short only at end of file. A server that answers with more than
    /// was asked for poisons the connection.
    pub fn pread_into(&mut self, fd: i32, buf: &mut [u8], offset: u64) -> ChirpResult<usize> {
        let length = buf.len() as u64;
        let req = Request::Pread { fd, length, offset };
        self.pipe.send(&req, None, ReplyShape::Body)?;
        self.pipe.recv_into(buf)
    }

    /// Positional write of the whole buffer at `offset`; the request
    /// line and the data leave in one flush.
    pub fn pwrite(&mut self, fd: i32, data: &[u8], offset: u64) -> ChirpResult<u64> {
        let req = Request::Pwrite {
            fd,
            length: data.len() as u64,
            offset,
        };
        self.pipe.send(&req, Some(data), ReplyShape::Status)?;
        Ok(self.pipe.recv()?.status().value as u64)
    }

    /// `fstat` an open descriptor.
    pub fn fstat(&mut self, fd: i32) -> ChirpResult<StatBuf> {
        let st = self.rpc(&Request::Fstat { fd })?;
        let words: Vec<&str> = st.words.iter().map(String::as_str).collect();
        StatBuf::from_words(&words)
    }

    /// Flush a descriptor to stable storage.
    pub fn fsync(&mut self, fd: i32) -> ChirpResult<()> {
        self.rpc(&Request::Fsync { fd })?;
        Ok(())
    }

    /// Truncate an open descriptor.
    pub fn ftruncate(&mut self, fd: i32, size: u64) -> ChirpResult<()> {
        self.rpc(&Request::Ftruncate { fd, size })?;
        Ok(())
    }

    /// `stat` by path.
    pub fn stat(&mut self, path: &str) -> ChirpResult<StatBuf> {
        let st = self.rpc(&Request::Stat {
            path: path.to_string(),
        })?;
        let words: Vec<&str> = st.words.iter().map(String::as_str).collect();
        StatBuf::from_words(&words)
    }

    /// Remove a file.
    pub fn unlink(&mut self, path: &str) -> ChirpResult<()> {
        self.rpc(&Request::Unlink {
            path: path.to_string(),
        })?;
        Ok(())
    }

    /// Atomic rename within the server.
    pub fn rename(&mut self, from: &str, to: &str) -> ChirpResult<()> {
        self.rpc(&Request::Rename {
            from: from.to_string(),
            to: to.to_string(),
        })?;
        Ok(())
    }

    /// Create a directory (ordinary or reserve-right semantics,
    /// decided by the server from the caller's ACL rights).
    pub fn mkdir(&mut self, path: &str, mode: u32) -> ChirpResult<()> {
        self.rpc(&Request::Mkdir {
            path: path.to_string(),
            mode,
        })?;
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, path: &str) -> ChirpResult<()> {
        self.rpc(&Request::Rmdir {
            path: path.to_string(),
        })?;
        Ok(())
    }

    /// List a directory.
    pub fn getdir(&mut self, path: &str) -> ChirpResult<Vec<String>> {
        let body = self.rpc_body(&Request::Getdir {
            path: path.to_string(),
        })?;
        let text = String::from_utf8(body).map_err(|_| ChirpError::InvalidRequest)?;
        text.split('\n')
            .filter(|s| !s.is_empty())
            .map(|w| {
                let bytes = unescape(w).ok_or(ChirpError::InvalidRequest)?;
                String::from_utf8(bytes).map_err(|_| ChirpError::InvalidRequest)
            })
            .collect()
    }

    /// List a directory with attributes in one round trip.
    pub fn getlongdir(&mut self, path: &str) -> ChirpResult<Vec<(String, StatBuf)>> {
        let body = self.rpc_body(&Request::Getlongdir {
            path: path.to_string(),
        })?;
        Self::decode_dirstat_body(body)
    }

    /// The batched directory listing of the pipelined data path:
    /// every entry comes back *with* its attributes in one exchange,
    /// so a listing never costs a `STAT` round trip per entry
    /// (the NFS `LOOKUP`-per-component latency shape).
    pub fn getdir_stat(&mut self, path: &str) -> ChirpResult<Vec<(String, StatBuf)>> {
        let body = self.rpc_body(&Request::GetdirStat {
            path: path.to_string(),
        })?;
        Self::decode_dirstat_body(body)
    }

    /// Decode a `name statwords` per-line listing body.
    fn decode_dirstat_body(body: Vec<u8>) -> ChirpResult<Vec<(String, StatBuf)>> {
        let text = String::from_utf8(body).map_err(|_| ChirpError::InvalidRequest)?;
        text.split('\n')
            .filter(|s| !s.is_empty())
            .map(|line| {
                let mut words = line.split(' ');
                let raw = words.next().ok_or(ChirpError::InvalidRequest)?;
                let name = unescape(raw)
                    .and_then(|b| String::from_utf8(b).ok())
                    .ok_or(ChirpError::InvalidRequest)?;
                let rest: Vec<&str> = words.collect();
                Ok((name, StatBuf::from_words(&rest)?))
            })
            .collect()
    }

    /// `stat` a batch of paths in one exchange. The reply carries one
    /// verdict per path, in order: a missing or forbidden path yields
    /// its own error without failing the batch — the recursive-stub
    /// hot path resolves a whole directory of stubs in one round trip.
    pub fn stat_multi(&mut self, paths: &[String]) -> ChirpResult<Vec<ChirpResult<StatBuf>>> {
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let body = self.rpc_body(&Request::StatMulti {
            paths: paths.to_vec(),
        })?;
        let text = String::from_utf8(body).map_err(|_| ChirpError::InvalidRequest)?;
        let verdicts: Vec<ChirpResult<StatBuf>> = text
            .split('\n')
            .filter(|s| !s.is_empty())
            .map(|line| {
                let st = wire::parse_status(line)?;
                let words: Vec<&str> = st.words.iter().map(String::as_str).collect();
                StatBuf::from_words(&words)
            })
            .collect();
        if verdicts.len() != paths.len() {
            // The batch must be total: one verdict per path.
            self.pipe.poison();
            return Err(ChirpError::InvalidRequest);
        }
        Ok(verdicts)
    }

    /// Stream an entire file into `out`; returns the byte count.
    pub fn getfile_to<W: Write>(&mut self, path: &str, out: &mut W) -> ChirpResult<u64> {
        let req = Request::Getfile {
            path: path.to_string(),
        };
        self.pipe.send(&req, None, ReplyShape::Body)?;
        self.pipe.recv_to(out)
    }

    /// Fetch an entire file into memory.
    pub fn getfile(&mut self, path: &str) -> ChirpResult<Vec<u8>> {
        let mut out = Vec::new();
        self.getfile_to(path, &mut out)?;
        Ok(out)
    }

    /// Store the whole of `file`, freshly opened, as a new file at
    /// `path`; returns the byte count. The body leaves through
    /// [`Transport::send_file`], which on TCP is sendfile(2).
    pub fn putfile_file(&mut self, path: &str, mode: u32, file: &File) -> ChirpResult<u64> {
        let length = file.metadata().map_err(|e| ChirpError::from_io(&e))?.len();
        let req = Request::Putfile {
            path: path.to_string(),
            mode,
            length,
        };
        self.pipe.send_with(&req, ReplyShape::Status, |w| {
            w.flush()?;
            w.get_mut().send_file(file, length)
        })?;
        self.pipe.recv()?;
        Ok(length)
    }

    /// Store an in-memory buffer as a file.
    pub fn putfile(&mut self, path: &str, mode: u32, data: &[u8]) -> ChirpResult<()> {
        let req = Request::Putfile {
            path: path.to_string(),
            mode,
            length: data.len() as u64,
        };
        self.pipe.send_with(&req, ReplyShape::Status, |w| {
            wire::copy_exact(&mut &data[..], w, req.payload_len())
        })?;
        self.pipe.recv()?;
        Ok(())
    }

    /// Fetch a directory's ACL as text.
    pub fn getacl(&mut self, path: &str) -> ChirpResult<String> {
        let body = self.rpc_body(&Request::Getacl {
            path: path.to_string(),
        })?;
        String::from_utf8(body).map_err(|_| ChirpError::InvalidRequest)
    }

    /// Add/replace/remove one subject's entry in a directory ACL.
    pub fn setacl(&mut self, path: &str, subject: &str, rights: &str) -> ChirpResult<()> {
        self.rpc(&Request::Setacl {
            path: path.to_string(),
            subject: subject.to_string(),
            rights: rights.to_string(),
        })?;
        Ok(())
    }

    /// Server-side CRC-64 of a file.
    pub fn checksum(&mut self, path: &str) -> ChirpResult<u64> {
        let st = self.rpc(&Request::Checksum {
            path: path.to_string(),
        })?;
        let word = st.words.first().ok_or(ChirpError::InvalidRequest)?;
        u64::from_str_radix(word, 16).map_err(|_| ChirpError::InvalidRequest)
    }

    /// Storage totals for the server.
    pub fn statfs(&mut self) -> ChirpResult<StatFs> {
        let st = self.rpc(&Request::Statfs)?;
        let words: Vec<&str> = st.words.iter().map(String::as_str).collect();
        StatFs::from_words(&words)
    }

    /// Truncate by path.
    pub fn truncate(&mut self, path: &str, size: u64) -> ChirpResult<()> {
        self.rpc(&Request::Truncate {
            path: path.to_string(),
            size,
        })?;
        Ok(())
    }

    /// Set a file's modification time.
    pub fn utime(&mut self, path: &str, mtime: u64) -> ChirpResult<()> {
        self.rpc(&Request::Utime {
            path: path.to_string(),
            mtime,
        })?;
        Ok(())
    }

    /// Direct a third-party transfer: the server pushes `path` to
    /// `target_path` on the server at `target`, and the data never
    /// crosses this connection. Returns the bytes moved.
    pub fn thirdput(&mut self, path: &str, target: &str, target_path: &str) -> ChirpResult<u64> {
        let st = self.rpc(&Request::Thirdput {
            path: path.to_string(),
            target: target.to_string(),
            target_path: target_path.to_string(),
        })?;
        Ok(st.value as u64)
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("addr", &self.addr)
            .field("subject", &self.subject)
            .field("pipe", &self.pipe)
            .finish()
    }
}

/// The calling process's uid, observed through file ownership so no
/// libc binding is needed.
fn current_uid() -> ChirpResult<u32> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        let meta = std::fs::metadata("/proc/self").or_else(|_| {
            let p = std::env::temp_dir().join(format!("chirp-uid-probe-{}", std::process::id()));
            std::fs::write(&p, b"")?;
            let m = std::fs::metadata(&p);
            let _ = std::fs::remove_file(&p);
            m
        });
        meta.map(|m| m.uid()).map_err(|e| ChirpError::from_io(&e))
    }
    #[cfg(not(unix))]
    {
        Ok(0)
    }
}
