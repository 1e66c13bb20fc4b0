//! The GEMS database server and client.
//!
//! A small record store over TCP: insert/replace, fetch, delete, list,
//! and attribute queries with wildcard patterns. Records are persisted
//! as one snapshot file per record under a spool directory, so a
//! restarted database recovers its index — and, as §5 notes, even a
//! lost database can be rebuilt by rescanning the file servers, since
//! every replica lives in a distinguishable directory.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chirp_proto::escape::{escape, unescape};
use chirp_proto::wire;
use chirp_proto::{wildcard_match, ChirpError};
use parking_lot::RwLock;

use crate::record::FileRecord;

struct Store {
    records: RwLock<BTreeMap<String, FileRecord>>,
    spool: Option<PathBuf>,
}

impl Store {
    fn load(spool: Option<PathBuf>) -> std::io::Result<Store> {
        let mut records = BTreeMap::new();
        if let Some(dir) = &spool {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if let Ok(text) = std::fs::read_to_string(entry.path()) {
                    if let Some(rec) = FileRecord::parse(&text) {
                        records.insert(rec.name.clone(), rec);
                    }
                }
            }
        }
        Ok(Store {
            records: RwLock::new(records),
            spool,
        })
    }

    fn spool_path(&self, name: &str) -> Option<PathBuf> {
        self.spool
            .as_ref()
            .map(|d| d.join(format!("{:016x}.rec", chirp_proto::crc64(name.as_bytes()))))
    }

    fn put(&self, rec: FileRecord) -> std::io::Result<()> {
        if let Some(p) = self.spool_path(&rec.name) {
            std::fs::write(p, rec.render())?;
        }
        self.records.write().insert(rec.name.clone(), rec);
        Ok(())
    }

    fn delete(&self, name: &str) -> bool {
        if let Some(p) = self.spool_path(name) {
            let _ = std::fs::remove_file(p);
        }
        self.records.write().remove(name).is_some()
    }
}

/// A running GEMS database server.
pub struct DbServer {
    store: Arc<Store>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl DbServer {
    /// Start an in-memory database on a loopback ephemeral port.
    pub fn start_ephemeral() -> std::io::Result<DbServer> {
        DbServer::start("127.0.0.1:0".parse().expect("literal"), None)
    }

    /// Start a database, optionally persisting records under `spool`.
    pub fn start(bind: SocketAddr, spool: Option<PathBuf>) -> std::io::Result<DbServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(Store::load(spool)?);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (st, sh) = (store.clone(), shutdown.clone());
        let accept = std::thread::Builder::new()
            .name("gems-db".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if sh.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let st = st.clone();
                    let _ = std::thread::Builder::new()
                        .name("gems-db-conn".into())
                        .spawn(move || {
                            let _ = serve(stream, &st);
                        });
                }
            })?;
        Ok(DbServer {
            store,
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.store.records.read().len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stop the service.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DbServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(stream: TcpStream, store: &Store) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let Some(line) = wire::read_line(&mut reader)? else {
            return Ok(());
        };
        let words: Vec<&str> = line.split(' ').filter(|w| !w.is_empty()).collect();
        match words.as_slice() {
            ["PUT", len] => {
                let Ok(len) = len.parse::<u64>() else {
                    wire::write_error(&mut writer, ChirpError::InvalidRequest)?;
                    writer.flush()?;
                    continue;
                };
                let body = match wire::read_payload(&mut reader, len) {
                    Ok(b) => b,
                    Err(e) => {
                        wire::write_error(&mut writer, e)?;
                        writer.flush()?;
                        return Ok(());
                    }
                };
                let parsed = std::str::from_utf8(&body).ok().and_then(FileRecord::parse);
                match parsed {
                    Some(rec) => {
                        store.put(rec)?;
                        wire::write_status(&mut writer, 0)?;
                    }
                    None => wire::write_error(&mut writer, ChirpError::InvalidRequest)?,
                }
            }
            ["GET", name] => {
                let name = unescape(name)
                    .and_then(|b| String::from_utf8(b).ok())
                    .unwrap_or_default();
                match store.records.read().get(&name) {
                    Some(rec) => {
                        let body = rec.render();
                        wire::write_status(&mut writer, body.len() as i64)?;
                        writer.write_all(body.as_bytes())?;
                    }
                    None => wire::write_error(&mut writer, ChirpError::NotFound)?,
                }
            }
            ["DEL", name] => {
                let name = unescape(name)
                    .and_then(|b| String::from_utf8(b).ok())
                    .unwrap_or_default();
                if store.delete(&name) {
                    wire::write_status(&mut writer, 0)?;
                } else {
                    wire::write_error(&mut writer, ChirpError::NotFound)?;
                }
            }
            ["LIST"] => {
                let names: Vec<String> = store
                    .records
                    .read()
                    .keys()
                    .map(|n| escape(n.as_bytes()))
                    .collect();
                let body = names.join("\n");
                wire::write_status(&mut writer, body.len() as i64)?;
                writer.write_all(body.as_bytes())?;
            }
            ["QUERYALL", len] => {
                // Conjunctive query: the payload carries one
                // `key pattern` pair per line; a record matches when
                // every constraint matches.
                let Ok(len) = len.parse::<u64>() else {
                    wire::write_error(&mut writer, ChirpError::InvalidRequest)?;
                    writer.flush()?;
                    continue;
                };
                let body = match wire::read_payload(&mut reader, len) {
                    Ok(b) => b,
                    Err(e) => {
                        wire::write_error(&mut writer, e)?;
                        writer.flush()?;
                        return Ok(());
                    }
                };
                let text = String::from_utf8_lossy(&body);
                let mut constraints: Vec<(String, String)> = Vec::new();
                let mut malformed = false;
                for line in text.lines() {
                    let mut w = line.split(' ');
                    let (Some(k), Some(p)) = (w.next(), w.next()) else {
                        malformed = true;
                        break;
                    };
                    let k = unescape(k).and_then(|b| String::from_utf8(b).ok());
                    let p = unescape(p).and_then(|b| String::from_utf8(b).ok());
                    match (k, p) {
                        (Some(k), Some(p)) => constraints.push((k, p)),
                        _ => {
                            malformed = true;
                            break;
                        }
                    }
                }
                if malformed {
                    wire::write_error(&mut writer, ChirpError::InvalidRequest)?;
                    writer.flush()?;
                    continue;
                }
                let names: Vec<String> = store
                    .records
                    .read()
                    .values()
                    .filter(|r| {
                        constraints.iter().all(|(k, p)| match k.as_str() {
                            "name" => wildcard_match(p, &r.name),
                            k => r.attrs.get(k).is_some_and(|v| wildcard_match(p, v)),
                        })
                    })
                    .map(|r| escape(r.name.as_bytes()))
                    .collect();
                let body = names.join("\n");
                wire::write_status(&mut writer, body.len() as i64)?;
                writer.write_all(body.as_bytes())?;
            }
            ["QUERY", key, pattern] => {
                let key = unescape(key)
                    .and_then(|b| String::from_utf8(b).ok())
                    .unwrap_or_default();
                let pattern = unescape(pattern)
                    .and_then(|b| String::from_utf8(b).ok())
                    .unwrap_or_default();
                let names: Vec<String> = store
                    .records
                    .read()
                    .values()
                    .filter(|r| match key.as_str() {
                        "name" => wildcard_match(&pattern, &r.name),
                        k => r.attrs.get(k).is_some_and(|v| wildcard_match(&pattern, v)),
                    })
                    .map(|r| escape(r.name.as_bytes()))
                    .collect();
                let body = names.join("\n");
                wire::write_status(&mut writer, body.len() as i64)?;
                writer.write_all(body.as_bytes())?;
            }
            _ => wire::write_error(&mut writer, ChirpError::InvalidRequest)?,
        }
        writer.flush()?;
    }
}

/// A blocking client for the GEMS database.
pub struct DbClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl DbClient {
    /// Connect to a database server.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<DbClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::InvalidInput))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(DbClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Insert or replace a record.
    pub fn put(&mut self, rec: &FileRecord) -> std::io::Result<()> {
        let body = rec.render();
        write!(self.writer, "PUT {}\n{}", body.len(), body)?;
        self.writer.flush()?;
        wire::read_status(&mut self.reader)?;
        Ok(())
    }

    /// Fetch a record by name.
    pub fn get(&mut self, name: &str) -> std::io::Result<FileRecord> {
        writeln!(self.writer, "GET {}", escape(name.as_bytes()))?;
        self.writer.flush()?;
        let st = wire::read_status(&mut self.reader)?;
        let body = wire::read_payload(&mut self.reader, st.value as u64)?;
        std::str::from_utf8(&body)
            .ok()
            .and_then(FileRecord::parse)
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::InvalidData))
    }

    /// Delete a record.
    pub fn delete(&mut self, name: &str) -> std::io::Result<()> {
        writeln!(self.writer, "DEL {}", escape(name.as_bytes()))?;
        self.writer.flush()?;
        wire::read_status(&mut self.reader)?;
        Ok(())
    }

    /// List all record names.
    pub fn list(&mut self) -> std::io::Result<Vec<String>> {
        writeln!(self.writer, "LIST")?;
        self.writer.flush()?;
        self.read_names()
    }

    /// Names of records matching *every* `(key, pattern)` constraint
    /// (key `name` queries the logical name).
    pub fn query_all(&mut self, constraints: &[(&str, &str)]) -> std::io::Result<Vec<String>> {
        let mut body = String::new();
        for (k, p) in constraints {
            body.push_str(&format!(
                "{} {}\n",
                escape(k.as_bytes()),
                escape(p.as_bytes())
            ));
        }
        write!(self.writer, "QUERYALL {}\n{}", body.len(), body)?;
        self.writer.flush()?;
        self.read_names()
    }

    /// Names of records whose attribute `key` matches the wildcard
    /// `pattern` (key `name` queries the logical name).
    pub fn query(&mut self, key: &str, pattern: &str) -> std::io::Result<Vec<String>> {
        writeln!(
            self.writer,
            "QUERY {} {}",
            escape(key.as_bytes()),
            escape(pattern.as_bytes())
        )?;
        self.writer.flush()?;
        self.read_names()
    }

    fn read_names(&mut self) -> std::io::Result<Vec<String>> {
        let st = wire::read_status(&mut self.reader)?;
        let body = wire::read_payload(&mut self.reader, st.value as u64)?;
        let text = String::from_utf8(body)
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))?;
        Ok(text
            .split('\n')
            .filter(|s| !s.is_empty())
            .filter_map(|w| unescape(w).and_then(|b| String::from_utf8(b).ok()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::testutil::TempDir;

    fn client(server: &DbServer) -> DbClient {
        DbClient::connect(server.addr(), Duration::from_secs(5)).unwrap()
    }

    fn rec(name: &str, project: &str) -> FileRecord {
        let mut r = FileRecord::new(name, 100, 0xabc, 2);
        r.attrs.insert("project".into(), project.into());
        r
    }

    #[test]
    fn put_get_delete() {
        let server = DbServer::start_ephemeral().unwrap();
        let mut c = client(&server);
        c.put(&rec("a", "p1")).unwrap();
        assert_eq!(c.get("a").unwrap().attrs["project"], "p1");
        c.delete("a").unwrap();
        assert!(c.get("a").is_err());
        assert!(c.delete("a").is_err());
    }

    #[test]
    fn put_replaces_by_name() {
        let server = DbServer::start_ephemeral().unwrap();
        let mut c = client(&server);
        c.put(&rec("a", "p1")).unwrap();
        c.put(&rec("a", "p2")).unwrap();
        assert_eq!(server.len(), 1);
        assert_eq!(c.get("a").unwrap().attrs["project"], "p2");
    }

    #[test]
    fn query_by_attribute_and_name() {
        let server = DbServer::start_ephemeral().unwrap();
        let mut c = client(&server);
        c.put(&rec("run1/out", "protomol")).unwrap();
        c.put(&rec("run2/out", "protomol")).unwrap();
        c.put(&rec("other", "babar")).unwrap();
        let mut hits = c.query("project", "proto*").unwrap();
        hits.sort();
        assert_eq!(hits, vec!["run1/out", "run2/out"]);
        assert_eq!(c.query("name", "run2*").unwrap(), vec!["run2/out"]);
        assert!(c.query("project", "nomatch").unwrap().is_empty());
        assert!(c.query("absentkey", "*").unwrap().is_empty());
    }

    #[test]
    fn conjunctive_query_requires_every_constraint() {
        let server = DbServer::start_ephemeral().unwrap();
        let mut c = client(&server);
        let mut r1 = rec("hot-bpti", "protomol");
        r1.attrs.insert("temperature".into(), "310K".into());
        let mut r2 = rec("cold-bpti", "protomol");
        r2.attrs.insert("temperature".into(), "290K".into());
        let mut r3 = rec("hot-other", "babar");
        r3.attrs.insert("temperature".into(), "310K".into());
        c.put(&r1).unwrap();
        c.put(&r2).unwrap();
        c.put(&r3).unwrap();
        let hits = c
            .query_all(&[("project", "protomol"), ("temperature", "310K")])
            .unwrap();
        assert_eq!(hits, vec!["hot-bpti"]);
        // Empty constraint list matches everything.
        assert_eq!(c.query_all(&[]).unwrap().len(), 3);
        // Name constraints compose with attribute constraints.
        let hits = c
            .query_all(&[("name", "*bpti"), ("project", "protomol")])
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn persistence_across_restart() {
        let dir = TempDir::new();
        let spool = dir.path().join("spool");
        let addr;
        {
            let mut server =
                DbServer::start("127.0.0.1:0".parse().unwrap(), Some(spool.clone())).unwrap();
            addr = server.addr();
            let mut c = client(&server);
            c.put(&rec("survives", "p")).unwrap();
            server.shutdown();
        }
        let _ = addr;
        let server2 = DbServer::start("127.0.0.1:0".parse().unwrap(), Some(spool)).unwrap();
        let mut c = DbClient::connect(server2.addr(), Duration::from_secs(5)).unwrap();
        assert_eq!(c.get("survives").unwrap().attrs["project"], "p");
    }

    #[test]
    fn concurrent_clients() {
        let server = DbServer::start_ephemeral().unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut c = DbClient::connect(addr, Duration::from_secs(5)).unwrap();
                for j in 0..25 {
                    c.put(&rec(&format!("f{i}-{j}"), "p")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.len(), 100);
    }
}
