//! The record index: one file per logical name in one directory on an
//! ordinary Chirp server ([`crate::GemsConfig::records`]).
//!
//! A record is stored as its [`FileRecord::render`] text under
//! `escape(name)` with `/` also written as `%2F`, plus `.rec`. The
//! name is injective and reversible, so listing needs no reads, and the
//! suffix keeps `.`, `..` and `.__acl` out of reach. `put` writes a
//! temporary `.new` file and renames it over the record, so a reader
//! sees the old record or the new one, never a prefix. `list` is one
//! `READDIR`; a query is that `READDIR` plus one `GETFILE` per record,
//! filtered here: N + 1 requests.

use std::io;
use std::sync::Arc;

use chirp_proto::escape::{escape, unescape};
use chirp_proto::wildcard_match;
use tss_core::cfs::Cfs;
use tss_core::fs::FileSystem;

use crate::record::FileRecord;
use crate::system::Gems;

/// Suffix of a record file; anything else in the directory is ignored.
const SUFFIX: &str = ".rec";

/// Longest file name (one path component) a server's disk accepts.
const NAME_MAX: usize = 255;

/// The record file name for a logical name, or `InvalidInput` if it
/// would not fit in one path component.
fn file_name(name: &str) -> io::Result<String> {
    let file = format!("{}{SUFFIX}", escape(name.as_bytes()).replace('/', "%2F"));
    if file.len() > NAME_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "record name too long",
        ));
    }
    Ok(file)
}

/// The logical name a record file holds, `None` for any other file.
fn logical_name(file: &str) -> Option<String> {
    let stem = file.strip_suffix(SUFFIX)?;
    unescape(stem).and_then(|b| String::from_utf8(b).ok())
}

impl Gems {
    fn records_path(&self, name: &str) -> io::Result<String> {
        Ok(format!(
            "{}/{}",
            self.config.records.volume,
            file_name(name)?
        ))
    }

    fn records_conn(&self) -> Arc<Cfs> {
        let records = &self.config.records;
        self.conn_for(&records.endpoint, &records.auth)
    }

    /// Insert or replace a record.
    pub(crate) fn put_record(&self, rec: &FileRecord) -> io::Result<()> {
        let path = self.records_path(&rec.name)?;
        let tmp = format!(
            "{}/{}.new",
            self.config.records.volume,
            tss_core::placement::unique_data_name()
        );
        let cfs = self.records_conn();
        cfs.putfile(&tmp, 0o644, rec.render().as_bytes())?;
        cfs.rename(&tmp, &path).inspect_err(|_| {
            let _ = cfs.unlink(&tmp);
        })
    }

    /// Remove a record; `NotFound` if there is none.
    pub(crate) fn delete_record(&self, name: &str) -> io::Result<()> {
        self.records_conn().unlink(&self.records_path(name)?)
    }

    /// The record for a logical name.
    pub fn record(&self, name: &str) -> io::Result<FileRecord> {
        let body = self.records_conn().getfile(&self.records_path(name)?)?;
        std::str::from_utf8(&body)
            .ok()
            .and_then(FileRecord::parse)
            .ok_or_else(|| io::Error::from(io::ErrorKind::InvalidData))
    }

    /// All logical names, sorted.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let dir = &self.config.records.volume;
        let mut names: Vec<String> = self
            .records_conn()
            .readdir(dir)?
            .iter()
            .filter_map(|file| logical_name(file))
            .collect();
        names.sort();
        Ok(names)
    }

    /// Names whose attribute `key` matches the wildcard `pattern` (key
    /// `name` matches the logical name).
    pub fn query(&self, key: &str, pattern: &str) -> io::Result<Vec<String>> {
        self.query_all(&[(key, pattern)])
    }

    /// Names matching *every* `(key, pattern)` constraint; an empty
    /// list matches every record.
    pub fn query_all(&self, constraints: &[(&str, &str)]) -> io::Result<Vec<String>> {
        let mut hits = Vec::new();
        for name in self.list()? {
            let rec = match self.record(&name) {
                Ok(rec) => rec,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue, // deleted mid-scan
                Err(e) => return Err(e),
            };
            let matches = constraints.iter().all(|&(key, pattern)| match key {
                "name" => wildcard_match(pattern, &rec.name),
                key => rec
                    .attrs
                    .get(key)
                    .is_some_and(|v| wildcard_match(pattern, v)),
            });
            if matches {
                hits.push(rec.name);
            }
        }
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GemsConfig;
    use simharness::harness::{sim_retry, SimTss, SIM_TIMEOUT};

    /// A session with its index in `/index` on server 0 and no pool.
    fn session(sim: &SimTss) -> Gems {
        let mut config = GemsConfig::new(sim.data_server(0, "/index"), Vec::new());
        config.timeout = SIM_TIMEOUT;
        config.retry = sim_retry();
        config.dialer = sim.dialer();
        config.clock = sim.clock().clone();
        Gems::connect(config).unwrap()
    }

    fn rec(name: &str, project: &str) -> FileRecord {
        let mut r = FileRecord::new(name, 100, 0xabc, 2);
        r.attrs.insert("project".into(), project.into());
        r
    }

    #[test]
    fn put_get_delete() {
        let sim = SimTss::builder().build();
        let g = session(&sim);
        g.put_record(&rec("a", "p1")).unwrap();
        assert_eq!(g.record("a").unwrap().attrs["project"], "p1");
        g.delete_record("a").unwrap();
        assert!(g.record("a").is_err());
        let err = g.delete_record("a").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn put_replaces_by_name() {
        let sim = SimTss::builder().build();
        let g = session(&sim);
        g.put_record(&rec("a", "p1")).unwrap();
        g.put_record(&rec("a", "p2")).unwrap();
        assert_eq!(g.list().unwrap(), vec!["a"]);
        assert_eq!(g.record("a").unwrap().attrs["project"], "p2");
    }

    #[test]
    fn query_by_attribute_and_name() {
        let sim = SimTss::builder().build();
        let g = session(&sim);
        g.put_record(&rec("run1/out", "protomol")).unwrap();
        g.put_record(&rec("run2/out", "protomol")).unwrap();
        g.put_record(&rec("other", "babar")).unwrap();
        let mut hits = g.query("project", "proto*").unwrap();
        hits.sort();
        assert_eq!(hits, vec!["run1/out", "run2/out"]);
        assert_eq!(g.query("name", "run2*").unwrap(), vec!["run2/out"]);
        assert!(g.query("project", "nomatch").unwrap().is_empty());
        assert!(g.query("absentkey", "*").unwrap().is_empty());
    }

    #[test]
    fn conjunctive_query_requires_every_constraint() {
        let sim = SimTss::builder().build();
        let g = session(&sim);
        let mut r1 = rec("hot-bpti", "protomol");
        r1.attrs.insert("temperature".into(), "310K".into());
        let mut r2 = rec("cold-bpti", "protomol");
        r2.attrs.insert("temperature".into(), "290K".into());
        let mut r3 = rec("hot-other", "babar");
        r3.attrs.insert("temperature".into(), "310K".into());
        g.put_record(&r1).unwrap();
        g.put_record(&r2).unwrap();
        g.put_record(&r3).unwrap();
        let hits = g
            .query_all(&[("project", "protomol"), ("temperature", "310K")])
            .unwrap();
        assert_eq!(hits, vec!["hot-bpti"]);
        // Empty constraint list matches everything.
        assert_eq!(g.query_all(&[]).unwrap().len(), 3);
        // Name constraints compose with attribute constraints.
        let hits = g
            .query_all(&[("name", "*bpti"), ("project", "protomol")])
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn records_survive_a_server_restart() {
        let mut sim = SimTss::builder().build();
        let g = session(&sim);
        g.put_record(&rec("survives", "p")).unwrap();
        sim.restart(0);
        assert_eq!(g.record("survives").unwrap().attrs["project"], "p");
        assert_eq!(session(&sim).list().unwrap(), vec!["survives"]);
    }

    #[test]
    fn concurrent_sessions() {
        let sim = SimTss::builder().build();
        std::thread::scope(|s| {
            for i in 0..4 {
                let sim = &sim;
                s.spawn(move || {
                    let g = session(sim);
                    for j in 0..25 {
                        g.put_record(&rec(&format!("f{i}-{j}"), "p")).unwrap();
                    }
                });
            }
        });
        assert_eq!(session(&sim).list().unwrap().len(), 100);
    }

    #[test]
    fn awkward_names_round_trip() {
        let sim = SimTss::builder().build();
        let g = session(&sim);
        let mut names = vec![
            "a/b",
            "a%2Fb",
            "/lead",
            "two words",
            "100%",
            "%-",
            "",
            ".",
            "..",
            ".__acl",
            ".__acl.new",
            "x.rec",
            "ünïcødé/データ",
        ];
        for (i, name) in names.iter().enumerate() {
            g.put_record(&rec(name, &i.to_string())).unwrap();
        }
        for (i, name) in names.iter().enumerate() {
            let got = g.record(name).unwrap();
            assert_eq!(got.name, *name);
            assert_eq!(got.attrs["project"], i.to_string(), "{name:?}");
        }
        names.sort();
        assert_eq!(g.list().unwrap(), names);
        assert_eq!(g.query("name", "a*").unwrap(), vec!["a%2Fb", "a/b"]);
        // One plain file per record, none of them a name the server
        // reserves or resolves.
        let files: Vec<String> = std::fs::read_dir(sim.root(0).join("index"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f != ".__acl")
            .collect();
        assert_eq!(files.len(), names.len());
        assert!(files.iter().all(|f| f.ends_with(SUFFIX) && f.is_ascii()));
    }

    #[test]
    fn list_ignores_a_stray_temporary_file() {
        let sim = SimTss::builder().build();
        let g = session(&sim);
        g.put_record(&rec("a", "p")).unwrap();
        // What a put killed between its PUTFILE and its RENAME leaves.
        let stray = rec("b", "p").render();
        sim.connect(0)
            .putfile("/index/file-1-2.new", 0o644, stray.as_bytes())
            .unwrap();
        assert_eq!(g.list().unwrap(), vec!["a"]);
        assert_eq!(g.query_all(&[]).unwrap(), vec!["a"]);
    }
}
