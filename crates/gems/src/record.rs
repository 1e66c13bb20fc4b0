//! GEMS records: one per logical file.

use std::collections::BTreeMap;

use chirp_proto::escape::{escape, unescape};

/// Where one replica of a file's data lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replica {
    /// File server endpoint, `host:port`.
    pub endpoint: String,
    /// Absolute server-side path of the data.
    pub path: String,
}

/// One logical file tracked by GEMS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// Unique logical name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// CRC-64 of the contents, checked by the auditor.
    pub checksum: u64,
    /// Desired number of replicas.
    pub replica_target: u32,
    /// Free-form searchable attributes (`project`, `temperature`,
    /// `molecule`, ...).
    pub attrs: BTreeMap<String, String>,
    /// Current known replicas.
    pub replicas: Vec<Replica>,
}

impl FileRecord {
    /// A fresh record with no replicas.
    pub fn new(name: &str, size: u64, checksum: u64, replica_target: u32) -> FileRecord {
        FileRecord {
            name: name.to_string(),
            size,
            checksum,
            replica_target,
            attrs: BTreeMap::new(),
            replicas: Vec::new(),
        }
    }

    /// How many replicas are missing relative to the target.
    pub fn deficit(&self) -> u32 {
        self.replica_target
            .saturating_sub(self.replicas.len() as u32)
    }

    /// Render without replica locations — the sidecar form stored
    /// next to each replica so a lost database can be rebuilt by
    /// rescanning the file servers (§5).
    pub fn render_sidecar(&self) -> String {
        let mut core = self.clone();
        core.replicas.clear();
        core.render()
    }

    /// Render to the line format stored in a record file.
    pub fn render(&self) -> String {
        let e = |s: &str| escape(s.as_bytes());
        let mut out = String::new();
        out.push_str(&format!("name {}\n", e(&self.name)));
        out.push_str(&format!("size {}\n", self.size));
        out.push_str(&format!("checksum {:016x}\n", self.checksum));
        out.push_str(&format!("target {}\n", self.replica_target));
        for (k, v) in &self.attrs {
            out.push_str(&format!("attr {} {}\n", e(k), e(v)));
        }
        for r in &self.replicas {
            out.push_str(&format!("replica {} {}\n", r.endpoint, e(&r.path)));
        }
        out
    }

    /// Parse the line format back.
    pub fn parse(text: &str) -> Option<FileRecord> {
        let d = |s: &str| -> Option<String> { unescape(s).and_then(|b| String::from_utf8(b).ok()) };
        let mut name = None;
        let mut size = None;
        let mut checksum = None;
        let mut target = 2u32;
        let mut attrs = BTreeMap::new();
        let mut replicas = Vec::new();
        for line in text.lines() {
            let mut it = line.splitn(2, ' ');
            let key = it.next()?;
            let rest = it.next().unwrap_or("");
            match key {
                "name" => name = Some(d(rest)?),
                "size" => size = rest.parse().ok(),
                "checksum" => checksum = u64::from_str_radix(rest, 16).ok(),
                "target" => target = rest.parse().ok()?,
                "attr" => {
                    let mut kv = rest.splitn(2, ' ');
                    let k = d(kv.next()?)?;
                    let v = d(kv.next().unwrap_or(""))?;
                    attrs.insert(k, v);
                }
                "replica" => {
                    let mut kv = rest.splitn(2, ' ');
                    let endpoint = kv.next()?.to_string();
                    let path = d(kv.next()?)?;
                    replicas.push(Replica { endpoint, path });
                }
                _ => return None,
            }
        }
        Some(FileRecord {
            name: name?,
            size: size?,
            checksum: checksum?,
            replica_target: target,
            attrs,
            replicas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> FileRecord {
        let mut r = FileRecord::new("run5/output 12.dcd", 1 << 20, 0xdeadbeef, 3);
        r.attrs.insert("project".into(), "protomol".into());
        r.attrs.insert("temperature".into(), "310K".into());
        r.replicas.push(Replica {
            endpoint: "host1:9094".into(),
            path: "/gems/data/file-1".into(),
        });
        r.replicas.push(Replica {
            endpoint: "host2:9094".into(),
            path: "/gems/data/file-2".into(),
        });
        r
    }

    #[test]
    fn render_parse_round_trip() {
        let r = sample();
        assert_eq!(FileRecord::parse(&r.render()).unwrap(), r);
    }

    #[test]
    fn deficit_math() {
        let mut r = sample();
        assert_eq!(r.deficit(), 1);
        r.replicas.clear();
        assert_eq!(r.deficit(), 3);
        r.replica_target = 0;
        assert_eq!(r.deficit(), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FileRecord::parse("").is_none());
        assert!(FileRecord::parse("name x\n").is_none());
        assert!(FileRecord::parse("bogus line\n").is_none());
    }

    proptest! {
        #[test]
        fn round_trip_any(
            name in "[ -~]{1,40}",
            size in any::<u64>(),
            checksum in any::<u64>(),
            target in 0u32..10,
            attr_val in "[ -~]{0,20}",
        ) {
            let mut r = FileRecord::new(&name, size, checksum, target);
            r.attrs.insert("k".into(), attr_val);
            prop_assert_eq!(FileRecord::parse(&r.render()).unwrap(), r);
        }
    }
}
