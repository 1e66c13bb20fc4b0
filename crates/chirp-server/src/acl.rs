//! Per-directory access control lists over a virtual user space.
//!
//! Subjects are free-form `method:name` strings produced by the
//! authentication layer — never local uids — so sharing works across
//! administrative domains. ACL entries may use `*` wildcards
//! (`hostname:*.cse.nd.edu`, `globus:/O=NotreDame/*`), and a subject's
//! effective rights are the union over all matching entries.
//!
//! Rights (paper §4):
//!
//! | letter | right |
//! |--------|-------|
//! | `r` | read files |
//! | `w` | write or create files |
//! | `l` | list the directory |
//! | `a` | administer (modify the ACL) |
//! | `d` | delete (but not modify) files |
//! | `v(...)` | *reserve*: `mkdir` creates a fresh namespace whose ACL grants the caller exactly the parenthesized rights |
//!
//! Each directory stores its ACL in a private `.__acl` file. A
//! directory with no ACL file inherits the nearest ancestor's ACL,
//! which is how pre-existing data exported in place gets protection
//! from the root ACL.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use chirp_proto::{ChirpError, ChirpResult};
use telemetry::{Counter, Gauge, Registry};

use crate::jail::ACL_FILE;

/// A set of ACL rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Rights(u8);

impl Rights {
    /// Read files in the directory.
    pub const READ: Rights = Rights(1 << 0);
    /// Write and create files.
    pub const WRITE: Rights = Rights(1 << 1);
    /// List directory contents.
    pub const LIST: Rights = Rights(1 << 2);
    /// Administer: modify the ACL.
    pub const ADMIN: Rights = Rights(1 << 3);
    /// Delete (but not modify) files.
    pub const DELETE: Rights = Rights(1 << 4);
    /// Reserve: create a private sub-namespace via `mkdir`.
    pub const RESERVE: Rights = Rights(1 << 5);

    /// The empty set.
    pub fn empty() -> Rights {
        Rights(0)
    }

    /// Every right including reserve.
    pub fn all() -> Rights {
        Rights::READ
            | Rights::WRITE
            | Rights::LIST
            | Rights::ADMIN
            | Rights::DELETE
            | Rights::RESERVE
    }

    /// True if every bit of `other` is present.
    pub fn contains(self, other: Rights) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if *any* bit of `other` is present.
    pub fn intersects(self, other: Rights) -> bool {
        self.0 & other.0 != 0
    }

    /// True if no rights are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parse a rights string such as `rwl`. Does not accept `v(...)`;
    /// that syntax belongs to the full entry parser, which needs to
    /// capture the reserve sub-rights.
    pub fn parse_simple(s: &str) -> ChirpResult<Rights> {
        let mut r = Rights::empty();
        for c in s.chars() {
            r |= match c.to_ascii_lowercase() {
                'r' => Rights::READ,
                'w' => Rights::WRITE,
                'l' => Rights::LIST,
                'a' => Rights::ADMIN,
                'd' => Rights::DELETE,
                _ => return Err(ChirpError::InvalidRequest),
            };
        }
        Ok(r)
    }
}

impl std::ops::BitOr for Rights {
    type Output = Rights;
    fn bitor(self, rhs: Rights) -> Rights {
        Rights(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Rights {
    fn bitor_assign(&mut self, rhs: Rights) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (bit, c) in [
            (Rights::READ, 'r'),
            (Rights::WRITE, 'w'),
            (Rights::LIST, 'l'),
            (Rights::ADMIN, 'a'),
            (Rights::DELETE, 'd'),
        ] {
            if self.contains(bit) {
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// One ACL entry: a subject pattern granting rights, possibly including
/// a reserve grant with its own sub-rights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AclEntry {
    /// Subject pattern, e.g. `hostname:*.cse.nd.edu`. `*` matches any
    /// run of characters (including none).
    pub subject: String,
    /// Directly granted rights (`r w l a d`).
    pub rights: Rights,
    /// Rights placed in new directories created under the reserve
    /// right; empty when the entry has no `v(...)` grant.
    pub reserve: Rights,
}

impl AclEntry {
    /// Parse the rights portion of an entry: `rwl`, `v(rwla)`,
    /// `rwlv(rwl)` and combinations.
    pub fn parse_rights(spec: &str) -> ChirpResult<(Rights, Rights)> {
        let mut rights = Rights::empty();
        let mut reserve = Rights::empty();
        let mut chars = spec.chars().peekable();
        while let Some(c) = chars.next() {
            match c.to_ascii_lowercase() {
                'r' => rights |= Rights::READ,
                'w' => rights |= Rights::WRITE,
                'l' => rights |= Rights::LIST,
                'a' => rights |= Rights::ADMIN,
                'd' => rights |= Rights::DELETE,
                'v' => {
                    rights |= Rights::RESERVE;
                    if chars.peek() == Some(&'(') {
                        chars.next();
                        let mut inner = String::new();
                        loop {
                            match chars.next() {
                                Some(')') => break,
                                Some(c) => inner.push(c),
                                None => return Err(ChirpError::InvalidRequest),
                            }
                        }
                        reserve |= Rights::parse_simple(&inner)?;
                    }
                }
                _ => return Err(ChirpError::InvalidRequest),
            }
        }
        Ok((rights, reserve))
    }

    /// Render the rights portion, inverse of [`AclEntry::parse_rights`].
    pub fn rights_string(&self) -> String {
        let mut s = self.rights.to_string();
        if self.rights.contains(Rights::RESERVE) {
            if self.reserve.is_empty() {
                s.push('v');
            } else {
                s.push_str(&format!("v({})", self.reserve));
            }
        }
        s
    }

    /// Whether this entry's pattern matches a concrete subject.
    pub fn matches(&self, subject: &str) -> bool {
        wildcard_match(&self.subject, subject)
    }
}

/// Glob-style match where `*` matches any (possibly empty) substring.
///
/// Classic two-pointer algorithm with backtracking to the most recent
/// star; linear in practice for ACL-sized inputs.
pub fn wildcard_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// A directory's access control list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Acl {
    entries: Vec<AclEntry>,
}

impl Acl {
    /// The empty ACL (denies everything).
    pub fn new() -> Acl {
        Acl::default()
    }

    /// An ACL with a single entry.
    pub fn single(subject: &str, spec: &str) -> ChirpResult<Acl> {
        let mut acl = Acl::new();
        acl.set(subject, spec)?;
        Ok(acl)
    }

    /// The entries, in file order.
    pub fn entries(&self) -> &[AclEntry] {
        &self.entries
    }

    /// Effective rights of `subject`: the union over matching entries.
    pub fn rights_of(&self, subject: &str) -> Rights {
        let mut r = Rights::empty();
        for e in &self.entries {
            if e.matches(subject) {
                r |= e.rights;
            }
        }
        r
    }

    /// Union of reserve sub-rights over entries matching `subject`.
    pub fn reserve_rights_of(&self, subject: &str) -> Rights {
        let mut r = Rights::empty();
        for e in &self.entries {
            if e.matches(subject) && e.rights.contains(Rights::RESERVE) {
                r |= e.reserve;
            }
        }
        r
    }

    /// Add or replace the entry for `subject`. An empty `spec` removes
    /// the entry.
    pub fn set(&mut self, subject: &str, spec: &str) -> ChirpResult<()> {
        if subject.is_empty() {
            return Err(ChirpError::InvalidRequest);
        }
        if spec.is_empty() {
            self.entries.retain(|e| e.subject != subject);
            return Ok(());
        }
        let (rights, reserve) = AclEntry::parse_rights(spec)?;
        if let Some(e) = self.entries.iter_mut().find(|e| e.subject == subject) {
            e.rights = rights;
            e.reserve = reserve;
        } else {
            self.entries.push(AclEntry {
                subject: subject.to_string(),
                rights,
                reserve,
            });
        }
        Ok(())
    }

    /// Parse the textual form: one `subject rights` pair per line.
    pub fn parse(text: &str) -> ChirpResult<Acl> {
        let mut acl = Acl::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let subject = it.next().ok_or(ChirpError::InvalidRequest)?;
            let spec = it.next().ok_or(ChirpError::InvalidRequest)?;
            if it.next().is_some() {
                return Err(ChirpError::InvalidRequest);
            }
            acl.set(subject, spec)?;
        }
        Ok(acl)
    }

    /// Render the textual form stored in `.__acl` and returned by the
    /// `GETACL` RPC.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.subject);
            out.push(' ');
            out.push_str(&e.rights_string());
            out.push('\n');
        }
        out
    }

    /// Load the ACL governing `dir`: its own `.__acl` if present, else
    /// the nearest ancestor's, searching no higher than `root`.
    pub fn load_effective(root: &Path, dir: &Path) -> ChirpResult<Acl> {
        let mut cur = dir.to_path_buf();
        loop {
            let f = cur.join(ACL_FILE);
            match std::fs::read_to_string(&f) {
                Ok(text) => return Acl::parse(&text),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(ChirpError::from_io(&e)),
            }
            if cur == root {
                // No ACL anywhere up to the root: deny-all. The server
                // always writes a root ACL at startup, so this means
                // someone deleted it out from under us.
                return Ok(Acl::new());
            }
            if !cur.pop() {
                return Ok(Acl::new());
            }
        }
    }

    /// Write this ACL as `dir`'s own `.__acl`.
    pub fn store(&self, dir: &Path) -> ChirpResult<()> {
        std::fs::write(dir.join(ACL_FILE), self.render()).map_err(|e| ChirpError::from_io(&e))
    }
}

/// The server's in-memory copy of the effective ACLs it has looked
/// up: `dir → Arc<Acl>`, so an ACL-checked RPC costs a map lookup
/// instead of an open + read + parse of `.__acl` (plus the walk up on
/// inheritance). [`Acl::load_effective`] remains the miss path.
///
/// Coherence is one generation counter. Whoever changes what
/// `load_effective` could return for *any* directory — `SETACL`,
/// `MKDIR`, `RMDIR`, a `RENAME` of a directory — calls
/// [`AclCache::invalidate`] *after* touching the disk and before
/// replying: it bumps the generation and drops the whole map (with
/// inheritance, one ancestor's change reaches an unknown set of
/// descendants, and these ops are rare next to checks). A miss inserts
/// only if the generation it read before touching the disk is still
/// current, so a load that raced a mutation is served once and never
/// retained — the page cache's fill-vs-write rule.
///
/// Only directories that exist are remembered. What a *missing*
/// directory's lookup returns (the nearest ancestor's ACL, or
/// `NotADirectory` once a file takes a name on its path) changes with
/// every file creation, which no one wants to invalidate on; so a
/// lookup under a missing directory always goes to the disk, exactly
/// as before, and a directory can only stop existing through the ops
/// that invalidate.
///
/// Like the page cache, this assumes the server is the only writer
/// under its root once started.
#[derive(Debug)]
pub struct AclCache {
    generation: AtomicU64,
    map: RwLock<HashMap<PathBuf, Arc<Acl>>>,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    entries: Gauge,
}

impl AclCache {
    /// Most directories remembered at once. Reaching it clears the
    /// map wholesale: a peer walking a million distinct directories
    /// costs misses, never memory.
    pub const MAX_ENTRIES: usize = 4096;

    /// An empty cache reporting `acl.cache.*` into `registry`.
    pub fn new(registry: &Registry) -> AclCache {
        AclCache {
            generation: AtomicU64::new(0),
            map: RwLock::new(HashMap::new()),
            hits: registry.counter("acl.cache.hits"),
            misses: registry.counter("acl.cache.misses"),
            invalidations: registry.counter("acl.cache.invalidations"),
            entries: registry.gauge("acl.cache.entries"),
        }
    }

    /// The ACL governing `dir`, from memory when known, else through
    /// [`Acl::load_effective`].
    pub fn effective(&self, root: &Path, dir: &Path) -> ChirpResult<Arc<Acl>> {
        if let Some(acl) = self.map.read().expect("acl cache poisoned").get(dir) {
            self.hits.inc();
            return Ok(acl.clone());
        }
        self.misses.inc();
        // SeqCst pairs with `invalidate`: a mutation that finished
        // before this load is visible to the disk read below; one that
        // finishes after it fails the re-check under the lock.
        let generation = self.generation.load(Ordering::SeqCst);
        let acl = Arc::new(Acl::load_effective(root, dir)?);
        if !dir.is_dir() {
            return Ok(acl);
        }
        let mut map = self.map.write().expect("acl cache poisoned");
        if self.generation.load(Ordering::SeqCst) == generation {
            if map.len() >= AclCache::MAX_ENTRIES {
                map.clear();
            }
            map.insert(dir.to_path_buf(), acl.clone());
            self.entries.set(map.len() as i64);
        }
        Ok(acl)
    }

    /// Forget everything. Call after the disk change, before the reply.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        let mut map = self.map.write().expect("acl cache poisoned");
        map.clear();
        self.entries.set(0);
        self.invalidations.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_proto::testutil::TempDir;
    use proptest::prelude::*;

    #[test]
    fn rights_parse_and_render() {
        let (r, v) = AclEntry::parse_rights("rwla").unwrap();
        assert!(r.contains(Rights::READ | Rights::WRITE | Rights::LIST | Rights::ADMIN));
        assert!(v.is_empty());
        let (r, v) = AclEntry::parse_rights("v(rwl)").unwrap();
        assert!(r.contains(Rights::RESERVE));
        assert!(v.contains(Rights::READ | Rights::WRITE | Rights::LIST));
        assert!(!v.contains(Rights::ADMIN));
    }

    #[test]
    fn combined_direct_and_reserve() {
        let (r, v) = AclEntry::parse_rights("rlv(rwla)").unwrap();
        assert!(r.contains(Rights::READ | Rights::LIST | Rights::RESERVE));
        assert!(!r.contains(Rights::WRITE));
        assert!(v.contains(Rights::ADMIN));
    }

    #[test]
    fn bad_rights_rejected() {
        assert!(AclEntry::parse_rights("rwx").is_err());
        assert!(AclEntry::parse_rights("v(rw").is_err());
        assert!(AclEntry::parse_rights("v(q)").is_err());
    }

    #[test]
    fn wildcard_semantics() {
        assert!(wildcard_match(
            "hostname:*.cse.nd.edu",
            "hostname:laptop.cse.nd.edu"
        ));
        assert!(!wildcard_match(
            "hostname:*.cse.nd.edu",
            "hostname:evil.example.com"
        ));
        assert!(wildcard_match(
            "globus:/O=NotreDame/*",
            "globus:/O=NotreDame/CN=alice"
        ));
        assert!(wildcard_match("*", "anything:at all"));
        assert!(wildcard_match("a*b*c", "aXXbYYc"));
        assert!(!wildcard_match("a*b*c", "aXXbYY"));
        assert!(wildcard_match("abc", "abc"));
        assert!(!wildcard_match("abc", "ab"));
        // `*` may match the empty string.
        assert!(wildcard_match("ab*", "ab"));
    }

    #[test]
    fn union_over_matching_entries() {
        let acl = Acl::parse(
            "hostname:*.nd.edu rl\n\
             hostname:laptop.nd.edu w\n",
        )
        .unwrap();
        let r = acl.rights_of("hostname:laptop.nd.edu");
        assert!(r.contains(Rights::READ | Rights::LIST | Rights::WRITE));
        let r2 = acl.rights_of("hostname:other.nd.edu");
        assert!(r2.contains(Rights::READ));
        assert!(!r2.contains(Rights::WRITE));
        assert!(acl.rights_of("unix:alice").is_empty());
    }

    #[test]
    fn paper_example_acl() {
        // The root ACL from §4 of the paper.
        let acl = Acl::parse(
            "hostname:*.cse.nd.edu v(rwl)\n\
             globus:/O=Notre_Dame/* v(rwla)\n",
        )
        .unwrap();
        let laptop = "hostname:laptop.cse.nd.edu";
        assert!(acl.rights_of(laptop).contains(Rights::RESERVE));
        assert!(!acl.rights_of(laptop).contains(Rights::WRITE));
        let v = acl.reserve_rights_of(laptop);
        assert!(v.contains(Rights::READ | Rights::WRITE | Rights::LIST));
        assert!(!v.contains(Rights::ADMIN));
        let grid = "globus:/O=Notre_Dame/CN=alice";
        assert!(acl.reserve_rights_of(grid).contains(Rights::ADMIN));
    }

    #[test]
    fn set_replaces_and_removes() {
        let mut acl = Acl::new();
        acl.set("unix:alice", "rwl").unwrap();
        acl.set("unix:alice", "r").unwrap();
        assert_eq!(acl.entries().len(), 1);
        assert!(!acl.rights_of("unix:alice").contains(Rights::WRITE));
        acl.set("unix:alice", "").unwrap();
        assert!(acl.entries().is_empty());
    }

    #[test]
    fn parse_render_round_trip() {
        let text = "hostname:*.cse.nd.edu rwl\nglobus:/O=ND/* rv(rwla)\nunix:bob d\n";
        let acl = Acl::parse(text).unwrap();
        let again = Acl::parse(&acl.render()).unwrap();
        assert_eq!(acl, again);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let acl = Acl::parse("# a comment\n\nunix:alice rl\n").unwrap();
        assert_eq!(acl.entries().len(), 1);
    }

    #[test]
    fn effective_acl_inherits_from_ancestors() {
        let dir = TempDir::new();
        let root = dir.path();
        Acl::single("unix:alice", "rwl")
            .unwrap()
            .store(root)
            .unwrap();
        let deep = root.join("a/b/c");
        std::fs::create_dir_all(&deep).unwrap();
        let acl = Acl::load_effective(root, &deep).unwrap();
        assert!(acl.rights_of("unix:alice").contains(Rights::READ));
        // A closer ACL overrides.
        Acl::single("unix:bob", "r")
            .unwrap()
            .store(&root.join("a/b"))
            .unwrap();
        let acl = Acl::load_effective(root, &deep).unwrap();
        assert!(acl.rights_of("unix:alice").is_empty());
        assert!(acl.rights_of("unix:bob").contains(Rights::READ));
    }

    proptest! {
        #[test]
        fn rights_round_trip(bits in 0u8..64) {
            let entry = AclEntry {
                subject: "x:y".into(),
                rights: Rights(bits),
                reserve: if Rights(bits).contains(Rights::RESERVE) {
                    Rights::READ | Rights::LIST
                } else {
                    Rights::empty()
                },
            };
            let spec = entry.rights_string();
            prop_assume!(!spec.is_empty());
            let (r, v) = AclEntry::parse_rights(&spec).unwrap();
            prop_assert_eq!(r, entry.rights);
            prop_assert_eq!(v, entry.reserve);
        }

        #[test]
        fn wildcard_literal_matches_self(s in "[a-z:./]{0,32}") {
            prop_assert!(wildcard_match(&s, &s));
        }

        #[test]
        fn wildcard_star_prefix(s in "[a-z]{0,16}", t in "[a-z]{0,16}") {
            let pattern = format!("{s}*");
            let text = format!("{s}{t}");
            let matched = wildcard_match(&pattern, &text);
            prop_assert!(matched);
        }
    }
}
