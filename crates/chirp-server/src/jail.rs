//! Software `chroot`: confining protocol paths to the server root.
//!
//! Because real `chroot(2)` is only available to root and a Chirp
//! server must be deployable by an ordinary user, the server provides
//! an equivalent facility in software: every protocol path is resolved
//! *logically* (component by component, without consulting symlinks)
//! against the server root, and `..` can never climb above it.

use std::path::{Path, PathBuf};

use chirp_proto::ChirpError;

/// Name of the per-directory ACL file. It is part of the server's
/// private metadata: invisible to `getdir` and unreachable through any
/// protocol path.
pub const ACL_FILE: &str = ".__acl";

/// A path jail rooted at the server's export directory.
#[derive(Debug, Clone)]
pub struct Jail {
    root: PathBuf,
}

impl Jail {
    /// Create a jail rooted at `root`. The directory must exist.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<Jail> {
        let root = root.into().canonicalize()?;
        Ok(Jail { root })
    }

    /// The jail root on the host filesystem.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Normalize a protocol path into jail-relative components.
    ///
    /// Protocol paths are always absolute (`/a/b/c`). `.` and empty
    /// components vanish; `..` pops but never climbs above the root
    /// (as in a real chroot, `/..` is `/`). Components that would name
    /// the ACL metadata file are rejected.
    pub fn components<'a>(&self, chirp_path: &'a str) -> Result<Vec<&'a str>, ChirpError> {
        let mut parts: Vec<&str> = Vec::new();
        for comp in chirp_path.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                ACL_FILE => return Err(ChirpError::NotAuthorized),
                c => parts.push(c),
            }
        }
        Ok(parts)
    }

    /// Resolve a protocol path to a host path inside the jail.
    pub fn resolve(&self, chirp_path: &str) -> Result<PathBuf, ChirpError> {
        let mut out = self.root.clone();
        for comp in self.components(chirp_path)? {
            out.push(comp);
        }
        Ok(out)
    }

    /// Resolve a protocol path to `(host_parent_dir, leaf_name)`.
    ///
    /// ACL checks are made against the *containing directory* of the
    /// target, which this accessor names. Fails on the root itself,
    /// which has no parent inside the jail.
    pub fn resolve_parent<'a>(
        &self,
        chirp_path: &'a str,
    ) -> Result<(PathBuf, &'a str), ChirpError> {
        let mut parts = self.components(chirp_path)?;
        let leaf = parts.pop().ok_or(ChirpError::InvalidRequest)?;
        let mut dir = self.root.clone();
        for comp in parts {
            dir.push(comp);
        }
        Ok((dir, leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use chirp_proto::testutil::TempDir;

    fn jail() -> (TempDir, Jail) {
        let dir = TempDir::new();
        let jail = Jail::new(dir.path()).unwrap();
        (dir, jail)
    }

    #[test]
    fn plain_paths_resolve_under_root() {
        let (_d, j) = jail();
        assert_eq!(j.resolve("/a/b").unwrap(), j.root().join("a/b"));
    }

    #[test]
    fn dotdot_cannot_escape() {
        let (_d, j) = jail();
        assert_eq!(
            j.resolve("/../../../etc/passwd").unwrap(),
            j.root().join("etc/passwd")
        );
        assert_eq!(j.resolve("/a/../..").unwrap(), j.root());
    }

    #[test]
    fn dots_and_empties_collapse() {
        let (_d, j) = jail();
        assert_eq!(j.resolve("//a/./b//").unwrap(), j.root().join("a/b"));
    }

    #[test]
    fn acl_file_is_unreachable() {
        let (_d, j) = jail();
        assert_eq!(j.resolve("/.__acl").unwrap_err(), ChirpError::NotAuthorized);
        assert_eq!(
            j.resolve("/sub/.__acl").unwrap_err(),
            ChirpError::NotAuthorized
        );
    }

    #[test]
    fn parent_of_root_is_invalid() {
        let (_d, j) = jail();
        assert!(j.resolve_parent("/").is_err());
        assert!(j.resolve_parent("/a/..").is_err());
        let (dir, leaf) = j.resolve_parent("/a/b").unwrap();
        assert_eq!(dir, j.root().join("a"));
        assert_eq!(leaf, "b");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn resolved_paths_never_escape_the_root(path in "\\PC{0,64}") {
                let dir = TempDir::new();
                let j = Jail::new(dir.path()).unwrap();
                if let Ok(host) = j.resolve(&path) {
                    prop_assert!(
                        host.starts_with(j.root()),
                        "{path:?} resolved outside the jail: {host:?}"
                    );
                }
            }
        }
    }
}
