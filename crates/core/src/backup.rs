//! Distributed backups — the conclusion's closing application: "a TSS
//! is a natural platform for distributed backups, allowing cooperating
//! users to easily record many backup images, thus allowing for
//! on-line perusal, recovery, and forensic analysis of data over
//! time."
//!
//! A [`BackupVault`] lives inside *any* [`FileSystem`] — a CFS on a
//! friend's workstation, a DSFS across a department, a mirrored pool —
//! because it needs nothing beyond the recursive Unix interface:
//!
//! ```text
//! <root>/objects/<crc64>      content-addressed blobs, deduplicated
//! <root>/images/<seq>-<label> one manifest per backup image
//! ```
//!
//! Manifests are published with an atomic `rename`, so a reader never
//! sees a half-written image (the same exclusive-rename discipline the
//! DSFS create protocol uses — one more payoff of recursive
//! abstractions). Unchanged files across images share their blobs, so
//! "many backup images" cost little more than one.
//!
//! The side being backed up or restored into is a [`FileSystem`] too,
//! usually a [`crate::LocalFs`] rooted at a host directory, so the
//! vault never names a host path itself.

use std::io;
use std::sync::Arc;

use crate::fs::{join_path, normalize_path, parent_of, path_components, FileSystem};

/// One recorded backup image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageInfo {
    /// Directory name under `images/`: `<seq>-<label>`.
    pub name: String,
    /// Monotonic sequence number.
    pub seq: u64,
    /// User label.
    pub label: String,
    /// Files recorded.
    pub file_count: u64,
    /// Total logical bytes (before deduplication).
    pub total_bytes: u64,
}

/// One manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    /// Path relative to the backup source.
    path: String,
    /// CRC-64 of the contents = object name.
    checksum: u64,
    /// Size in bytes.
    size: u64,
}

/// A backup vault inside some storage abstraction.
pub struct BackupVault {
    fs: Arc<dyn FileSystem>,
    root: String,
}

impl BackupVault {
    /// Open (creating if needed) a vault at `root` on `fs`.
    pub fn open(fs: Arc<dyn FileSystem>, root: &str) -> io::Result<BackupVault> {
        let root = normalize_path(root);
        let vault = BackupVault { fs, root };
        // Create the root's ancestors too, so a vault can live at any
        // depth of a fresh server.
        mkdir_all(&*vault.fs, &vault.path("objects"))?;
        mkdir_all(&*vault.fs, &vault.path("images"))?;
        Ok(vault)
    }

    fn path(&self, rest: &str) -> String {
        if self.root == "/" {
            format!("/{rest}")
        } else {
            format!("{}/{rest}", self.root)
        }
    }

    fn object_path(&self, checksum: u64) -> String {
        self.path(&format!("objects/{checksum:016x}"))
    }

    /// Record a backup image of the whole of `source`, from its root.
    ///
    /// Only blobs not already present are uploaded; the manifest is
    /// staged under a temporary name and atomically renamed into
    /// place.
    pub fn backup(&self, source: &dyn FileSystem, label: &str) -> io::Result<ImageInfo> {
        if label.is_empty() || label.contains('/') || label.contains('-') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "label must be nonempty without '/' or '-'",
            ));
        }
        let mut entries = Vec::new();
        let mut stack = vec!["/".to_string()];
        while let Some(dir) = stack.pop() {
            let mut names = source.readdir_stat(&dir)?;
            names.sort_by(|a, b| a.0.cmp(&b.0));
            for (name, st) in names {
                let path = join_path(&dir, &name);
                if st.is_dir() {
                    stack.push(path);
                } else if st.is_file() {
                    let data = source.read_file(&path)?;
                    let checksum = chirp_proto::crc64(&data);
                    let object = self.object_path(checksum);
                    // Content addressing makes dedup a stat.
                    if self.fs.stat(&object).is_err() {
                        self.fs.write_file(&object, &data)?;
                    }
                    entries.push(ManifestEntry {
                        path: path[1..].to_string(),
                        checksum,
                        size: data.len() as u64,
                    });
                }
            }
        }
        let seq = self
            .images()?
            .iter()
            .map(|i| i.seq)
            .max()
            .map_or(1, |s| s + 1);
        let name = format!("{seq:08}-{label}");
        let mut manifest = String::new();
        for e in &entries {
            manifest.push_str(&format!(
                "{} {:016x} {}\n",
                chirp_proto::escape::escape(e.path.as_bytes()),
                e.checksum,
                e.size
            ));
        }
        // Stage, then atomically publish.
        let tmp = self.path(&format!(
            "images/.staging-{}",
            crate::placement::unique_data_name()
        ));
        self.fs.write_file(&tmp, manifest.as_bytes())?;
        self.fs
            .rename(&tmp, &self.path(&format!("images/{name}")))?;
        Ok(ImageInfo {
            name,
            seq,
            label: label.to_string(),
            file_count: entries.len() as u64,
            total_bytes: entries.iter().map(|e| e.size).sum(),
        })
    }

    /// All published images, oldest first. Staging files are invisible.
    pub fn images(&self) -> io::Result<Vec<ImageInfo>> {
        let mut out = Vec::new();
        for name in self.fs.readdir(&self.path("images"))? {
            let Some((seq, label)) = name.split_once('-') else {
                continue; // staging or foreign file
            };
            let Ok(seq) = seq.parse::<u64>() else {
                continue;
            };
            let entries = self.manifest(&name)?;
            out.push(ImageInfo {
                name: name.clone(),
                seq,
                label: label.to_string(),
                file_count: entries.len() as u64,
                total_bytes: entries.iter().map(|e| e.size).sum(),
            });
        }
        out.sort_by_key(|i| i.seq);
        Ok(out)
    }

    fn manifest(&self, image: &str) -> io::Result<Vec<ManifestEntry>> {
        let body = self.fs.read_file(&self.path(&format!("images/{image}")))?;
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "manifest not utf-8"))?;
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "bad manifest line");
        text.lines()
            .map(|line| {
                let mut w = line.split(' ');
                let path = w
                    .next()
                    .and_then(chirp_proto::escape::unescape)
                    .and_then(|b| String::from_utf8(b).ok())
                    .ok_or_else(bad)?;
                let checksum =
                    u64::from_str_radix(w.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
                let size = w.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                Ok(ManifestEntry {
                    path,
                    checksum,
                    size,
                })
            })
            .collect()
    }

    /// On-line perusal: list an image's files.
    pub fn list_image(&self, image: &str) -> io::Result<Vec<(String, u64)>> {
        Ok(self
            .manifest(image)?
            .into_iter()
            .map(|e| (e.path, e.size))
            .collect())
    }

    /// On-line perusal: read one file out of one image, verified.
    pub fn read_file(&self, image: &str, path: &str) -> io::Result<Vec<u8>> {
        let entry = self
            .manifest(image)?
            .into_iter()
            .find(|e| e.path == path)
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
        let data = self.fs.read_file(&self.object_path(entry.checksum))?;
        if chirp_proto::crc64(&data) != entry.checksum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "backup object corrupted",
            ));
        }
        Ok(data)
    }

    /// Recovery: materialize a whole image into `dest`, from its root.
    pub fn restore(&self, image: &str, dest: &dyn FileSystem) -> io::Result<u64> {
        let entries = self.manifest(image)?;
        for e in &entries {
            let target = normalize_path(&e.path);
            if let Some(parent) = parent_of(&target) {
                mkdir_all(dest, parent)?;
            }
            let data = self.read_file(image, &e.path)?;
            dest.write_file(&target, &data)?;
        }
        Ok(entries.len() as u64)
    }

    /// Drop the oldest images, keeping `keep_last`, and garbage-collect
    /// blobs no surviving image references. Returns
    /// `(images_removed, objects_removed)`.
    pub fn prune(&self, keep_last: usize) -> io::Result<(u64, u64)> {
        let images = self.images()?;
        let cut = images.len().saturating_sub(keep_last);
        let (doomed, kept) = images.split_at(cut);
        // Referenced set from surviving manifests.
        let mut live = std::collections::HashSet::new();
        for image in kept {
            for e in self.manifest(&image.name)? {
                live.insert(e.checksum);
            }
        }
        for image in doomed {
            self.fs
                .unlink(&self.path(&format!("images/{}", image.name)))?;
        }
        let mut objects_removed = 0;
        for name in self.fs.readdir(&self.path("objects"))? {
            let Ok(sum) = u64::from_str_radix(&name, 16) else {
                continue;
            };
            if !live.contains(&sum) {
                self.fs.unlink(&self.path(&format!("objects/{name}")))?;
                objects_removed += 1;
            }
        }
        Ok((doomed.len() as u64, objects_removed))
    }

    /// Bytes of blob storage currently used (post-dedup).
    pub fn stored_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for name in self.fs.readdir(&self.path("objects"))? {
            total += self.fs.stat(&self.path(&format!("objects/{name}")))?.size;
        }
        Ok(total)
    }
}

/// Make `dir` and each missing ancestor on `fs`.
fn mkdir_all(fs: &dyn FileSystem, dir: &str) -> io::Result<()> {
    let mut prefix = "/".to_string();
    for comp in path_components(dir) {
        prefix = join_path(&prefix, comp);
        match fs.mkdir(&prefix, 0o755) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
