//! Integration tests for the extension abstractions (paper §10
//! future work): transparent striping and transparent replication,
//! against live file servers.

mod common;

use std::sync::Arc;

use chirp_proto::testutil::TempDir;
use chirp_proto::OpenFlags;
use common::{auth, data_count, open_server};
use tss_core::fs::FileSystem;
use tss_core::fsck::{fsck, repair, RepairOptions};
use tss_core::stub::StubRecord;
use tss_core::stubfs::{DataServer, StubFsOptions};
use tss_core::{LocalFs, MirroredFs, Placement, StripedFs, StubFs};

fn pool(servers: &[&chirp_server::FileServer]) -> Vec<DataServer> {
    servers
        .iter()
        .map(|s| DataServer::new(&s.endpoint(), "/vol", auth()))
        .collect()
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131) % 251) as u8).collect()
}

// ---- striping -----------------------------------------------------------

#[test]
fn striped_write_read_round_trip() {
    let meta_dir = TempDir::new();
    let hosts: Vec<TempDir> = (0..3).map(|_| TempDir::new()).collect();
    let servers: Vec<chirp_server::FileServer> =
        hosts.iter().map(|d| open_server(d.path())).collect();
    let refs: Vec<&chirp_server::FileServer> = servers.iter().collect();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = StripedFs::new(meta, pool(&refs), 3, 4096, StubFsOptions::default()).unwrap();
    fs.ensure_volumes().unwrap();

    // Sizes crossing stripe boundaries, exact multiples, tiny tails.
    for size in [1usize, 4095, 4096, 4097, 3 * 4096, 10 * 4096 + 17] {
        let path = format!("/f{size}");
        let data = pattern(size);
        fs.write_file(&path, &data).unwrap();
        assert_eq!(fs.read_file(&path).unwrap(), data, "size {size}");
        assert_eq!(fs.stat(&path).unwrap().size as usize, size);
    }
    // Each server holds one part per file.
    for host in &hosts {
        assert_eq!(data_count(&host.path().join("vol")), 6);
    }
}

#[test]
fn striped_data_is_actually_spread() {
    let meta_dir = TempDir::new();
    let hosts: Vec<TempDir> = (0..2).map(|_| TempDir::new()).collect();
    let servers: Vec<chirp_server::FileServer> =
        hosts.iter().map(|d| open_server(d.path())).collect();
    let refs: Vec<&chirp_server::FileServer> = servers.iter().collect();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = StripedFs::new(meta, pool(&refs), 2, 1000, StubFsOptions::default()).unwrap();
    fs.ensure_volumes().unwrap();
    fs.write_file("/wide", &pattern(5000)).unwrap();
    // 5 stripes of 1000 over 2 servers: 3 + 2.
    let sizes: Vec<u64> = hosts
        .iter()
        .map(|h| {
            std::fs::read_dir(h.path().join("vol"))
                .unwrap()
                .flatten()
                .filter(|e| e.file_name() != ".__acl")
                .map(|e| e.metadata().unwrap().len())
                .sum()
        })
        .collect();
    let mut sorted = sizes.clone();
    sorted.sort();
    assert_eq!(
        sorted,
        vec![2000, 3000],
        "stripes dealt round-robin: {sizes:?}"
    );
}

#[test]
fn striped_random_access_and_truncate() {
    let meta_dir = TempDir::new();
    let hosts: Vec<TempDir> = (0..3).map(|_| TempDir::new()).collect();
    let servers: Vec<chirp_server::FileServer> =
        hosts.iter().map(|d| open_server(d.path())).collect();
    let refs: Vec<&chirp_server::FileServer> = servers.iter().collect();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = StripedFs::new(meta, pool(&refs), 3, 100, StubFsOptions::default()).unwrap();
    fs.ensure_volumes().unwrap();
    let data = pattern(1000);
    fs.write_file("/f", &data).unwrap();
    let mut h = fs.open("/f", OpenFlags::read_write(), 0).unwrap();
    // Read a window straddling several stripes.
    let mut buf = vec![0u8; 333];
    assert_eq!(h.pread(&mut buf, 95).unwrap(), 333);
    assert_eq!(&buf[..], &data[95..428]);
    // Overwrite across a stripe boundary (99..102 spans stripes 0/1)
    // and read back through the same boundary.
    h.pwrite(b"XYZ", 99).unwrap();
    let mut buf = vec![0u8; 5];
    h.pread(&mut buf, 98).unwrap();
    assert_eq!(buf, [data[98], b'X', b'Y', b'Z', data[102]]);
    // Truncate to a non-boundary size.
    h.ftruncate(517).unwrap();
    assert_eq!(h.fstat().unwrap().size, 517);
    drop(h);
    assert_eq!(fs.read_file("/f").unwrap().len(), 517);
    assert_eq!(fs.stat("/f").unwrap().size, 517);
}

#[test]
fn striped_unlink_removes_all_parts() {
    let meta_dir = TempDir::new();
    let hosts: Vec<TempDir> = (0..2).map(|_| TempDir::new()).collect();
    let servers: Vec<chirp_server::FileServer> =
        hosts.iter().map(|d| open_server(d.path())).collect();
    let refs: Vec<&chirp_server::FileServer> = servers.iter().collect();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let fs = StripedFs::new(meta, pool(&refs), 2, 256, StubFsOptions::default()).unwrap();
    fs.ensure_volumes().unwrap();
    fs.write_file("/f", &pattern(10_000)).unwrap();
    fs.unlink("/f").unwrap();
    for host in &hosts {
        assert_eq!(data_count(&host.path().join("vol")), 0);
    }
    assert!(fs.readdir("/").unwrap().is_empty());
}

#[test]
fn striped_width_must_fit_pool() {
    let meta_dir = TempDir::new();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let p = vec![DataServer::new("h:1", "/vol", Vec::new())];
    assert!(StripedFs::new(meta.clone(), p.clone(), 2, 100, StubFsOptions::default()).is_err());
    assert!(StripedFs::new(meta.clone(), p.clone(), 0, 100, StubFsOptions::default()).is_err());
    assert!(StripedFs::new(meta, p, 1, 0, StubFsOptions::default()).is_err());
}

// ---- mirroring ----------------------------------------------------------

fn mirrored_fixture(
    n: usize,
    copies: usize,
) -> (
    TempDir,
    Vec<TempDir>,
    Vec<chirp_server::FileServer>,
    MirroredFs,
) {
    let meta_dir = TempDir::new();
    let hosts: Vec<TempDir> = (0..n).map(|_| TempDir::new()).collect();
    let servers: Vec<chirp_server::FileServer> =
        hosts.iter().map(|d| open_server(d.path())).collect();
    let refs: Vec<&chirp_server::FileServer> = servers.iter().collect();
    let meta = Arc::new(LocalFs::new(meta_dir.path()).unwrap());
    let options = StubFsOptions {
        timeout: std::time::Duration::from_millis(500),
        retry: tss_core::RetryPolicy::none(),
        ..StubFsOptions::default()
    };
    let fs = MirroredFs::new(meta, pool(&refs), copies, options).unwrap();
    fs.ensure_volumes().unwrap();
    (meta_dir, hosts, servers, fs)
}

#[test]
fn mirrored_write_lands_on_every_replica() {
    let (_m, hosts, _servers, fs) = mirrored_fixture(2, 2);
    let data = pattern(50_000);
    fs.write_file("/f", &data).unwrap();
    for host in &hosts {
        let vol = host.path().join("vol");
        let entry = std::fs::read_dir(&vol)
            .unwrap()
            .flatten()
            .find(|e| e.file_name() != ".__acl")
            .expect("replica present");
        assert_eq!(std::fs::read(entry.path()).unwrap(), data);
    }
    assert_eq!(fs.read_file("/f").unwrap(), data);
    assert_eq!(fs.stat("/f").unwrap().size, 50_000);
}

#[test]
fn mirrored_reads_survive_a_dead_server() {
    let (_m, _hosts, mut servers, fs) = mirrored_fixture(3, 3);
    let data = pattern(10_000);
    fs.write_file("/precious", &data).unwrap();
    // Kill two of three replicas' servers.
    servers[0].shutdown();
    servers[1].shutdown();
    assert_eq!(fs.read_file("/precious").unwrap(), data);
    assert_eq!(fs.stat("/precious").unwrap().size, 10_000);
    // Writes, however, are strict: they must reach every mirror.
    assert!(fs.write_file("/precious", b"new").is_err());
}

#[test]
fn mirrored_unlink_tolerates_dead_replicas() {
    let (_m, hosts, mut servers, fs) = mirrored_fixture(2, 2);
    fs.write_file("/f", &pattern(100)).unwrap();
    servers[0].shutdown();
    fs.unlink("/f").unwrap();
    assert!(fs.readdir("/").unwrap().is_empty());
    // The live server's copy is gone.
    assert_eq!(data_count(&hosts[1].path().join("vol")), 0);
}

#[test]
fn mirrored_handles_replicate_truncate_and_sync() {
    let (_m, _hosts, _servers, fs) = mirrored_fixture(2, 2);
    let mut h = fs
        .open("/f", OpenFlags::read_write() | OpenFlags::CREATE, 0o644)
        .unwrap();
    h.pwrite(&pattern(1000), 0).unwrap();
    h.fsync().unwrap();
    h.ftruncate(10).unwrap();
    assert_eq!(h.fstat().unwrap().size, 10);
    drop(h);
    assert_eq!(fs.read_file("/f").unwrap(), pattern(1000)[..10]);
}

// ---- one engine, three layouts ------------------------------------------

struct Fixture {
    meta_dir: TempDir,
    hosts: Vec<TempDir>,
    servers: Vec<chirp_server::FileServer>,
}

impl Fixture {
    fn new(n: usize) -> Fixture {
        let hosts: Vec<TempDir> = (0..n).map(|_| TempDir::new()).collect();
        let servers = hosts.iter().map(|d| open_server(d.path())).collect();
        Fixture {
            meta_dir: TempDir::new(),
            hosts,
            servers,
        }
    }

    fn meta(&self) -> Arc<LocalFs> {
        Arc::new(LocalFs::new(self.meta_dir.path()).unwrap())
    }

    fn pool(&self) -> Vec<DataServer> {
        pool(&self.servers.iter().collect::<Vec<_>>())
    }

    fn options(&self) -> StubFsOptions {
        StubFsOptions {
            timeout: std::time::Duration::from_millis(500),
            retry: tss_core::RetryPolicy::none(),
            ..StubFsOptions::default()
        }
    }

    // The three engines, over the same tree and pool.

    fn single(&self) -> StubFs {
        StubFs::new(
            self.meta(),
            self.pool(),
            Placement::round_robin(),
            self.options(),
        )
    }

    fn striped(&self) -> StripedFs {
        let width = self.servers.len();
        StripedFs::new(self.meta(), self.pool(), width, 64, self.options()).unwrap()
    }

    fn mirrored(&self) -> MirroredFs {
        let copies = self.servers.len();
        MirroredFs::new(self.meta(), self.pool(), copies, self.options()).unwrap()
    }

    fn volume(&self, host: usize) -> std::path::PathBuf {
        self.hosts[host].path().join("vol")
    }
}

/// §5 forbids unreferenced data: a create that fails on one server
/// must take back the parts it made on the others, along with the stub.
#[test]
fn partial_create_leaves_no_orphans() {
    let fx = Fixture::new(2);
    // `/vol` exists on the first server only, so the second part of
    // every create is refused.
    std::fs::create_dir(fx.volume(0)).unwrap();
    let striped = fx.striped();
    let mirrored = fx.mirrored();
    let engines: [(&str, &dyn FileSystem, &StubFs); 2] = [
        ("striped", &striped, striped.stubfs()),
        ("mirrored", &mirrored, mirrored.stubfs()),
    ];
    for (kind, fs, engine) in engines {
        let err = fs
            .write_file("/f", &pattern(1000))
            .expect_err("second server has no volume");
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{kind}: {err}");
        assert!(fs.readdir("/").unwrap().is_empty(), "{kind}: stub remains");
        assert_eq!(data_count(&fx.volume(0)), 0, "{kind}: stray part");
        let report = fsck(engine).unwrap();
        assert!(report.is_clean(), "{kind}: {report:?}");
    }
}

/// A server that cannot be reached made no part, so its failed create
/// must not wedge the name: the stub goes, and the retry is placed on
/// the next server.
#[test]
fn create_on_a_dead_server_leaves_no_stub_and_the_retry_lands_elsewhere() {
    let mut fx = Fixture::new(2);
    let fs = fx.single();
    fs.ensure_volumes().unwrap();
    fx.servers[0].shutdown();
    let err = fs
        .write_file("/f", &pattern(100))
        .expect_err("round-robin starts on the dead server");
    assert!(tss_core::cfs::is_transport_error(&err), "{err}");
    assert!(fs.readdir("/").unwrap().is_empty(), "stub remains");
    fs.write_file("/f", &pattern(100)).unwrap();
    assert_eq!(fs.read_file("/f").unwrap(), pattern(100));
    assert_eq!(data_count(&fx.volume(1)), 1);
    fs.unlink("/f").unwrap();
    assert_eq!(data_count(&fx.volume(1)), 0);
}

/// The loser of an exclusive-create race is stopped at the stub and
/// touches no data server.
#[test]
fn exclusive_create_collision_creates_no_part() {
    let fx = Fixture::new(2);
    let striped = fx.striped();
    striped.ensure_volumes().unwrap();
    let mirrored = fx.mirrored();
    let engines: [(&str, &dyn FileSystem); 2] = [("/s", &striped), ("/m", &mirrored)];
    let exclusive = OpenFlags::WRITE | OpenFlags::CREATE | OpenFlags::EXCLUSIVE;
    for (i, (path, fs)) in engines.into_iter().enumerate() {
        drop(fs.open(path, exclusive, 0o644).unwrap());
        let err = fs
            .open(path, exclusive, 0o644)
            .err()
            .expect("name is taken");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        for host in 0..2 {
            assert_eq!(data_count(&fx.volume(host)), i + 1, "{path}: extra part");
        }
    }
}

/// The stub, not the engine that opened the tree, says how a file is
/// laid out: one directory holds all three kinds, any engine reads any
/// of them, and the batched listing agrees with per-entry `stat`.
#[test]
fn readdir_stat_matches_stat_across_layouts() {
    let fx = Fixture::new(2);
    let single = fx.single();
    single.ensure_volumes().unwrap();
    let striped = fx.striped();
    let mirrored = fx.mirrored();
    single.mkdir("/sub", 0o755).unwrap();
    single.write_file("/one", &pattern(300)).unwrap();
    striped.write_file("/wide", &pattern(1000)).unwrap();
    mirrored.write_file("/safe", &pattern(500)).unwrap();
    // A dangling entry: the stub survives, its data does not.
    single.write_file("/gone", b"doomed").unwrap();
    let stub = std::fs::read_to_string(fx.meta_dir.path().join("gone")).unwrap();
    let (endpoint, data_path) = StubRecord::parse(&stub).unwrap().parts.remove(0);
    let host = fx
        .servers
        .iter()
        .position(|s| s.endpoint() == endpoint)
        .unwrap();
    std::fs::remove_file(fx.hosts[host].path().join(&data_path[1..])).unwrap();

    let engines: [&dyn FileSystem; 3] = [&single, &striped, &mirrored];
    for fs in engines {
        assert_eq!(fs.read_file("/one").unwrap(), pattern(300));
        assert_eq!(fs.read_file("/wide").unwrap(), pattern(1000));
        assert_eq!(fs.read_file("/safe").unwrap(), pattern(500));
        let mut listed = fs.readdir_stat("/").unwrap();
        listed.sort_by(|a, b| a.0.cmp(&b.0));
        let names: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["one", "safe", "sub", "wide"], "dangling omitted");
        for (name, st) in &listed {
            assert_eq!(*st, fs.stat(&format!("/{name}")).unwrap(), "{name}");
        }
        let sizes: Vec<u64> = listed.iter().map(|(_, st)| st.size).collect();
        assert_eq!(sizes[0], 300);
        assert_eq!(sizes[1], 500);
        assert_eq!(sizes[3], 1000);
    }
    assert_eq!(
        single.stat("/gone").unwrap_err().kind(),
        std::io::ErrorKind::NotFound
    );
}

/// A mirrored file is healthy while any replica survives — fsck must
/// not condemn it, nor repair touch it — and dangling once none does.
#[test]
fn fsck_judges_a_mirrored_tree_by_surviving_replicas() {
    let fx = Fixture::new(2);
    let fs = fx.mirrored();
    fs.ensure_volumes().unwrap();
    fs.write_file("/f", &pattern(100)).unwrap();
    let all = RepairOptions {
        remove_dangling_stubs: true,
        remove_orphans: true,
    };
    let wipe = |host: usize| {
        for e in std::fs::read_dir(fx.volume(host)).unwrap().flatten() {
            if e.file_name() != ".__acl" {
                std::fs::remove_file(e.path()).unwrap();
            }
        }
    };

    assert_eq!(fsck(fs.stubfs()).unwrap().healthy, vec!["/f"]);
    wipe(0);
    let report = fsck(fs.stubfs()).unwrap();
    assert_eq!(report.healthy, vec!["/f"]);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(repair(fs.stubfs(), &report, all).unwrap(), 0);
    assert_eq!(fs.read_file("/f").unwrap(), pattern(100));

    wipe(1);
    let report = fsck(fs.stubfs()).unwrap();
    assert_eq!(report.dangling_stubs, vec!["/f"]);
    assert!(report.healthy.is_empty());
    assert_eq!(repair(fs.stubfs(), &report, all).unwrap(), 1);
    assert!(fsck(fs.stubfs()).unwrap().is_clean());
}
