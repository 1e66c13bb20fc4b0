//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. control+data on one TCP stream (Chirp) vs FTP-style split
//!    connections with per-file slow start;
//! 2. the recursive-abstraction stub access path: one `GETFILE` RPC
//!    vs an open/stat/read/close sequence (measured live);
//! 3. per-server buffer cache size vs the Figure 7 crossover, and
//!    (3b) server-to-server replication vs through the client
//!    (measured live);
//! 4. access skew vs server scaling.

use tss::chirp_proto::testutil::TempDir;
use tss::chirp_proto::OpenFlags;
use tss::core::fs::FileSystem;
use tss::core::Cfs;
use tss::simnet::ablation::{access_skew_sweep, cache_sweep, chirp_batch, ftp_batch};
use tss::simnet::CostModel;

use crate::rig::{auth, fixtures, fmt_us, measure_latency, open_server, print_table};

pub fn ablation() {
    let m = CostModel::default();

    // -- 1: single-stream vs split control/data ------------------------
    let rows: Vec<Vec<String>> = [
        (1000u64, 16u64 << 10),
        (1000, 64 << 10),
        (100, 1 << 20),
        (10, 64 << 20),
    ]
    .iter()
    .map(|&(files, bytes)| {
        let chirp = chirp_batch(&m, files, bytes);
        let ftp = ftp_batch(&m, files, bytes);
        vec![
            format!("{files} x {}KB", bytes >> 10),
            format!("{:.2}", chirp),
            format!("{:.2}", ftp),
            format!("{:.1}x", ftp / chirp),
        ]
    })
    .collect();
    print_table(
        "Ablation 1 (modelled): batch transfer, one stream vs FTP-style, seconds",
        &["workload", "chirp", "ftp-style", "ftp/chirp"],
        &rows,
    );
    println!(
        "  the paper's claim: splitting data from control re-pays TCP slow\n\
         \x20 start per file; the penalty is largest for many small files."
    );

    // -- 2: recursive stub access, measured -----------------------------
    let f = fixtures();
    f.cfs
        .write_file("/stub", b"#tss-stub-v1\nh:1\n/x\n")
        .unwrap();
    let single = measure_latency(
        || {
            f.cfs.read_file("/stub").unwrap();
        },
        50,
        1500,
    );
    let multi = measure_latency(
        || {
            // The naive path: open, fstat, read, close — what the stub
            // read would cost without the whole-file RPC.
            let mut h = f.cfs.open("/stub", OpenFlags::READ, 0).unwrap();
            let size = h.fstat().unwrap().size as usize;
            let mut buf = vec![0u8; size];
            h.pread(&mut buf, 0).unwrap();
        },
        50,
        1500,
    );
    print_table(
        "Ablation 2 (measured): stub read via GETFILE vs open/stat/read/close, us",
        &["path", "latency"],
        &[
            vec!["getfile (1 RPC)".into(), fmt_us(single.0)],
            vec!["open/stat/read/close (4 RPCs)".into(), fmt_us(multi.0)],
        ],
    );
    println!(
        "  DSFS metadata ops ride the single-RPC path, which is what keeps\n\
         \x20 them at ~2x CFS latency in Figure 4 instead of ~4x."
    );

    // -- 3: buffer cache sweep ------------------------------------------
    let caches = [128u64 << 20, 256 << 20, 512 << 20, 1024 << 20];
    let rows: Vec<Vec<String>> = cache_sweep(&m, &caches, &[1, 2, 3, 4])
        .into_iter()
        .map(|row| {
            let mut cells = vec![format!("{} MB", row.cache >> 20)];
            cells.extend(row.throughput.iter().map(|(_, mbps)| format!("{mbps:.0}")));
            cells
        })
        .collect();
    print_table(
        "Ablation 3 (simulated): Figure 7 throughput (MB/s) vs per-server cache",
        &["cache", "1 srv", "2 srv", "3 srv", "4 srv"],
        &rows,
    );
    println!(
        "  the paper's 3-server crossover is a property of the 512 MB nodes:\n\
         \x20 double the RAM and two servers suffice; halve it and four are needed."
    );

    // -- 3b: replication path, measured -----------------------------------
    // THIRDPUT (server pushes to server) vs pull-push through the
    // replicating client: same bytes, one network traversal instead of
    // two plus a client copy.
    let (dir_a, dir_b) = (TempDir::new(), TempDir::new());
    let (a_srv, b_srv) = (open_server(dir_a.path()), open_server(dir_b.path()));
    let cfs_a = Cfs::connect(&a_srv.endpoint(), auth());
    let cfs_b = Cfs::connect(&b_srv.endpoint(), auth());
    cfs_a
        .putfile("/src", 0o644, &vec![0x5au8; 8 << 20])
        .unwrap();
    let (third, _) = measure_latency(
        || {
            cfs_a
                .thirdput("/src", &b_srv.endpoint(), "/dst-third")
                .unwrap();
        },
        2,
        10,
    );
    let (pullpush, _) = measure_latency(
        || {
            let data = cfs_a.getfile("/src").unwrap();
            cfs_b.putfile("/dst-pp", 0o644, &data).unwrap();
        },
        2,
        10,
    );
    print_table(
        "Ablation 3b (measured): replicating 8 MiB between servers, ms",
        &["path", "time"],
        &[
            vec![
                "thirdput (server-to-server)".into(),
                format!("{:.1}", third * 1e3),
            ],
            vec![
                "pull+push (via client)".into(),
                format!("{:.1}", pullpush * 1e3),
            ],
        ],
    );
    println!(
        "  the GEMS replicator directs THIRDPUT so bulk repair traffic never\n\
         \x20 visits the replicator host."
    );

    // -- 4: access skew vs server scaling --------------------------------
    let rows: Vec<Vec<String>> = access_skew_sweep(&m, 2.0, &[1, 2, 4, 8])
        .into_iter()
        .map(|(s, uni, zipf)| vec![s.to_string(), format!("{uni:.0}"), format!("{zipf:.0}")])
        .collect();
    print_table(
        "Ablation 4 (simulated): Figure 6 throughput (MB/s), uniform vs Zipf(2.0) access",
        &["servers", "uniform", "zipf"],
        &rows,
    );
    println!(
        "  the paper's linear scaling assumes clients pick files uniformly; a\n\
         \x20 hot-set workload pins load on whichever server holds the popular\n\
         \x20 files, and adding servers stops helping."
    );
}
