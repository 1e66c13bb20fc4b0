//! Figures 3–5: the cost of a single call and of a single client's
//! stream, each as the calibrated 2005 model and as a live loopback
//! measurement of this implementation.

use std::sync::Arc;

use tss::chirp_proto::OpenFlags;
use tss::core::adapter::{Adapter, AdapterConfig};
use tss::core::fs::FileSystem;
use tss::simnet::micro::{fig3_syscall_latency, fig4_io_latency, fig5_bandwidth, fig5_blocks};
use tss::simnet::CostModel;

use crate::rig::{
    best_write_bandwidth, fixtures, fmt_mbs, fmt_us, measure_latency, measure_read_bandwidth,
    print_table,
};

/// One live Figure 3 row: `call` timed directly and through the
/// adapter, with the slowdown.
fn slowdown_row(call: &str, direct: impl FnMut(), adapter: impl FnMut()) -> Vec<String> {
    let direct = measure_latency(direct, 100, 2000).0;
    let adapter = measure_latency(adapter, 100, 2000).0;
    vec![
        call.to_string(),
        fmt_us(direct),
        fmt_us(adapter),
        format!("{:.1}x", adapter / direct),
    ]
}

/// Figure 3 — System Call Latency: the overhead the Parrot adapter
/// charges on individual system calls (Unix vs Parrot).
///
/// The live view measures this library's adapter layer (direct
/// `LocalFs` vs through the `Adapter` namespace), which shares the
/// figure's *shape*: every call pays a fixed interposition tax that is
/// large relative to the raw syscall.
pub fn fig3() {
    let model = CostModel::default();
    let rows: Vec<Vec<String>> = fig3_syscall_latency(&model)
        .into_iter()
        .map(|r| {
            let unix = r.systems[0].1;
            let parrot = r.systems[1].1;
            vec![
                r.call.clone(),
                fmt_us(unix),
                fmt_us(parrot),
                format!("{:.1}x", parrot / unix),
            ]
        })
        .collect();
    print_table(
        "Figure 3 (modelled 2005 testbed): syscall latency, us",
        &["call", "unix", "parrot", "slowdown"],
        &rows,
    );
    println!("  paper: most calls slowed by an order of magnitude under the adapter");

    let f = fixtures();
    f.local.write_file("/f", &vec![0u8; 8192]).unwrap();
    let adapter = Adapter::new(AdapterConfig::default()).unwrap();
    adapter.register("/direct", f.local.clone());
    let (mut buf_d, mut buf_a) = (vec![0u8; 8192], vec![0u8; 8192]);
    let mut hd = f.local.open("/f", OpenFlags::READ, 0).unwrap();
    let mut ha = adapter
        .open_handle("/direct/f", OpenFlags::READ, 0)
        .unwrap();
    let rows = vec![
        slowdown_row(
            "stat",
            || {
                f.local.stat("/f").unwrap();
            },
            || {
                adapter.stat("/direct/f").unwrap();
            },
        ),
        slowdown_row(
            "open/close",
            || drop(f.local.open("/f", OpenFlags::READ, 0).unwrap()),
            || drop(adapter.open("/direct/f", OpenFlags::READ, 0).unwrap()),
        ),
        slowdown_row(
            "read 8kb",
            || {
                hd.pread(&mut buf_d, 0).unwrap();
            },
            || {
                ha.pread(&mut buf_a, 0).unwrap();
            },
        ),
    ];
    print_table(
        "Figure 3 (measured, this library): direct vs adapter, us",
        &["call", "direct", "adapter", "slowdown"],
        &rows,
    );
    println!(
        "  note: the library adapter interposes in-process (no ptrace), so its\n\
         \x20 tax is smaller than Parrot's; the shape (constant per-call overhead,\n\
         \x20 dwarfed by any network RTT — see fig4) is what carries over."
    );
}

/// Figure 4 — I/O Call Latency over the network: Parrot+CFS vs
/// Unix+NFS (no cache, async) vs Parrot+DSFS.
///
/// The claims under test: CFS ≤ NFS on metadata (whole-path RPCs vs
/// per-component lookups), DSFS ≈ 2× CFS on metadata (stub + data),
/// data ops identical CFS vs DSFS, and everything dominated by round
/// trips rather than by the adapter.
pub fn fig4() {
    let model = CostModel::default();
    let rows: Vec<Vec<String>> = fig4_io_latency(&model)
        .into_iter()
        .map(|r| {
            let mut row = vec![r.call.clone()];
            row.extend(r.systems.iter().map(|(_, v)| fmt_us(*v)));
            row
        })
        .collect();
    print_table(
        "Figure 4 (modelled 1GbE testbed): I/O call latency, us",
        &["call", "parrot+cfs", "unix+nfs", "parrot+dsfs"],
        &rows,
    );
    println!("  paper: CFS beats NFS on stat/open (no lookups); DSFS pays 2x metadata");

    let f = fixtures();
    let systems: [Arc<dyn FileSystem>; 3] = [f.cfs.clone(), f.nfs.clone(), f.dsfs.clone()];
    for fs in &systems {
        fs.mkdir("/a", 0o755).unwrap();
        fs.mkdir("/a/b", 0o755).unwrap();
        fs.mkdir("/a/b/c", 0o755).unwrap();
        fs.write_file("/a/b/c/f", &vec![7u8; 8192]).unwrap();
    }
    let path = "/a/b/c/f";
    let mean_us = |op: &mut dyn FnMut()| fmt_us(measure_latency(op, 50, 1500).0);

    let mut stat = vec!["stat".to_string()];
    let mut open = vec!["open/close".to_string()];
    let mut read = vec!["read 8kb".to_string()];
    let mut write = vec!["write 8kb".to_string()];
    let (mut buf, data) = (vec![0u8; 8192], vec![1u8; 8192]);
    for fs in &systems {
        stat.push(mean_us(&mut || {
            fs.stat(path).unwrap();
        }));
        open.push(mean_us(&mut || {
            drop(fs.open(path, OpenFlags::READ, 0).unwrap())
        }));
        let mut h = fs.open(path, OpenFlags::read_write(), 0).unwrap();
        read.push(mean_us(&mut || {
            h.pread(&mut buf, 0).unwrap();
        }));
        write.push(mean_us(&mut || {
            h.pwrite(&data, 0).unwrap();
        }));
    }
    print_table(
        "Figure 4 (measured, loopback TCP, 3-deep path): latency, us",
        &["call", "parrot+cfs", "unix+nfs", "parrot+dsfs"],
        &[stat, open, read, write],
    );
    println!(
        "  expected shape: cfs < nfs on stat/open (1 RPC vs per-component\n\
         \x20 lookups); dsfs ~2x cfs on metadata; 8kb ops: nfs pays two 4KB RPCs."
    );
}

/// Figure 5 — Single Client Bandwidth vs block size, writing 16 MB:
/// Unix (798 MB/s), Parrot (431 MB/s), Parrot+CFS (80 MB/s on 1 GbE),
/// Unix+NFS (10 MB/s).
///
/// The ordering claim — local ≫ CFS ≫ NFS, with NFS pinned by its
/// 4 KB serial RPCs — is hardware-independent.
pub fn fig5() {
    let model = CostModel::default();
    let blocks: Vec<u64> = fig5_blocks().into_iter().filter(|b| *b >= 128).collect();
    let rows: Vec<Vec<String>> = fig5_bandwidth(&model, &blocks)
        .into_iter()
        .map(|r| {
            let mut row = vec![r.block.to_string()];
            row.extend(r.systems.iter().map(|(_, v)| fmt_mbs(*v)));
            row
        })
        .collect();
    print_table(
        "Figure 5 (modelled): bandwidth writing 16MB, MB/s by block size",
        &["block", "unix", "parrot", "parrot+cfs", "unix+nfs"],
        &rows,
    );
    println!("  paper plateaus: unix 798, parrot 431, cfs 80 (1GbE), nfs 10 MB/s");

    let f = fixtures();
    let total = 16 << 20;
    let systems: [(&str, Arc<dyn FileSystem>); 3] = [
        ("unix", f.local.clone()),
        ("cfs", f.cfs.clone()),
        ("nfs", f.nfs.clone()),
    ];
    // Each row is one block size; each cell the best of three runs.
    let sweep = |blocks: &[usize], bw: &dyn Fn(&dyn FileSystem, &str, usize) -> f64| {
        blocks
            .iter()
            .map(|&block| {
                let mut row = vec![block.to_string()];
                for (name, fs) in &systems {
                    let path = format!("/bw-{name}-{block}");
                    row.push(fmt_mbs(bw(fs.as_ref(), &path, block)));
                }
                row
            })
            .collect::<Vec<Vec<String>>>()
    };
    let rows = sweep(
        &[4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20],
        &|fs, path, block| best_write_bandwidth(fs, path, block, total, 3),
    );
    print_table(
        "Figure 5 (measured, loopback): bandwidth writing 16MB, MB/s",
        &["block", "unix", "cfs", "nfs"],
        &rows,
    );
    println!(
        "  expected shape: unix >> cfs >> nfs at large blocks; nfs flat (4KB\n\
         \x20 serial RPCs ignore the caller's block size); absolute numbers differ\n\
         \x20 from 2005 hardware."
    );

    // "Similar results are obtained for reading data."
    let rows = sweep(&[64 << 10, 1 << 20], &|fs, path, block| {
        (0..3)
            .map(|_| measure_read_bandwidth(fs, path, block, total))
            .fold(0.0f64, f64::max)
    });
    print_table(
        "Figure 5 (measured, loopback): bandwidth reading 16MB back, MB/s",
        &["block", "unix", "cfs", "nfs"],
        &rows,
    );
}
