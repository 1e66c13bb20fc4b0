//! Figures 6–8 and the §8 table: the paper-scale runs, simulated on
//! the calibrated testbed model. Deterministic: two runs print the
//! same bytes.

use tss::simnet::cluster::{run, ClusterParams};
use tss::simnet::sp5::{table, Sp5Params};
use tss::simnet::CostModel;

use crate::rig::print_table;

/// Figures 6–8 — DSFS Scalability, `fig` 6, 7 or 8: clients reading
/// files from 1–8 servers behind one 1 Gb/s switch.
///
/// * **6, net-bound**: 128 files × 1 MB. All data fits in server
///   buffer caches; one server saturates its port at ~100 MB/s; three
///   or more saturate the switch backplane at ~300 MB/s.
/// * **7, mixed-bound**: 1280 files × 1 MB. With fewer than three
///   servers the working set overflows the per-server 512 MB caches and
///   the system runs at disk speed; with three or more everything fits
///   in aggregate memory and the backplane binds.
/// * **8, disk-bound**: 1280 files × 10 MB. 12.8 GB never fits, so one
///   server sustains the ~10 MB/s raw disk rate and throughput grows
///   roughly linearly with servers.
pub fn scaling(fig: u8) {
    type Params = fn(usize, usize) -> ClusterParams;
    let (params, title, decimals, paper): (Params, &str, usize, &str) = match fig {
        6 => (
            ClusterParams::fig6,
            "Figure 6 (simulated): DSFS net-bound throughput, MB/s (128 x 1MB)",
            0,
            "  paper: one server ~100 MB/s (one port); >=3 servers plateau at the\n\
             \x20 300 MB/s switch backplane regardless of further servers.",
        ),
        7 => (
            ClusterParams::fig7,
            "Figure 7 (simulated): DSFS mixed-bound throughput, MB/s (1280 x 1MB)",
            0,
            "  paper: <3 servers disk-bound; >=3 servers all data fits in memory\n\
             \x20 and the system is bound only by the switch (~300 MB/s).",
        ),
        _ => (
            ClusterParams::fig8,
            "Figure 8 (simulated): DSFS disk-bound throughput, MB/s (1280 x 10MB)",
            1,
            "  paper: ~10 MB/s per server (raw disk), scaling roughly linearly\n\
             \x20 from 1 to 8 servers.",
        ),
    };
    let model = CostModel::default();
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&clients| {
            let mut row = vec![clients.to_string()];
            for servers in [1usize, 2, 3, 4, 8] {
                let r = run(&model, params(servers, clients));
                row.push(format!("{:.*}", decimals, r.mb_per_s()));
            }
            row
        })
        .collect();
    print_table(
        title,
        &["clients", "1 srv", "2 srv", "3 srv", "4 srv", "8 srv"],
        &rows,
    );
    println!("{paper}");
    match fig {
        6 => println!(
            "  cache hit rate at 4 servers: {:.0}% (all data memory-resident)",
            run(&model, params(4, 16)).cache_hit_rate * 100.0
        ),
        7 => {
            for s in [1usize, 4] {
                let r = run(&model, params(s, 16));
                println!(
                    "  {s} server(s): {:.0} MB/s at {:.0}% cache hits",
                    r.mb_per_s(),
                    r.cache_hit_rate * 100.0
                );
            }
        }
        _ => {}
    }
}

/// §8 table — SP5/BaBar on four substrates: init time and time per
/// simulation event for Unix, LAN/NFS, LAN/TSS, and WAN/TSS.
pub fn sp5() {
    let paper: [(&str, &str, &str); 4] = [
        ("Unix", "446 +/- 46", "64"),
        ("LAN / NFS", "4464 +/- 172", "113"),
        ("LAN / TSS", "4505 +/- 155", "113"),
        ("WAN / TSS", "6275 +/- 330", "88"),
    ];
    let rows: Vec<Vec<String>> = table(&CostModel::default(), Sp5Params::default())
        .iter()
        .zip(paper)
        .map(|(r, (label, p_init, p_evt))| {
            vec![
                label.to_string(),
                p_init.to_string(),
                format!("{:.0} +/- {:.0}", r.init_mean, r.init_dev),
                p_evt.to_string(),
                format!("{:.0}", r.time_per_event),
            ]
        })
        .collect();
    print_table(
        "Section 8 table: SP5 init and per-event time, seconds",
        &[
            "configuration",
            "paper init",
            "model init",
            "paper t/event",
            "model t/event",
        ],
        &rows,
    );
    println!(
        "  shape claims: init inflates ~10x on any remote substrate; NFS and\n\
         \x20 TSS within a few percent; WAN costs ~40% more init; events within\n\
         \x20 2x of local, WAN events faster on its faster CPU."
    );
}
