//! The `tss-fig` binary run as a subprocess: a simulated table, a live
//! one, and the usage error.

use std::process::{Command, Output};

fn tss_fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tss-fig"))
        .args(args)
        .output()
        .expect("run tss-fig")
}

fn stdout_of(name: &str) -> String {
    let out = tss_fig(&[name]);
    assert!(out.status.success(), "tss-fig {name}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn sp5_prints_the_section_8_table() {
    let stdout = stdout_of("sp5");
    assert!(
        stdout.contains("== Section 8 table: SP5 init and per-event time, seconds =="),
        "{stdout}"
    );
    for row in ["Unix", "LAN / NFS", "LAN / TSS", "WAN / TSS"] {
        assert!(stdout.contains(row), "{row} missing:\n{stdout}");
    }
}

#[test]
fn fig3_prints_the_model_and_the_live_table() {
    let stdout = stdout_of("fig3");
    for title in [
        "== Figure 3 (modelled 2005 testbed): syscall latency, us ==",
        "== Figure 3 (measured, this library): direct vs adapter, us ==",
    ] {
        assert!(stdout.contains(title), "{title} missing:\n{stdout}");
    }
    for call in ["stat", "open/close", "read 8kb"] {
        assert!(stdout.contains(call), "{call} missing:\n{stdout}");
    }
}

#[test]
fn an_unknown_figure_prints_usage_and_exits_2() {
    for args in [&["fig10"][..], &[], &["fig3", "fig4"]] {
        let out = tss_fig(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: tss-fig <fig3|"), "{stderr}");
    }
}
