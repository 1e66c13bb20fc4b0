//! `tss-bench`: the end-to-end and per-layer benchmark of the tactical
//! storage system, on the core it ships (reactor, cache on).
//!
//! ```text
//! tss-bench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! tss-bench suite [--seed N] [--runs K] [--seconds S] [--smoke] [--rev R] [--out DIR]
//! tss-bench compare BEFORE.json AFTER.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form is one workload in one process — what the driver
//! calls — and ends its standard output with one JSON object. `suite`
//! runs every workload measured (`K` times, under seeds `N..N+K`) and
//! traced, each in a process of its own, and writes `results.json`. See `bench/README.md`.

mod affinity;
mod gen;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use report::{Results, RunRecord};
use run::{Opts, Outcome};
use workload::Workload;

/// The seed the ledger is kept under. A claim must also hold under the
/// held-out seed 2005, which is never used while a change is written.
const DEFAULT_SEED: u64 = 11;
/// Measured window when none is given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_OUT: &str = ".bench_out";

/// `--name value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.push(("smoke".to_string(), "1".to_string())),
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value));
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v}")),
            None => Ok(default),
        }
    }

    fn opts(&self) -> Result<Opts, String> {
        let smoke = self.get("smoke").is_some();
        let seconds = self.number("seconds", if smoke { 0.2 } else { DEFAULT_SECONDS })?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds: {seconds} is not a window length"));
        }
        Ok(Opts {
            seconds,
            smoke,
            // Absolute: the floor run mounts it under `/local`.
            out: std::path::absolute(self.get("out").unwrap_or(DEFAULT_OUT))
                .map_err(|e| format!("--out: {e}"))?,
        })
    }
}

/// One workload, measured or traced, in this process.
fn one(workload: Workload, seed: u64, traced: bool, opts: &Opts) -> std::io::Result<Outcome> {
    if traced {
        layers::traced(workload, seed, opts)
    } else {
        run::live(workload, seed, opts)
    }
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    let outcome = one(workload, seed, traced, &args.opts()?).map_err(|e| e.to_string())?;
    for row in &outcome.rows {
        println!("{}", report::row_line(workload.name(), row));
    }
    println!("{}", report::result_line(&outcome));
    // A wrong answer is reported in the result line, not by the exit
    // code: the driver wants code 0 and `correct: false`.
    Ok(ExitCode::SUCCESS)
}

/// Run this program again as a child with `args` and read back its
/// rows and result line.
fn child(
    workload: Workload,
    seed: u64,
    traced: bool,
    pass: &[String],
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(pass)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let what = format!("{} trace={}", workload.name(), traced as u8);
    if !output.status.success() {
        return Err(format!("{what}: exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or(format!("{what}: no output"))?;
    let result = telemetry::json::Value::parse(last).ok_or(format!("{what}: bad result line"))?;
    let count = |k: &str| result.get(k).and_then(|v| v.as_u64());
    Ok(RunRecord {
        workload: workload.name().to_string(),
        traced,
        seed,
        correct: matches!(
            result.get("correct"),
            Some(telemetry::json::Value::Bool(true))
        ),
        attempted: count("attempted").ok_or(format!("{what}: no attempted count"))?,
        failed: count("failed").ok_or(format!("{what}: no failed count"))?,
        rows: stdout
            .lines()
            .filter_map(report::parse_row_line)
            .map(|(_, row)| row)
            .collect(),
    })
}

fn suite(args: &Args) -> Result<ExitCode, String> {
    let opts = args.opts()?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let mut pass = vec!["--seconds".to_string(), opts.seconds.to_string()];
    pass.extend(["--out".to_string(), opts.out.display().to_string()]);
    if opts.smoke {
        pass.push("--smoke".to_string());
    }
    let mut results = Results {
        rev: args.get("rev").unwrap_or("unknown").to_string(),
        seed,
        seconds: opts.seconds,
        runs: Vec::new(),
    };
    // Measured runs under `runs` consecutive seeds, then one traced
    // run per workload (its counts repeat, so one is enough).
    let runs: u64 = args.number("runs", 1)?;
    let measured = (0..runs).map(|r| (seed + r, false));
    for (seed, traced) in measured.chain([(seed, true)]) {
        for workload in Workload::ALL {
            let record = child(workload, seed, traced, &pass)?;
            for row in &record.rows {
                println!("{}", report::row_line(workload.name(), row));
            }
            results.runs.push(record);
        }
    }
    std::fs::create_dir_all(&opts.out).map_err(|e| e.to_string())?;
    let path = opts.out.join("results.json");
    std::fs::write(&path, results.to_json()).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    let bad: Vec<String> = results
        .runs
        .iter()
        .filter(|r| !r.correct || r.failed > 0)
        .map(|r| {
            format!(
                "{} trace={} failed={}",
                r.workload, r.traced as u8, r.failed
            )
        })
        .collect();
    if bad.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!("incorrect runs: {}", bad.join("; ")))
    }
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, before, after] = args.words.as_slice() else {
        return Err("usage: tss-bench compare BEFORE.json AFTER.json".to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let load =
        |path: &str| Results::from_json(&read(path)?).ok_or(format!("{path}: not a results file"));
    let benchmark = args.get("benchmark").unwrap_or("BENCHMARK.json");
    let bounds = report::bounds_from_benchmark(&read(benchmark)?)
        .ok_or(format!("{benchmark}: no end_to_end bounds"))?;
    let (text, stands) = report::compare(&bounds, &load(before)?, &load(after)?);
    print!("{text}");
    Ok(if stands {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let done = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("suite") => suite(&args),
            Some("compare") => compare(&args),
            None | Some("run") => run_one(&args),
            Some(other) => Err(format!("unknown command {other}")),
        }
    });
    done.unwrap_or_else(|message| {
        eprintln!("tss-bench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::op_stream_hash;

    #[test]
    fn same_seed_same_op_stream_and_another_seed_another() {
        for w in Workload::ALL {
            assert_eq!(
                op_stream_hash(w, 11, 500),
                op_stream_hash(w, 11, 500),
                "{w:?}"
            );
            assert_ne!(
                op_stream_hash(w, 11, 500),
                op_stream_hash(w, 12, 500),
                "{w:?}"
            );
        }
    }

    fn benchmark_json() -> telemetry::json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        telemetry::json::Value::parse(&text).expect("valid json")
    }

    /// `(name, unit)` of every entry of a section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let entries = benchmark_json();
        let entries = entries
            .get(section)
            .and_then(|s| s.as_array())
            .expect(section);
        let field = |m: &telemetry::json::Value, k: &str| {
            m.get(k).and_then(|x| x.as_str()).map(String::from)
        };
        entries
            .iter()
            .map(|m| {
                (
                    field(m, "name").expect("name"),
                    field(m, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_window_this_program_has() {
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            benchmark_json().get("run_seconds").and_then(|s| s.as_u64()),
            Some(DEFAULT_SECONDS as u64)
        );
    }

    /// Every workload, measured and traced, at smoke size: the metrics
    /// are exactly those `BENCHMARK.json` names, with its units, all
    /// finite; nothing failed; every self-check passed.
    #[test]
    fn smoke_every_workload_reports_every_metric() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_out/test-smoke");
        let opts = Opts {
            seconds: 0.2,
            smoke: true,
            out: out.clone(),
        };
        for workload in Workload::ALL {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = one(workload, DEFAULT_SEED, traced, &opts).expect("runs");
                let what = format!("{workload:?} traced={traced}");
                assert!(outcome.correct, "{what}: self-check or output check failed");
                assert_eq!(outcome.failed, 0, "{what}");
                assert!(outcome.attempted > 0, "{what}");
                let got: Vec<(String, String)> = outcome
                    .rows
                    .iter()
                    .map(|r| (r.name.clone(), r.unit.clone()))
                    .collect();
                assert_eq!(got, listed(section), "{what}");
                for row in &outcome.rows {
                    assert!(
                        row.value.is_finite(),
                        "{what}: {} = {}",
                        row.name,
                        row.value
                    );
                }
                if !traced {
                    assert!(
                        outcome.rows.iter().all(|r| r.value > 0.0),
                        "{what}: a zero metric"
                    );
                }
            }
            assert!(out.join(format!("trace_{}.json", workload.name())).exists());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
