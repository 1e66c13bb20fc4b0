//! What the benchmark writes and reads back: the one-line result the
//! driver parses, the results file of a whole suite, and `compare`.

use std::fmt::Write as _;

use telemetry::json::Value;

use crate::run::{Outcome, Row};
use crate::stats::median;

/// A float as JSON: every digit Rust prints round-trips; a value JSON
/// cannot carry becomes `null` and fails whoever reads it.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The last line of a run's standard output.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, row) in outcome.rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            row.name,
            number(row.value),
            row.unit
        );
    }
    out.push_str("}}");
    out
}

/// One line per metric, for people and for `suite`, which reads them
/// back: `row <workload> <metric> <value> <unit> n=<n> [predicted=<p>]`.
pub fn row_line(workload: &str, row: &Row) -> String {
    let mut line = format!(
        "row {workload} {} {} {} n={}",
        row.name,
        number(row.value),
        row.unit,
        row.n
    );
    if let Some(p) = row.predicted {
        let _ = write!(line, " predicted={}", number(p));
    }
    line
}

pub fn parse_row_line(line: &str) -> Option<(String, Row)> {
    let mut words = line.split(' ');
    if words.next()? != "row" {
        return None;
    }
    let workload = words.next()?.to_string();
    let name = words.next()?.to_string();
    let value = words.next()?.parse().ok()?;
    let unit = words.next()?.to_string();
    let n = words.next()?.strip_prefix("n=")?.parse().ok()?;
    let predicted = match words.next() {
        Some(w) => Some(w.strip_prefix("predicted=")?.parse().ok()?),
        None => None,
    };
    Some((
        workload,
        Row {
            name,
            unit,
            value,
            n,
            predicted,
        },
    ))
}

/// One process of a suite: a workload, measured or traced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
}

/// The results file: every run of one suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub rev: String,
    pub seed: u64,
    pub seconds: f64,
    pub runs: Vec<RunRecord>,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Uint(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

impl Results {
    /// One row object per line, so a diff of two ledger files reads.
    /// A row's `run` is its index in `runs`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"rev\": \"{}\", \"seed\": {}, \"seconds\": {},\n \"runs\": [",
            self.rev,
            self.seed,
            number(self.seconds)
        );
        for (i, run) in self.runs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"workload\": \"{}\", \"traced\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
                run.workload, run.traced, run.seed, run.correct, run.attempted, run.failed
            );
        }
        out.push_str("\n ],\n \"rows\": [");
        let mut first = true;
        for (i, run) in self.runs.iter().enumerate() {
            for row in &run.rows {
                let sep = if first { "" } else { "," };
                first = false;
                let _ = write!(
                    out,
                    "{sep}\n  {{\"name\": \"{}\", \"workload\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}, \"rev\": \"{}\", \"seed\": {}, \"run\": {i}",
                    row.name,
                    run.workload,
                    row.unit,
                    number(row.value),
                    row.n,
                    self.rev,
                    run.seed
                );
                if let Some(p) = row.predicted {
                    let _ = write!(out, ", \"predicted\": {}", number(p));
                }
                out.push('}');
            }
        }
        out.push_str("\n ]}\n");
        out
    }

    pub fn from_json(text: &str) -> Option<Results> {
        let v = Value::parse(text)?;
        let mut runs: Vec<RunRecord> = v
            .get("runs")?
            .as_array()?
            .iter()
            .map(|r| {
                Some(RunRecord {
                    workload: r.get("workload")?.as_str()?.to_string(),
                    traced: matches!(r.get("traced")?, Value::Bool(true)),
                    seed: r.get("seed")?.as_u64()?,
                    correct: matches!(r.get("correct")?, Value::Bool(true)),
                    attempted: r.get("attempted")?.as_u64()?,
                    failed: r.get("failed")?.as_u64()?,
                    rows: Vec::new(),
                })
            })
            .collect::<Option<_>>()?;
        for r in v.get("rows")?.as_array()? {
            let run = runs.get_mut(r.get("run")?.as_u64()? as usize)?;
            run.rows.push(Row {
                name: r.get("name")?.as_str()?.to_string(),
                unit: r.get("unit")?.as_str()?.to_string(),
                value: as_f64(r.get("value")?)?,
                n: r.get("n")?.as_u64()?,
                predicted: r.get("predicted").and_then(as_f64),
            });
        }
        Some(Results {
            rev: v.get("rev")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            seconds: as_f64(v.get("seconds")?)?,
            runs,
        })
    }

    /// Every value of `metric` on `workload` among the measured runs.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| !r.traced && r.workload == workload)
            .flat_map(|r| r.rows.iter().filter(|x| x.name == metric).map(|x| x.value))
            .collect()
    }

    /// Failed share of attempted operations on `workload`.
    fn failed_share(&self, workload: &str) -> f64 {
        let runs = self.runs.iter().filter(|r| r.workload == workload);
        let (failed, attempted) = runs.fold((0, 0), |a, r| (a.0 + r.failed, a.1 + r.attempted));
        failed as f64 / attempted.max(1) as f64
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` section of `BENCHMARK.json`.
pub fn bounds_from_benchmark(text: &str) -> Option<Vec<Bound>> {
    Value::parse(text)?
        .get("end_to_end")?
        .as_array()?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: as_f64(m.get("bound")?)?,
            })
        })
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them. `None` below four values, where a spread says nothing.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound: neither
    /// "unchanged" nor "worse" can be said.
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Is `after` worse than `before` by more than the bound?
pub fn judge(bound: &Bound, before: &[f64], after: &[f64]) -> Verdict {
    let widest = spread(before)
        .into_iter()
        .chain(spread(after))
        .fold(0.0, f64::max);
    if widest > bound.bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (median(before), median(after));
    let worse_by = if bound.higher_is_better { a - b } else { b - a } / a.abs();
    if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare two results files row by row. Returns the report and
/// whether `after` stands (no `worse` row, no higher failed share).
pub fn compare(bounds: &[Bound], before: &Results, after: &Results) -> (String, bool) {
    let mut report = String::new();
    let mut stands = true;
    let mut workloads: Vec<&str> = Vec::new();
    for run in before.runs.iter().filter(|r| !r.traced) {
        if !workloads.contains(&run.workload.as_str()) {
            workloads.push(&run.workload);
        }
    }
    for workload in workloads {
        for bound in bounds {
            let (a, b) = (
                before.values(workload, &bound.name),
                after.values(workload, &bound.name),
            );
            if a.is_empty() || b.is_empty() {
                let _ = writeln!(report, "{workload} {} missing", bound.name);
                stands = false;
                continue;
            }
            let verdict = judge(bound, &a, &b);
            stands &= verdict != Verdict::Worse;
            let _ = writeln!(
                report,
                "{workload} {} {} before={} after={} bound={}",
                bound.name,
                verdict.word(),
                number(median(&a)),
                number(median(&b)),
                bound.bound
            );
        }
        let (fa, fb) = (before.failed_share(workload), after.failed_share(workload));
        if fb > fa {
            let _ = writeln!(
                report,
                "{workload} failed_share worse before={fa} after={fb}"
            );
            stands = false;
        }
    }
    (report, stands)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(ops: f64, failed: u64) -> Results {
        Results {
            rev: "abc1234".into(),
            seed: 11,
            seconds: 0.5,
            runs: vec![
                RunRecord {
                    workload: "meta_storm".into(),
                    traced: false,
                    seed: 11,
                    correct: failed == 0,
                    attempted: 1000,
                    failed,
                    rows: vec![
                        Row::new("ops_per_s", "1/s", ops, 1000),
                        Row::new("lat_p50_us", "us", 1e6 / ops, 1000),
                    ],
                },
                RunRecord {
                    workload: "meta_storm".into(),
                    traced: true,
                    seed: 11,
                    correct: true,
                    attempted: 10,
                    failed: 0,
                    rows: vec![Row {
                        predicted: Some(0.25),
                        ..Row::new("cache.hit_ratio", "ratio", 0.2513, 10)
                    }],
                },
            ],
        }
    }

    fn bounds() -> Vec<Bound> {
        bounds_from_benchmark(
            r#"{"end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "lat_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn results_round_trip_through_json_and_compare_equal() {
        let r = results(20_000.125, 0);
        let back = Results::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
        let (report, stands) = compare(&bounds(), &r, &back);
        assert!(stands, "{report}");
        assert_eq!(report.matches(" ok ").count(), 2, "{report}");
    }

    #[test]
    fn compare_flags_a_regression_in_either_direction_of_better() {
        let (report, stands) = compare(&bounds(), &results(20_000.0, 0), &results(17_000.0, 0));
        assert!(!stands);
        assert!(report.contains("ops_per_s worse"), "{report}");
        assert!(report.contains("lat_p50_us worse"), "{report}");
        // Within the bound, and better, both stand.
        assert!(compare(&bounds(), &results(20_000.0, 0), &results(18_500.0, 0)).1);
        assert!(compare(&bounds(), &results(20_000.0, 0), &results(40_000.0, 0)).1);
    }

    #[test]
    fn compare_fails_on_a_higher_failed_share() {
        let (report, stands) = compare(&bounds(), &results(20_000.0, 0), &results(20_000.0, 3));
        assert!(!stands);
        assert!(report.contains("failed_share worse"), "{report}");
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let b = &bounds()[0];
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(b, &steady, &steady), Verdict::Ok);
        assert_eq!(judge(b, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(b, &steady, &[80.0, 80.5, 79.5, 80.0]), Verdict::Worse);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40], n=4) = [12.5, 25.0, 37.5]
        assert!((spread(&[40.0, 10.0, 30.0, 20.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn row_lines_round_trip() {
        let row = Row {
            predicted: Some(0.25),
            ..Row::new("cache.hit_ratio", "ratio", 0.251_312_5, 4096)
        };
        assert_eq!(
            parse_row_line(&row_line("stream_rw_cold", &row)),
            Some(("stream_rw_cold".to_string(), row))
        );
        assert_eq!(parse_row_line("self-check failed: x"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            rows: vec![Row::new("setup_s", "s", 0.8127, 3)],
        };
        let v = Value::parse(&result_line(&outcome)).expect("valid json");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(as_f64(m.get("value").unwrap()), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
