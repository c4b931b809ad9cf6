//! Compare mode: median deltas between two result files, judged
//! against the bounds in `BENCHMARK.json`.
//!
//! A result file holds one JSON object per line, as `--out` appends
//! them. For every workload and end-to-end metric, each side's value is
//! the median over its runs, and its spread is the distance between the
//! quartiles of those runs as a share of the median (a side with a
//! single run uses that run's own quartiles). A metric whose spread on
//! either side is wider than its bound is "unresolved": the files
//! cannot tell a change of that size from noise.

use crate::measure::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;

/// An end-to-end metric's contract, from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json`.
pub fn bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let v = serde_json::from_str(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let table = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    table
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without string `{k}`"))
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without numeric `bound`")?,
            })
        })
        .collect()
}

/// Per workload, per metric: (value, q1, q3) of every untraced run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<(f64, f64, f64)>>>;

/// Parses a result file.
pub fn load(contents: &str) -> Result<Runs, String> {
    let mut runs: Runs = BTreeMap::new();
    for (i, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        let per = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let f = |k: &str| m.get(k).and_then(Value::as_f64);
            if let Some(value) = f("value") {
                let q1 = f("q1").unwrap_or(value);
                let q3 = f("q3").unwrap_or(value);
                per.entry(name.clone()).or_default().push((value, q1, q3));
            }
        }
    }
    Ok(runs)
}

/// One side's summary of a metric: median and relative spread.
fn summarize(runs: &[(f64, f64, f64)]) -> (f64, f64) {
    let values: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let m = median(&values);
    let (q1, q3) = if runs.len() >= 2 {
        let (q1, _, q3) = quartiles(&values);
        (q1, q3)
    } else {
        (runs[0].1, runs[0].2)
    };
    let spread = if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    };
    (m, spread)
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub before: f64,
    pub after: f64,
    /// Relative change, signed so that positive is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

/// Compares `after` against `before` metric by metric.
pub fn compare(bounds: &[Bound], before: &Runs, after: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, b_metrics) in before {
        let Some(a_metrics) = after.get(workload) else {
            continue;
        };
        for bound in bounds {
            let (Some(b), Some(a)) = (b_metrics.get(&bound.name), a_metrics.get(&bound.name))
            else {
                continue;
            };
            let (b_med, b_spread) = summarize(b);
            let (a_med, a_spread) = summarize(a);
            let delta = if b_med == 0.0 {
                0.0
            } else {
                (a_med - b_med) / b_med
            };
            let worse_by = if bound.lower_is_better { delta } else { -delta };
            let verdict = if b_spread > bound.bound || a_spread > bound.bound {
                "unresolved"
            } else if worse_by > bound.bound {
                "REGRESSED"
            } else if worse_by < -bound.bound {
                "improved"
            } else {
                "within bound"
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                unit: bound.unit.clone(),
                before: b_med,
                after: a_med,
                worse_by,
                bound: bound.bound,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "scan_pps", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}"#;

    fn line(w: &str, pps: f64, setup: f64) -> String {
        format!(
            r#"{{"workload": "{w}", "trace": false, "metrics": {{"scan_pps": {{"value": {pps}, "unit": "1/s"}}, "setup_s": {{"value": {setup}, "unit": "s"}}}}}}"#
        )
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let b = bounds(SPEC).unwrap();
        let before = load(
            &[
                line("w", 100.0, 1.0),
                line("w", 101.0, 1.0),
                line("w", 99.0, 1.0),
            ]
            .join("\n"),
        )
        .unwrap();
        // 20% fewer probes per second: worse, beyond the 10% bound.
        let after = load(
            &[
                line("w", 80.0, 0.5),
                line("w", 81.0, 0.5),
                line("w", 79.0, 0.5),
            ]
            .join("\n"),
        )
        .unwrap();
        let rows = compare(&b, &before, &after);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, "REGRESSED");
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
        assert_eq!(rows[1].verdict, "improved", "setup halved");

        // A noisy side cannot resolve a change.
        let noisy = load(
            &[
                line("w", 50.0, 1.0),
                line("w", 100.0, 1.0),
                line("w", 150.0, 1.0),
            ]
            .join("\n"),
        )
        .unwrap();
        assert_eq!(compare(&b, &before, &noisy)[0].verdict, "unresolved");
    }
}
