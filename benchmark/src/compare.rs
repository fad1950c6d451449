//! `csag-benchmark compare <setA> <setB>`: two sets of recorded runs,
//! side by side, judged against the bounds in `BENCHMARK.json`.
//!
//! A *set* is a JSON-lines file written by `--record`: one run per
//! line. For every workload × metric the tool prints both medians and
//! quartiles, who won how many of the index-aligned pairs, the relative
//! difference of the medians (positive = B is worse), and a verdict:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is (the process then exits non-zero);
//! * `unresolved` — the run-to-run spread of either set is wider than
//!   the bound, so the difference cannot be told from noise — unless
//!   every run of one set beats every run of the other, which settles
//!   it whatever the spread;
//! * `-` — a per-layer metric: no bound, shown for attribution.

use crate::estimate::{quartiles, relative_iqr, Better};
use crate::json::Json;
use std::collections::BTreeMap;

/// `(bound, direction)` by metric name; per-layer metrics have no bound.
type Bounds = BTreeMap<String, (Option<f64>, Better)>;

/// Values by `(workload, metric)`, in run order.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_bounds(path: &str) -> Result<(Bounds, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut bounds = Bounds::new();
    let mut order = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for item in doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no `{key}` list"))?
        {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: metric without a name"))?;
            let better = match item.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{path}: `{name}` has direction {other:?}")),
            };
            bounds.insert(
                name.to_string(),
                (item.get("bound").and_then(Json::as_f64), better),
            );
            order.push(name.to_string());
        }
    }
    Ok((bounds, order))
}

fn read_set(path: &str) -> Result<(Set, Vec<String>, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set = Set::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut host = Json::Null;
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", no + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", no + 1))?;
        if record.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{path}:{}: a run of {workload} was not correct; it measures nothing",
                no + 1
            ));
        }
        if !workloads.iter().any(|w| w == workload) {
            workloads.push(workload.to_string());
        }
        host = record.get("host").cloned().unwrap_or(host);
        let metrics = record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}:{}: no metrics", no + 1))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{}: `{name}` has no value", no + 1))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok((set, workloads, host))
}

#[derive(Debug, PartialEq)]
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Relative difference of the medians, signed so that positive
    /// means B is worse.
    pub worsening: f64,
    /// The wider of the two sets' relative inter-quartile ranges.
    pub spread: f64,
    pub pairs: (usize, usize, usize),
    pub verdict: &'static str,
}

/// Judges one workload × metric (see the module docs for the rule).
pub fn judge(a: &[f64], b: &[f64], bound: Option<f64>, better: Better) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = if qa.1 == 0.0 {
        0.0
    } else {
        sign * (qb.1 - qa.1) / qa.1.abs()
    };
    let spread = relative_iqr(a).max(relative_iqr(b));
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let mut pairs = (0, 0, 0);
    for (&x, &y) in a.iter().zip(b) {
        if beats(y, x) {
            pairs.1 += 1;
        } else if beats(x, y) {
            pairs.0 += 1;
        } else {
            pairs.2 += 1;
        }
    }
    let all = |winners: &[f64], losers: &[f64]| {
        winners.iter().all(|&w| losers.iter().all(|&l| beats(w, l)))
    };
    let verdict = match bound {
        None => "-",
        Some(bound) if spread > bound && !all(a, b) && !all(b, a) => "unresolved",
        Some(bound) if worsening > bound => "worse",
        Some(_) => "ok",
    };
    Row {
        a: qa,
        b: qb,
        worsening,
        spread,
        pairs,
        verdict,
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut as_json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds_path = it.next().ok_or("--bounds needs a path")?.clone(),
            "--json" => as_json = true,
            path => paths.push(path.to_string()),
        }
    }
    let [path_a, path_b] = paths.as_slice() else {
        return Err("compare needs exactly two sets".into());
    };
    let (bounds, order) = read_bounds(&bounds_path)?;
    let (set_a, workloads, host) = read_set(path_a)?;
    let (set_b, _, _) = read_set(path_b)?;

    let mut rows = Vec::new();
    let mut any_worse = false;
    if !as_json {
        println!(
            "{:<11} {:<34} {:>3} {:>12} {:>22} {:>12} {:>22} {:>8} {:>6} {:>7} {:>9} verdict",
            "workload",
            "metric",
            "n",
            "median A",
            "[q1, q3] A",
            "median B",
            "[q1, q3] B",
            "diff %",
            "bound",
            "spread",
            "B/A/tie"
        );
    }
    for workload in &workloads {
        for name in &order {
            let key = (workload.clone(), name.clone());
            let (Some(a), Some(b)) = (set_a.get(&key), set_b.get(&key)) else {
                continue;
            };
            let (bound, better) = bounds[name];
            let row = judge(a, b, bound, better);
            any_worse |= row.verdict == "worse";
            if as_json {
                rows.push(Json::obj([
                    ("workload", Json::Str(workload.clone())),
                    ("metric", Json::Str(name.clone())),
                    (
                        "runs",
                        Json::Arr(vec![Json::Num(a.len() as f64), Json::Num(b.len() as f64)]),
                    ),
                    (
                        "a",
                        Json::Arr(vec![
                            Json::Num(row.a.0),
                            Json::Num(row.a.1),
                            Json::Num(row.a.2),
                        ]),
                    ),
                    (
                        "b",
                        Json::Arr(vec![
                            Json::Num(row.b.0),
                            Json::Num(row.b.1),
                            Json::Num(row.b.2),
                        ]),
                    ),
                    ("worsening", Json::Num(row.worsening)),
                    ("spread", Json::Num(row.spread)),
                    ("bound", bound.map_or(Json::Null, Json::Num)),
                    ("verdict", Json::Str(row.verdict.into())),
                ]));
            } else {
                println!(
                    "{:<11} {:<34} {:>3} {:>12.5} {:>22} {:>12.5} {:>22} {:>+8.2} {:>6} {:>7.2} {:>9} {}",
                    workload,
                    name,
                    a.len().min(b.len()),
                    row.a.1,
                    format!("[{:.5}, {:.5}]", row.a.0, row.a.2),
                    row.b.1,
                    format!("[{:.5}, {:.5}]", row.b.0, row.b.2),
                    row.worsening * 100.0,
                    bound.map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
                    row.spread * 100.0,
                    format!("{}/{}/{}", row.pairs.1, row.pairs.0, row.pairs.2),
                    row.verdict
                );
            }
        }
    }
    if as_json {
        let doc = Json::obj([
            ("schema", Json::Str("csag-benchmark-compare-v1".into())),
            ("host", host),
            (
                "sets",
                Json::Arr(vec![Json::Str(path_a.clone()), Json::Str(path_b.clone())]),
            ),
            ("rows", Json::Arr(rows)),
        ]);
        println!("{}", doc.render());
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let same: Vec<f64> = steady.iter().map(|v| v + 0.3).collect();
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        // Lower is better: +0.3 % is inside an 8 % bound, +20 % is not.
        assert_eq!(
            judge(&steady, &same, Some(0.08), Better::Lower).verdict,
            "ok"
        );
        let row = judge(&steady, &slower, Some(0.08), Better::Lower);
        assert_eq!(row.verdict, "worse");
        assert!((row.worsening - 0.2).abs() < 1e-9);
        assert_eq!(row.pairs, (10, 0, 0), "A won every pair");
        // The same numbers as a throughput are an improvement.
        let row = judge(&steady, &slower, Some(0.08), Better::Higher);
        assert_eq!(row.verdict, "ok");
        assert!(row.worsening < 0.0);
        assert_eq!(row.pairs, (0, 10, 0));
        // No bound: attribution only.
        assert_eq!(judge(&steady, &slower, None, Better::Lower).verdict, "-");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_sweeps() {
        let noisy_a = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        let noisy_b = [
            82.0, 118.0, 93.0, 112.0, 101.0, 86.0, 119.0, 96.0, 104.0, 103.0,
        ];
        let row = judge(&noisy_a, &noisy_b, Some(0.08), Better::Lower);
        assert!(row.spread > 0.08);
        assert_eq!(row.verdict, "unresolved");
        // Every run of B above every run of A: noise cannot explain it.
        let swept: Vec<f64> = noisy_a.iter().map(|v| v + 100.0).collect();
        assert_eq!(
            judge(&noisy_a, &swept, Some(0.08), Better::Lower).verdict,
            "worse"
        );
        assert_eq!(
            judge(&swept, &noisy_a, Some(0.08), Better::Lower).verdict,
            "ok"
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let row = judge(&[1.0, 2.0, 3.0], &[1.0, 1.0, 4.0], Some(0.5), Better::Lower);
        assert_eq!(row.pairs, (1, 1, 1));
    }
}
