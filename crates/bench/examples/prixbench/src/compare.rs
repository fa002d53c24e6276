//! `prixbench compare <a.jsonl> <b.jsonl>`: the noise-aware gate.
//!
//! Each input holds the result lines `--out` appended, one run per
//! line. Both sides must hold the same runs: the same number of each
//! (workload, seed, trace). Runs are paired by seed, in file order, so
//! that what differs from seed to seed cancels; for every (workload,
//! metric) the median over pairs of how much worse side B read is set
//! against the bound `BENCHMARK.json` fixes for the metric, and the
//! quartile distance of the same differences is the spread. A spread
//! wider than the bound makes the row `unresolved`, not `same`.
//!
//! Exit code 0: every bounded row is `same` or `better` and no
//! workload's error ratio rose. 1: a row is `worse` or `unresolved`, or
//! an error ratio rose. 2: the inputs cannot be compared.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::{Spec, Workload};
use crate::stats;

/// One recorded run.
#[derive(Debug, Clone)]
pub struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    failed: f64,
    attempted: f64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{path}:{}", n + 1);
        let v = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: no `{key}`", at()))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: no `metrics`", at()))?
        {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: metric `{name}` has no value", at()))?;
            metrics.insert(name.clone(), value);
        }
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{}: no `workload`", at()))?
                .to_string(),
            seed: num("seed")? as u64,
            trace: num("trace")? != 0.0,
            failed: num("failed")?,
            attempted: num("attempted")?,
            metrics,
        });
    }
    Ok(runs)
}

/// The verdict for one row. `worse_by` is the share of side A's value
/// by which side B is worse (negative when better).
pub fn verdict(spread: f64, worse_by: f64, bound: f64) -> &'static str {
    if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// One (workload, metric) row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// Values of each side, one per pair, in pair order.
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    /// Median and quartiles, over pairs, of the share of A's value by
    /// which B is worse.
    pub worse_by: f64,
    pub worse_by_quartiles: (f64, f64),
    /// `info` for per-layer metrics, which have no bound.
    pub verdict: &'static str,
}

type RunKey = (String, u64, bool);

fn by_key(runs: &[Run]) -> BTreeMap<RunKey, Vec<&Run>> {
    let mut map: BTreeMap<RunKey, Vec<&Run>> = BTreeMap::new();
    for r in runs {
        map.entry((r.workload.clone(), r.seed, r.trace))
            .or_default()
            .push(r);
    }
    map
}

/// Pairs the runs of the two sides and judges every row. An error means
/// the sides cannot be compared.
pub fn compare(a: &[Run], b: &[Run], spec: &Spec) -> Result<Vec<Row>, String> {
    if a.is_empty() {
        return Err("side A holds no runs".into());
    }
    let (ka, kb) = (by_key(a), by_key(b));
    for key in ka.keys().chain(kb.keys()) {
        let (na, nb) = (
            ka.get(key).map_or(0, Vec::len),
            kb.get(key).map_or(0, Vec::len),
        );
        if na != nb {
            let (workload, seed, trace) = key;
            return Err(format!(
                "the sides hold different runs: {workload}, seed {seed}, trace {}: {na} in A, {nb} in B",
                u8::from(*trace)
            ));
        }
    }

    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            if !metric.measured_on(workload) {
                continue;
            }
            let mut pairs: Vec<(f64, f64)> = Vec::new();
            for (key, runs_a) in &ka {
                let (w, seed, _) = key;
                if w != workload.name() {
                    continue;
                }
                for (ra, rb) in runs_a.iter().zip(&kb[key]) {
                    match (ra.metrics.get(&metric.name), rb.metrics.get(&metric.name)) {
                        (Some(&x), Some(&y)) => pairs.push((x, y)),
                        (None, None) => {}
                        _ => {
                            return Err(format!(
                                "{w}, seed {seed}: only one side reports `{}`",
                                metric.name
                            ))
                        }
                    }
                }
            }
            if pairs.is_empty() {
                continue;
            }
            if metric.bound.is_some() && pairs.iter().any(|&(x, _)| x == 0.0 || !x.is_finite()) {
                return Err(format!(
                    "{}: `{}` reads 0 on side A; a bounded metric is never 0",
                    workload.name(),
                    metric.name
                ));
            }
            let worse: Vec<f64> = pairs
                .iter()
                .map(|&(x, y)| {
                    let d = if metric.lower_is_better { y - x } else { x - y };
                    stats::ratio(d, x.abs())
                })
                .collect();
            let (q1, q3) = stats::quartiles(&worse);
            let worse_by = stats::median(&worse);
            rows.push(Row {
                workload: workload.name().to_string(),
                metric: metric.name.clone(),
                a: pairs.iter().map(|p| p.0).collect(),
                b: pairs.iter().map(|p| p.1).collect(),
                worse_by,
                worse_by_quartiles: (q1, q3),
                verdict: metric
                    .bound
                    .map_or("info", |bound| verdict(q3 - q1, worse_by, bound)),
            });
        }
    }
    Ok(rows)
}

/// `workload` → `(A's, B's)` failed operations over attempted ones.
fn error_ratios(a: &[Run], b: &[Run]) -> Vec<(&'static str, f64, f64)> {
    let ratio = |runs: &[Run], w: &str| {
        let of =
            |f: fn(&Run) -> f64| -> f64 { runs.iter().filter(|r| r.workload == w).map(f).sum() };
        stats::ratio(of(|r| r.failed), of(|r| r.attempted))
    };
    Workload::ALL
        .iter()
        .map(|w| (w.name(), ratio(a, w.name()), ratio(b, w.name())))
        .collect()
}

pub fn main(args: &[String]) -> i32 {
    let (a_path, b_path) = match args {
        [a, b] => (a.as_str(), b.as_str()),
        _ => {
            eprintln!("usage: prixbench compare <a.jsonl> <b.jsonl>");
            return 2;
        }
    };
    let compared = Spec::load().and_then(|spec| {
        let (a, b) = (load(a_path)?, load(b_path)?);
        Ok((compare(&a, &b, &spec)?, error_ratios(&a, &b)))
    });
    let (rows, errors) = match compared {
        Ok(t) => t,
        Err(e) => {
            eprintln!("prixbench compare: {e}");
            return 2;
        }
    };

    let mut bad = false;
    println!(
        "{:<13} {:<34} {:>5} {:>12} {:>25} {:>12} {:>25} {:>9} {:>19}  verdict",
        "workload",
        "metric",
        "pairs",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse by",
        "its quartiles"
    );
    let side = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        (stats::median(v), format!("[{q1:.4}, {q3:.4}]"))
    };
    for r in &rows {
        bad |= matches!(r.verdict, "worse" | "unresolved");
        let ((am, aq), (bm, bq)) = (side(&r.a), side(&r.b));
        println!(
            "{:<13} {:<34} {:>5} {am:>12.4} {aq:>25} {bm:>12.4} {bq:>25} {:>+8.1}% {:>19}  {}",
            r.workload,
            r.metric,
            r.a.len(),
            r.worse_by * 100.0,
            format!(
                "[{:+.1}%, {:+.1}%]",
                r.worse_by_quartiles.0 * 100.0,
                r.worse_by_quartiles.1 * 100.0
            ),
            r.verdict,
        );
    }
    for (workload, ra, rb) in errors {
        let verdict = if rb > ra { "worse" } else { "same" };
        bad |= rb > ra;
        println!("{workload:<13} error_ratio: A {ra:.6}, B {rb:.6}  {verdict}");
    }
    i32::from(bad)
}

pub fn self_test() -> Result<(), String> {
    for (spread, worse_by, want) in [
        (0.02, 0.01, "same"),
        (0.02, 0.20, "worse"),
        (0.02, -0.20, "better"),
        (0.30, 0.20, "unresolved"),
    ] {
        let got = verdict(spread, worse_by, 0.10);
        if got != want {
            return Err(format!(
                "verdict(spread {spread}, worse_by {worse_by}) = {got}, want {want}"
            ));
        }
    }
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    // gives [2.75, 5.5, 8.25].
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    if stats::quartiles(&ten) != (2.75, 8.25) {
        return Err(format!("quartiles(1..=10) = {:?}", stats::quartiles(&ten)));
    }

    // Pairing by seed: a metric that differs fivefold between seeds but
    // by 1 % between the sides is `same`, not `unresolved`; a side
    // that lacks a run cannot be compared.
    let spec = Spec::load()?;
    let metric = &spec.end_to_end[0];
    let side = |factor: f64| -> Vec<Run> {
        (1..=5u64)
            .map(|seed| Run {
                workload: Workload::QueryCold.name().to_string(),
                seed,
                trace: false,
                failed: 0.0,
                attempted: 1.0,
                metrics: BTreeMap::from([(metric.name.clone(), seed as f64 * factor)]),
            })
            .collect()
    };
    let (a, mut b) = (side(1.0), side(1.01));
    let rows = compare(&a, &b, &spec)?;
    if rows.len() != 1 || rows[0].verdict != "same" {
        return Err("paired runs 1 % apart did not compare as `same`".into());
    }
    b.pop();
    if compare(&a, &b, &spec).is_ok() {
        return Err("a side with a run missing was compared".into());
    }
    Ok(())
}
