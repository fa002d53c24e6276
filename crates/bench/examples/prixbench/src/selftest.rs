//! `prixbench --self-test`: the driver's own checks, at the quick
//! scale. (The package has no test target on purpose: the checks need
//! the release build and a scratch directory, and one command should
//! run them.)

use std::collections::BTreeSet;

use crate::data::{self, Scale};
use crate::json::{self, Value};
use crate::spec::{Spec, Workload};
use crate::{compare, run, trace, Args, Report};

const SEED: u64 = 20_040_330;

fn quick(workload: Workload, trace: bool, seed: u64) -> Result<Report, String> {
    let report = run(&Args {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::QUICK,
        out: None,
    })
    .map_err(|e| format!("{} (trace {}): {e}", workload.name(), u8::from(trace)))?;
    if !report.correct() {
        return Err(format!(
            "{}: {} of {} operations failed",
            workload.name(),
            report.failed,
            report.attempted
        ));
    }
    Ok(report)
}

fn metric(report: &Report, name: &str) -> Result<f64, String> {
    report
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .and_then(|(_, v, _)| *v)
        .ok_or_else(|| format!("no metric `{name}`"))
}

/// Same seed, same inputs; another seed, other inputs.
fn determinism() -> Result<(), String> {
    let fingerprint = |seed: u64| -> Result<(u64, u64), String> {
        let corpus = data::generate(seed, &Scale::QUICK);
        let mut oracle = data::Oracle::build(&corpus.bulk)?;
        let pool = data::qpool(&mut oracle, seed, &Scale::QUICK)?;
        Ok((corpus.hash, data::qpool_hash(&pool)))
    };
    let (a, b, c) = (
        fingerprint(SEED)?,
        fingerprint(SEED)?,
        fingerprint(SEED + 1)?,
    );
    if a != b {
        return Err(format!("same seed, different inputs: {a:x?} vs {b:x?}"));
    }
    if a.0 == c.0 || a.1 == c.1 {
        return Err("different seeds gave the same inputs".into());
    }
    Ok(())
}

/// Exact counters repeat exactly between two fresh runs.
fn exact_counters() -> Result<(), String> {
    for (trace, name) in [
        (false, "pages_per_query"),
        (true, "core.filter.nodes_per_match"),
    ] {
        let a = metric(&quick(Workload::QueryCold, trace, SEED)?, name)?;
        let b = metric(&quick(Workload::QueryCold, trace, SEED)?, name)?;
        if a != b || a == 0.0 {
            return Err(format!("`{name}` read {a} then {b} on the same seed"));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` declares legal names, once each, all of which the
/// README explains; every workload reports them all, and the result
/// line survives a JSON round trip.
fn metric_names() -> Result<(), String> {
    let spec = Spec::load()?;
    let readme = include_str!("../README.md");
    let mut seen = BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        let name = &m.name;
        let legal = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
        if !legal || !seen.insert(name) {
            return Err(format!("metric name `{name}` is illegal or repeated"));
        }
        // The README writes siblings as `a.b.x`, `.y` and families as
        // `a.b.*`.
        let (family, member) = name.rsplit_once('.').unwrap_or(("", name));
        let mentioned = [
            format!("`{name}`"),
            format!("`.{member}`"),
            format!("`{family}.*`"),
        ];
        if !mentioned.iter().any(|m| readme.contains(m)) {
            return Err(format!("README.md does not mention `{name}`"));
        }
    }
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = quick(workload, trace, SEED)?;
            let declared = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            for ((name, value, _), d) in report.metrics.iter().zip(declared) {
                if value.is_some() != d.measured_on(workload) || (!trace && value.is_none()) {
                    return Err(format!(
                        "{}: `{name}` is measured where it should not be, or the reverse",
                        workload.name()
                    ));
                }
            }
            let line = json::parse(&report.to_json())?;
            if line.get("metrics").and_then(Value::as_obj).map(<[_]>::len) != Some(declared.len()) {
                return Err("result line does not parse back".into());
            }
        }
    }
    Ok(())
}

type Check = fn() -> Result<(), String>;

pub fn main() -> i32 {
    let checks: [(&str, Check); 5] = [
        ("span self-time arithmetic", trace::self_test),
        ("compare verdicts and quartiles", compare::self_test),
        ("same seed, same inputs", determinism),
        ("exact counters repeat", exact_counters),
        ("metric names and where they are measured", metric_names),
    ];
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("ok   {name}"),
            Err(e) => {
                println!("FAIL {name}: {e}");
                return 1;
            }
        }
    }
    println!("self-test passed");
    0
}
