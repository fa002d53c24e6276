//! prixbench — the repository's benchmark: one seeded driver, three
//! workloads, end-to-end and per-layer metrics.
//!
//! ```text
//! prixbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! prixbench --self-test
//! prixbench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run prints, as the last line of its standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It exits non-zero on a wrong answer. See `README.md`
//! next to this package for what each workload and metric means.

mod client;
mod clock;
mod compare;
mod data;
mod json;
mod probes;
mod query;
mod replay;
mod selftest;
mod setup;
mod spec;
mod stats;
mod sys;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use data::Scale;
use prix_server::json::escape;
use spec::{Spec, Workload};

/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPS: usize = 5;
/// Reopens per run; `reopen_s` is their median.
const REOPEN_REPS: usize = 31;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Appends the result, tagged with workload and seed, to this file
    /// (the input of `compare`).
    pub out: Option<PathBuf>,
}

/// One run's result.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json`'s order. The value is
    /// `None` when the workload does not measure the metric; the result
    /// line then carries 0, because the driver wants every metric there.
    pub metrics: Vec<(String, Option<f64>, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(name),
                    value.unwrap_or(0.0),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
        out,
    })
}

/// Runs one workload end to end: set-up, oracle, measurement, checks.
pub fn run(a: &Args) -> Result<Report, String> {
    // Before any other thread exists, so that all of them inherit it.
    match sys::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("prixbench: running on CPU {cpu}"),
        Err(e) => eprintln!("prixbench: not confined to one CPU ({e}); timings will spread"),
    }
    let work = sys::WorkDir::create()?;
    // A traced run reports no `setup_s`, so it sets up once.
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let mut setups: Vec<setup::Setup> = Vec::with_capacity(reps);
    for rep in 0..reps {
        if let Some(prev) = setups.last() {
            let dir = prev.db.parent().expect("database lives in a directory");
            std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        setups.push(setup::build(
            &work.path().join(format!("db{rep}")),
            a.seed,
            &a.scale,
        )?);
    }
    let setup = setups.last().expect("at least one set-up");
    let db_dir = setup.db.parent().expect("database lives in a directory");

    // Expected answers; timed apart from the set-up.
    let t = Instant::now();
    let mut oracle = data::Oracle::build(&setup.corpus.bulk)?;
    let pool = data::qpool(&mut oracle, a.seed, &a.scale)?;
    eprintln!(
        "prixbench: {} + {} documents, {} queries, oracle {:.2} s",
        setup.corpus.bulk.len(),
        setup.corpus.tail.len(),
        pool.len(),
        t.elapsed().as_secs_f64()
    );

    // Layer probes run on the database as the set-up left it, the same
    // state for every workload.
    let probes = if a.trace {
        probes::run(
            &setup.db,
            &work.path().join("scratch"),
            a.seed,
            &setup.corpus.bulk,
            &mut oracle,
            &pool,
        )?
    } else {
        BTreeMap::new()
    };

    let written = sys::file_bytes_written()?;
    let m = workloads::run(a.workload, setup, &pool, a.seed, a.seconds, a.trace)?;
    let run_written = sys::file_bytes_written()? - written;

    let spec = Spec::load()?;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let declared = if a.trace {
        let mut fixed = probes;
        probes::from_setup(setup, &mut fixed);
        values.extend(fixed.into_iter().map(|(k, v)| (k.to_string(), v)));
        // Recovery time drifts with the sandbox's disk by a quarter
        // between runs, so it is a layer metric, not an end-to-end one.
        values.insert(
            "reopen_s".into(),
            setup::time_reopen(&setup.db, REOPEN_REPS)?,
        );
        values.extend(m.layers);
        let trace_path = work
            .path()
            .parent()
            .expect("work directory has a parent")
            .join(format!("trace-{}.json", a.workload.name()));
        std::fs::write(&trace_path, trace::to_json(&m.spans))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        eprintln!(
            "prixbench: {} spans in {}",
            m.spans.len(),
            trace_path.display()
        );
        &spec.per_layer
    } else {
        let xml_bytes = (setup.corpus.xml_bytes() + m.ingested_bytes) as f64;
        // Written bytes per ingested byte, over the phase in which the
        // workload ingests: the run itself on `ingest_serve`, the
        // set-up (their only ingest) on the read-only workloads.
        let write_amp = if m.ingested_bytes > 0 {
            run_written as f64 / m.ingested_bytes as f64
        } else {
            setup.written_bytes as f64 / setup.corpus.xml_bytes() as f64
        };
        let setup_times: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
        // Interference only ever adds time: the fastest set-up is what
        // it costs.
        values.insert(
            "setup_s".into(),
            setup_times.iter().copied().fold(f64::INFINITY, f64::min),
        );
        if m.queries_per_s <= 0.0 {
            return Err(format!("{} s were too short for one whole pass", a.seconds));
        }
        values.insert("query_mid_us".into(), m.query_mid_us);
        values.insert("query_tail_us".into(), m.query_tail_us);
        values.insert("queries_per_s".into(), m.queries_per_s);
        values.insert("pages_per_query".into(), m.pages_per_query);
        values.insert("write_amp".into(), write_amp);
        values.insert(
            "space_amp".into(),
            setup::dir_bytes(db_dir)? as f64 / xml_bytes,
        );
        values.insert("peak_rss_mb".into(), sys::peak_rss_mb()?);
        &spec.end_to_end
    };

    let metrics = declared
        .iter()
        .map(|d| {
            let name = &d.name;
            let value = match (values.remove(name), d.measured_on(a.workload)) {
                (Some(v), true) if v.is_finite() => Some(v),
                (Some(v), true) => return Err(format!("metric `{name}` is {v}")),
                (None, false) => None,
                (None, true) => return Err(format!("metric `{name}` was not measured")),
                (Some(_), false) => {
                    return Err(format!(
                        "metric `{name}` is not one {} measures",
                        a.workload.name()
                    ))
                }
            };
            Ok((name.clone(), value, d.unit.clone()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = values.keys().next() {
        return Err(format!("metric `{extra}` is not in BENCHMARK.json"));
    }
    Ok(Report {
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics,
    })
}

fn run_cli(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("prixbench: {e}");
            eprintln!(
                "usage: prixbench --workload <query_cold|serve_http|ingest_serve> \
                 --seed <n> --seconds <s> --trace <0|1> [--out FILE]"
            );
            return 2;
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prixbench: {e}");
            return 1;
        }
    };
    for (name, value, unit) in &report.metrics {
        match value {
            Some(value) => println!("{name} = {value} {unit}"),
            None => println!("{name} = n/a"),
        }
    }
    let line = report.to_json();
    if let Some(path) = &args.out {
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}\n",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            &line[1..]
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(tagged.as_bytes()));
        if let Err(e) = appended {
            eprintln!("prixbench: append to {}: {e}", path.display());
            return 1;
        }
    }
    println!("{line}");
    if report.correct() {
        0
    } else {
        eprintln!(
            "prixbench: {} of {} operations failed or answered wrong",
            report.failed, report.attempted
        );
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--self-test") => selftest::main(),
        _ => run_cli(&args),
    };
    std::process::exit(code);
}
