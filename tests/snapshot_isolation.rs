//! Snapshot-isolation property tests: N reader threads querying pinned
//! [`EngineSnapshot`]s while a writer publishes batches must see
//! results **bit-identical** to a fresh engine built from exactly the
//! documents their pinned epoch contains — never a torn mix of epochs,
//! never a write from the future.
//!
//! Runs on `prix-testkit` like the other property suites: each
//! property is a standalone `prop_*` function over inputs from a
//! seeded generator, so the same function serves the random sweep
//! (`check`) and the pinned regression seeds at the bottom.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use prix::core::{EngineConfig, PrixEngine, SharedEngine, TwigMatch};
use prix::xml::Collection;
use prix_testkit::{check, from_fn, replay, Config, Generator, TestRng};

const QUERIES: &[&str] = &[
    "//a//x",
    "//a/b/y",
    "//a[./d]",
    "//c/z",
    r#"//x[text()="v3"]"#,
    r#"//a[./b="v1"]"#,
    // A label no document ever uses: parses into scratch symbols on a
    // snapshot and must match nothing at every epoch.
    "//a/zz_unseen",
];

/// A small random document over a fixed vocabulary (the crash-harness
/// shapes).
fn doc_xml(rng: &mut TestRng) -> String {
    let mid = *rng.pick(&["b", "c"]);
    let leaf = *rng.pick(&["x", "y", "z"]);
    let val = rng.below(6);
    match rng.below(3) {
        0 => format!("<a><{mid}><{leaf}>v{val}</{leaf}></{mid}></a>"),
        1 => format!("<a><{mid}><{leaf}>v{val}</{leaf}></{mid}><d/></a>"),
        _ => format!("<a><d/><{mid}><{leaf}>v{val}</{leaf}></{mid}></a>"),
    }
}

#[derive(Debug, Clone)]
struct IsolationInput {
    initial: Vec<String>,
    batches: Vec<Vec<String>>,
    readers: usize,
}

fn gen_isolation_input() -> impl Generator<Value = IsolationInput> {
    from_fn(|rng: &mut TestRng| {
        let initial = (0..rng.range(1, 4)).map(|_| doc_xml(rng)).collect();
        let batches = (0..rng.range(2, 6))
            .map(|_| (0..rng.range(1, 4)).map(|_| doc_xml(rng)).collect())
            .collect();
        IsolationInput {
            initial,
            batches,
            readers: rng.range(2, 4) as usize,
        }
    })
}

fn build_engine(docs: &[String]) -> Result<PrixEngine, String> {
    let mut coll = Collection::new();
    for d in docs {
        coll.add_xml(d).map_err(|e| format!("doc: {e}"))?;
    }
    PrixEngine::build(
        coll,
        EngineConfig {
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// Runs every pool query against one pinned snapshot, returning the
/// per-query match lists.
fn all_query_results(snap: &prix::core::EngineSnapshot) -> Result<Vec<Vec<TwigMatch>>, String> {
    QUERIES
        .iter()
        .map(|xp| {
            let q = snap.parse_query(xp).map_err(|e| format!("{xp}: {e}"))?;
            Ok(snap.query(&q).map_err(|e| format!("{xp}: {e}"))?.matches)
        })
        .collect()
}

/// The tentpole property: readers pinned at epoch `e` observe exactly
/// the query results of a fresh engine over the documents committed
/// through `e`, no matter how the concurrent writer interleaves.
fn prop_pinned_readers_bit_identical(input: &IsolationInput) -> Result<(), String> {
    let shared = Arc::new(SharedEngine::new(build_engine(&input.initial)?));
    // The writer's log: after each publish, (epoch, all documents
    // accepted so far). Epoch 0's entry is the base build.
    type PublishLog = Vec<(u64, Vec<String>)>;
    let log: Arc<Mutex<PublishLog>> =
        Arc::new(Mutex::new(vec![(shared.epoch(), input.initial.clone())]));
    let done = Arc::new(AtomicBool::new(false));
    // Reader observations: (epoch, per-query match lists).
    type Observation = (u64, Vec<Vec<TwigMatch>>);
    let observations: Arc<Mutex<Vec<Observation>>> = Arc::new(Mutex::new(Vec::new()));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        let writer = {
            let shared = Arc::clone(&shared);
            let log = Arc::clone(&log);
            let done = Arc::clone(&done);
            let failures = Arc::clone(&failures);
            s.spawn(move || {
                let mut committed = input.initial.clone();
                for batch in &input.batches {
                    match shared.ingest(batch) {
                        Ok(report) if !report.rejected.is_empty() => failures
                            .lock()
                            .unwrap()
                            .push(format!("rejected: {:?}", report.rejected)),
                        Ok(report) => {
                            if !batch.is_empty() {
                                committed.extend(batch.iter().cloned());
                                log.lock().unwrap().push((report.epoch, committed.clone()));
                            }
                        }
                        Err(e) => failures.lock().unwrap().push(format!("ingest: {e}")),
                    }
                }
                done.store(true, Ordering::Release);
            })
        };
        for _ in 0..input.readers {
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            let observations = Arc::clone(&observations);
            let failures = Arc::clone(&failures);
            s.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                let snap = shared.snapshot();
                let epoch = snap.epoch();
                match all_query_results(&snap) {
                    Ok(results) => observations.lock().unwrap().push((epoch, results)),
                    Err(e) => failures.lock().unwrap().push(e),
                }
                if finished {
                    break;
                }
                std::thread::yield_now();
            });
        }
        writer.join().unwrap();
    });

    let failures = failures.lock().unwrap();
    if let Some(f) = failures.first() {
        return Err(f.clone());
    }

    // Reference: for each epoch the writer published, a fresh engine
    // over exactly that prefix, queried through the same snapshot path.
    let log = log.lock().unwrap();
    let mut reference: std::collections::HashMap<u64, Vec<Vec<TwigMatch>>> =
        std::collections::HashMap::new();
    for (epoch, docs) in log.iter() {
        let fresh = SharedEngine::new(build_engine(docs)?);
        reference.insert(*epoch, all_query_results(&fresh.snapshot())?);
    }

    let observations = observations.lock().unwrap();
    if observations.is_empty() {
        return Err("no reader observations recorded".into());
    }
    for (epoch, results) in observations.iter() {
        let expect = reference
            .get(epoch)
            .ok_or_else(|| format!("reader observed epoch {epoch} the writer never published"))?;
        if results != expect {
            let diff = results
                .iter()
                .zip(expect)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "epoch {epoch}, query `{}`: pinned reader saw {} match(es), \
                 fresh engine at that epoch sees {}",
                QUERIES[diff],
                results[diff].len(),
                expect[diff].len()
            ));
        }
    }
    // Readers must have seen the final epoch at least once (each takes
    // a fresh snapshot after the writer finishes).
    let last = log.last().unwrap().0;
    if !observations.iter().any(|(e, _)| *e == last) {
        return Err(format!("no reader ever observed the final epoch {last}"));
    }
    Ok(())
}

/// Snapshot parsing never touches the frozen symbol table — the
/// regression guard for the old mutex-serialized parse path: many
/// threads parse against one snapshot concurrently, the table stays
/// bit-identical, and unknown labels stay unknown.
fn prop_snapshot_parse_is_lock_free_and_pure(input: &IsolationInput) -> Result<(), String> {
    let shared = SharedEngine::new(build_engine(&input.initial)?);
    let snap = shared.snapshot();
    let names_before: Vec<String> = snap.symbols().iter().map(|(_, n)| n.to_string()).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let snap = &snap;
            s.spawn(move || {
                for _ in 0..50 {
                    for xp in QUERIES {
                        let q = snap.parse_query(xp).expect("parse");
                        let _ = snap.query(&q).expect("query");
                    }
                }
            });
        }
    });
    let names_after: Vec<String> = snap.symbols().iter().map(|(_, n)| n.to_string()).collect();
    if names_before != names_after {
        return Err("concurrent parsing mutated the frozen symbol table".into());
    }
    if snap.symbols().lookup("zz_unseen").is_some() {
        return Err("unknown query label leaked into the snapshot".into());
    }
    Ok(())
}

#[test]
fn pinned_readers_bit_identical_under_concurrent_ingest() {
    check(
        "pinned_readers_bit_identical",
        &Config {
            cases: 24,
            ..Default::default()
        },
        &gen_isolation_input(),
        prop_pinned_readers_bit_identical,
    );
}

#[test]
fn snapshot_parse_is_lock_free_and_pure() {
    check(
        "snapshot_parse_is_lock_free_and_pure",
        &Config {
            cases: 8,
            ..Default::default()
        },
        &gen_isolation_input(),
        prop_snapshot_parse_is_lock_free_and_pure,
    );
}

#[test]
fn regression_seed_pinned_readers_bit_identical() {
    replay(
        0x5EED_0008,
        &gen_isolation_input(),
        prop_pinned_readers_bit_identical,
    );
}

#[test]
fn regression_seed_snapshot_parse_is_pure() {
    replay(
        0x5EED_0009,
        &gen_isolation_input(),
        prop_snapshot_parse_is_lock_free_and_pure,
    );
}
