//! Crash-consistency harness: random workloads killed at seeded
//! syscall points, recovered, and verified against an in-memory model.
//!
//! Each iteration bulk-builds a database in a fault-injecting
//! environment (`prix_testkit::FaultSegEnv`), then arms the injector and
//! runs random inserts and commits until the simulated process dies
//! mid-syscall. The post-crash disk images — durable bytes plus a
//! seed-chosen subset of un-synced writes, with the in-flight operation
//! cut short, torn at sector granularity, or robbed of its fsync — are
//! reopened, which replays the batch log, and the result must be
//! exactly one of the states the log's protocol promises:
//!
//! * every commit that returned `Ok` is fully present;
//! * a commit interrupted by the crash is fully present or fully absent;
//! * inserts after the last commit (never acknowledged) are fully absent;
//! * every tier file verifies;
//! * the symbol dictionary is, id for id, the one the surviving commit
//!   held — after recovery and again after a second reopen;
//! * query results are bit-identical to a fresh in-memory engine built
//!   over the surviving document prefix.
//!
//! Every iteration is a pure function of `(seed, fault kind)`, so a
//! failure message names the exact inputs to pin as a regression test
//! below — the same convention as `tests/property_engines.rs`.

use std::sync::Arc;

use prix::core::{BulkBuilder, EngineConfig, LabelingMode, PrixEngine};
use prix::storage::{MemSegEnv, RawStore, SegmentEnv};
use prix::xml::Collection;
use prix_testkit::{FaultInjector, FaultKind, FaultSegEnv, TestRng};

/// Tiny pool: forces dirty evictions, so the delta's pages move between
/// the pool and its page file constantly, not just at clears.
const BUFFER_PAGES: usize = 8;

/// Queries the model comparison runs after recovery: structural,
/// descendant, branch, value (EPIndex) and value-predicate shapes over
/// the generator's vocabulary.
const QUERIES: &[&str] = &[
    "//a//x",
    "//a/b/y",
    "//a[./d]",
    "//c/z",
    r#"//x[text()="v3"]"#,
    r#"//a[./b="v1"]"#,
    // Value predicates: the pre-filter comes from the tiers' value runs
    // and the delta's trees.
    r#"//b[x = "v3"]"#,
    r#"//a/c[starts-with(y, "v")]"#,
];

fn labeling() -> LabelingMode {
    LabelingMode::Dynamic { alpha: 4 }
}

fn cfg() -> EngineConfig {
    EngineConfig {
        buffer_pages: BUFFER_PAGES,
        labeling: labeling(),
        ..Default::default()
    }
}

/// A small random document over a fixed vocabulary, but for one leaf:
/// the value under `d` is the document's own (one in a million), so
/// most commits intern a name and the dictionary is under every kill
/// point. Shapes are kept few so most inserts fit the trie scopes of an
/// empty delta; the occasional legitimate rejection is tolerated by the
/// harness.
fn doc_xml(rng: &mut TestRng) -> String {
    let mid = *rng.pick(&["b", "c"]);
    let leaf = *rng.pick(&["x", "y", "z"]);
    let val = rng.below(6);
    let own = rng.below(1_000_000);
    match rng.below(3) {
        0 => format!("<a><{mid}><{leaf}>v{val}</{leaf}></{mid}></a>"),
        1 => format!("<a><{mid}><{leaf}>v{val}</{leaf}></{mid}><d>u{own}</d></a>"),
        _ => format!("<a><d>u{own}</d><{mid}><{leaf}>v{val}</{leaf}></{mid}></a>"),
    }
}

/// A document the engine refuses, whose parse interns a name of its own
/// before it fails.
fn refused_xml(rng: &mut TestRng) -> String {
    format!("<a><d>r{}</d><b>", rng.below(1_000_000))
}

/// The dictionary of `engine`: every name, in id order.
fn names_of(engine: &PrixEngine) -> Vec<String> {
    let names = engine.symbols().iter();
    names.map(|(_, name)| name.to_string()).collect()
}

/// Every document `engine` holds, tiers and delta.
fn docs_of(engine: &PrixEngine) -> usize {
    engine.segment_docs() as usize + engine.mutable_docs()
}

/// Bulk-builds `docs` into `env`.
fn bulk_base(env: Arc<dyn SegmentEnv>, docs: &[String]) -> Result<PrixEngine, String> {
    let mut b = BulkBuilder::with_env(cfg(), env).map_err(|e| format!("bulk open: {e}"))?;
    for d in docs {
        b.add_xml(d).map_err(|e| format!("bulk add: {e}"))?;
    }
    b.finish().map_err(|e| format!("bulk finish: {e}"))
}

/// Reopens what a crash left in `fenv`; the tier files and the delta's
/// value index must verify.
fn reopen_after_crash(fenv: &FaultSegEnv) -> Result<(PrixEngine, Arc<MemSegEnv>), String> {
    let env = fenv.durable_env();
    let after =
        PrixEngine::reopen_env(env.clone(), 64).map_err(|e| format!("reopen after crash: {e}"))?;
    after
        .recovery()
        .ok_or("a reopen must report what it replayed")?;
    after
        .verify_tiers()
        .map_err(|e| format!("tier file verification after recovery: {e}"))?;
    after
        .valix()
        .verify()
        .map_err(|e| format!("valix verification after recovery: {e}"))?;
    Ok((after, env))
}

/// `recovered`, reopened from `env`, must hold the dictionary `names`
/// id for id — and hold it still after a second reopen — and answer
/// every query of [`QUERIES`] bit-identically to a fresh in-memory
/// engine built over `docs`.
fn same_answers(
    recovered: PrixEngine,
    env: Arc<MemSegEnv>,
    docs: &[String],
    names: &[String],
) -> Result<(), String> {
    let check = |engine: &PrixEngine, pass: &str| {
        let got = names_of(engine);
        if got != names {
            let at = got.iter().zip(names).take_while(|(a, b)| a == b).count();
            return Err(format!(
                "after {pass} the dictionary holds {} name(s), the surviving commit held {}; \
                 they part at id {at}",
                got.len(),
                names.len()
            ));
        }
        same_matches(engine, docs).map_err(|e| format!("after {pass}: {e}"))
    };
    check(&recovered, "recovery")?;
    drop(recovered); // closing writes nothing
    let again = PrixEngine::reopen_env(env, 64).map_err(|e| format!("second reopen: {e}"))?;
    check(&again, "a second reopen")
}

/// `recovered` must answer every query of [`QUERIES`] bit-identically
/// to a fresh in-memory engine built over `docs`.
fn same_matches(recovered: &PrixEngine, docs: &[String]) -> Result<(), String> {
    let mut reference_coll = Collection::new();
    for d in docs {
        reference_coll
            .add_xml(d)
            .map_err(|e| format!("reference doc: {e}"))?;
    }
    let reference = PrixEngine::build(
        reference_coll,
        EngineConfig {
            labeling: labeling(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("reference build: {e}"))?;
    let (after, reference) = (recovered.snapshot(), reference.snapshot());
    for xp in QUERIES {
        let qa = after.parse_query(xp).map_err(|e| format!("{xp}: {e}"))?;
        let qr = reference
            .parse_query(xp)
            .map_err(|e| format!("{xp}: {e}"))?;
        // Sorted: a tiered database delivers matches tier by tier.
        let mut ma = after.query(&qa).map_err(|e| format!("{xp}: {e}"))?.matches;
        let mut mr = reference
            .query(&qr)
            .map_err(|e| format!("{xp}: {e}"))?
            .matches;
        ma.sort();
        mr.sort();
        if ma != mr {
            return Err(format!(
                "{xp}: recovered engine found {} match(es), reference {}",
                ma.len(),
                mr.len()
            ));
        }
    }
    Ok(())
}

/// One full crash-recovery round on a bare engine. Returns `Err` with a
/// diagnosis when any durability promise is broken.
fn crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    let mut rng = TestRng::from_seed(seed);
    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));

    // Known-good base, bulk-built before the injector is armed.
    let mut docs: Vec<String> = (0..4).map(|_| doc_xml(&mut rng)).collect();
    let mut base = Collection::new();
    for d in &docs {
        base.add_xml(d).map_err(|e| format!("base doc: {e}"))?;
    }
    let mut engine =
        PrixEngine::build_env(base, cfg(), fenv.clone()).map_err(|e| format!("base build: {e}"))?;
    // The last acknowledged state: its documents and its dictionary.
    let mut acked = (docs.len(), names_of(&engine));

    // Arm the kill point and run the workload until the lights go out.
    // A commit is one or two writes and one sync.
    inj.arm(kind, rng.below(10), rng.next_u64());
    let mut crashed_during_save = false;
    for _ in 0..24 {
        if inj.crashed() {
            break;
        }
        if rng.chance(0.35) {
            match engine.save() {
                Ok(()) => acked = (docs.len(), names_of(&engine)),
                Err(_) => {
                    crashed_during_save = inj.crashed();
                    break;
                }
            }
        } else {
            let d = doc_xml(&mut rng);
            match engine.insert_document(&d) {
                Ok(_) => docs.push(d),
                Err(_) if inj.crashed() => break,
                // Legitimate rejection (trie scope exhausted): the
                // document was never indexed, keep it out of the model.
                Err(_) => {}
            }
        }
    }
    if !inj.crashed() {
        // Budget never ran out: end with a commit so the iteration still
        // verifies recovery of the final state. The remaining budget
        // may still kill this one — same rules as any other.
        match engine.save() {
            Ok(()) => acked = (docs.len(), names_of(&engine)),
            Err(_) if inj.crashed() => crashed_during_save = true,
            Err(e) => return Err(format!("final commit failed without a crash: {e}")),
        }
    }
    let crashed = inj.crashed();
    // What the interrupted commit was writing (nothing was inserted
    // after it).
    let attempted = (docs.len(), names_of(&engine));
    drop(engine);

    let (after, env) = reopen_after_crash(&fenv)?;
    // The recovered state must be an acknowledged one, documents and
    // dictionary both: the last acked commit, or — only if the crash hit
    // a commit — that commit's full contents (its record may have
    // landed before the error surfaced).
    let n = docs_of(&after);
    let mut acceptable = vec![acked];
    if crashed_during_save {
        acceptable.push(attempted);
    }
    let recovered_names = after.symbols().len();
    let Some((_, names)) = acceptable
        .iter()
        .find(|(docs, names)| (*docs, names.len()) == (n, recovered_names))
    else {
        let acceptable: Vec<_> = acceptable.iter().map(|(d, s)| (d, s.len())).collect();
        return Err(format!(
            "recovered {n} docs and {recovered_names} names; acceptable states {acceptable:?} \
             (crashed={crashed}, during_save={crashed_during_save})"
        ));
    };
    same_answers(after, env, &docs[..n], names).map_err(|e| format!("{e} ({n} docs survived)"))
}

/// Kill-during-publish: the online ingest path. A [`SharedEngine`]
/// ingests batches through the single-writer protocol (validation,
/// one log record inside `save`, epoch publish) while the injector
/// counts down to a kill. The recovered database must sit at **exactly
/// one epoch boundary** — the state after some fully-published batch —
/// never a torn mix of two batches.
///
/// Acceptance of each document is deterministic for a given history, so
/// a twin on clean stores replays the batches first and records the
/// cumulative document list and dictionary at every epoch boundary; the
/// crashed run must recover to one of those, bit-identically.
fn ingest_crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    use prix::core::SharedEngine;

    let mut rng = TestRng::from_seed(seed);
    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));
    let base_docs: Vec<String> = (0..3).map(|_| doc_xml(&mut rng)).collect();
    let engine = bulk_base(fenv.clone(), &base_docs)?;
    let batches: Vec<Vec<String>> = (0..rng.range(2, 5))
        .map(|_| (0..rng.range(1, 4)).map(|_| doc_xml(&mut rng)).collect())
        .collect();

    // The twin: `states[k]` is the cumulative accepted document list
    // after batch k (`states[0]` the base), `state_names[k]` the
    // dictionary then (every document parsed so far interned its names,
    // accepted or not). These are the only legal recovery targets.
    let mut twin = bulk_base(Arc::new(MemSegEnv::new()), &base_docs)?;
    let mut states: Vec<Vec<String>> = vec![base_docs.clone()];
    let mut state_names = vec![names_of(&twin)];
    for batch in &batches {
        let mut cumulative = states.last().unwrap().clone();
        for d in batch {
            if twin.insert_document(d).is_ok() {
                cumulative.push(d.clone());
            }
        }
        states.push(cumulative);
        state_names.push(names_of(&twin));
    }

    // Arm the kill point and drive the batches through the shared
    // (snapshot-publishing) ingest path until the lights go out.
    inj.arm(kind, rng.below(8), rng.next_u64());
    let shared = SharedEngine::new(engine);
    let mut last_acked = 0usize; // index into `states`
    let mut crashed_in_batch: Option<usize> = None;
    for (k, batch) in batches.iter().enumerate() {
        match shared.ingest(batch) {
            Ok(report) => {
                last_acked = k + 1;
                // The published snapshot must already serve the batch.
                let snap = shared.snapshot();
                if snap.epoch() != report.epoch {
                    return Err(format!(
                        "published snapshot at epoch {} but ingest reported {}",
                        snap.epoch(),
                        report.epoch
                    ));
                }
            }
            Err(_) if inj.crashed() => {
                crashed_in_batch = Some(k + 1);
                break;
            }
            Err(e) => return Err(format!("ingest failed without a crash: {e}")),
        }
    }
    drop(shared);

    let (after, env) = reopen_after_crash(&fenv)?;
    // Exactly one epoch: the recovered document count must equal the
    // last acked boundary, or — only if the crash interrupted a batch —
    // that batch's boundary (its record may have landed before the
    // error surfaced). Nothing in between, nothing beyond.
    let n = docs_of(&after);
    let mut acceptable = vec![last_acked];
    acceptable.extend(crashed_in_batch);
    let state = acceptable
        .iter()
        .copied()
        .find(|&k| states[k].len() == n && state_names[k].len() == after.symbols().len())
        .ok_or_else(|| {
            format!(
                "recovered {n} docs; acceptable epoch boundaries hold {:?} (acked batch \
                 {last_acked}, crashed in {crashed_in_batch:?})",
                acceptable
                    .iter()
                    .map(|&k| states[k].len())
                    .collect::<Vec<_>>()
            )
        })?;
    same_answers(after, env, &states[state], &state_names[state])
        .map_err(|e| format!("{e} — the recovered state mixes epochs (expected epoch {state})"))
}

/// ≥200 randomized kill points, cycling through every fault kind.
#[test]
fn randomized_crashes_recover_to_an_acknowledged_state() {
    let mut failures = Vec::new();
    for seed in 0..70u64 {
        for kind in FaultKind::ALL {
            if let Err(e) = crash_iteration(seed, kind) {
                failures.push(format!("seed {seed:#x} kind {kind:?}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} crash iteration(s) broke a durability promise:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

// Pinned regression kill points, one per fault kind (the `replay`
// convention of tests/property_engines.rs: same function, fixed seed).

#[test]
fn crash_replay_short_write_seed_5eed0001() {
    crash_iteration(0x5EED_0001, FaultKind::ShortWrite).unwrap();
}

#[test]
fn crash_replay_torn_sector_seed_5eed0002() {
    crash_iteration(0x5EED_0002, FaultKind::TornSector).unwrap();
}

#[test]
fn crash_replay_dropped_fsync_seed_5eed0003() {
    crash_iteration(0x5EED_0003, FaultKind::DroppedFsync).unwrap();
}

/// Randomized kill points inside the online-ingest publish path.
#[test]
fn randomized_ingest_crashes_recover_to_one_epoch() {
    let mut failures = Vec::new();
    for seed in 0..40u64 {
        for kind in FaultKind::ALL {
            if let Err(e) = ingest_crash_iteration(seed, kind) {
                failures.push(format!("seed {seed:#x} kind {kind:?}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} ingest crash iteration(s) recovered to a torn epoch:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn ingest_crash_replay_short_write_seed_5eed0004() {
    ingest_crash_iteration(0x5EED_0004, FaultKind::ShortWrite).unwrap();
}

#[test]
fn ingest_crash_replay_torn_sector_seed_5eed0005() {
    ingest_crash_iteration(0x5EED_0005, FaultKind::TornSector).unwrap();
}

#[test]
fn ingest_crash_replay_dropped_fsync_seed_5eed0006() {
    ingest_crash_iteration(0x5EED_0006, FaultKind::DroppedFsync).unwrap();
}

// ---------------------------------------------------------------------------
// The log between compactions
// ---------------------------------------------------------------------------

/// Where the kill lands while K ≥ 3 acknowledged commits sit in the
/// log.
#[derive(Debug, Clone, Copy)]
enum KillIn {
    /// Inside commit K+1.
    Commit,
    /// Inside a compaction: the segment build, the fresh log's header,
    /// the manifest write, the unlink of the old log.
    Compaction,
    /// Inside commit K+1, after a round whose only document was refused
    /// (its parse interned a name, which rides in K+1's record).
    AfterRefusal,
    /// Inside commit K+1 of an engine reopened over a log whose last
    /// append was torn: the commit cuts the tail off, then appends.
    AfterTornTail,
}

impl KillIn {
    const ALL: [KillIn; 4] = [
        KillIn::Commit,
        KillIn::Compaction,
        KillIn::AfterRefusal,
        KillIn::AfterTornTail,
    ];
}

/// One acknowledged ingest round on a bare engine — the four steps
/// `SharedEngine::ingest` takes. Returns the documents it accepted.
fn ingest_round(engine: &mut PrixEngine, batch: &[String]) -> Result<Vec<String>, String> {
    engine.pool().begin_ingest();
    let out = engine.ingest_batch(batch).map_err(|e| e.to_string())?;
    if !out.accepted.is_empty() {
        engine.save().map_err(|e| e.to_string())?;
    }
    engine.pool().publish_ingest();
    Ok(batch
        .iter()
        .enumerate()
        .filter(|(i, _)| !out.rejected.iter().any(|(r, _)| r == i))
        .map(|(_, d)| d.clone())
        .collect())
}

/// What one seed of the log harness does: a bulk-built base and K + 1
/// ingest batches, and a refused document for [`KillIn::AfterRefusal`].
struct Script {
    base: Vec<String>,
    k: usize,
    batches: Vec<Vec<String>>,
    refused: String,
    /// `states[i]`: the documents a database holds after batch `i`.
    /// Which documents a batch gets accepted depends on the label
    /// scopes the earlier ones took, so a twin on clean stores runs
    /// the script once to find out.
    states: Vec<Vec<String>>,
    /// `names[i]`: the dictionary after batch `i`, in id order.
    names: Vec<Vec<String>>,
    /// The dictionary after batch K + 1 when the refused round came
    /// before it.
    names_after_refusal: Vec<String>,
    crash_seed: u64,
}

impl Script {
    fn new(seed: u64) -> Result<Script, String> {
        let mut rng = TestRng::from_seed(seed);
        let base: Vec<String> = (0..4).map(|_| doc_xml(&mut rng)).collect();
        let k = rng.range(3, 6) as usize;
        let batches: Vec<Vec<String>> = (0..=k)
            .map(|_| (0..rng.range(1, 4)).map(|_| doc_xml(&mut rng)).collect())
            .collect();
        let mut script = Script {
            base,
            k,
            batches,
            refused: refused_xml(&mut rng),
            states: Vec::new(),
            names: Vec::new(),
            names_after_refusal: Vec::new(),
            crash_seed: rng.next_u64(),
        };
        let mut twin = bulk_base(Arc::new(MemSegEnv::new()), &script.base)?;
        let mut states = vec![script.base.clone()];
        let mut names = vec![names_of(&twin)];
        for batch in &script.batches {
            let mut docs = states.last().expect("starts non-empty").clone();
            docs.extend(ingest_round(&mut twin, batch).map_err(|e| format!("twin: {e}"))?);
            states.push(docs);
            names.push(names_of(&twin));
        }
        let mut twin = bulk_base(Arc::new(MemSegEnv::new()), &script.base)?;
        for batch in &script.batches[..k] {
            ingest_round(&mut twin, batch).map_err(|e| format!("twin: {e}"))?;
        }
        let refused = ingest_round(&mut twin, std::slice::from_ref(&script.refused))?;
        assert!(refused.is_empty(), "the refused document was accepted");
        ingest_round(&mut twin, &script.batches[k])?;
        script.names_after_refusal = names_of(&twin);
        (script.states, script.names) = (states, names);
        Ok(script)
    }
}

/// One round of the log harness: the script's base, K acknowledged
/// ingest commits, then a kill at the `kill_at`-th matching syscall of
/// the phase `kill_in` names. Whatever the kill hits, reopening must
/// find all K batches (and batch K+1 whole or not at all), clean tier
/// files, the dictionary id for id and the answers of a fresh in-memory
/// engine. Returns how many matching syscalls the phase issued, so a
/// caller can sweep every one of them.
fn redo_log_iteration(
    script: &Script,
    kind: FaultKind,
    kill_in: KillIn,
    kill_at: u64,
) -> Result<u64, String> {
    let Script {
        k,
        batches,
        states,
        names,
        ..
    } = script;
    let k = *k;
    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));
    let mut engine = bulk_base(fenv.clone(), &script.base)?;
    for batch in &batches[..k] {
        ingest_round(&mut engine, batch).map_err(|e| format!("unarmed ingest: {e}"))?;
    }
    let logged = engine.log().map_or(0, |l| l.records());
    if logged == 0 || logged > k as u64 {
        return Err(format!("{logged} record(s) in the log after {k} commits"));
    }
    let mut after_k1 = names[k + 1].clone();
    match kill_in {
        KillIn::AfterRefusal => {
            ingest_round(&mut engine, std::slice::from_ref(&script.refused))?;
            after_k1 = script.names_after_refusal.clone();
        }
        KillIn::AfterTornTail => {
            // A commit cut short by a crash: half a record, durable.
            let log = fenv.open(".g1.log").map_err(|e| e.to_string())?;
            let end = log.len().map_err(|e| e.to_string())?;
            let torn = [0x40, 0, 0, 0, 0xAB, 0xCD, 0xEF, 0x01, 9, 9, 9];
            log.write_at(end, &torn).map_err(|e| e.to_string())?;
            log.sync().map_err(|e| e.to_string())?;
            drop(engine);
            engine = PrixEngine::reopen_env(fenv.clone(), BUFFER_PAGES)
                .map_err(|e| format!("reopen over a torn tail: {e}"))?;
            if !engine.recovery().is_some_and(|r| r.unclean_shutdown) {
                return Err("the torn tail went unnoticed".into());
            }
        }
        KillIn::Commit | KillIn::Compaction => {}
    }

    inj.arm(kind, kill_at, script.crash_seed ^ kill_at);
    let ops = inj.ops_seen();
    let mut acceptable = vec![(k, names[k].clone())];
    let phase = match kill_in {
        KillIn::Compaction => engine.compact().map(|_| ()).map_err(|e| e.to_string()),
        _ => {
            let r = ingest_round(&mut engine, &batches[k]).map(|_| ());
            let k1 = (k + 1, after_k1);
            if r.is_ok() {
                acceptable = vec![k1];
            } else {
                acceptable.push(k1);
            }
            r
        }
    };
    let ops = inj.ops_seen() - ops;
    if let Err(e) = phase {
        if !inj.crashed() {
            return Err(format!("{kill_in:?} failed without a crash: {e}"));
        }
    }
    drop(engine);

    let (after, env) = reopen_after_crash(&fenv)?;
    // The dictionary's halves go together. A compaction moves the names
    // the delta's batches interned into a symbol run: the old manifest
    // with the log that interns them again, or the new manifest with the
    // run and an empty delta — never one's rows with the other's log.
    let runs = after.segment_manifest().iter();
    let runs: Vec<_> = runs.filter(|s| s.suffix.ends_with(".sym")).collect();
    let tiered: usize = runs.iter().map(|s| s.n_docs as usize).sum();
    let replayed = after.symbols().len() - tiered;
    let interned = names[k].len() - names[0].len();
    let compacted = after.generation() == 2;
    let layout = (after.mutable_docs() == 0, runs.len(), replayed == 0);
    if matches!(kill_in, KillIn::Compaction)
        && interned > 0
        && layout != (compacted, 1 + usize::from(compacted), compacted)
    {
        return Err(format!(
            "generation {}: {} doc(s) in the delta, {} symbol run(s) holding {tiered} name(s), \
             {replayed} name(s) interned by the replay",
            after.generation(),
            after.mutable_docs(),
            runs.len()
        ));
    }
    let n = docs_of(&after);
    let (state, names) = acceptable
        .into_iter()
        .find(|(i, _)| states[*i].len() == n)
        .ok_or_else(|| format!("recovered {n} docs, {k} batches were acknowledged"))?;
    same_answers(after, env, &states[state], &names)?;
    Ok(ops)
}

/// Runs each phase of `phases` once to completion to learn how many
/// syscalls it issues, then kills it at `picks` kill points drawn from
/// that range (`None`: at every one). Returns the failures.
fn redo_log_sweep(
    seed: u64,
    kind: FaultKind,
    phases: &[KillIn],
    picks: Option<u64>,
) -> Vec<String> {
    let script = match Script::new(seed) {
        Ok(s) => s,
        Err(e) => return vec![format!("seed {seed:#x}: {e}")],
    };
    let mut rng = TestRng::from_seed(seed ^ 0xC0FF_EE00);
    let mut failures = Vec::new();
    for &kill_in in phases {
        let label = |e| format!("seed {seed:#x} kind {kind:?} in {kill_in:?}: {e}");
        let ops = match redo_log_iteration(&script, kind, kill_in, u64::MAX) {
            Ok(ops) => ops,
            Err(e) => {
                failures.push(label(format!("no kill: {e}")));
                continue;
            }
        };
        let points: Vec<u64> = match picks {
            None => (0..ops).collect(),
            Some(n) => (0..n).map(|_| rng.below(ops)).collect(),
        };
        for at in points {
            if let Err(e) = redo_log_iteration(&script, kind, kill_in, at) {
                failures.push(label(format!("kill point {at} of {ops}: {e}")));
            }
        }
    }
    failures
}

/// Random kill points in every phase, every fault kind.
#[test]
fn redo_log_survives_random_crashes() {
    let mut failures = Vec::new();
    for seed in 0..5u64 {
        for kind in FaultKind::ALL {
            failures.extend(redo_log_sweep(seed, kind, &KillIn::ALL, Some(2)));
        }
    }
    assert!(
        failures.is_empty(),
        "{} log crash iteration(s) lost an acknowledged commit:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A kill at every single syscall of a compaction — which is what a
/// checkpoint was: the step that moves what the log holds into the
/// files the next open starts from, and lets the log start over. Its
/// segment and value-run writes and barriers, the fresh log's header,
/// the manifest write, the old log's unlink.
#[test]
fn checkpoint_survives_a_kill_at_every_syscall() {
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        failures.extend(redo_log_sweep(
            0x5EED_0010,
            kind,
            &[KillIn::Compaction],
            None,
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A kill at every syscall of the commit that follows a torn tail —
/// the tail's truncation, the append, the barrier — under every fault
/// kind: the reopened log never replays a record past a torn one, and
/// never loses one that was acknowledged.
#[test]
fn a_commit_after_a_torn_tail_survives_a_kill_at_every_syscall() {
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        failures.extend(redo_log_sweep(
            0x5EED_0015,
            kind,
            &[KillIn::AfterTornTail],
            None,
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

// Pinned replay seeds, one per fault kind, each swept through every
// kill point of its phase.

#[test]
fn redo_log_replay_short_write_seed_5eed0011() {
    let failures = redo_log_sweep(0x5EED_0011, FaultKind::ShortWrite, &[KillIn::Commit], None);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn redo_log_replay_torn_sector_seed_5eed0012() {
    let failures = redo_log_sweep(
        0x5EED_0012,
        FaultKind::TornSector,
        &[KillIn::Compaction],
        None,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn redo_log_replay_dropped_fsync_seed_5eed0013() {
    let failures = redo_log_sweep(
        0x5EED_0013,
        FaultKind::DroppedFsync,
        &[KillIn::AfterRefusal],
        None,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A compaction that writes a symbol run — the delta's documents each
/// brought a value of their own — killed at every syscall, under every
/// fault kind: the run's write and barrier, the fresh log, the manifest
/// write, the unlink. Whatever the kill hits, reopening finds the old
/// manifest and the log that interns the names again, or the new
/// manifest and the run ([`redo_log_iteration`] checks which, and the
/// dictionary id for id). And where nothing is killed, a reader pinned
/// before the compaction answers, and spells its symbols,
/// bit-identically after it.
#[test]
fn compaction_with_a_symbol_run_survives_a_kill_at_every_syscall() {
    use prix::core::SharedEngine;
    const SEED: u64 = 0x5EED_0014;
    let script = Script::new(SEED).unwrap();
    let interned = script.names[script.k].len() - script.names[0].len();
    assert!(interned >= 3, "the delta interned {interned} name(s)");
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        failures.extend(redo_log_sweep(SEED, kind, &[KillIn::Compaction], None));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    let base = bulk_base(Arc::new(MemSegEnv::new()), &script.base).unwrap();
    let shared = SharedEngine::new(base);
    for batch in &script.batches[..script.k] {
        shared.ingest(batch).unwrap();
    }
    let pinned = shared.snapshot();
    let answers = |snap: &prix::core::EngineSnapshot| -> Vec<_> {
        let run = |xp: &&str| snap.query(&snap.parse_query(xp).unwrap()).unwrap().matches;
        QUERIES.iter().map(run).collect()
    };
    let names = |snap: &prix::core::EngineSnapshot| -> Vec<String> {
        let names = snap.symbols().iter();
        names.map(|(_, name)| name.to_string()).collect()
    };
    let before = (answers(&pinned), names(&pinned));
    assert_eq!(before.1, script.names[script.k]);
    shared
        .compact()
        .unwrap()
        .expect("the delta holds documents");
    let fresh = shared.snapshot();
    assert_eq!((fresh.generation(), fresh.mutable_docs()), (2, 0));
    assert_eq!((pinned.generation(), answers(&pinned)), (1, before.0));
    assert_eq!(names(&pinned), before.1);
    assert_eq!(names(&fresh), before.1, "a compaction interns nothing");
}

/// Bit rot in a tier file after it was written: a reopen reads the
/// header and the resident sections only, but the full verification
/// (`prix fsck`) checks every block against its CRC and refuses the
/// corrupted one.
#[test]
fn silent_corruption_is_caught_by_verify_checksums() {
    let env = Arc::new(MemSegEnv::new());
    let mut c = Collection::new();
    for i in 0..40 {
        c.add_xml(&format!("<a><b>v{i}</b><c>w{i}</c></a>"))
            .unwrap();
    }
    drop(PrixEngine::build_env(c, cfg(), env.clone()).unwrap());
    // Flip one byte in the first block of records, past the header.
    let seg = env.store(".g1.ep.seg").expect("the EP segment");
    let victim = 128 + 16;
    let flipped = seg.snapshot()[victim] ^ 0x40;
    seg.write_at(victim as u64, &[flipped]).unwrap();
    let err = match PrixEngine::reopen_env(env, 64) {
        Err(e) => e.to_string(),
        Ok(reopened) => reopened.verify_tiers().unwrap_err().to_string(),
    };
    assert!(
        err.contains("CRC mismatch"),
        "flipped bit must surface as a checksum error, got: {err}"
    );
}
