//! Crash-consistency harness: random workloads killed at seeded
//! syscall points, recovered, and verified against an in-memory model.
//!
//! Each iteration builds a durable engine in a fault-injecting
//! environment (`prix_testkit::FaultSegEnv`), saves a known-good base, then arms the
//! injector and runs random inserts and saves until the simulated
//! process dies mid-syscall. The post-crash disk images — durable bytes
//! plus a seed-chosen subset of un-synced writes, with the in-flight
//! operation cut short, torn at sector granularity, or robbed of its
//! fsync — are reopened through real recovery, and the result must be
//! exactly one of the states the WAL protocol promises:
//!
//! * every save that returned `Ok` is fully present;
//! * a save interrupted by the crash is fully present or fully absent;
//! * inserts after the last save (never acknowledged) are fully absent;
//! * no page fails its checksum after recovery;
//! * the symbol dictionary is, id for id, the one the surviving save
//!   held — after recovery and again after a second, clean reopen;
//! * query results are bit-identical to a fresh in-memory engine built
//!   over the surviving document prefix.
//!
//! Every iteration is a pure function of `(seed, fault kind)`, so a
//! failure message names the exact inputs to pin as a regression test
//! below — the same convention as `tests/property_engines.rs`.

use std::sync::Arc;

use prix::core::{BulkBuilder, EngineConfig, LabelingMode, PrixEngine};
use prix::storage::{BufferPool, MemSegEnv, MemStore, Pager, RawStore, SegmentEnv, Wal};
use prix::xml::Collection;
use prix_testkit::{FaultInjector, FaultKind, FaultSegEnv, FaultStore, TestRng};

/// Tiny pool: forces dirty evictions, so the WAL spill path is
/// exercised constantly, not just the commit path.
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

/// A small random document over a fixed vocabulary, but for one leaf:
/// the value under `d` is the document's own (one in a million), so
/// most commits intern a name and the dictionary's bytes are under
/// every kill point. Shapes are kept few so most inserts fit the dynamic
/// trie scopes of the base build; the occasional legitimate rejection
/// is tolerated by the harness.
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

/// The dictionary of `engine`: every name, in id order.
fn names_of(engine: &PrixEngine) -> Vec<String> {
    let names = engine.symbols().iter();
    names.map(|(_, name)| name.to_string()).collect()
}

/// `recovered`, reopened from `env`, must hold the dictionary `names`
/// id for id — and hold it still after a clean close and a second
/// reopen — and answer every query of [`QUERIES`] bit-identically to a
/// fresh in-memory engine built over `docs`.
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
                "after {pass} the dictionary holds {} name(s), the surviving save held {}; \
                 they part at id {at}",
                got.len(),
                names.len()
            ));
        }
        same_matches(engine, docs).map_err(|e| format!("after {pass}: {e}"))
    };
    check(&recovered, "recovery")?;
    drop(recovered); // a clean close: the log is checkpointed away
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

/// One full crash-recovery round. Returns `Err` with a diagnosis when
/// any durability promise is broken.
fn crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    let mut rng = TestRng::from_seed(seed);
    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));

    // Known-good base, built and saved before the injector is armed.
    let mut docs: Vec<String> = Vec::new();
    let mut base = Collection::new();
    for _ in 0..4 {
        let d = doc_xml(&mut rng);
        base.add_xml(&d).map_err(|e| format!("base doc: {e}"))?;
        docs.push(d);
    }
    let cfg = EngineConfig {
        buffer_pages: BUFFER_PAGES,
        labeling: labeling(),
        ..Default::default()
    };
    let mut engine =
        PrixEngine::build_env(base, cfg, fenv.clone()).map_err(|e| format!("base build: {e}"))?;
    engine.save().map_err(|e| format!("base save: {e}"))?;
    // The last acknowledged state: its documents and its dictionary.
    let mut acked = (docs.len(), names_of(&engine));

    // Arm the kill point and run the workload until the lights go out.
    let kill_after = match kind {
        FaultKind::DroppedFsync => rng.below(30),
        _ => rng.below(300),
    };
    inj.arm(kind, kill_after, rng.next_u64());
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
        // Budget never ran out: end with a save so the iteration still
        // verifies recovery of the final state. The remaining budget
        // may still kill this save — same rules as any other.
        match engine.save() {
            Ok(()) => acked = (docs.len(), names_of(&engine)),
            Err(_) if inj.crashed() => crashed_during_save = true,
            Err(e) => return Err(format!("final save failed without a crash: {e}")),
        }
    }
    let crashed = inj.crashed();
    // What the interrupted save was writing (nothing was inserted after
    // it).
    let attempted = (docs.len(), names_of(&engine));
    drop(engine); // post-crash the drop-flush fails; counted, not fatal

    // Reconstruct what the platter holds and reopen through recovery.
    let env = fenv.durable_env();
    let after =
        PrixEngine::reopen_env(env.clone(), 64).map_err(|e| format!("reopen after crash: {e}"))?;
    after
        .recovery()
        .ok_or("durable reopen must produce a recovery report")?;
    let (verified, _) = after
        .verify_checksums()
        .map_err(|e| format!("checksum verification after recovery: {e}"))?;
    if verified == 0 {
        return Err("no page carried a checksum".into());
    }

    // The recovered state must be an acknowledged one, documents and
    // dictionary both: the last acked save, or — only if the crash hit a
    // save — that save's full contents (WAL-committed before the error
    // surfaced).
    let n = after.rp_index().doc_count();
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

    // The dictionary id for id, and bit-identical query results against
    // a fresh in-memory engine over the surviving prefix.
    same_answers(after, env, &docs[..n], names).map_err(|e| format!("{e} ({n} docs survived)"))
}

/// Kill-during-publish: the online ingest path. A [`SharedEngine`]
/// ingests batches through the single-writer protocol (dry-run insert,
/// WAL group commit inside `save`, epoch publish) while the injector
/// counts down to a kill. The recovered database must sit at **exactly
/// one epoch boundary** — the state after some fully-published batch —
/// never a torn mix of two batches.
///
/// Acceptance of each document is deterministic for a given `(config,
/// history)`, so a clean in-memory model replays the batches first and
/// records the cumulative document list at every epoch boundary; the
/// crashed run must recover to one of those lists, bit-identically.
fn ingest_crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    use prix::core::SharedEngine;

    let mut rng = TestRng::from_seed(seed);
    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));

    // Known-good base, saved before the injector is armed.
    let mut base_docs: Vec<String> = Vec::new();
    let mut base = Collection::new();
    for _ in 0..3 {
        let d = doc_xml(&mut rng);
        base.add_xml(&d).map_err(|e| format!("base doc: {e}"))?;
        base_docs.push(d);
    }
    let cfg = EngineConfig {
        buffer_pages: BUFFER_PAGES,
        labeling: labeling(),
        ..Default::default()
    };
    let mut engine =
        PrixEngine::build_env(base, cfg, fenv.clone()).map_err(|e| format!("base build: {e}"))?;
    engine.save().map_err(|e| format!("base save: {e}"))?;

    let batches: Vec<Vec<String>> = (0..rng.range(2, 5))
        .map(|_| (0..rng.range(1, 4)).map(|_| doc_xml(&mut rng)).collect())
        .collect();

    // Model run: replay the batches on a clean in-memory engine to
    // learn which documents each batch accepts. `states[k]` is the
    // cumulative accepted document list after batch k; `states[0]` is
    // the base, `state_names[k]` the dictionary at that point (every
    // document parsed so far interned its names, accepted or not).
    // These are the only legal recovery targets.
    let mut model = {
        let mut coll = Collection::new();
        for d in &base_docs {
            coll.add_xml(d).map_err(|e| format!("model doc: {e}"))?;
        }
        PrixEngine::build(
            coll,
            EngineConfig {
                labeling: labeling(),
                ..Default::default()
            },
        )
        .map_err(|e| format!("model build: {e}"))?
    };
    let mut states: Vec<Vec<String>> = vec![base_docs.clone()];
    let mut state_names = vec![names_of(&model)];
    for batch in &batches {
        let mut cumulative = states.last().unwrap().clone();
        for d in batch {
            if model.insert_document(d).is_ok() {
                cumulative.push(d.clone());
            }
        }
        states.push(cumulative);
        state_names.push(names_of(&model));
    }

    // Arm the kill point and drive the batches through the shared
    // (snapshot-publishing) ingest path until the lights go out.
    let kill_after = match kind {
        FaultKind::DroppedFsync => rng.below(30),
        _ => rng.below(300),
    };
    inj.arm(kind, kill_after, rng.next_u64());
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
    drop(shared); // post-crash the drop-flush fails; counted, not fatal

    // Reconstruct the platter and reopen through recovery.
    let env = fenv.durable_env();
    let after =
        PrixEngine::reopen_env(env.clone(), 64).map_err(|e| format!("reopen after crash: {e}"))?;
    after
        .recovery()
        .ok_or("durable reopen must produce a recovery report")?;
    after
        .verify_checksums()
        .map_err(|e| format!("checksum verification after recovery: {e}"))?;

    // Exactly one epoch: the recovered document count must equal the
    // last acked boundary, or — only if the crash interrupted a batch —
    // that batch's boundary (its WAL commit may have landed before the
    // error surfaced). Nothing in between, nothing beyond.
    let n = after.rp_index().doc_count();
    let mut acceptable = vec![states[last_acked].len()];
    if let Some(k) = crashed_in_batch {
        acceptable.push(states[k].len());
    }
    let state = acceptable
        .iter()
        .position(|&c| c == n)
        .map(|i| {
            if i == 0 {
                last_acked
            } else {
                crashed_in_batch.unwrap()
            }
        })
        .ok_or_else(|| {
            format!(
                "recovered {n} docs; acceptable epoch boundaries hold \
                 {acceptable:?} (acked batch {last_acked}, crashed in \
                 {crashed_in_batch:?})"
            )
        })?;

    // That boundary's dictionary, and bit-identical query results
    // against a fresh engine over exactly its document list.
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
// The redo log between checkpoints
// ---------------------------------------------------------------------------

/// Where the kill lands while K ≥ 3 acknowledged commits sit in the
/// log, none of them checkpointed.
#[derive(Debug, Clone, Copy)]
enum KillIn {
    /// Inside commit K+1.
    Commit,
    /// Inside the checkpoint that moves the K commits to the page file.
    Checkpoint,
    /// Inside a compaction: the segment build, the unlogged build of
    /// the fresh generation, the manifest write, the unlinks.
    Compaction,
    /// Inside the commit + checkpoint of a server shutdown, after an
    /// aborted ingest round left its spills in the log.
    AfterAbort,
}

impl KillIn {
    const ALL: [KillIn; 4] = [
        KillIn::Commit,
        KillIn::Checkpoint,
        KillIn::Compaction,
        KillIn::AfterAbort,
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

/// What one seed of the redo-log harness does: a bulk-built base and
/// K + 1 ingest batches.
struct Script {
    base: Vec<String>,
    k: usize,
    batches: Vec<Vec<String>>,
    /// `states[i]`: the documents a database holds after batch `i`.
    /// Which documents a batch gets accepted depends on the label
    /// scopes the earlier ones took, so a twin on clean stores runs
    /// the script once to find out.
    states: Vec<Vec<String>>,
    /// `names[i]`: the dictionary after batch `i`, in id order.
    names: Vec<Vec<String>>,
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
            states: Vec::new(),
            names: Vec::new(),
            crash_seed: rng.next_u64(),
        };
        let mut twin = script.bulk_base(Arc::new(MemSegEnv::new()))?;
        let mut states = vec![script.base.clone()];
        let mut names = vec![names_of(&twin)];
        for batch in &script.batches {
            let mut docs = states.last().expect("starts non-empty").clone();
            docs.extend(ingest_round(&mut twin, batch).map_err(|e| format!("twin: {e}"))?);
            states.push(docs);
            names.push(names_of(&twin));
        }
        (script.states, script.names) = (states, names);
        Ok(script)
    }

    fn bulk_base(&self, env: Arc<dyn SegmentEnv>) -> Result<PrixEngine, String> {
        let cfg = EngineConfig {
            buffer_pages: BUFFER_PAGES,
            labeling: labeling(),
            ..Default::default()
        };
        let mut b = BulkBuilder::with_env(cfg, env).map_err(|e| format!("bulk open: {e}"))?;
        for d in &self.base {
            b.add_xml(d).map_err(|e| format!("bulk add: {e}"))?;
        }
        b.finish().map_err(|e| format!("bulk finish: {e}"))
    }
}

/// One round of the redo-log harness: the script's base, K
/// acknowledged ingest commits that stay in the log, then a kill at
/// the `kill_at`-th matching syscall of the phase `kill_in` names.
/// Whatever the kill hits, reopening must find all K batches (and
/// batch K+1 whole or not at all), clean checksums and segments, and
/// the answers of a fresh in-memory engine. Returns how many matching
/// syscalls the phase issued, so a caller can sweep every one of them.
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
    let mut engine = script.bulk_base(fenv.clone())?;
    let pool = Arc::clone(engine.pool());
    let checkpointed = pool.pager().epoch();
    for batch in &batches[..k] {
        ingest_round(&mut engine, batch).map_err(|e| format!("unarmed ingest: {e}"))?;
    }
    if pool.pager().epoch() != checkpointed || pool.log_resident_pages() == 0 {
        return Err("the K commits did not stay in the log".into());
    }
    if matches!(kill_in, KillIn::AfterAbort) {
        // A round that dirties pages, spills some of them and is then
        // rolled back. The engine's in-memory counters are stale from
        // here on; only its pool is used again.
        let mut rng = TestRng::from_seed(script.crash_seed);
        let spilled = pool.snapshot().wal_appends;
        pool.begin_ingest();
        while pool.snapshot().wal_appends == spilled {
            let _ = engine.insert_document(&doc_xml(&mut rng));
        }
        pool.abort_ingest().map_err(|e| format!("abort: {e}"))?;
    }

    inj.arm(kind, kill_at, script.crash_seed ^ kill_at);
    let ops = inj.ops_seen();
    let mut acceptable = vec![k];
    let phase = match kill_in {
        KillIn::Commit => {
            let r = ingest_round(&mut engine, &batches[k]).map(|_| ());
            acceptable = if r.is_ok() {
                vec![k + 1]
            } else {
                vec![k, k + 1]
            };
            r
        }
        // What server shutdown runs; `Drop` runs its write-back half,
        // and only over all-committed state.
        KillIn::Checkpoint | KillIn::AfterAbort => pool.checkpoint().map_err(|e| e.to_string()),
        KillIn::Compaction => engine.compact().map(|_| ()).map_err(|e| e.to_string()),
    };
    let ops = inj.ops_seen() - ops;
    if let Err(e) = phase {
        if !inj.crashed() {
            return Err(format!("{kill_in:?} failed without a crash: {e}"));
        }
    }
    drop(pool);
    drop(engine); // post-crash the drop-checkpoint fails; counted, not fatal

    let env = fenv.durable_env();
    let after =
        PrixEngine::reopen_env(env.clone(), 64).map_err(|e| format!("reopen after crash: {e}"))?;
    after
        .verify_checksums()
        .map_err(|e| format!("checksum verification after recovery: {e}"))?;
    after
        .verify_tiers()
        .map_err(|e| format!("tier file verification after recovery: {e}"))?;
    after
        .valix()
        .verify()
        .map_err(|e| format!("valix verification after recovery: {e}"))?;
    // The dictionary's halves go together. A compaction moves the names
    // the delta interned from the old generation's chain into a symbol
    // run: the old manifest with the old chain, or the new manifest
    // with the run and an empty delta — never one's rows with the
    // other's pages.
    let runs = after.segment_manifest().iter();
    let runs: Vec<_> = runs.filter(|s| s.suffix.ends_with(".sym")).collect();
    let tiered: usize = runs.iter().map(|s| s.n_docs as usize).sum();
    let chained = after.symbols().len() - tiered;
    let interned = names[k].len() - names[0].len();
    let compacted = after.generation() == 2;
    let layout = (after.mutable_docs() == 0, runs.len(), chained == 0);
    if matches!(kill_in, KillIn::Compaction)
        && interned > 0
        && layout != (compacted, 1 + usize::from(compacted), compacted)
    {
        return Err(format!(
            "generation {}: {} doc(s) in the delta, {} symbol run(s) holding {tiered} name(s), \
             {chained} name(s) in the chain",
            after.generation(),
            after.mutable_docs(),
            runs.len()
        ));
    }
    let n = after.segment_docs() as usize + after.mutable_docs();
    let state = acceptable
        .into_iter()
        .find(|&i| states[i].len() == n)
        .ok_or_else(|| format!("recovered {n} docs, {k} batches were acknowledged"))?;
    same_answers(after, env, &states[state], &names[state])?;
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
        "{} redo-log crash iteration(s) lost an acknowledged commit:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A kill at every single syscall of a checkpoint: the page writes,
/// the two page-file barriers, the epoch advance, the log truncation.
#[test]
fn checkpoint_survives_a_kill_at_every_syscall() {
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        failures.extend(redo_log_sweep(
            0x5EED_0010,
            kind,
            &[KillIn::Checkpoint],
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
        &[KillIn::AfterAbort],
        None,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A compaction that writes a symbol run — the delta's documents each
/// brought a value of their own — killed at every syscall, under every
/// fault kind: the run's write and barrier, the fresh generation, the
/// manifest write, the unlinks. Whatever the kill hits, reopening finds
/// the old manifest and the old generation's chain or the new manifest
/// and the run ([`redo_log_iteration`] checks which, and the dictionary
/// id for id). And where nothing is killed, a reader pinned before the
/// compaction answers, and spells its symbols, bit-identically after it.
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

    let shared = SharedEngine::new(script.bulk_base(Arc::new(MemSegEnv::new())).unwrap());
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

/// A checkpoint killed at every write and barrier while the log's last
/// word on each page is a delta. The page file then holds an older
/// image with some sectors of the new one torn in, and none of the
/// frames near the log's end can repair that alone: recovery has to
/// start from each page's first frame since the last checkpoint — a
/// whole image — and lay the deltas over it, never over the page file.
#[test]
fn a_torn_checkpoint_is_repaired_from_first_frames_and_deltas() {
    use prix::storage::{recover, PAGE_SIZE};
    const PAGES: usize = 6;
    // Returns the syscalls the checkpoint issued.
    let run = |kind: FaultKind, kill_at: u64| -> Result<u64, String> {
        let inj = FaultInjector::unarmed();
        let [db, sum, log] = [1, 2, 3].map(|salt| FaultStore::new(&inj, salt));
        let pager = Pager::create_durable(Box::new(db.clone()), Box::new(sum.clone())).unwrap();
        let wal = Wal::create(Box::new(log.clone()), pager.epoch(), pager.stats()).unwrap();
        let pool = BufferPool::with_wal(pager, 16, wal);
        let mut rng = TestRng::from_seed(0x5EED_0019);
        let ids: Vec<_> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
        let mut model = vec![[0u8; PAGE_SIZE]; PAGES];
        let noise = |rng: &mut TestRng, model: &mut [[u8; PAGE_SIZE]]| {
            for (image, &id) in model.iter_mut().zip(&ids) {
                image.iter_mut().for_each(|b| *b = rng.below(256) as u8);
                pool.with_page_mut(id, |d| *d = *image).unwrap();
            }
        };
        // An older image of every page in the page file...
        noise(&mut rng, &mut model);
        pool.checkpoint().unwrap();
        // ...a whole new one as each page's first frame in the log...
        noise(&mut rng, &mut model);
        pool.commit().unwrap();
        // ...and then nothing but small deltas.
        let first_frames = pool.snapshot().wal_appended_bytes;
        for _ in 0..4 {
            for (image, &id) in model.iter_mut().zip(&ids) {
                let at = rng.below(PAGE_SIZE as u64 - 64) as usize;
                let fill = rng.below(256) as u8;
                image[at..at + 64].fill(fill);
                pool.with_page_mut(id, |d| d[at..at + 64].fill(fill))
                    .unwrap();
            }
            pool.commit().unwrap();
        }
        let deltas = pool.snapshot().wal_appended_bytes - first_frames;
        assert!(
            deltas < (4 * PAGES * 128) as u64,
            "{deltas} bytes of deltas"
        );

        inj.arm(kind, kill_at, 0xC0DE ^ kill_at);
        let ops = inj.ops_seen();
        let killed = pool.checkpoint().is_err();
        let ops = inj.ops_seen() - ops;
        if killed != inj.crashed() {
            return Err("the checkpoint failed without a crash".into());
        }
        drop(pool);

        let [db, sum, log] =
            [db, sum, log].map(|s| Box::new(MemStore::from_bytes(s.durable_bytes())));
        let pager = Pager::open_durable(db, sum).map_err(|e| format!("open: {e}"))?;
        let (wal, _) = recover(&pager, log, pager.stats()).map_err(|e| format!("recover: {e}"))?;
        let after = BufferPool::with_wal(pager, 16, wal);
        for (image, &id) in model.iter().zip(&ids) {
            if !after
                .with_page(id, |d| d == image)
                .map_err(|e| e.to_string())?
            {
                return Err(format!("page {id} is not its last committed image"));
            }
        }
        after
            .pager()
            .verify_checksums()
            .map_err(|e| e.to_string())?;
        Ok(ops)
    };
    let mut failures = Vec::new();
    for kind in FaultKind::ALL {
        let ops = run(kind, u64::MAX).expect("no kill");
        assert!(ops >= 3, "{kind:?}: a checkpoint of {ops} syscall(s)");
        for at in 0..ops {
            if let Err(e) = run(kind, at) {
                failures.push(format!("{kind:?} kill point {at} of {ops}: {e}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Regression for the silently-discarded drop-flush error: a pool whose
/// closing checkpoint fails during `Drop` must count the failure in
/// IoStats (and log it) instead of swallowing it. The page is committed
/// first: `Drop` checkpoints committed state only.
#[test]
fn drop_flush_error_is_counted_not_swallowed() {
    let inj = FaultInjector::unarmed();
    let store = FaultStore::new(&inj, 9);
    let pager = Pager::create_durable(Box::new(store), Box::new(MemStore::new())).unwrap();
    let stats = pager.stats();
    let wal = Wal::create(Box::new(MemStore::new()), pager.epoch(), pager.stats()).unwrap();
    let pool = BufferPool::with_wal(pager, 4, wal);
    let id = pool.allocate_page().unwrap();
    pool.with_page_mut(id, |d| d[0] = 7).unwrap();
    pool.commit().unwrap();
    assert_eq!(stats.snapshot().flush_errors, 0);
    inj.arm(FaultKind::ShortWrite, 0, 1); // the next write dies
    drop(pool);
    assert_eq!(
        stats.snapshot().flush_errors,
        1,
        "drop must record the failed flush"
    );
}

/// Bit rot after a clean shutdown: recovery has nothing to replay, but
/// checksum verification still refuses the corrupted page.
#[test]
fn silent_corruption_is_caught_by_verify_checksums() {
    let env = Arc::new(MemSegEnv::new());
    let mut c = Collection::new();
    c.add_xml("<a><b>v0</b></a>").unwrap();
    let cfg = EngineConfig {
        buffer_pages: BUFFER_PAGES,
        labeling: labeling(),
        ..Default::default()
    };
    let mut e = PrixEngine::build_env(c, cfg, env.clone()).unwrap();
    e.save().unwrap();
    drop(e);
    // Flip one byte in the middle of page 1.
    let db = env.store("").expect("the page file");
    let victim = prix::storage::PAGE_SIZE + prix::storage::PAGE_SIZE / 2;
    let flipped = db.snapshot()[victim] ^ 0x40;
    db.write_at(victim as u64, &[flipped]).unwrap();
    // The corruption surfaces at the first checksum-verified cold read
    // of the page — during reopen if the catalog walk touches it, or at
    // the explicit verification sweep otherwise. Either way it must
    // never pass silently.
    let err = match PrixEngine::reopen_env(env, 64) {
        Err(e) => e.to_string(),
        Ok(reopened) => reopened.verify_checksums().unwrap_err().to_string(),
    };
    assert!(
        err.contains("checksum"),
        "flipped bit must surface as a checksum error, got: {err}"
    );
}
