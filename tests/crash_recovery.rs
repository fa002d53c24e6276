//! Crash-consistency harness: random workloads killed at seeded
//! syscall points, recovered, and verified against an in-memory model.
//!
//! Each iteration builds a durable engine on fault-injecting stores
//! (`prix_testkit::FaultStore`), saves a known-good base, then arms the
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
//! * query results are bit-identical to a fresh in-memory engine built
//!   over the surviving document prefix.
//!
//! Every iteration is a pure function of `(seed, fault kind)`, so a
//! failure message names the exact inputs to pin as a regression test
//! below — the same convention as `tests/property_engines.rs`.

use prix::core::{EngineConfig, EngineStores, LabelingMode, PrixEngine};
use prix::storage::{BufferPool, MemStore, Pager, Wal};
use prix::xml::Collection;
use prix_testkit::{FaultInjector, FaultKind, FaultStore, TestRng};

/// Tiny pool: forces dirty evictions, so the WAL spill path is
/// exercised constantly, not just the commit path.
const BUFFER_PAGES: usize = 8;

/// Queries the model comparison runs after recovery: structural,
/// descendant, predicate, and value (EPIndex) shapes over the
/// generator's vocabulary.
const QUERIES: &[&str] = &[
    "//a//x",
    "//a/b/y",
    "//a[./d]",
    "//c/z",
    r#"//x[text()="v3"]"#,
    r#"//a[./b="v1"]"#,
];

fn labeling() -> LabelingMode {
    LabelingMode::Dynamic { alpha: 4 }
}

/// A small random document over a fixed vocabulary. Shapes are kept
/// few so most inserts fit the dynamic trie scopes of the base build;
/// the occasional legitimate rejection is tolerated by the harness.
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

fn stores_of(db: &FaultStore, sum: &FaultStore, wal: &FaultStore) -> EngineStores {
    EngineStores {
        db: Box::new(db.clone()),
        sum: Box::new(sum.clone()),
        wal: Box::new(wal.clone()),
    }
}

/// One full crash-recovery round. Returns `Err` with a diagnosis when
/// any durability promise is broken.
fn crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    let mut rng = TestRng::from_seed(seed);
    let inj = FaultInjector::unarmed();
    let db = FaultStore::new(&inj, 1);
    let sum = FaultStore::new(&inj, 2);
    let wal = FaultStore::new(&inj, 3);

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
    let mut engine = PrixEngine::build_on(base, cfg, stores_of(&db, &sum, &wal))
        .map_err(|e| format!("base build: {e}"))?;
    engine.save().map_err(|e| format!("base save: {e}"))?;
    let mut acked = docs.len();

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
                Ok(()) => acked = docs.len(),
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
            Ok(()) => acked = docs.len(),
            Err(_) if inj.crashed() => crashed_during_save = true,
            Err(e) => return Err(format!("final save failed without a crash: {e}")),
        }
    }
    let crashed = inj.crashed();
    drop(engine); // post-crash the drop-flush fails; counted, not fatal

    // Reconstruct what the platter holds and reopen through recovery.
    let after = PrixEngine::reopen_on(
        EngineStores {
            db: Box::new(MemStore::from_bytes(db.durable_bytes())),
            sum: Box::new(MemStore::from_bytes(sum.durable_bytes())),
            wal: Box::new(MemStore::from_bytes(wal.durable_bytes())),
        },
        64,
    )
    .map_err(|e| format!("reopen after crash: {e}"))?;
    after
        .recovery()
        .ok_or("durable reopen must produce a recovery report")?;
    let (verified, _) = after
        .verify_checksums()
        .map_err(|e| format!("checksum verification after recovery: {e}"))?;
    if verified == 0 {
        return Err("no page carried a checksum".into());
    }

    // The recovered document count must be an acknowledged state: the
    // last acked save, or — only if the crash hit a save — that save's
    // full contents (WAL-committed before the error surfaced).
    let n = after.rp_index().doc_count();
    let acceptable = if crashed_during_save && acked != docs.len() {
        vec![acked, docs.len()]
    } else {
        vec![acked]
    };
    if !acceptable.contains(&n) {
        return Err(format!(
            "recovered {n} docs; acceptable states {acceptable:?} \
             (crashed={crashed}, during_save={crashed_during_save})"
        ));
    }

    // Bit-identical query results against a fresh in-memory engine over
    // the surviving prefix.
    let mut reference_coll = Collection::new();
    for d in &docs[..n] {
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
    let (after, reference) = (after.snapshot(), reference.snapshot());
    for xp in QUERIES {
        let qa = after.parse_query(xp).map_err(|e| format!("{xp}: {e}"))?;
        let qr = reference
            .parse_query(xp)
            .map_err(|e| format!("{xp}: {e}"))?;
        let ma = after.query(&qa).map_err(|e| format!("{xp}: {e}"))?.matches;
        let mr = reference
            .query(&qr)
            .map_err(|e| format!("{xp}: {e}"))?
            .matches;
        if ma != mr {
            return Err(format!(
                "{xp}: recovered engine found {} match(es), reference {} \
                 ({n} docs survived)",
                ma.len(),
                mr.len()
            ));
        }
    }
    Ok(())
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
    let db = FaultStore::new(&inj, 1);
    let sum = FaultStore::new(&inj, 2);
    let wal = FaultStore::new(&inj, 3);

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
    let mut engine = PrixEngine::build_on(base, cfg, stores_of(&db, &sum, &wal))
        .map_err(|e| format!("base build: {e}"))?;
    engine.save().map_err(|e| format!("base save: {e}"))?;

    let batches: Vec<Vec<String>> = (0..rng.range(2, 5))
        .map(|_| (0..rng.range(1, 4)).map(|_| doc_xml(&mut rng)).collect())
        .collect();

    // Model run: replay the batches on a clean in-memory engine to
    // learn which documents each batch accepts. `states[k]` is the
    // cumulative accepted document list after batch k; `states[0]` is
    // the base. These are the only legal recovery targets.
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
    for batch in &batches {
        let mut cumulative = states.last().unwrap().clone();
        for d in batch {
            if model.insert_document(d).is_ok() {
                cumulative.push(d.clone());
            }
        }
        states.push(cumulative);
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
    let after = PrixEngine::reopen_on(
        EngineStores {
            db: Box::new(MemStore::from_bytes(db.durable_bytes())),
            sum: Box::new(MemStore::from_bytes(sum.durable_bytes())),
            wal: Box::new(MemStore::from_bytes(wal.durable_bytes())),
        },
        64,
    )
    .map_err(|e| format!("reopen after crash: {e}"))?;
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

    // Bit-identical query results against a fresh engine over exactly
    // that boundary's document list.
    let mut reference_coll = Collection::new();
    for d in &states[state] {
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
    let (after, reference) = (after.snapshot(), reference.snapshot());
    for xp in QUERIES {
        let qa = after.parse_query(xp).map_err(|e| format!("{xp}: {e}"))?;
        let qr = reference
            .parse_query(xp)
            .map_err(|e| format!("{xp}: {e}"))?;
        let ma = after.query(&qa).map_err(|e| format!("{xp}: {e}"))?.matches;
        let mr = reference
            .query(&qr)
            .map_err(|e| format!("{xp}: {e}"))?
            .matches;
        if ma != mr {
            return Err(format!(
                "{xp}: recovered engine found {} match(es), the epoch-{state} \
                 reference {} — the recovered state mixes epochs",
                ma.len(),
                mr.len()
            ));
        }
    }
    Ok(())
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

/// Regression for the silently-discarded drop-flush error: a pool whose
/// final flush fails during `Drop` must count the failure in IoStats
/// (and log it) instead of swallowing it.
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
    assert_eq!(stats.flush_errors(), 0);
    inj.arm(FaultKind::ShortWrite, 0, 1); // the next write dies
    drop(pool);
    assert_eq!(stats.flush_errors(), 1, "drop must record the failed flush");
}

/// Bit rot after a clean shutdown: recovery has nothing to replay, but
/// checksum verification still refuses the corrupted page.
#[test]
fn silent_corruption_is_caught_by_verify_checksums() {
    let db = MemStore::new();
    let sum = MemStore::new();
    let wal = MemStore::new();
    let mut c = Collection::new();
    c.add_xml("<a><b>v0</b></a>").unwrap();
    let mut e = PrixEngine::build_on(
        c,
        EngineConfig {
            buffer_pages: BUFFER_PAGES,
            labeling: labeling(),
            ..Default::default()
        },
        EngineStores {
            db: Box::new(db.clone()),
            sum: Box::new(sum.clone()),
            wal: Box::new(wal.clone()),
        },
    )
    .unwrap();
    e.save().unwrap();
    drop(e);
    // Flip one byte in the middle of page 1.
    let mut bytes = db.snapshot();
    let victim = prix::storage::PAGE_SIZE + prix::storage::PAGE_SIZE / 2;
    bytes[victim] ^= 0x40;
    // The corruption surfaces at the first checksum-verified cold read
    // of the page — during reopen if the catalog walk touches it, or at
    // the explicit verification sweep otherwise. Either way it must
    // never pass silently.
    let err = match PrixEngine::reopen_on(
        EngineStores {
            db: Box::new(MemStore::from_bytes(bytes)),
            sum: Box::new(MemStore::from_bytes(sum.snapshot())),
            wal: Box::new(MemStore::from_bytes(wal.snapshot())),
        },
        64,
    ) {
        Err(e) => e.to_string(),
        Ok(reopened) => reopened.verify_checksums().unwrap_err().to_string(),
    };
    assert!(
        err.contains("checksum"),
        "flipped bit must surface as a checksum error, got: {err}"
    );
}
