//! Segment lifecycle suite: the LSM-flavored bulk build / immutable
//! segment / compaction path.
//!
//! * `prop_bulk_equals_incremental` — a bulk-built database answers
//!   the paper-shaped query workload identically to one grown
//!   document-at-a-time, with and without execution limits.
//! * Pinned-reader bit-identity — a snapshot taken before a compaction
//!   answers bit-identically after it, while a fresh snapshot sees the
//!   compacted generation with the same results.
//! * Byte-level determinism — independent bulk builds of the same
//!   document list produce identical segment files, a bulk rebuild
//!   reproduces them under the next generation, and two independent
//!   engines compact their deltas to identical segment bytes.
//! * Crash consistency — kill points swept through bulk rebuild and
//!   compaction leave a database that reopens cleanly and serves an
//!   acknowledged state with verified tier files.

use std::sync::Arc;

use prix::core::{
    BulkBuilder, EngineConfig, ExecOpts, LabelingMode, PrixEngine, SharedEngine, TwigMatch,
};
use prix::storage::{MemSegEnv, RawStore, SegmentEnv};
use prix::xml::Collection;
use prix_testkit::{
    check, from_fn, replay, Config, FaultInjector, FaultKind, FaultSegEnv, Generator, TestRng,
};

const BUFFER_PAGES: usize = 8;

/// Queries the equivalence checks run: structural, descendant, branch,
/// value (EPIndex) and value-predicate shapes over the generator's
/// vocabulary — the same workload tests/crash_recovery.rs replays.
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

/// A small random document over a fixed vocabulary (the
/// tests/crash_recovery.rs shapes): few enough shapes that most
/// inserts fit the dynamic trie scopes of a base build.
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

/// Matches as a sorted `(doc, embedding)` set. Documents get their ids
/// in arrival order and embeddings are postorder numbers, so this form
/// compares across engines whose symbol tables differ.
type MatchSet = Vec<(u32, Vec<u32>)>;

fn match_set(matches: &[TwigMatch]) -> MatchSet {
    let mut v: MatchSet = matches
        .iter()
        .map(|m| (m.doc, m.embedding.clone()))
        .collect();
    v.sort();
    v
}

/// Runs every workload query unlimited, ordered and unordered, and
/// returns the result sets. Queries parse against the engine's own
/// symbol table: symbol ids legitimately differ between a bulk-built
/// database (the trie dummy interns first) and an incrementally grown
/// one (the dummy interns after the base collection), so ids never
/// cross engines — only `(doc, embedding)` sets do.
fn full_results(engine: &PrixEngine) -> Result<Vec<(MatchSet, MatchSet)>, String> {
    let engine = engine.snapshot();
    let mut out = Vec::new();
    for xp in QUERIES {
        let q = engine
            .parse_query(xp)
            .map_err(|e| format!("parse {xp}: {e}"))?;
        let ord = engine.query(&q).map_err(|e| format!("query {xp}: {e}"))?;
        if ord.truncated {
            return Err(format!("unlimited query {xp} claims truncation"));
        }
        let unord = engine
            .query_unordered(&q)
            .map_err(|e| format!("unordered {xp}: {e}"))?;
        out.push((match_set(&ord.matches), match_set(&unord.matches)));
    }
    Ok(out)
}

/// Limited runs stop in trie-traversal order, which depends on symbol
/// ids, so the exact prefix may differ across engines — but every
/// limited answer must be a correctly sized subset of the full result
/// set, and a run that claims it drained must actually have done so.
fn check_limited(engine: &PrixEngine, xp: &str, full: &[(u32, Vec<u32>)]) -> Result<(), String> {
    let engine = engine.snapshot();
    for limit in [1usize, 3] {
        let q = engine
            .parse_query(xp)
            .map_err(|e| format!("parse {xp}: {e}"))?;
        let opts = ExecOpts {
            limit: Some(limit),
            ..Default::default()
        };
        let out = engine
            .query_opts(&q, &opts)
            .map_err(|e| format!("limited query {xp}: {e}"))?;
        let got = match_set(&out.matches);
        if got.len() != full.len().min(limit) {
            return Err(format!(
                "{xp} limit {limit}: got {} matches, want {}",
                got.len(),
                full.len().min(limit)
            ));
        }
        if got.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("{xp} limit {limit}: duplicate match"));
        }
        for m in &got {
            if !full.contains(m) {
                return Err(format!(
                    "{xp} limit {limit}: match {m:?} not in the full set"
                ));
            }
        }
        if !out.truncated && got.len() < full.len() {
            return Err(format!(
                "{xp} limit {limit}: claims drained with {} of {} matches",
                got.len(),
                full.len()
            ));
        }
    }
    Ok(())
}

/// Bulk-builds `docs` into `env` and returns the resulting engine.
fn bulk_over(env: Arc<dyn SegmentEnv>, docs: &[String]) -> Result<PrixEngine, String> {
    let mut b = BulkBuilder::with_env(cfg(), env).map_err(|e| format!("bulk open: {e}"))?;
    for d in docs {
        b.add_xml(d).map_err(|e| format!("bulk add: {e}"))?;
    }
    b.finish().map_err(|e| format!("bulk finish: {e}"))
}

// ---------------------------------------------------------------------------
// Property: bulk build ≡ document-at-a-time growth
// ---------------------------------------------------------------------------

fn docs_gen() -> impl Generator<Value = Vec<String>> {
    from_fn(|rng| {
        let n = 1 + rng.below(10) as usize;
        (0..n).map(|_| doc_xml(rng)).collect()
    })
}

fn bulk_equals_incremental(docs: &[String]) -> Result<(), String> {
    // Incremental: base build over the first document, the rest
    // document-at-a-time. Dynamic labeling may legitimately reject a
    // document whose shape outgrows the base trie scopes; the bulk
    // build gets exactly the accepted list.
    let mut base = Collection::new();
    base.add_xml(&docs[0])
        .map_err(|e| format!("base doc: {e}"))?;
    let mut inc = PrixEngine::build(base, cfg()).map_err(|e| format!("base build: {e}"))?;
    let mut accepted = vec![docs[0].clone()];
    for d in &docs[1..] {
        if inc.insert_document(d).is_ok() {
            accepted.push(d.clone());
        }
    }

    let bulk = bulk_over(Arc::new(MemSegEnv::new()), &accepted)?;
    if bulk.generation() != 1 {
        return Err(format!("bulk generation {}, want 1", bulk.generation()));
    }
    if bulk.segment_docs() != accepted.len() as u64 || bulk.mutable_docs() != 0 {
        return Err(format!(
            "bulk tiering: {} segment docs + {} mutable docs, want {} + 0",
            bulk.segment_docs(),
            bulk.mutable_docs(),
            accepted.len()
        ));
    }

    let inc_full = full_results(&inc)?;
    let bulk_full = full_results(&bulk)?;
    for (i, xp) in QUERIES.iter().enumerate() {
        if inc_full[i] != bulk_full[i] {
            return Err(format!(
                "{xp} diverges over {} docs:\n  incremental: {:?}\n  bulk:        {:?}",
                accepted.len(),
                inc_full[i],
                bulk_full[i]
            ));
        }
        check_limited(&inc, xp, &inc_full[i].0)?;
        check_limited(&bulk, xp, &inc_full[i].0)?;
    }
    Ok(())
}

/// Cold answers through segments cost strictly fewer bytes than through
/// the buffer pool, with identical matches: the paper's DBLP workload
/// over the same corpus, bulk-built into segments and built through the
/// pool, counting logical reads (8 KiB pages from the pool, 4 KiB
/// blocks from the segment caches). Counters, not wall clock —
/// `prixbench query_cold` carries the timings.
#[test]
fn cold_answers_through_segments_read_fewer_bytes_than_through_the_pool() {
    use prix::datagen::{generate, queries::queries_for, Dataset};
    const PAGE_BYTES: u64 = prix::storage::PAGE_SIZE as u64;
    const SEG_BLOCK_BYTES: u64 = 4096;

    let corpus = generate(Dataset::Dblp, 0.05, 42);
    let docs: Vec<String> = corpus
        .iter()
        .map(|(_, t)| prix::xml::write_document(t, corpus.symbols()))
        .collect();
    let pool_built = PrixEngine::build(corpus, cfg()).unwrap();
    let bulk_built = bulk_over(Arc::new(MemSegEnv::new()), &docs).unwrap();
    assert_eq!(bulk_built.segment_docs(), docs.len() as u64);

    // (pool bytes, segment bytes, matches) of the whole workload, cold.
    let cold_workload = |engine: &PrixEngine| {
        let view = engine.snapshot();
        let (mut pool, mut seg, mut matches) = (0u64, 0u64, Vec::new());
        for pq in queries_for(Dataset::Dblp) {
            let q = view.parse_query(pq.xpath).unwrap();
            engine.clear_cache().unwrap();
            let out = view.query(&q).unwrap();
            assert_eq!(out.matches.len() as u64, pq.expected_matches, "{}", pq.id);
            pool += out.io.logical_reads * PAGE_BYTES;
            seg += out.io.seg_block_reads * SEG_BLOCK_BYTES;
            matches.push(match_set(&out.matches));
        }
        (pool, seg, matches)
    };
    let (pool_bytes, no_seg_bytes, pool_matches) = cold_workload(&pool_built);
    let (seg_pool_bytes, seg_bytes, seg_matches) = cold_workload(&bulk_built);
    assert_eq!(
        no_seg_bytes, 0,
        "the pool-built database read segment blocks"
    );
    assert!(
        seg_bytes > 0,
        "the bulk-built database did not answer through segments"
    );
    assert_eq!(
        seg_matches, pool_matches,
        "the two paths disagree on the workload"
    );
    assert!(
        seg_pool_bytes + seg_bytes < pool_bytes,
        "through segments: {seg_pool_bytes} pool + {seg_bytes} segment bytes; \
         through the pool: {pool_bytes} bytes"
    );
}

#[test]
fn prop_bulk_equals_incremental() {
    check(
        "prop_bulk_equals_incremental",
        &Config::cases(48),
        &docs_gen(),
        |d| bulk_equals_incremental(d),
    );
}

#[test]
fn bulk_equals_incremental_replay_seed_5eed0051() {
    replay(0x5EED_0051, &docs_gen(), |d| bulk_equals_incremental(d));
}

#[test]
fn bulk_equals_incremental_replay_seed_5eed0052() {
    replay(0x5EED_0052, &docs_gen(), |d| bulk_equals_incremental(d));
}

// ---------------------------------------------------------------------------
// Pinned readers across compaction
// ---------------------------------------------------------------------------

/// The snapshot workload: full ordered/unordered sets plus a limited
/// run, all of which must be bit-identical across a compaction for a
/// pinned reader (same pool, same tiers — even the limited traversal
/// order cannot change).
#[allow(clippy::type_complexity)]
fn snapshot_results(
    snap: &prix::core::EngineSnapshot,
) -> Vec<(
    Vec<(u32, Vec<u32>)>,
    Vec<(u32, Vec<u32>)>,
    Vec<(u32, Vec<u32>)>,
    bool,
)> {
    QUERIES
        .iter()
        .map(|xp| {
            let q = snap.parse_query(xp).expect(xp);
            let ord = snap.query(&q).expect(xp);
            let unord = snap.query_unordered(&q).expect(xp);
            let opts = ExecOpts {
                limit: Some(2),
                ..Default::default()
            };
            let lim = snap.query_opts(&q, &opts).expect(xp);
            (
                match_set(&ord.matches),
                match_set(&unord.matches),
                match_set(&lim.matches),
                lim.truncated,
            )
        })
        .collect()
}

#[test]
fn pinned_reader_is_bit_identical_across_compaction() {
    let mut rng = TestRng::from_seed(0x5EED_0060);
    let bulk_docs: Vec<String> = (0..8).map(|_| doc_xml(&mut rng)).collect();
    let engine = bulk_over(Arc::new(MemSegEnv::new()), &bulk_docs).unwrap();
    let shared = SharedEngine::new(engine);
    let delta: Vec<String> = (0..3).map(|_| doc_xml(&mut rng)).collect();
    shared.ingest(&delta).unwrap();

    let snap = shared.snapshot();
    assert_eq!(snap.generation(), 1);
    assert_eq!(snap.segment_docs(), 8);
    assert_eq!(snap.mutable_docs(), 3);
    let before = snapshot_results(&snap);

    // The pre-compaction pool, watched from outside: its counters, and
    // a weak handle that tells when the last reader has let go of it.
    let (old_io, old_pool) = {
        let pool = shared.pool();
        assert_eq!(
            pool.snapshot().wal_appends,
            1,
            "the ingest is one record of the old log"
        );
        (pool.pager().stats(), Arc::downgrade(&pool))
    };

    let epoch = shared.compact().unwrap().expect("delta was non-empty");
    assert!(epoch > snap.epoch(), "publish advances the epoch");

    // The pinned reader's world is frozen: same generation, same
    // tiering, and bit-identical answers — including the limited run,
    // whose traversal order would expose any tier swap.
    assert_eq!(snap.generation(), 1);
    assert_eq!(snap.mutable_docs(), 3);
    assert_eq!(snapshot_results(&snap), before);

    // Both the pinned reader and the internally held current snapshot
    // are observable; the oldest pin is the pre-compaction epoch.
    let (pins, oldest) = shared.pinned_epochs();
    assert_eq!(pins, 2);
    assert_eq!(oldest, Some(snap.epoch()));

    // A fresh reader sees the compacted generation with everything
    // folded into segments — and the same answers.
    let fresh = shared.snapshot();
    assert_eq!(fresh.epoch(), epoch);
    assert_eq!(fresh.generation(), 2);
    assert_eq!(fresh.segment_docs(), 11);
    assert_eq!(fresh.mutable_docs(), 0);
    let after = snapshot_results(&fresh);
    for (i, xp) in QUERIES.iter().enumerate() {
        assert_eq!(after[i].0, before[i].0, "{xp} ordered set changed");
        assert_eq!(after[i].1, before[i].1, "{xp} unordered set changed");
    }

    // Dropping the pinned reader drains the retired pool; only the
    // internally held current snapshot remains pinned. The pool is
    // memory: it goes without a write or a barrier.
    let io = old_io.snapshot();
    drop(snap);
    assert!(old_pool.upgrade().is_none(), "the retired pool is gone");
    assert_eq!(old_io.snapshot(), io, "a retired pool drops silently");
    assert_eq!(shared.pinned_epochs(), (1, Some(epoch)));
    drop(fresh);
    assert_eq!(shared.pinned_epochs(), (1, Some(epoch)));
}

// ---------------------------------------------------------------------------
// Byte-level determinism
// ---------------------------------------------------------------------------

fn read_file(env: &MemSegEnv, suffix: &str) -> Vec<u8> {
    let store = env.store(suffix).unwrap_or_else(|| panic!("no {suffix}"));
    let len = store.len().unwrap() as usize;
    let mut buf = vec![0u8; len];
    store.read_at(0, &mut buf).unwrap();
    buf
}

#[test]
fn bulk_build_is_deterministic_and_rebuild_reproduces_segments() {
    let mut rng = TestRng::from_seed(0x5EED_0061);
    let docs: Vec<String> = (0..40).map(|_| doc_xml(&mut rng)).collect();

    // Two independent builds of the same list: identical segment
    // bytes (this would catch any hash-order nondeterminism in the
    // childless-set or MaxGap serialization).
    let env_a = Arc::new(MemSegEnv::new());
    let env_b = Arc::new(MemSegEnv::new());
    let eng_a = bulk_over(env_a.clone(), &docs).unwrap();
    let _eng_b = bulk_over(env_b.clone(), &docs).unwrap();
    for kind in ["rp", "ep", "vx"] {
        let suffix = format!(".g1.{kind}.seg");
        assert_eq!(
            read_file(&env_a, &suffix),
            read_file(&env_b, &suffix),
            "independent bulk builds diverge for {suffix}"
        );
    }
    let g1 = ["rp", "ep", "vx"].map(|kind| read_file(&env_a, &format!(".g1.{kind}.seg")));
    let before = full_results(&eng_a).unwrap();
    drop(eng_a);

    // Rebuilding the same documents over the same environment must
    // reproduce the segment bytes under the next generation's names
    // (the header stores kind/doc range, never the generation) and
    // retire the superseded generation's files.
    let eng = bulk_over(env_a.clone(), &docs).unwrap();
    assert_eq!(eng.generation(), 2);
    for (kind, g1_bytes) in ["rp", "ep", "vx"].iter().zip(&g1) {
        assert_eq!(&read_file(&env_a, &format!(".g2.{kind}.seg")), g1_bytes);
        assert!(
            env_a.store(&format!(".g1.{kind}.seg")).is_none(),
            "superseded generation 1 {kind} file was not retired"
        );
    }
    assert_eq!(full_results(&eng).unwrap(), before);
}

#[test]
fn compaction_is_deterministic_across_instances() {
    let mut rng = TestRng::from_seed(0x5EED_0062);
    let base: Vec<String> = (0..12).map(|_| doc_xml(&mut rng)).collect();
    let delta: Vec<String> = (0..6).map(|_| doc_xml(&mut rng)).collect();

    let run = |env: Arc<MemSegEnv>| -> PrixEngine {
        let mut eng = bulk_over(env, &base).unwrap();
        for d in &delta {
            // Dynamic labeling may reject a shape; both instances see
            // the identical sequence, so they reject identically.
            let _ = eng.insert_document(d);
        }
        assert!(eng.mutable_docs() >= 1, "no delta survived to compact");
        eng
    };

    let env_a = Arc::new(MemSegEnv::new());
    let env_b = Arc::new(MemSegEnv::new());
    let mut eng_a = run(env_a.clone());
    let mut eng_b = run(env_b.clone());
    let before = full_results(&eng_a).unwrap();

    assert!(eng_a.compact().unwrap());
    assert!(eng_b.compact().unwrap());
    for kind in ["rp", "ep", "vx"] {
        let suffix = format!(".g2.{kind}.seg");
        assert_eq!(
            read_file(&env_a, &suffix),
            read_file(&env_b, &suffix),
            "independent compactions diverge for {suffix}"
        );
    }

    // Compaction moved the delta between tiers without changing a
    // single answer, and the old generation's log is gone.
    assert_eq!(eng_a.generation(), 2);
    assert_eq!(eng_a.mutable_docs(), 0);
    assert_eq!(full_results(&eng_a).unwrap(), before);
    assert!(env_a.store(".g1.log").is_none(), "the old log survived");
    assert!(env_a.store(".g2.log").is_some(), "the new generation's log");
}

/// A [`MemSegEnv`] that counts the scratch stores sort spills ask for.
#[derive(Default)]
struct SpillCountingEnv {
    inner: MemSegEnv,
    temps: std::sync::atomic::AtomicUsize,
}

impl SegmentEnv for SpillCountingEnv {
    fn create(&self, suffix: &str) -> prix::storage::Result<Box<dyn RawStore>> {
        self.inner.create(suffix)
    }
    fn open(&self, suffix: &str) -> prix::storage::Result<Box<dyn RawStore>> {
        self.inner.open(suffix)
    }
    fn exists(&self, suffix: &str) -> prix::storage::Result<bool> {
        self.inner.exists(suffix)
    }
    fn remove(&self, suffix: &str) -> prix::storage::Result<()> {
        self.inner.remove(suffix)
    }
    fn temp(&self) -> prix::storage::Result<Box<dyn RawStore>> {
        self.temps
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.temp()
    }
}

/// The bulk path holds no more of the collection's leaf values than its
/// sort budget: they go through the external sorter like the label
/// paths do. A budget the values outgrow spills runs to scratch stores
/// and still produces the files an in-memory sort produces, byte for
/// byte.
#[test]
fn tiny_run_budget_spills_leaf_values_and_produces_an_identical_value_run() {
    let mut rng = TestRng::from_seed(0x5EED_0063);
    let docs: Vec<String> = (0..6000).map(|_| doc_xml(&mut rng)).collect();
    let build = |run_mem_bytes: usize| {
        let env = Arc::new(SpillCountingEnv::default());
        let mut b = BulkBuilder::with_env_mem(cfg(), env.clone(), run_mem_bytes).unwrap();
        for d in &docs {
            b.add_xml(d).unwrap();
        }
        let engine = b.finish().unwrap();
        engine.verify_tiers().unwrap();
        let files =
            ["rp", "ep", "vx"].map(|kind| read_file(&env.inner, &format!(".g1.{kind}.seg")));
        let temps = env.temps.load(std::sync::atomic::Ordering::Relaxed);
        (files, temps)
    };
    let (roomy, no_spills) = build(64 << 20);
    let (tight, spills) = build(1); // clamped to 64 KiB a sorter
    assert_eq!(no_spills, 0, "64 MiB holds 6000 small documents");
    // The two path sorters and each segment's tag-row sort spill as
    // well; what the value sorter adds is at least two runs of its own
    // (12 000 entries of ~50 bytes against 64 KiB).
    assert!(
        spills >= 6,
        "only {spills} scratch stores under a 64 KiB budget"
    );
    assert_eq!(roomy[2].len(), tight[2].len());
    assert!(roomy == tight, "spilled and in-memory bulk builds differ");
}

// ---------------------------------------------------------------------------
// Corrupt segment bytes: an error from the decoder, not a panic
// ---------------------------------------------------------------------------

/// Segment blocks are CRC-checked by `verify_tiers`, not on the open
/// or query path, so the decoders see whatever the file holds. A
/// two-document database whose RP segment the tests below damage.
fn small_segmented_env() -> Arc<MemSegEnv> {
    let env = Arc::new(MemSegEnv::new());
    let docs = ["<a><b><y/></b><d/></a>", "<a><b><y/></b></a>"].map(String::from);
    drop(bulk_over(env.clone(), &docs).unwrap());
    env
}

/// The `N` bytes at `off` of `.g1.rp.seg`.
fn rp_segment_bytes<const N: usize>(env: &MemSegEnv, off: u64) -> [u8; N] {
    let mut buf = [0u8; N];
    let store = env.store(".g1.rp.seg").unwrap();
    store.read_at(off, &mut buf).unwrap();
    buf
}

/// Overwrites the byte at `off` of `.g1.rp.seg`, returning what it held.
fn poke_rp_segment(env: &MemSegEnv, off: u64, byte: u8) -> u8 {
    let [old] = rp_segment_bytes(env, off);
    let store = env.store(".g1.rp.seg").unwrap();
    store.write_at(off, &[byte]).unwrap();
    old
}

/// The offsets, from `off` on in `.g1.rp.seg`, of the varints that
/// start there (this database's counts all fit one byte).
fn rp_varint_offsets(env: &MemSegEnv, off: u64) -> Vec<u64> {
    let bytes: [u8; 24] = rp_segment_bytes(env, off);
    let mut rest = &bytes[..];
    let mut at = vec![off];
    while prix::storage::segment::take_varint(&mut rest).is_some() {
        at.push(off + (bytes.len() - rest.len()) as u64);
    }
    at
}

#[test]
fn garbled_segment_meta_is_refused_at_reopen() {
    let env = small_segmented_env();
    let meta_off = u64::from_le_bytes(rp_segment_bytes(&env, 88)); // header field
                                                                   // The blob: the kind byte, then varints — the dummy symbol, the
                                                                   // MaxGap count and, after its (symbol, gap) pairs, the childless
                                                                   // count.
    let varints = rp_varint_offsets(&env, meta_off + 1);
    let n_gaps_off = varints[1];
    let [n_gaps] = rp_segment_bytes(&env, n_gaps_off);
    let n_childless_off = varints[2 + 2 * usize::from(n_gaps)];
    for (off, count) in [
        (n_gaps_off, 0x7f),
        (n_gaps_off, n_gaps + 1),
        (n_childless_off, 0x7f),
        (n_childless_off, 0),
    ] {
        let good = poke_rp_segment(&env, off, count);
        let err = match PrixEngine::reopen_env(env.clone(), BUFFER_PAGES) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("count at {off} = {count} was accepted"),
        };
        assert!(
            err.contains("corrupt segment metadata"),
            "{off}/{count}: {err}"
        );
        poke_rp_segment(&env, off, good);
    }
    assert!(PrixEngine::reopen_env(env, BUFFER_PAGES).is_ok());
}

#[test]
fn garbled_document_record_fails_the_query() {
    let env = small_segmented_env();
    // Record 0 opens the record section: the sequence length `n`, the
    // `n` varints of the NPS, then the byte length of the LPS and leaf
    // part.
    let n_off = u64::from_le_bytes(rp_segment_bytes(&env, 48)); // header field
    let [n] = rp_segment_bytes(&env, n_off);
    let leaf_len_off = rp_varint_offsets(&env, n_off)[1 + usize::from(n)];
    for (off, count) in [(n_off, 0x7f), (n_off, n - 1), (leaf_len_off, 0x7f)] {
        let good = poke_rp_segment(&env, off, count);
        // A fresh reader: nothing of the record is cached yet.
        let engine = PrixEngine::reopen_env(env.clone(), BUFFER_PAGES).unwrap();
        let snap = engine.snapshot();
        let q = snap.parse_query("//a/d").unwrap();
        let err = snap.query(&q).unwrap_err().to_string();
        assert!(
            err.contains("corrupt document record"),
            "{off}/{count}: {err}"
        );
        poke_rp_segment(&env, off, good);
    }
    let engine = PrixEngine::reopen_env(env, BUFFER_PAGES).unwrap();
    let snap = engine.snapshot();
    let q = snap.parse_query("//a/d").unwrap();
    assert_eq!(snap.query(&q).unwrap().matches.len(), 1);
}

/// The batch entry hands a failing query's error back instead of
/// swallowing it. Every engine has both indexes, so the failure comes
/// from the one source left: bytes the decoder refuses.
#[test]
fn query_batch_surfaces_errors() {
    let env = small_segmented_env();
    let record_0 = u64::from_le_bytes(rp_segment_bytes(&env, 48)); // header field
    poke_rp_segment(&env, record_0, 0x7f);
    let engine = PrixEngine::reopen_env(env, BUFFER_PAGES).unwrap();
    let snap = engine.snapshot();
    let good = snap.parse_query("//a/nothing").unwrap();
    let bad = snap.parse_query("//a/d").unwrap();
    assert!(snap.query(&good).unwrap().matches.is_empty());
    assert!(snap.query_batch(&[good, bad], 2).is_err());
}

// ---------------------------------------------------------------------------
// Crash consistency: kill points inside bulk rebuild and compaction
// ---------------------------------------------------------------------------

/// Reopens the post-crash durable image and checks it serves exactly
/// one acknowledged state, with clean tier files.
fn reopen_and_verify(fenv: &FaultSegEnv) -> Result<PrixEngine, String> {
    let engine = PrixEngine::reopen_env(fenv.durable_env(), BUFFER_PAGES)
        .map_err(|e| format!("reopen after crash: {e}"))?;
    engine
        .verify_tiers()
        .map_err(|e| format!("post-crash segment and value-run verify: {e}"))?;
    engine
        .valix()
        .verify()
        .map_err(|e| format!("post-crash valix verify: {e}"))?;
    Ok(engine)
}

/// One crash-mid-rebuild round: a known-good generation 1 is rebuilt
/// with extra documents through an armed injector. Whatever instant
/// the crash hits, reopening must serve either the old generation or
/// the committed new one — never a torn mixture.
fn bulk_rebuild_crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    let mut rng = TestRng::from_seed(seed);
    let n_base = 4 + rng.below(8) as usize;
    let n_extra = 1 + rng.below(4) as usize;
    let base: Vec<String> = (0..n_base).map(|_| doc_xml(&mut rng)).collect();
    let all: Vec<String> = base
        .iter()
        .cloned()
        .chain((0..n_extra).map(|_| doc_xml(&mut rng)))
        .collect();

    // References built on clean environments: what generation 1 and
    // generation 2 must each answer.
    let ref_old = bulk_over(Arc::new(MemSegEnv::new()), &base)?;
    let ref_new = bulk_over(Arc::new(MemSegEnv::new()), &all)?;
    let old_results = full_results(&ref_old)?;
    let new_results = full_results(&ref_new)?;

    // Known-good generation 1 on the faulty environment, built and
    // committed before the injector is armed.
    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));
    let eng = bulk_over(fenv.clone(), &base).map_err(|e| format!("unarmed gen-1 build: {e}"))?;
    drop(eng);

    let kill_after = match kind {
        FaultKind::DroppedFsync => rng.below(60),
        _ => rng.below(800),
    };
    inj.arm(kind, kill_after, rng.next_u64());
    let rebuilt = bulk_over(fenv.clone(), &all);
    let crashed = inj.crashed();
    if let Err(e) = &rebuilt {
        if !crashed {
            return Err(format!("rebuild failed without a crash: {e}"));
        }
    }
    drop(rebuilt);

    let eng =
        reopen_and_verify(&fenv).map_err(|e| format!("{e} ({kind:?}, kill point {kill_after})"))?;
    let gen = eng.generation();
    let want = match gen {
        1 => &old_results,
        2 => &new_results,
        g => return Err(format!("reopened at impossible generation {g}")),
    };
    if !crashed && gen != 2 {
        return Err("rebuild was acknowledged but generation 1 still serves".into());
    }
    let got = full_results(&eng)?;
    if got != *want {
        return Err(format!(
            "generation {gen} serves wrong results after a {kind:?} crash at kill point {kill_after}"
        ));
    }
    Ok(())
}

/// One crash-mid-compaction round. Compaction only moves documents
/// between tiers, so *whatever* instant the crash hits — during the
/// segment build, the fresh log's header, or the manifest write — the
/// reopened database must answer exactly like the pre-compaction one.
fn compaction_crash_iteration(seed: u64, kind: FaultKind) -> Result<(), String> {
    let mut rng = TestRng::from_seed(seed);
    let n_base = 4 + rng.below(6) as usize;
    let base: Vec<String> = (0..n_base).map(|_| doc_xml(&mut rng)).collect();

    let inj = FaultInjector::unarmed();
    let fenv = Arc::new(FaultSegEnv::new(&inj));
    let mut eng =
        bulk_over(fenv.clone(), &base).map_err(|e| format!("unarmed gen-1 build: {e}"))?;
    let mut n_delta = 0;
    for _ in 0..1 + rng.below(5) {
        if eng.insert_document(&doc_xml(&mut rng)).is_ok() {
            n_delta += 1;
        }
    }
    if n_delta == 0 {
        return Ok(());
    }
    eng.save().map_err(|e| format!("pre-arm save: {e}"))?;
    let expected = full_results(&eng)?;

    let kill_after = match kind {
        FaultKind::DroppedFsync => rng.below(40),
        _ => rng.below(600),
    };
    inj.arm(kind, kill_after, rng.next_u64());
    let res = eng.compact();
    let crashed = inj.crashed();
    if let Err(e) = &res {
        if !crashed {
            return Err(format!("compaction failed without a crash: {e}"));
        }
    }
    drop(eng);

    let eng =
        reopen_and_verify(&fenv).map_err(|e| format!("{e} ({kind:?}, kill point {kill_after})"))?;
    if matches!(res, Ok(true)) && !crashed && eng.generation() < 2 {
        return Err("compaction was acknowledged but the old generation still serves".into());
    }
    let got = full_results(&eng)?;
    if got != expected {
        return Err(format!(
            "answers changed across a {kind:?} compaction crash at kill point {kill_after} \
             (reopened at generation {})",
            eng.generation()
        ));
    }
    // A crash before the manifest write leaves the new tier's files —
    // segments and value run, whole or torn — as orphans under the next
    // generation's names. The retry writes over them.
    let mut eng = eng;
    if eng.mutable_docs() > 0 {
        eng.compact()
            .map_err(|e| format!("compaction over a crashed one's debris: {e}"))?;
        eng.verify_tiers()
            .map_err(|e| format!("tier verify after the retried compaction: {e}"))?;
        if full_results(&eng)? != expected {
            return Err(format!(
                "answers changed when a compaction was retried after a {kind:?} crash \
                 at kill point {kill_after}"
            ));
        }
    }
    Ok(())
}

/// Randomized kill points through bulk rebuild, cycling every kind.
#[test]
fn bulk_rebuild_survives_random_crashes() {
    let mut failures = Vec::new();
    for seed in 0..10u64 {
        for kind in FaultKind::ALL {
            if let Err(e) = bulk_rebuild_crash_iteration(seed, kind) {
                failures.push(format!("seed {seed:#x} kind {kind:?}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} rebuild crash iteration(s) broke the manifest-swap promise:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Randomized kill points through compaction, cycling every kind.
#[test]
fn compaction_survives_random_crashes() {
    let mut failures = Vec::new();
    for seed in 0..10u64 {
        for kind in FaultKind::ALL {
            if let Err(e) = compaction_crash_iteration(seed, kind) {
                failures.push(format!("seed {seed:#x} kind {kind:?}: {e}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} compaction crash iteration(s) lost or duplicated documents:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

// Pinned regression kill points, one per fault kind (the replay
// convention of tests/crash_recovery.rs: same function, fixed seed).

#[test]
fn bulk_rebuild_crash_replay_short_write_seed_5eed0071() {
    bulk_rebuild_crash_iteration(0x5EED_0071, FaultKind::ShortWrite).unwrap();
}

#[test]
fn bulk_rebuild_crash_replay_torn_sector_seed_5eed0072() {
    bulk_rebuild_crash_iteration(0x5EED_0072, FaultKind::TornSector).unwrap();
}

#[test]
fn bulk_rebuild_crash_replay_dropped_fsync_seed_5eed0073() {
    bulk_rebuild_crash_iteration(0x5EED_0073, FaultKind::DroppedFsync).unwrap();
}

#[test]
fn compaction_crash_replay_short_write_seed_5eed0074() {
    compaction_crash_iteration(0x5EED_0074, FaultKind::ShortWrite).unwrap();
}

#[test]
fn compaction_crash_replay_torn_sector_seed_5eed0075() {
    compaction_crash_iteration(0x5EED_0075, FaultKind::TornSector).unwrap();
}

#[test]
fn compaction_crash_replay_dropped_fsync_seed_5eed0076() {
    compaction_crash_iteration(0x5EED_0076, FaultKind::DroppedFsync).unwrap();
}
