//! A deterministic mirror of prixbench's `write_amp`: every byte and
//! every `fsync` the engine issues while it ingests a feed and compacts
//! once, counted at the [`RawStore`] boundary instead of read off
//! `/proc/self/io`.
//!
//! The numbers pin the write path's shape — a commit is one log append
//! and one barrier, and what it appends is the batch it accepted plus
//! fixed framing; a compaction writes the delta's tier once and starts
//! an empty log; no page of the delta is ever written to a file — so a
//! change that quietly reintroduces a copy of the delta's pages, or
//! anything else that grows with the delta, fails here, in `cargo
//! test`, not in a 25-second benchmark run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prix::core::{BulkBuilder, EngineConfig, PrixEngine, SharedEngine};
use prix::storage::{
    BatchLog, MemSegEnv, RawStore, SegmentEnv, StorageError, CHECKPOINT_LOG_BYTES,
};
use prix_testkit::TestRng;

type Result<T> = std::result::Result<T, StorageError>;

/// Bytes written to, and barriers issued on, one class of files.
#[derive(Default)]
struct Tally {
    bytes: AtomicU64,
    syncs: AtomicU64,
}

/// What kind of file a suffix names, for the tallies: the manifest, a
/// tier's segment or value run, its symbol run, the batch log.
fn class_of(suffix: &str) -> &'static str {
    if suffix == ".seg" {
        "manifest"
    } else if suffix.ends_with(".seg") {
        "segment"
    } else if suffix.ends_with(".sym") {
        "symbols"
    } else {
        assert!(
            suffix.ends_with(".log"),
            "a file of no known kind: {suffix}"
        );
        "log"
    }
}

struct CountingStore {
    inner: Box<dyn RawStore>,
    tally: Arc<Tally>,
}

impl RawStore for CountingStore {
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.tally
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_at(offset, buf)
    }
    fn sync(&self) -> Result<()> {
        self.tally.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

/// An in-memory [`SegmentEnv`] whose stores count what is written to
/// them, by file class (sort-run scratch files count as `"temp"`).
#[derive(Default)]
struct CountingEnv {
    inner: MemSegEnv,
    tallies: Mutex<HashMap<&'static str, Arc<Tally>>>,
}

impl CountingEnv {
    fn wrap(&self, class: &'static str, inner: Box<dyn RawStore>) -> Box<dyn RawStore> {
        let tally = Arc::clone(self.tallies.lock().unwrap().entry(class).or_default());
        Box::new(CountingStore { inner, tally })
    }

    fn bytes(&self) -> u64 {
        let t = self.tallies.lock().unwrap();
        t.values().map(|t| t.bytes.load(Ordering::Relaxed)).sum()
    }

    fn class_bytes(&self, class: &str) -> u64 {
        let t = self.tallies.lock().unwrap();
        t.get(class).map_or(0, |t| t.bytes.load(Ordering::Relaxed))
    }

    fn syncs(&self, class: &str) -> u64 {
        let t = self.tallies.lock().unwrap();
        t.get(class).map_or(0, |t| t.syncs.load(Ordering::Relaxed))
    }
}

impl SegmentEnv for CountingEnv {
    fn create(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        Ok(self.wrap(class_of(suffix), self.inner.create(suffix)?))
    }
    fn open(&self, suffix: &str) -> Result<Box<dyn RawStore>> {
        Ok(self.wrap(class_of(suffix), self.inner.open(suffix)?))
    }
    fn exists(&self, suffix: &str) -> Result<bool> {
        self.inner.exists(suffix)
    }
    fn remove(&self, suffix: &str) -> Result<()> {
        self.inner.remove(suffix)
    }
    fn temp(&self) -> Result<Box<dyn RawStore>> {
        Ok(self.wrap("temp", self.inner.temp()?))
    }
}

/// One event record of the shape prixbench's feed ingests: four
/// fields of eight values each, 60-odd bytes.
fn feed_doc(rng: &mut TestRng) -> String {
    let mut xml = String::from("<ev>");
    for (tag, prefix) in [("src", "s"), ("kind", "k"), ("lvl", "l"), ("zone", "z")] {
        xml.push_str(&format!("<{tag}>{prefix}{}</{tag}>", rng.below(8)));
    }
    xml.push_str("</ev>");
    xml
}

const BATCHES: u64 = 32;
const BATCH_DOCS: usize = 32;

/// Bytes written per byte of XML over the ingest and the compaction.
/// Measured at 2.70 once a tier kept its records once, in its EP
/// segment (the ceiling is 5 % above it); 3.63 with value-run format 2;
/// 4.37 when this was first pinned: 1.08 bytes of log per byte of
/// XML (the batches as received, 20 bytes a record and 5 a document of
/// framing), then the compaction's two segments, value run and the
/// fresh log's header. It was 36.9 while the delta lived in a
/// page file whose changed byte runs the log carried (2.12 MB of log,
/// 1 400 bytes a frame, and the fresh generation's catalog and empty
/// trees), 55.1 while every commit re-appended the delta's whole record
/// directory, 60.6 with format-2 segments, 244.3 with full-page frames
/// and 428 with the five-step commit before them.
const WRITE_AMP_CEILING: f64 = 2.84;

/// Bytes a record adds to its batch: length and CRC, epoch, body count.
const RECORD_FRAMING: u64 = 20;
/// Bytes a body adds: mode and length.
const BODY_FRAMING: u64 = 5;

/// Ingests `batch` through the four steps `SharedEngine::ingest`
/// takes, all of it accepted.
fn commit(engine: &mut PrixEngine, batch: &[String]) {
    let out = engine.ingest_batch(batch).unwrap();
    assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
    engine.save().unwrap();
}

#[test]
fn ingest_and_compaction_write_each_page_once() {
    let mut rng = TestRng::from_seed(0x5EED_0021);
    let env = Arc::new(CountingEnv::default());
    let cfg = EngineConfig {
        buffer_pages: 2000,
        ..Default::default()
    };
    let mut b = BulkBuilder::with_env(cfg, env.clone()).unwrap();
    for _ in 0..64 {
        b.add_xml(&feed_doc(&mut rng)).unwrap();
    }
    let mut engine: PrixEngine = b.finish().unwrap();

    // From here on everything is counted.
    let bytes0 = env.bytes();
    let log_syncs0 = env.syncs("log");
    let manifest0 = env.syncs("manifest");
    let log0 = env.class_bytes("log");
    let old_pool = Arc::clone(engine.pool());
    let io0 = old_pool.snapshot();

    let mut xml_bytes = 0u64;
    for _ in 0..BATCHES {
        let batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
        xml_bytes += batch.iter().map(|d| d.len() as u64).sum::<u64>();
        commit(&mut engine, &batch);
    }
    let ingest = old_pool.snapshot().since(&io0);
    assert_eq!(
        (ingest.physical_writes, ingest.wal_appends, ingest.fsyncs),
        (0, BATCHES, BATCHES),
        "one record and one barrier per commit, and not a page written"
    );
    let logged = env.class_bytes("log") - log0;
    assert_eq!(logged, ingest.wal_appended_bytes);
    assert_eq!(
        logged,
        xml_bytes + BATCHES * RECORD_FRAMING + BATCHES * BATCH_DOCS as u64 * BODY_FRAMING,
        "the log holds the batches and their framing, nothing else"
    );

    let before = engine.pool().snapshot();
    assert!(engine.compact().unwrap());
    let fresh = engine.pool().snapshot().since(&before);
    assert_eq!(
        (fresh.wal_appends, fresh.fsyncs, fresh.physical_writes),
        (0, 1, 0),
        "the fresh generation is an empty log: its header, synced once"
    );
    let old = before.since(&io0);
    assert_eq!(
        (old.physical_writes, old.fsyncs, old.wal_appends),
        (0, BATCHES, BATCHES),
        "the compaction read the old pool and wrote nothing through it"
    );
    drop(old_pool);
    drop(engine);

    // Every barrier on a log is accounted for: the commits and the
    // fresh log's header. The manifest adds its own.
    assert_eq!(env.syncs("log") - log_syncs0, BATCHES + 1);
    assert!(
        env.syncs("manifest") > manifest0,
        "the manifest write is the commit point"
    );

    let write_amp = (env.bytes() - bytes0) as f64 / xml_bytes as f64;
    assert!(
        write_amp <= WRITE_AMP_CEILING,
        "{write_amp:.2} bytes written per XML byte, ceiling {WRITE_AMP_CEILING}"
    );
}

/// A commit's log bytes are the batch's bytes plus fixed framing —
/// 20 bytes a record, 5 a body — whatever the batch holds: one
/// document, many, a wrapper split into its children, or a document the
/// engine refused (which rides along with the next commit: it interned
/// names, and replay must intern them again). And the log reads back
/// as exactly those records.
#[test]
fn a_commit_logs_its_batch() {
    let mut rng = TestRng::from_seed(0x5EED_0025);
    let env = Arc::new(CountingEnv::default());
    let mut b = BulkBuilder::with_env(EngineConfig::default(), env.clone()).unwrap();
    for _ in 0..8 {
        b.add_xml(&feed_doc(&mut rng)).unwrap();
    }
    let mut engine = b.finish().unwrap();
    let wrapper = format!(
        "<batch>{}{}</batch>",
        feed_doc(&mut rng),
        feed_doc(&mut rng)
    );
    let refused = "<ev><src>never-closed</ev>".to_string();
    let one = vec![feed_doc(&mut rng)];
    let many: Vec<String> = (0..17).map(|_| feed_doc(&mut rng)).collect();
    let mut bodies = 0u64;
    let mut expect = |engine: &mut PrixEngine, batch: &[&String]| {
        let before = env.class_bytes("log");
        engine.save().unwrap();
        let body: u64 = batch.iter().map(|d| d.len() as u64).sum();
        let n = batch.len() as u64;
        bodies += n;
        assert_eq!(
            env.class_bytes("log") - before,
            body + RECORD_FRAMING + n * BODY_FRAMING,
            "{n} bod(ies) of {body} bytes"
        );
    };
    engine.ingest_batch(&one).unwrap();
    expect(&mut engine, &[&one[0]]);
    engine.ingest_batch(&many).unwrap();
    expect(&mut engine, &many.iter().collect::<Vec<_>>());
    let out = engine.ingest_batch_split(&wrapper).unwrap();
    assert_eq!(out.accepted.len(), 2);
    expect(&mut engine, &[&wrapper]);
    let out = engine.ingest_batch(std::slice::from_ref(&refused)).unwrap();
    assert_eq!(out.rejected.len(), 1);
    engine.ingest_batch(&one).unwrap();
    expect(&mut engine, &[&refused, &one[0]]);
    let (names, docs) = (engine.symbols().len(), engine.mutable_docs());
    drop(engine);

    let contents = BatchLog::read(&*env.open(".g1.log").unwrap()).unwrap();
    let logged: u64 = contents.records.iter().map(|r| r.bodies.len() as u64).sum();
    assert_eq!((contents.records.len(), logged), (4, bodies));
    let back = PrixEngine::reopen_env(env, 64).unwrap();
    assert_eq!((back.symbols().len(), back.mutable_docs()), (names, docs));
}

/// A writer left to itself — no `compact_after`, no `prix compact` —
/// still folds its log into a tier once the log reaches its bound, so a
/// reopen never replays more than that. Documents heavy with comments
/// (logged as received, cheap to index) get it there in a few hundred
/// commits.
#[test]
fn a_full_log_is_compacted_by_the_writer() {
    let mut rng = TestRng::from_seed(0x5EED_0026);
    let env: Arc<dyn SegmentEnv> = Arc::new(MemSegEnv::new());
    let mut b = BulkBuilder::with_env(EngineConfig::default(), Arc::clone(&env)).unwrap();
    for _ in 0..8 {
        b.add_xml(&feed_doc(&mut rng)).unwrap();
    }
    let shared = SharedEngine::new(b.finish().unwrap());
    let padding = format!("<!--{}-->", "x".repeat(60 << 10));
    let mut docs = 8u64;
    while shared.log_compactions() == 0 {
        let snap = shared.snapshot();
        assert!(snap.log_bytes() < 2 * CHECKPOINT_LOG_BYTES, "no compaction");
        let batch: Vec<String> = (0..4)
            .map(|_| feed_doc(&mut rng).replace("</ev>", &format!("{padding}</ev>")))
            .collect();
        let report = shared.ingest(&batch).unwrap();
        assert_eq!(report.accepted.len(), 4);
        docs += 4;
    }
    let snap = shared.snapshot();
    assert_eq!(snap.generation(), 2, "the bound forced one compaction");
    assert!(snap.log_bytes() < CHECKPOINT_LOG_BYTES);
    assert_eq!(snap.segment_docs() + snap.mutable_docs() as u64, docs);
    drop(snap);
    drop(shared);
    let back = PrixEngine::reopen_env(env, 64).unwrap();
    assert_eq!(back.generation(), 2);
    assert_eq!(back.segment_docs() + back.mutable_docs() as u64, docs);
}

/// Bulk-builds `n_bulk` value-heavy documents; returns the engine, its
/// counting environment and the documents' bytes of XML.
fn bulk_items(n_bulk: usize) -> (PrixEngine, Arc<CountingEnv>, u64) {
    let env = Arc::new(CountingEnv::default());
    let cfg = EngineConfig {
        buffer_pages: 2000,
        ..Default::default()
    };
    let mut b = BulkBuilder::with_env(cfg, env.clone()).unwrap();
    // Four leaf values a document, from vocabularies the smaller
    // collection already exhausts: both collections intern the same
    // symbols, and differ in how many postings they hold.
    let mut xml_bytes = 0;
    for i in 0..n_bulk {
        let xml = format!(
            "<item><name>n{}</name><price>{}</price><qty>{}</qty><tag>t{}</tag></item>",
            i % 40,
            10 + i % 90,
            i % 20,
            i % 30
        );
        xml_bytes += xml.len() as u64;
        b.add_xml(&xml).unwrap();
    }
    (b.finish().unwrap(), env, xml_bytes)
}

/// Bytes on disk per byte of XML right after a bulk build, every file
/// counted (prixbench's `space_amp`, on a collection small enough for
/// `cargo test`). Measured at 1.43 (210 978 bytes over 147 270 of XML)
/// with segment format 4, a tier's records once, in its EP file; 2.27
/// (333 978 bytes) with value-run format 2 before it; 3.38 (498 406
/// bytes) once the empty delta was no longer a page file, its checksum
/// sidecar and a log, but a log header; 4.10 (604 163 bytes) before,
/// with segment format 3; format 2 — 28-byte tag rows, records and meta
/// blob in raw `u32`s — measured 8.15 on the same documents (1 200 933
/// bytes). The ceiling is 5 % above the reading.
const SPACE_PER_XML_BYTE_CEILING: f64 = 1.5;

#[test]
fn space_per_xml_byte() {
    let (engine, _, xml_bytes) = bulk_items(2048);
    let on_disk: u64 = engine.file_sizes().unwrap().iter().map(|(_, b)| b).sum();
    let space = on_disk as f64 / xml_bytes as f64;
    assert!(
        space <= SPACE_PER_XML_BYTE_CEILING,
        "{space:.2} bytes on disk per XML byte ({on_disk} / {xml_bytes}), \
         ceiling {SPACE_PER_XML_BYTE_CEILING}"
    );
}

/// Bulk-builds `n_bulk` value-heavy documents, ingests the same 1 024
/// feed documents on top and compacts; returns the bytes the compaction
/// wrote, to files of every class.
fn compaction_bytes(n_bulk: usize) -> u64 {
    let (mut engine, env, _) = bulk_items(n_bulk);
    let mut rng = TestRng::from_seed(0x5EED_0022);
    for _ in 0..BATCHES {
        let batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
        commit(&mut engine, &batch);
    }
    let before = env.bytes();
    assert!(engine.compact().unwrap());
    env.bytes() - before
}

/// A compaction writes what it compacts: the delta's two segments, its
/// value run, and a fresh generation that starts empty. What the tiers
/// below hold is not rewritten, so the bill does not grow with the
/// collection — to within one block of alignment. (Copying the value
/// index into the fresh generation made it grow by a page for every
/// couple of hundred postings the collection held.)
#[test]
fn compaction_bytes_do_not_depend_on_the_collection_size() {
    const N: usize = 512;
    let (small, large) = (compaction_bytes(N), compaction_bytes(4 * N));
    assert!(
        small.abs_diff(large) <= 4096,
        "compacting 1 024 documents wrote {small} bytes over {N} bulk-built documents, \
         {large} over {}",
        4 * N
    );
}

/// Bulk-builds 64 feed documents (which intern every symbol the feed
/// uses), then ingests the same 1 024 more in commits of `batch_docs`;
/// returns the log bytes each commit appended and the pages the delta's
/// pool has allocated at the end.
fn feed_commits(batch_docs: usize) -> (Vec<u64>, u64) {
    let mut rng = TestRng::from_seed(0x5EED_0023);
    let cfg = EngineConfig {
        buffer_pages: 2000,
        ..Default::default()
    };
    let mut b = BulkBuilder::with_env(cfg, Arc::new(MemSegEnv::new())).unwrap();
    for _ in 0..64 {
        b.add_xml(&feed_doc(&mut rng)).unwrap();
    }
    let mut engine = b.finish().unwrap();
    let docs: Vec<String> = (0..BATCHES as usize * BATCH_DOCS)
        .map(|_| feed_doc(&mut rng))
        .collect();
    let mut logged = Vec::new();
    for batch in docs.chunks(batch_docs) {
        let before = engine.pool().snapshot();
        commit(&mut engine, batch);
        logged.push(engine.pool().snapshot().since(&before).wal_appended_bytes);
    }
    (logged, engine.pool().pager().num_pages())
}

/// A commit logs what it added, whatever the delta already holds. One
/// delta, 32 commits of 32 same-shaped documents: the second sixteen
/// log exactly the first sixteen's bytes (36 160 each: the documents
/// and their framing). While a commit logged the pages it changed, the
/// second sixteen logged 1.09 × the first's (the trees' inserts landing
/// on more leaves as they spread), and 1.43 × while `save` also listed
/// 36 bytes for every document of the delta. And the delta's pool
/// allocates the same pages whether the documents come in 32 commits or
/// one: 104 against 104 (the superseded directories that made it 315
/// against 143 are gone with the page file).
#[test]
fn commit_bytes_do_not_depend_on_the_delta_size() {
    let (logged, pages) = feed_commits(BATCH_DOCS);
    assert_eq!(logged.len() as u64, BATCHES);
    let (early, late): (u64, u64) = (logged[..16].iter().sum(), logged[16..].iter().sum());
    assert!(
        late <= early,
        "commits 17-32 logged {late} bytes, commits 1-16 {early}"
    );
    let (_, pages_at_once) = feed_commits(BATCHES as usize * BATCH_DOCS);
    assert!(
        pages.abs_diff(pages_at_once) <= 4,
        "{pages} pages allocated after 32 commits, {pages_at_once} after one"
    );
}

/// Bulk-builds 64 feed documents (every name the feed uses) and 4 000
/// items of five leaf values each, drawn from `distinct` values: the
/// same documents but for what their leaves say, and a dictionary of
/// about `distinct` names. Then one commit that interns exactly one
/// name, 31 that intern none, and a compaction. Returns the log bytes
/// of the interning commit and the bytes the compaction wrote, to files
/// of every class.
fn priced_by_the_dictionary(distinct: usize) -> (u64, u64) {
    let mut rng = TestRng::from_seed(0x5EED_0024);
    let env = Arc::new(CountingEnv::default());
    let cfg = EngineConfig {
        buffer_pages: 2000,
        ..Default::default()
    };
    let mut b = BulkBuilder::with_env(cfg, env.clone()).unwrap();
    for _ in 0..64 {
        b.add_xml(&feed_doc(&mut rng)).unwrap();
    }
    for i in 0..4000 {
        let leaf = |k: usize| format!("<f{k}>x{:05}</f{k}>", (5 * i + k) % distinct);
        let leaves: String = (0..5).map(leaf).collect();
        b.add_xml(&format!("<item>{leaves}</item>")).unwrap();
    }
    let mut engine = b.finish().unwrap();
    let names = engine.symbols().len();
    assert!(names.abs_diff(distinct) < 64, "{names} names");
    let runs = |engine: &PrixEngine| {
        let rows = engine.segment_manifest().iter();
        rows.filter(|s| s.suffix.ends_with(".sym")).count()
    };
    assert_eq!(runs(&engine), 1, "the bulk build's names are one run");

    let pool = Arc::clone(engine.pool());
    let io0 = pool.snapshot();
    let logged = |engine: &mut PrixEngine, batch: &[String]| {
        let before = pool.snapshot();
        commit(engine, batch);
        pool.snapshot().since(&before).wal_appended_bytes
    };
    let mut batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
    batch[0] = batch[0].replace("<src>", "<src>never-seen-");
    let interning = logged(&mut engine, &batch);
    assert_eq!(engine.symbols().len(), names + 1, "exactly one new name");
    for _ in 1..BATCHES {
        let batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
        logged(&mut engine, &batch);
    }
    assert_eq!(
        engine.symbols().len(),
        names + 1,
        "the feed's names are old"
    );
    assert_eq!(
        pool.snapshot().since(&io0).fsyncs,
        BATCHES,
        "one barrier per commit, interning or not"
    );
    drop(pool);

    let before = env.bytes();
    assert!(engine.compact().unwrap());
    let compaction = env.bytes() - before;
    assert_eq!(runs(&engine), 2, "the delta's one name is the second run");

    // A delta that interned nothing leaves the dictionary's files alone.
    let rows = engine.segment_manifest().len();
    let symbol_bytes = env.class_bytes("symbols");
    engine.insert_document(&feed_doc(&mut rng)).unwrap();
    engine.save().unwrap();
    assert!(engine.compact().unwrap());
    assert_eq!(
        engine.segment_manifest().len(),
        rows + 3,
        "RP, EP, value run"
    );
    assert_eq!(env.class_bytes("symbols"), symbol_bytes);
    assert!(!env.exists(".g3.sym").unwrap());
    (interning, compaction)
}

/// A commit and a compaction write the names they added, not the
/// dictionary: the complement of the test above, which gives both its
/// collections the same symbols. Two collections that differ only in
/// how many distinct leaf values they hold — some 560 names against
/// some 20 060 — run the same script, and neither the commit that
/// interns one name nor the compaction differs between them by more than
/// a block: 2 271 bytes of log against 2 271 (the batch, as received),
/// 218 573 bytes of compaction against 218 576. (While the delta was a
/// page file the interning commit logged 35 378 bytes against 35 383,
/// the compaction 332 845 against 332 848; while a generation held the
/// symbol table as one record the interning commit logged 40 652 bytes
/// over the small dictionary and 236 605 over the large one, and the
/// compaction wrote 340 854 against 537 561: the dictionary each time,
/// as whole-page first frames and in the fresh generation.)
#[test]
fn dictionary_size_does_not_price_a_commit_or_a_compaction() {
    let (small, large) = (
        priced_by_the_dictionary(500),
        priced_by_the_dictionary(20_000),
    );
    assert!(
        small.0.abs_diff(large.0) <= 4096,
        "the commit that interned one name logged {} bytes over 500 names, {} over 20 000",
        small.0,
        large.0
    );
    assert!(
        small.1.abs_diff(large.1) <= 4096,
        "the compaction wrote {} bytes over 500 names, {} over 20 000",
        small.1,
        large.1
    );
}
