//! A deterministic mirror of prixbench's `write_amp`: every byte and
//! every `fsync` the engine issues while it ingests a feed and compacts
//! once, counted at the [`RawStore`] boundary instead of read off
//! `/proc/self/io`.
//!
//! The numbers pin the write path's shape — a commit is one log append
//! and one barrier, a log frame carries what changed in its page and
//! not the page, the page file only sees a page when a checkpoint comes
//! round, a compaction's fresh generation is written once — so a change
//! that quietly reintroduces a second copy of every page, or whole
//! pages in the log, fails here, in `cargo test`, not in a 25-second
//! benchmark run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prix::core::{BulkBuilder, EngineConfig, LabelingMode, PrixEngine};
use prix::storage::{MemSegEnv, RawStore, SegmentEnv, StorageError, PAGE_SIZE};
use prix_testkit::TestRng;

type Result<T> = std::result::Result<T, StorageError>;

/// Bytes written to, and barriers issued on, one class of files.
#[derive(Default)]
struct Tally {
    bytes: AtomicU64,
    syncs: AtomicU64,
}

/// What kind of file a suffix names, for the tallies.
fn class_of(suffix: &str) -> &'static str {
    if suffix == ".seg" {
        "manifest"
    } else if suffix.ends_with(".seg") {
        "segment"
    } else if suffix.ends_with(".sym") {
        "symbols"
    } else if suffix.ends_with(".wal") {
        "log"
    } else if suffix.ends_with(".sum") {
        "sidecar"
    } else {
        "pages"
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
/// Measured at 36.9 when this was pinned: 2.12 MB of log (1 400 bytes a
/// frame), the fresh generation's catalog and empty trees, the two
/// segments and the value run; no checkpoint before the compaction
/// retires the pool. It was 37.0 while the fresh generation also held
/// the symbol table (37 names here: the test below is the one that
/// grows a dictionary under it), 55.1 (3.34 MB of log) while every commit
/// re-appended the delta's whole record directory inside its metadata
/// record and a document was four raw-`u32` records, 60.6 while
/// segments held 28-byte tag rows and raw `u32` records (format 2), and
/// 61.6 while a compaction copied
/// the value index into the fresh generation — on this script's 64
/// bulk-built documents the copy was small; the third test below is the
/// one that grows a collection under it. Full-page frames made the
/// same script 244.3 (13.8 MB of log, which also forced a 212-page
/// checkpoint), and the five-step commit before them 428.
const WRITE_AMP_CEILING: f64 = 38.7;

/// What one page frame cost in the log when every frame was a whole
/// page image.
const FULL_PAGE_FRAME: u64 = 8216;

#[test]
fn ingest_and_compaction_write_each_page_once() {
    let mut rng = TestRng::from_seed(0x5EED_0021);
    let env = Arc::new(CountingEnv::default());
    let cfg = EngineConfig {
        buffer_pages: 2000,
        labeling: LabelingMode::Dynamic { alpha: 4 },
        ..Default::default()
    };
    let mut b = BulkBuilder::with_env(cfg, env.clone()).unwrap();
    for _ in 0..64 {
        b.add_xml(&feed_doc(&mut rng)).unwrap();
    }
    let mut engine: PrixEngine = b.finish().unwrap();

    // From here on everything is counted.
    let bytes0 = env.bytes();
    let syncs0: u64 = ["pages", "sidecar", "log"]
        .map(|c| env.syncs(c))
        .iter()
        .sum();
    let manifest0 = env.syncs("manifest");
    let log0 = env.class_bytes("log");
    let old_pool = Arc::clone(engine.pool());
    let io0 = old_pool.snapshot();

    let mut xml_bytes = 0u64;
    for _ in 0..BATCHES {
        let batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
        xml_bytes += batch.iter().map(|d| d.len() as u64).sum::<u64>();
        engine.pool().begin_ingest();
        let out = engine.ingest_batch(&batch).unwrap();
        assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
        engine.save().unwrap();
        engine.pool().publish_ingest();
    }
    let ingest = old_pool.snapshot().since(&io0);
    // 2.1 MB of log over a few hundred distinct pages: neither
    // checkpoint bound (8 MiB of log, 1 024 log images) is reached
    // before the compaction, so the page file sees nothing at all.
    assert_eq!(
        (ingest.checkpoints, ingest.physical_writes),
        (0, 0),
        "the log and its images stay under their bound"
    );
    assert_eq!(ingest.fsyncs, BATCHES, "one barrier per commit");
    let logged = env.class_bytes("log") - log0;
    assert_eq!(logged, ingest.wal_appended_bytes);
    assert!(
        3 * logged < ingest.wal_appends * FULL_PAGE_FRAME,
        "{logged} log bytes in {} frames: more than a third of a page each",
        ingest.wal_appends
    );

    assert!(engine.compact().unwrap());
    let fresh = engine.pool().snapshot();
    assert_eq!(
        (fresh.wal_appends, fresh.checkpoints),
        (0, 1),
        "the fresh generation is written unlogged, once"
    );
    assert_eq!(
        old_pool.snapshot().since(&io0).physical_writes,
        ingest.physical_writes,
        "a retired pool is not checkpointed"
    );
    drop(old_pool);
    drop(engine);

    // Every barrier on a page file, a sidecar or a log is accounted
    // for: the commits, the one checkpoint (the fresh generation's),
    // and the three that create the fresh generation (its empty page
    // file and sidecar, its log header). The manifest adds its own.
    let syncs: u64 = ["pages", "sidecar", "log"]
        .map(|c| env.syncs(c))
        .iter()
        .sum();
    assert_eq!(syncs - syncs0, BATCHES + 4 * fresh.checkpoints + 3);
    assert!(
        env.syncs("manifest") > manifest0,
        "the manifest write is the commit point"
    );

    let write_amp = (env.bytes() - bytes0) as f64 / xml_bytes as f64;
    assert!(
        write_amp <= WRITE_AMP_CEILING,
        "{write_amp:.1} bytes written per XML byte, ceiling {WRITE_AMP_CEILING}"
    );
}

/// Bulk-builds `n_bulk` value-heavy documents; returns the engine, its
/// counting environment and the documents' bytes of XML.
fn bulk_items(n_bulk: usize) -> (PrixEngine, Arc<CountingEnv>, u64) {
    let env = Arc::new(CountingEnv::default());
    let cfg = EngineConfig {
        buffer_pages: 2000,
        labeling: LabelingMode::Dynamic { alpha: 4 },
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
/// `cargo test`). Measured at 4.10 with segment format 3 (604 163 bytes
/// over 147 270 of XML); format 2 — 28-byte tag rows, records and meta
/// blob in raw `u32`s — measured 8.15 on the same documents
/// (1 200 933 bytes). The ceiling is 5 % above the reading.
const SPACE_PER_XML_BYTE_CEILING: f64 = 4.3;

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
        engine.pool().begin_ingest();
        let out = engine.ingest_batch(&batch).unwrap();
        assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
        engine.save().unwrap();
        engine.pool().publish_ingest();
    }
    let before = env.bytes();
    assert!(engine.compact().unwrap());
    assert_eq!(engine.valix().posting_counts(), (0, 0));
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
/// page file has allocated at the end.
fn feed_commits(batch_docs: usize) -> (Vec<u64>, u64) {
    let mut rng = TestRng::from_seed(0x5EED_0023);
    let cfg = EngineConfig {
        buffer_pages: 2000,
        labeling: LabelingMode::Dynamic { alpha: 4 },
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
        engine.pool().begin_ingest();
        let out = engine.ingest_batch(batch).unwrap();
        assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
        engine.save().unwrap();
        engine.pool().publish_ingest();
        logged.push(engine.pool().snapshot().since(&before).wal_appended_bytes);
    }
    (logged, engine.pool().pager().num_pages())
}

/// A commit logs what it added, whatever the delta already holds: the
/// per-document directory is a tree that a commit appends to, not a
/// list inside the metadata record that every commit rewrites. One
/// delta, 32 commits of 32 same-shaped documents: the second sixteen
/// log 1.09 × the first sixteen's bytes (1.12 MB against 1.03 MB; what
/// growth is left is the trees' — a batch's inserts land on more
/// leaves as the trees spread). While `save` listed 36 bytes for every
/// document of the delta the ratio was 1.43 (1.99 MB against 1.39 MB),
/// each commit logging ~2.3 KB (2 indexes × 36 bytes × 32 documents)
/// more than the one before. The bound is one-sided: later commits
/// share more trie paths and may log less. And the superseded
/// directories were never reclaimed: the page file had allocated 315
/// pages after the 32 commits against 143 for the same documents in
/// one commit; it is 117 against 116 now.
#[test]
fn commit_bytes_do_not_depend_on_the_delta_size() {
    let (logged, pages) = feed_commits(BATCH_DOCS);
    assert_eq!(logged.len() as u64, BATCHES);
    let (early, late): (u64, u64) = (logged[..16].iter().sum(), logged[16..].iter().sum());
    assert!(
        late as f64 <= 1.15 * early as f64,
        "commits 17-32 logged {late} bytes, commits 1-16 {early}"
    );
    let (_, pages_at_once) = feed_commits(BATCHES as usize * BATCH_DOCS);
    assert!(
        pages.abs_diff(pages_at_once) <= 16,
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
        labeling: LabelingMode::Dynamic { alpha: 4 },
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
    // Catalog bytes 24..32: the newest record of the names chain.
    let chain_head = |engine: &PrixEngine| {
        let head = |p: &[u8; PAGE_SIZE]| u64::from_le_bytes(p[24..32].try_into().unwrap());
        engine.pool().with_page(0, head).unwrap()
    };
    assert_eq!(chain_head(&engine), 0, "a fresh generation holds no name");

    let pool = Arc::clone(engine.pool());
    let io0 = pool.snapshot();
    let commit = |engine: &mut PrixEngine, batch: &[String]| {
        let before = pool.snapshot();
        pool.begin_ingest();
        let out = engine.ingest_batch(batch).unwrap();
        assert!(out.rejected.is_empty(), "{:?}", out.rejected.first());
        engine.save().unwrap();
        pool.publish_ingest();
        pool.snapshot().since(&before).wal_appended_bytes
    };
    let mut batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
    batch[0] = batch[0].replace("<src>", "<src>never-seen-");
    let interning = commit(&mut engine, &batch);
    assert_eq!(engine.symbols().len(), names + 1, "exactly one new name");
    let head = chain_head(&engine);
    assert_ne!(head, 0, "the commit appended its name");
    for _ in 1..BATCHES {
        let batch: Vec<String> = (0..BATCH_DOCS).map(|_| feed_doc(&mut rng)).collect();
        commit(&mut engine, &batch);
    }
    assert_eq!(
        engine.symbols().len(),
        names + 1,
        "the feed's names are old"
    );
    assert_eq!(chain_head(&engine), head, "no new name, no names record");
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
    assert_eq!(chain_head(&engine), 0);

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
/// a block: 35 378 bytes of log against 35 383, 332 845 bytes of
/// compaction against 332 848. (While a generation held the symbol
/// table as one record the interning commit logged 40 652 bytes over
/// the small dictionary and 236 605 over the large one, and the
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
