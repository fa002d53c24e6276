//! Set-up: generate the corpus, bulk-build it into immutable segments,
//! ingest the feed tail through the snapshot-isolated writer, shut
//! down, and reopen from the files. The database is
//! file-backed with the WAL on (five fsyncs per commit, the engine's
//! default), so every later phase reads segment tiers *and* the
//! pool-resident mutable delta.

use std::path::{Path, PathBuf};
use std::time::Instant;

use prix_core::{BulkBuilder, EngineConfig, LabelingMode, PrixEngine, SharedEngine};
use prix_storage::IoSnapshot;

use crate::data::{self, Corpus, FeedDoc, Scale};

/// Documents per ingest batch (one WAL group commit, one epoch publish).
pub const BATCH_DOCS: usize = 32;
/// The engine's default buffer pool (paper §6.1), 8 KiB pages.
pub const POOL_PAGES: usize = 2000;

/// What one set-up produced and what it cost.
pub struct Setup {
    pub corpus: Corpus,
    pub db: PathBuf,
    pub total_s: f64,
    pub bulk_s: f64,
    pub tail_s: f64,
    /// Pool counters over the tail ingest.
    pub tail_io: IoSnapshot,
    /// Bytes this process wrote to files during the set-up.
    pub written_bytes: u64,
}

pub fn engine_config(db: &Path) -> EngineConfig {
    EngineConfig {
        path: Some(db.to_path_buf()),
        // Dynamic labeling leaves the label-scope headroom later
        // ingests need; exact labeling rejects them all.
        labeling: LabelingMode::Dynamic { alpha: 4 },
        buffer_pages: POOL_PAGES,
        ..Default::default()
    }
}

/// Ingests `docs` in batches of [`BATCH_DOCS`]. A rejected document is
/// an error: the feed vocabulary is sized so that none is (see
/// `data::FEED_VALUES`).
fn ingest_batches(shared: &SharedEngine, docs: &[FeedDoc]) -> Result<(), String> {
    for chunk in docs.chunks(BATCH_DOCS) {
        let batch: Vec<String> = chunk.iter().map(|d| d.xml.clone()).collect();
        let report = shared.ingest(&batch).map_err(|e| format!("ingest: {e}"))?;
        if let Some((i, why)) = report.rejected.first() {
            return Err(format!("ingest rejected document {i}: {why}"));
        }
    }
    Ok(())
}

pub fn build(dir: &Path, seed: u64, scale: &Scale) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let db = dir.join("db.prix");
    let wchar0 = crate::sys::file_bytes_written()?;
    let t0 = Instant::now();
    let corpus = data::generate(seed, scale);

    let t_bulk = Instant::now();
    let mut builder = BulkBuilder::new(engine_config(&db)).map_err(|e| format!("bulk: {e}"))?;
    for d in &corpus.bulk {
        builder.add_xml(d).map_err(|e| format!("bulk add: {e}"))?;
    }
    let engine = builder.finish().map_err(|e| format!("bulk finish: {e}"))?;
    let bulk_s = t_bulk.elapsed().as_secs_f64();

    let t_tail = Instant::now();
    let shared = SharedEngine::new(engine);
    let pool = shared.pool();
    let io0 = pool.snapshot();
    ingest_batches(&shared, &corpus.tail)?;
    let tail_io = pool.snapshot().since(&io0);
    drop(pool);
    drop(shared);
    let tail_s = t_tail.elapsed().as_secs_f64();

    let engine = PrixEngine::reopen(&db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    if engine.segment_docs() != corpus.bulk.len() as u64
        || engine.mutable_docs() != corpus.tail.len()
    {
        return Err(format!(
            "reopened database holds {} + {} documents, set-up wrote {} + {}",
            engine.segment_docs(),
            engine.mutable_docs(),
            corpus.bulk.len(),
            corpus.tail.len()
        ));
    }
    drop(engine);
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        corpus,
        db,
        total_s,
        bulk_s,
        tail_s,
        tail_io,
        written_bytes: crate::sys::file_bytes_written()? - wchar0,
    })
}

/// Median wall time of `reps` reopen-from-files, in seconds.
pub fn time_reopen(db: &Path, reps: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        drop(engine);
    }
    Ok(crate::stats::median(&times))
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
