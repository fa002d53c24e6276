//! The PRIX engine's write side: build, reopen, insert, ingest, commit,
//! compact, verify.
//!
//! "In the PRIX system, both RPIndex and EPIndex can coexist." A
//! [`PrixEngine`] owns both, the segment tiers — each with the value
//! run of its documents — and the buffer pool the delta lives in. It
//! answers no queries itself: every read goes through an
//! [`EngineSnapshot`] (see
//! [`PrixEngine::snapshot`] and [`crate::snapshot::SharedEngine`]),
//! which carries the §5.6 optimizer rule and the §5.7 arrangement loop.
//!
//! Every engine has one shape. A database is a manifest, immutable
//! tiers and one batch log (`prix_storage::wal`) — in files, or in an
//! in-memory environment for an engine without a path: the tiers hold
//! what a bulk build or a compaction wrote, the log the batches the
//! live generation accepted since, as they arrived. The mutable delta —
//! both indexes' label paths and the records ([`Delta`]) — lives in
//! memory, its records in a buffer pool, always starts empty, and is
//! rebuilt on reopen by replaying the log through the same ingest calls
//! that built it. It keeps no value postings: a predicate query
//! verifies each of its documents, and a compaction writes their value
//! run from the records (`crate::segbuild::TierBuilder`, the bulk
//! build's tier writer too).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use prix_storage::segment::{put_varint, take_varint};
use prix_storage::{
    BatchLog, BatchMode, BlockCache, BufferPool, FileSegEnv, IoStats, Manifest, ManifestSegment,
    MemSegEnv, Pager, RecoveryReport, SegmentCheck, SegmentEnv, SegmentReader, SymbolRun,
    ValueRunReader, VxCheck, CHECKPOINT_LOG_BYTES, SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_SYM,
    SEG_KIND_VX,
};
use prix_xml::{Collection, Sym, SymbolTable};

use crate::delta::Delta;
use crate::index::{IndexError, IndexKind, PrixIndex, Result};
use crate::snapshot::EngineSnapshot;

/// The label of the dummy child extended sequences give every leaf; no
/// document can spell it.
pub(crate) const DUMMY_LABEL: &str = "\u{1}prix-dummy";

/// The type of the ignored [`EngineConfig::labeling`] field, and
/// nothing else: every tier, and every view of the delta, is labeled
/// exactly by the segments' streaming trie.
/// It stays only because the benchmark harness
/// (`crates/bench/examples/prixbench`) names both variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelingMode {
    /// A DFS numbering of the whole trie (§5.2.1's exact labels).
    Exact,
    /// §5.2.1's α-prefix pre-allocation; nothing implements it.
    Dynamic {
        /// Prefix depth that would receive pre-allocated ranges.
        alpha: usize,
    },
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool capacity in pages (paper default: 2000, §6.1).
    pub buffer_pages: usize,
    /// Ignored: every engine is bulk-built, its tiers labeled exactly
    /// and its delta begun empty. The field stays only because the
    /// benchmark harness (`crates/bench/examples/prixbench`) sets it.
    pub labeling: LabelingMode,
    /// Database path; `None` = in memory.
    pub path: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_pages: 2000,
            labeling: LabelingMode::Exact,
            path: None,
        }
    }
}

/// The file of generation `generation`'s batch log.
fn log_suffix(generation: u64) -> String {
    format!(".g{generation}.log")
}

/// The one encoder of a name list — a symbol run's payload: the count,
/// then `len | utf8` per name, counts and lengths as varints.
pub(crate) fn encode_symbols(names: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(names.iter().map(|n| n.len() + 2).sum());
    put_varint(&mut out, names.len() as u64);
    for name in names {
        put_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    out
}

/// The one decoder of a name list: appends its names to `syms` as the
/// symbols from id `first` on. `None` — with `syms` no longer to be
/// used — unless `syms` ends at `first`, the list is exactly `count`
/// names of UTF-8 with nothing after them, and every one of them is new
/// to the table (interning is idempotent: a repeated name would leave
/// every later symbol one id short, and queries answering from the
/// wrong labels). A checksum vouches for the bytes as last written, not
/// for their shape.
pub(crate) fn decode_symbols(bytes: &[u8], first: u32, syms: &mut SymbolTable) -> Option<()> {
    let mut r = bytes;
    let count = take_varint(&mut r)?;
    // A name takes a byte or more: a count the bytes could not hold is
    // refused before anything is done that many times.
    if syms.len() != first as usize || count > r.len() as u64 {
        return None;
    }
    for _ in 0..count {
        let len = usize::try_from(take_varint(&mut r)?).ok()?;
        let name = r.get(..len)?;
        syms.intern(std::str::from_utf8(name).ok()?);
        r = &r[len..];
    }
    (r.is_empty() && syms.len() as u64 == u64::from(first) + count).then_some(())
}

/// Writes the names of `symbols` that `rows`' symbol runs do not cover —
/// and only them — as the symbol run of `generation`, synced, and lists
/// it in `rows`. No such names: no file, no row.
pub(crate) fn write_symbol_run(
    env: &dyn SegmentEnv,
    symbols: &SymbolTable,
    generation: u64,
    rows: &mut Vec<ManifestSegment>,
) -> Result<()> {
    let runs = rows.iter().filter(|s| s.kind == SEG_KIND_SYM);
    let first: usize = runs.map(|s| s.n_docs as usize).sum();
    let names = symbols.names_from(first);
    let suffix = format!(".g{generation}.sym");
    if names.is_empty() {
        // What a compaction that died before its manifest write left.
        return Ok(env.remove(&suffix)?);
    }
    let run = SymbolRun {
        first: first as u32,
        count: names.len() as u32,
        names: encode_symbols(names),
    };
    run.write(env.create(&suffix)?)?;
    rows.push(ManifestSegment {
        kind: SEG_KIND_SYM,
        suffix,
        doc_base: run.first,
        n_docs: run.count,
    });
    Ok(())
}

/// Writes `m` into the manifest store (suffix `".seg"`) of `env`,
/// creating it on first use. The write itself is atomic at the slot
/// level (two alternating CRC-framed slots; a torn write leaves the
/// previous generation valid), so this call is the commit point of
/// every bulk build and compaction.
fn write_manifest(env: &dyn SegmentEnv, m: &Manifest) -> Result<()> {
    let store = if env.exists(".seg")? {
        env.open(".seg")?
    } else {
        env.create(".seg")?
    };
    m.write_to(&*store).map_err(IndexError::Storage)?;
    Ok(())
}

/// The refusal of what is at `suffix` when no manifest names a log: a
/// database an older build wrote keeps its delta in a page file whose
/// first page names a catalog version; anything else is not a database.
fn refuse_unlogged(env: &dyn SegmentEnv, suffix: &str) -> Result<IndexError> {
    let what = if suffix.is_empty() {
        "the database file".to_string()
    } else {
        format!("'{suffix}'")
    };
    if !env.exists(suffix)? {
        return Ok(IndexError::Unsupported(format!(
            "not a PRIX database: {what} does not exist and no manifest names a batch log"
        )));
    }
    let store = env.open(suffix)?;
    let mut head = [0u8; 8];
    if store.len()? >= 8 {
        store.read_at(0, &mut head)?;
    }
    Ok(IndexError::Unsupported(if &head[..4] == b"PRIX" {
        let version = u32::from_le_bytes(head[4..].try_into().unwrap());
        format!(
            "unsupported PRIX database: {what} is a page file with a catalog of version \
             {version}, written by an older build (this build reads manifests, tiers and a \
             batch log); re-index the source documents"
        )
    } else {
        format!("not a PRIX database: {what} has no manifest and is not a page file")
    }))
}

/// One immutable segment tier: the RP/EP segment pair — the EP file
/// holding the tier's records, which both indexes read — and the value
/// run covering global document ids `[doc_base, doc_base + n_docs)`.
/// Queries descend every tier and the mutable delta; tiers never change
/// after publication, so snapshots clone them for free (the indexes
/// inside are segment-backed and internally shared, the run and the
/// cache are behind an `Arc`). The three files read through one
/// [`BlockCache`] of 192 blocks.
#[derive(Clone)]
pub struct SegTier {
    pub(crate) rp: PrixIndex,
    pub(crate) ep: PrixIndex,
    pub(crate) vx: Arc<ValueRunReader>,
    pub(crate) cache: Arc<BlockCache>,
    pub(crate) doc_base: u32,
    pub(crate) n_docs: u32,
}

impl SegTier {
    /// The tier's index of `kind`.
    pub fn index_of(&self, kind: IndexKind) -> &PrixIndex {
        match kind {
            IndexKind::Regular => &self.rp,
            IndexKind::Extended => &self.ep,
        }
    }
}

/// What the full integrity check of one tier file covered
/// ([`PrixEngine::verify_tiers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierCheck {
    /// An RP or EP segment.
    Segment(SegmentCheck),
    /// A value run.
    ValueRun(VxCheck),
    /// A symbol run: how many names it holds, each checked against the
    /// dictionary in memory.
    SymbolRun(u32),
}

/// An indexed XML database: its symbol table, its tiers, its delta, and
/// the buffer pool the delta's records live in. The document trees are
/// not kept: everything query processing needs is in the indexes.
pub struct PrixEngine {
    /// Every label the indexed documents (and the dummy) use, ids dense
    /// in interning order. On disk it is tiered like the indexes: the
    /// manifest's symbol runs in order, then the names the log's
    /// batches intern again when they are replayed.
    symbols: SymbolTable,
    pool: Arc<BufferPool>,
    delta: Delta,
    dummy: Sym,
    /// The live generation's batch log.
    log: BatchLog,
    /// The bodies ingested since the last commit — accepted or refused:
    /// a refused document interned its names too — which the next
    /// [`PrixEngine::save`] appends to the log as one record.
    pending: Vec<(BatchMode, String)>,
    /// What replaying the log did when this engine was reopened;
    /// `None` for engines built or compacted in this process.
    recovery: Option<RecoveryReport>,
    /// Immutable segment tiers in ascending `doc_base` order.
    segments: Vec<SegTier>,
    /// The manifest rows behind `segments`, kept verbatim for
    /// compaction (which appends to them) and `prix segments`.
    manifest_segments: Vec<ManifestSegment>,
    /// Where the manifest, tier and log files live. File engines
    /// resolve suffixes against the database path; in-memory engines
    /// use an in-memory map, harness engines a fault-injecting one.
    seg_env: Arc<dyn SegmentEnv>,
    /// The I/O counters of the engine's whole life: every pool (through
    /// its pager), batch log and tier reader it opens counts into them,
    /// so a compaction's fresh pool continues them.
    io: Arc<IoStats>,
    /// Manifest generation: 1 for a fresh build, one more per
    /// compaction.
    generation: u64,
}

impl PrixEngine {
    /// Builds the engine over `collection` by the bulk build
    /// ([`crate::BulkBuilder`]), keeping its symbol table and none of
    /// its trees: one tier of the documents, an empty delta, a fresh
    /// batch log and the manifest naming them — files at
    /// [`EngineConfig::path`], or an in-memory environment without one.
    pub fn build(collection: Collection, cfg: EngineConfig) -> Result<Self> {
        let env: Arc<dyn SegmentEnv> = match &cfg.path {
            Some(p) => Arc::new(FileSegEnv::new(p.clone())),
            None => Arc::new(MemSegEnv::new()),
        };
        Self::build_env(collection, cfg, env)
    }

    /// [`PrixEngine::build`] with the database's files living in `env`
    /// instead of at [`EngineConfig::path`] (which is ignored). The
    /// crash harness hands fault-injecting environments in here and
    /// reopens what survived through [`PrixEngine::reopen_env`].
    pub fn build_env(
        mut collection: Collection,
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
    ) -> Result<Self> {
        let syms = std::mem::take(collection.symbols_mut());
        let run_mem = crate::segbuild::DEFAULT_RUN_MEM_BYTES;
        let mut b = crate::segbuild::BulkBuilder::over(cfg, env, run_mem, syms)?;
        for (_, tree) in collection.iter() {
            b.add_tree(tree)?;
        }
        b.finish()
    }

    /// The engine of manifest `m`, whose files `seg_env` holds and
    /// whose names are `symbols`: its tiers, `log` as its batch log,
    /// and an empty delta in `pool` — a bulk build's, or a reopen's
    /// before its replay. The counters of `pool`'s pager become the
    /// engine's for its whole life.
    fn empty(
        dummy: Sym,
        symbols: SymbolTable,
        pool: Arc<BufferPool>,
        seg_env: Arc<dyn SegmentEnv>,
        log: BatchLog,
        m: &Manifest,
    ) -> Result<Self> {
        let mut eng = PrixEngine {
            symbols,
            io: pool.pager().stats(),
            delta: Delta::new(Arc::clone(&pool), dummy)?,
            pool,
            dummy,
            log,
            pending: Vec::new(),
            recovery: None,
            segments: Vec::new(),
            manifest_segments: Vec::new(),
            seg_env,
            generation: m.generation,
        };
        eng.attach_manifest(m)?;
        Ok(eng)
    }

    /// The labels of every indexed document (what queries parse
    /// against).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The shared buffer pool (for cold-cache benchmarking).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The dummy label used for extended sequences.
    pub fn dummy(&self) -> Sym {
        self.dummy
    }

    /// The mutable tier: [`Delta::index`] takes a view of either of its
    /// indexes.
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// A read view of the engine as it stands now, at
    /// [`PrixEngine::epoch`]: the one way to parse, explain and run
    /// queries against a bare engine. The view holds the tiers and as
    /// many of the delta's documents as it has now, so it answers as of
    /// then across later inserts and compactions.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::capture(self, None)
    }

    /// Empties the buffer pool's LRU and every tier's block cache (the
    /// one its RP, EP and value-run files share) so the next query
    /// measures cold-cache I/O, like the paper's direct-I/O setup.
    pub fn clear_cache(&self) -> Result<()> {
        for t in &self.segments {
            t.cache.clear();
        }
        self.pool.clear().map_err(IndexError::Storage)
    }

    /// Commits what was ingested since the last commit: the bodies, as
    /// received, become one record of the batch log — one append, one
    /// `fsync` — which establishes the next epoch. A crash before the
    /// `fsync` returns loses the batch whole, one after it replays it
    /// whole. Nothing ingested, nothing written.
    pub fn save(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.log.append(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    /// The live generation's batch log.
    pub fn log(&self) -> &BatchLog {
        &self.log
    }

    /// Whether the log has reached `CHECKPOINT_LOG_BYTES`: the writer
    /// then compacts, which starts a fresh log and bounds what a reopen
    /// replays.
    pub fn log_full(&self) -> bool {
        self.log.len() >= CHECKPOINT_LOG_BYTES
    }

    /// Reopens the database at `path`: its manifest, its tiers, and the
    /// delta rebuilt by replaying its batch log (see
    /// [`PrixEngine::recovery`]).
    pub fn reopen<P: AsRef<Path>>(path: P, buffer_pages: usize) -> Result<Self> {
        let env: Arc<dyn SegmentEnv> = Arc::new(FileSegEnv::new(path.as_ref().to_path_buf()));
        Self::reopen_env(env, buffer_pages)
    }

    /// [`PrixEngine::reopen`] over a segment environment (the crash
    /// harness hands fault-injecting ones in here). The manifest names
    /// the tiers and the log; the tiers' symbol runs give the
    /// dictionary, the log's header the epoch the generation began at,
    /// and its records — every commit of its valid prefix, in order —
    /// are replayed into an empty delta through the ingest calls that
    /// accepted them. Replay is deterministic: the same documents are
    /// refused, the same names interned in the same order, the same ids
    /// assigned. A torn tail is left where it is until the next commit
    /// cuts it off.
    pub fn reopen_env(env: Arc<dyn SegmentEnv>, buffer_pages: usize) -> Result<Self> {
        let manifest = if env.exists(".seg")? {
            Manifest::read_from(&*env.open(".seg")?)?
        } else {
            None
        };
        let m = match manifest {
            Some(m) if m.log_suffix == log_suffix(m.generation) => m,
            Some(m) => return Err(refuse_unlogged(&*env, &m.log_suffix)?),
            None => return Err(refuse_unlogged(&*env, "")?),
        };
        let symbols = Self::read_symbol_runs(&*env, m.generation, &m.segments)?;
        let dummy = symbols.lookup(DUMMY_LABEL).ok_or_else(|| {
            IndexError::Unsupported("corrupt symbol table; re-index the source documents".into())
        })?;
        if !env.exists(&m.log_suffix)? {
            return Err(IndexError::Unsupported(format!(
                "manifest generation {} names the batch log '{}', which is missing; \
                 re-index the source documents",
                m.generation, m.log_suffix
            )));
        }
        let store = env.open(&m.log_suffix)?;
        let contents = BatchLog::read(&*store)?;
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), buffer_pages));
        let log = BatchLog::resume(store, &contents, pool.pager().stats());
        let mut eng = Self::empty(dummy, symbols, pool, env, log, &m)?;
        for (lsn, record) in (1..).zip(&contents.records) {
            for (mode, body) in &record.bodies {
                eng.index_body(*mode, body).map_err(|e| {
                    IndexError::Unsupported(format!("replaying batch log record {lsn}: {e}"))
                })?;
            }
        }
        // A reopened engine starts cold, as one over files did: none of
        // the replay's pages is in the LRU.
        eng.pool.clear()?;
        eng.recovery = Some(RecoveryReport {
            unclean_shutdown: contents.file_len > contents.valid_len,
            replayed_frames: contents.records.len() as u64,
            replayed_documents: eng.delta.doc_count() as u64,
            wal_bytes: contents.valid_len,
            log_len: contents.file_len,
        });
        Ok(eng)
    }

    /// The first walk over the rows of manifest `generation`: every row
    /// of a kind this build knows, every file there, and the names the
    /// tiers interned — the symbol runs, in manifest order, each the
    /// file its row describes and starting at the id the one before
    /// ended on.
    fn read_symbol_runs(
        env: &dyn SegmentEnv,
        generation: u64,
        rows: &[ManifestSegment],
    ) -> Result<SymbolTable> {
        let mut symbols = SymbolTable::new();
        for s in rows {
            if ![SEG_KIND_RP, SEG_KIND_EP, SEG_KIND_VX, SEG_KIND_SYM].contains(&s.kind) {
                return Err(IndexError::Unsupported(format!(
                    "manifest generation {generation} lists segment '{}' of unknown kind {}",
                    s.suffix, s.kind
                )));
            }
            if !env.exists(&s.suffix)? {
                return Err(IndexError::Unsupported(format!(
                    "manifest generation {generation} references missing segment file '{}'",
                    s.suffix
                )));
            }
            if s.kind != SEG_KIND_SYM {
                continue;
            }
            let run = SymbolRun::read(&*env.open(&s.suffix)?)?;
            if (run.first, run.count) != (s.doc_base, s.n_docs)
                || decode_symbols(&run.names, run.first, &mut symbols).is_none()
                || symbols.len() != run.first as usize + run.count as usize
            {
                return Err(IndexError::Unsupported(format!(
                    "corrupt symbol table: run '{}' is not the names its manifest row lists",
                    s.suffix
                )));
            }
        }
        Ok(symbols)
    }

    /// What replaying the log did when this engine was reopened: `None`
    /// for engines built or compacted in this process.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Opens every segment and value run the manifest lists and installs
    /// them as this engine's immutable tiers, placing the (empty)
    /// mutable indexes where the tiers end. (Its symbol runs are in the
    /// table already, its kinds known and its files there:
    /// [`PrixEngine::reopen_env`] walked its rows before anything else,
    /// or they were written a moment ago.) A header that disagrees with
    /// its manifest row, a tier without one of its three files (a
    /// database compacted before value runs existed has none) or a
    /// non-contiguous tier layout is a hard error — serving a
    /// database with silently absent documents would be worse than
    /// refusing. The files of one doc base open into one fresh
    /// [`BlockCache`], the tier's.
    fn attach_manifest(&mut self, m: &Manifest) -> Result<()> {
        // Per kind: doc base -> (n_docs, reader); per doc base its cache.
        let mut rps = std::collections::BTreeMap::new();
        let mut eps = std::collections::BTreeMap::new();
        let mut vxs = std::collections::BTreeMap::new();
        let mut caches = std::collections::BTreeMap::new();
        let conflict = |doc_base: u32| {
            IndexError::Unsupported(format!(
                "manifest generation {} lists conflicting segments at doc base {doc_base}",
                m.generation
            ))
        };
        for s in m.segments.iter().filter(|s| s.kind != SEG_KIND_SYM) {
            let store = self.seg_env.open(&s.suffix)?;
            let stats = Arc::clone(&self.io);
            let cache: &Arc<BlockCache> = caches
                .entry(s.doc_base)
                .or_insert_with(BlockCache::for_tier);
            // What the file's own header says it is must be what the
            // row says: one comparison, whichever reader opened it.
            let check_row = |found: (u8, u32, u32)| {
                if found == (s.kind, s.doc_base, s.n_docs) {
                    return Ok(());
                }
                Err(IndexError::Unsupported(format!(
                    "segment '{}' header disagrees with its manifest row",
                    s.suffix
                )))
            };
            let fresh = if s.kind == SEG_KIND_VX {
                let run =
                    ValueRunReader::open_in(store, stats, cache).map_err(IndexError::Storage)?;
                check_row((SEG_KIND_VX, run.doc_base(), run.n_docs()))?;
                vxs.insert(s.doc_base, (s.n_docs, Arc::new(run))).is_none()
            } else {
                let reader = SegmentReader::open_in(store, stats, cache);
                let reader = Arc::new(reader.map_err(IndexError::Storage)?);
                check_row((reader.kind(), reader.doc_base(), reader.n_docs()))?;
                let slot = if s.kind == SEG_KIND_RP {
                    &mut rps
                } else {
                    &mut eps
                };
                slot.insert(s.doc_base, (s.n_docs, reader)).is_none()
            };
            if !fresh {
                return Err(conflict(s.doc_base));
            }
        }
        let lacks = |what: &str, doc_base: u32| {
            IndexError::Unsupported(format!(
                "manifest generation {} has no {what} for the tier at doc base \
                 {doc_base}; re-index the source documents",
                m.generation
            ))
        };
        let mut tiers: Vec<SegTier> = Vec::with_capacity(rps.len());
        let mut next = 0u32;
        for (doc_base, (n_docs, rp)) in rps {
            let records = match eps.remove(&doc_base) {
                Some((n, ep)) if n == n_docs => ep,
                Some(_) => return Err(conflict(doc_base)),
                None => return Err(lacks("EP segment", doc_base)),
            };
            let vx = match vxs.remove(&doc_base) {
                Some((n, vx)) if n == n_docs => vx,
                Some(_) => return Err(conflict(doc_base)),
                None => return Err(lacks("value run", doc_base)),
            };
            if doc_base != next {
                return Err(IndexError::Unsupported(
                    "segment tiers are not contiguous".into(),
                ));
            }
            next += n_docs;
            tiers.push(SegTier {
                rp: PrixIndex::from_segment(rp, Arc::clone(&records))?,
                ep: PrixIndex::from_segment(Arc::clone(&records), records)?,
                vx,
                cache: caches.remove(&doc_base).expect("opened with its files"),
                doc_base,
                n_docs,
            });
        }
        if let Some(&doc_base) = eps.keys().chain(vxs.keys()).next() {
            return Err(lacks("RP segment", doc_base));
        }
        // Every build and compaction writes at least one tier.
        if tiers.is_empty() {
            return Err(IndexError::Unsupported(format!(
                "manifest generation {} lists no tier; re-index the source documents",
                m.generation
            )));
        }
        // The tiers partition `[0, next)`; the delta covers the rest.
        self.segments = tiers;
        self.manifest_segments = m.segments.clone();
        self.generation = m.generation;
        self.delta.set_doc_base(next);
        Ok(())
    }

    /// The log of manifest generation `generation`, counting into `io`:
    /// created (and synced) empty in `env` at `epoch`.
    fn start_log(
        env: &dyn SegmentEnv,
        generation: u64,
        epoch: u64,
        io: &Arc<IoStats>,
    ) -> Result<BatchLog> {
        let store = env.create(&log_suffix(generation))?;
        Ok(BatchLog::create(store, epoch, Arc::clone(io))?)
    }

    /// Assembles the engine a finished bulk build publishes: an empty
    /// delta and the just-written segments, value run and symbol run
    /// (every name of `syms`), with a fresh batch log, committed by one
    /// manifest write. Crash-ordering contract (the bulk crash suite
    /// pins it): the tier files are fully written and synced *before*
    /// this runs, the log's header is synced next, and the manifest
    /// write is last — a crash anywhere earlier leaves the previous
    /// manifest (or no database at all) in charge.
    pub(crate) fn from_bulk(
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
        syms: SymbolTable,
        dummy: Sym,
        generation: u64,
        segments: Vec<ManifestSegment>,
    ) -> Result<Self> {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), cfg.buffer_pages));
        let log = Self::start_log(&*env, generation, 1, &pool.pager().stats())?;
        let manifest = Manifest {
            generation,
            log_suffix: log_suffix(generation),
            segments,
        };
        write_manifest(&*env, &manifest)?;
        Self::empty(dummy, syms, pool, env, log, &manifest)
    }

    /// Folds the mutable delta into a new immutable tier — a segment per
    /// index kind, the value run of the same documents and, when no
    /// symbol run holds them yet, the names they brought — and swaps in
    /// a fresh, empty delta with a fresh log. What it writes is
    /// proportional to the delta, not to the collection or its
    /// dictionary. Returns `false` (and does nothing) when the delta is
    /// empty. Documents ingested and not yet committed are folded in
    /// with the rest: the new tier makes them durable.
    ///
    /// Publish protocol, in order: (1) build and sync the new tier's
    /// files under the next generation's names — the live generation is
    /// untouched; (2) build the next delta, empty, in a fresh pool of
    /// the same capacity that counts into the engine's counters, and
    /// create and sync its log, which starts one epoch past the old
    /// one's — epoch-keyed caches and snapshots stay monotone; (3)
    /// write the manifest — the single commit point; (4) swap the
    /// in-memory state and unlink the old log and the files of tiers
    /// without documents (a build over an empty collection has one,
    /// and the new tier starts at its doc base). Views of the old delta
    /// keep reading it and its pool: they live as long as the views do.
    pub fn compact(&mut self) -> Result<bool> {
        self.compact_with(crate::segbuild::DEFAULT_RUN_MEM_BYTES)
    }

    /// [`PrixEngine::compact`] with an explicit sort-run budget.
    pub fn compact_with(&mut self, run_mem_bytes: usize) -> Result<bool> {
        let n = self.delta.doc_count();
        let doc_base = self.delta.doc_base();
        if n == 0 {
            return Ok(false);
        }
        let generation = self.generation + 1;
        // (1) The delta's documents go to the bulk path's tier writer as
        // their stored records, which are what the bulk path's encoder
        // makes of a document, so the tier's files come out identical to
        // a bulk build's. A tier without documents is not carried over;
        // symbol runs always are.
        let (mut manifest_segments, empty): (Vec<_>, Vec<_>) = self
            .manifest_segments
            .iter()
            .cloned()
            .partition(|s| s.kind == SEG_KIND_SYM || s.n_docs > 0);
        let mut tier = crate::segbuild::TierBuilder::new(
            &self.seg_env,
            generation,
            self.dummy,
            doc_base,
            run_mem_bytes,
        )?;
        for local in 0..n {
            tier.add_record(&self.delta.record(local)?, &self.symbols)?;
        }
        manifest_segments.extend(tier.finish()?);
        // The names no symbol run holds yet: the ones the log's batches
        // interned, refused documents' included.
        write_symbol_run(
            &*self.seg_env,
            &self.symbols,
            generation,
            &mut manifest_segments,
        )?;
        // (2) The replacement delta, empty, in a fresh pool; and its
        // log.
        let pager = Pager::with_stats(Arc::clone(&self.io));
        let pool = Arc::new(BufferPool::new(pager, self.pool.capacity()));
        let delta = Delta::new(Arc::clone(&pool), self.dummy)?;
        let epoch = self.log.epoch() + 1;
        let log = Self::start_log(&*self.seg_env, generation, epoch, &self.io)?;
        // (3) Commit.
        let manifest = Manifest {
            generation,
            log_suffix: log_suffix(generation),
            segments: manifest_segments,
        };
        write_manifest(&*self.seg_env, &manifest)?;
        // (4) Publish in memory and retire the old log.
        let old_log = log_suffix(self.generation);
        self.log = log;
        self.pool = pool;
        self.delta = delta;
        self.pending.clear();
        self.recovery = None;
        self.attach_manifest(&manifest)?;
        for suffix in empty.iter().map(|s| &s.suffix).chain([&old_log]) {
            let _ = self.seg_env.remove(suffix);
        }
        Ok(true)
    }

    /// The segment environment (bulk builds retire superseded
    /// generations through it).
    pub(crate) fn seg_env(&self) -> &Arc<dyn SegmentEnv> {
        &self.seg_env
    }

    /// The immutable tiers in ascending document order (what a snapshot
    /// captures, and whose value runs [`crate::PredEval::build`]
    /// probes).
    pub fn seg_tiers(&self) -> &[SegTier] {
        &self.segments
    }

    /// Manifest generation of this database: 1 after a build, one
    /// more per compaction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The manifest rows describing every live segment file
    /// (`prix segments`).
    pub fn segment_manifest(&self) -> &[ManifestSegment] {
        &self.manifest_segments
    }

    /// Documents living in immutable segments.
    pub fn segment_docs(&self) -> u64 {
        self.segments.iter().map(|t| u64::from(t.n_docs)).sum()
    }

    /// Documents living in the mutable delta (what the next
    /// [`PrixEngine::compact`] would fold).
    pub fn mutable_docs(&self) -> usize {
        self.delta.doc_count()
    }

    /// The loaded tier manifest row `s` belongs to.
    fn tier_of(&self, s: &ManifestSegment) -> Result<&SegTier> {
        self.segments
            .iter()
            .find(|t| t.doc_base == s.doc_base)
            .ok_or_else(|| IndexError::Unsupported("manifest row without a loaded tier".into()))
    }

    /// The tier index behind manifest row `s` (an RP or EP row): its
    /// `build_stats()` are what the segment's meta blob recorded
    /// (`prix stats`).
    pub fn segment_index(&self, s: &ManifestSegment) -> Result<&PrixIndex> {
        let t = self.tier_of(s)?;
        Ok(if s.kind == SEG_KIND_RP { &t.rp } else { &t.ep })
    }

    /// The open reader behind manifest row `s` (an RP or EP row;
    /// `prix segments`).
    pub fn segment_reader(&self, s: &ManifestSegment) -> Result<&SegmentReader> {
        let reader = self.segment_index(s)?.segment();
        reader
            .map(|r| &**r)
            .ok_or_else(|| IndexError::Unsupported("manifest row without a loaded tier".into()))
    }

    /// The open value run behind manifest row `s` (a VX row).
    pub fn value_run(&self, s: &ManifestSegment) -> Result<&ValueRunReader> {
        Ok(&self.tier_of(s)?.vx)
    }

    /// Verifies every file of every tier, in manifest order. A segment:
    /// per-block checksums, the record index, the sorted-order invariant
    /// of both entry sections against the resident fences, the padding.
    /// A value run: block checksums, strict posting order, every
    /// posting's document inside its tier, counts, padding. The symbol
    /// runs: read again the way a reopen reads them (block checksums,
    /// header against row, each starting where the one before ended,
    /// no name twice), they must spell the head of the table in memory.
    /// Returns one report per manifest row.
    pub fn verify_tiers(&self) -> Result<Vec<(String, TierCheck)>> {
        let rows = &self.manifest_segments;
        let tiered = Self::read_symbol_runs(&*self.seg_env, self.generation, rows)?;
        if !tiered.iter().eq(self.symbols.iter().take(tiered.len())) {
            return Err(IndexError::Unsupported(format!(
                "the symbol runs are not the first {} names of the dictionary",
                tiered.len()
            )));
        }
        rows.iter()
            .map(|s| {
                let check = match s.kind {
                    SEG_KIND_SYM => Ok(TierCheck::SymbolRun(s.n_docs)),
                    SEG_KIND_VX => self.value_run(s)?.verify().map(TierCheck::ValueRun),
                    _ => self.segment_reader(s)?.verify().map(TierCheck::Segment),
                };
                Ok((s.suffix.clone(), check.map_err(IndexError::Storage)?))
            })
            .collect()
    }

    /// `(suffix, bytes)` of every file this database consists of right
    /// now: the manifest, the live batch log, and every segment, value
    /// run and symbol run the manifest lists (`prix stats`).
    pub fn file_sizes(&self) -> Result<Vec<(String, u64)>> {
        let mut suffixes = vec![".seg".to_string(), log_suffix(self.generation)];
        suffixes.extend(self.manifest_segments.iter().map(|s| s.suffix.clone()));
        let mut sizes = Vec::with_capacity(suffixes.len());
        for suffix in suffixes {
            let len = self.seg_env.open(&suffix)?.len()?;
            sizes.push((suffix, len));
        }
        Ok(sizes)
    }

    /// Parses `xml` and adds it to the delta ([`Delta::insert`]), to be
    /// logged by the next [`PrixEngine::save`]. A document that does not
    /// parse is refused with [`IndexError::Unsupported`]; no other is.
    pub fn insert_document(&mut self, xml: &str) -> Result<prix_xml::DocId> {
        self.log_body(BatchMode::Doc, xml);
        let tree = self.parse(xml).map_err(IndexError::Unsupported)?;
        self.delta.insert(&tree)
    }

    /// Queues `body` for the next commit's record.
    fn log_body(&mut self, mode: BatchMode, body: &str) {
        self.pending.push((mode, body.to_string()));
    }

    /// What replay does with one logged body: what the call that logged
    /// it did, without logging it again.
    fn index_body(&mut self, mode: BatchMode, body: &str) -> Result<IngestOutcome> {
        match mode {
            BatchMode::Doc => self.insert_each([body], Self::parse),
            BatchMode::Split => self.index_split(body),
        }
    }

    /// Parses one document into the engine's symbol table, or says why
    /// it does not parse.
    fn parse(&mut self, xml: &str) -> std::result::Result<prix_xml::XmlTree, String> {
        prix_xml::parse_document(xml, &mut self.symbols).map_err(|e| format!("parse error: {e}"))
    }

    /// The last committed epoch — the batch log's, the one clock: what
    /// a reopen would come back at, what a view taken now reports, and
    /// what the next publish makes visible.
    pub fn epoch(&self) -> u64 {
        self.log.epoch()
    }

    /// Batch ingest through the snapshot-isolation write path: every
    /// document that parses is inserted into the delta. Nothing is
    /// committed: the caller looks at the outcome and then makes **one**
    /// [`PrixEngine::save`] for the batch (one log record, one `fsync`,
    /// one epoch) — or, when it wants all of `docs` or none (`prix
    /// add`), drops the engine unsaved, which commits nothing.
    ///
    /// Documents that do not parse are reported per-document and never
    /// touch the delta — but they are logged with the batch: parsing
    /// interned their names, and replay must intern them again. Any
    /// error inserting a parsed document aborts the whole batch and is
    /// returned as `Err` — the caller must treat the engine as broken
    /// (see [`crate::snapshot::SharedEngine`], which poisons itself).
    /// Views taken before the call see none of it.
    pub fn ingest_batch(&mut self, docs: &[String]) -> Result<IngestOutcome> {
        for doc in docs {
            self.log_body(BatchMode::Doc, doc);
        }
        self.insert_each(docs.iter().map(String::as_str), Self::parse)
    }

    /// [`PrixEngine::ingest_batch`] over a *wrapper* document: the
    /// body's root element is discarded and each of its element
    /// children becomes one indexed document (the same convention as
    /// `Collection::add_xml_split` — how a monolithic DBLP-style
    /// export turns into one sequence per record). A malformed wrapper
    /// is a clean whole-batch rejection, not an error.
    pub fn ingest_batch_split(&mut self, wrapper: &str) -> Result<IngestOutcome> {
        self.log_body(BatchMode::Split, wrapper);
        self.index_split(wrapper)
    }

    fn index_split(&mut self, wrapper: &str) -> Result<IngestOutcome> {
        let reject = |reason: String| IngestOutcome {
            accepted: Vec::new(),
            rejected: vec![(0, reason)],
        };
        let tree = match prix_xml::parse_document(wrapper, &mut self.symbols) {
            Ok(t) => t,
            Err(e) => return Ok(reject(format!("parse error: {e}"))),
        };
        let subtrees: Vec<prix_xml::XmlTree> = tree.element_children().collect();
        if subtrees.is_empty() {
            return Ok(reject("wrapper has no element children to ingest".into()));
        }
        self.insert_each(subtrees, |_, tree| Ok(tree))
    }

    /// The one accept/reject loop: `parse` refuses a document cleanly
    /// with its reason; every tree it makes is inserted, and a failed
    /// insert aborts.
    fn insert_each<T>(
        &mut self,
        docs: impl IntoIterator<Item = T>,
        mut parse: impl FnMut(&mut Self, T) -> std::result::Result<prix_xml::XmlTree, String>,
    ) -> Result<IngestOutcome> {
        let mut accepted: Vec<prix_xml::DocId> = Vec::new();
        let mut rejected: Vec<(usize, String)> = Vec::new();
        for (i, doc) in docs.into_iter().enumerate() {
            match parse(self, doc) {
                Ok(tree) => accepted.push(self.delta.insert(&tree)?),
                Err(why) => rejected.push((i, why)),
            }
        }
        Ok(IngestOutcome { accepted, rejected })
    }
}

/// What [`PrixEngine::ingest_batch`] did, before the caller's save and
/// epoch publication.
pub struct IngestOutcome {
    /// Ids assigned to accepted documents, in input order.
    pub accepted: Vec<prix_xml::DocId>,
    /// `(input position, reason)` for each document that did not parse.
    pub rejected: Vec<(usize, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ExecOpts;

    /// Match count of `xpath` on the engine as it stands.
    fn count(e: &PrixEngine, xpath: &str) -> usize {
        let view = e.snapshot();
        let q = view.parse_query(xpath).unwrap();
        view.query(&q).unwrap().matches.len()
    }

    /// The name-list codec, both ways, and every list the decoder must
    /// refuse: whatever is wrong with one, the table it would build is
    /// not the table that was saved.
    #[test]
    fn name_lists_round_trip_and_damaged_ones_are_refused() {
        let mut table = SymbolTable::new();
        // An attribute can have the empty value: `<a x=""/>`.
        for name in ["a", "", "é — ü", &"long".repeat(40), "\u{1}prix-dummy"] {
            table.intern(name);
        }
        // Decodes `bytes` as the names from `first` on, onto a table
        // that holds the first `have`.
        let decode_onto = |have: usize, bytes: &[u8], first: u32| {
            let mut syms = SymbolTable::new();
            for name in &table.names_from(0)[..have] {
                syms.intern(name);
            }
            decode_symbols(bytes, first, &mut syms).map(|()| syms)
        };
        let decode = |bytes: &[u8], first: u32| decode_onto(first as usize, bytes, first);
        for first in 0..=table.len() {
            let list = encode_symbols(table.names_from(first));
            let back = decode(&list, first as u32).expect("what the encoder wrote");
            assert!(back.iter().eq(table.iter()), "names from {first}");
            // The table must stand where the list starts.
            for have in (0..=table.len()).filter(|&have| have != first) {
                assert!(decode_onto(have, &list, first as u32).is_none());
            }
        }
        assert_eq!(encode_symbols(&[]), [0], "no names: a count of zero");

        let good = encode_symbols(&table.names_from(0)[..2]);
        assert_eq!(good, [2, 1, b'a', 0]);
        let refused: [(&str, Vec<u8>, u32); 11] = [
            ("no count", vec![], 0),
            ("a name repeated in the list", vec![2, 1, b'a', 1, b'a'], 0),
            ("a name the table already holds", vec![1, 1, b'a'], 2),
            ("bytes that are not UTF-8", vec![1, 2, 0xC3, 0x28], 0),
            ("a count above its names", vec![3, 1, b'a', 0], 0),
            ("a count below its names", vec![1, 1, b'a', 0], 0),
            (
                "a count no list this long could hold",
                vec![200, 1, 1, b'a'],
                0,
            ),
            ("a name cut short", vec![1, 3, b'a', b'b'], 0),
            ("a length cut short", vec![1, 0x80], 0),
            (
                "a length of eleven bytes",
                [vec![1], vec![0xFF; 11]].concat(),
                0,
            ),
            ("a list that starts past the table", good.clone(), 1),
        ];
        assert!(decode(&good, 0).is_some());
        for (what, bytes, first) in refused {
            assert!(decode(&bytes, first).is_none(), "{what} was accepted");
        }
    }

    #[test]
    fn file_backed_engine_works() {
        let dir = std::env::temp_dir().join(format!("prix-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut c = Collection::new();
        c.add_xml("<a><b><c/></b></a>").unwrap();
        let cfg = EngineConfig {
            path: Some(dir.join("db.prix")),
            buffer_pages: 16,
            ..Default::default()
        };
        let e = PrixEngine::build(c, cfg).unwrap();
        assert_eq!(count(&e, "//a/b/c"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_insert_matches_bulk_build() {
        // Build small, insert more, compare against building everything
        // at once.
        let docs = [
            "<dblp><www><editor>E</editor><url>u</url></www></dblp>",
            "<dblp><inproceedings><author>A</author><year>1990</year></inproceedings></dblp>",
            "<dblp><www><editor>F</editor><url>v</url></www></dblp>",
            "<x><y><z>deep</z></y></x>",
            "<dblp><www><url>no-editor</url></www></dblp>",
        ];
        let mut base = Collection::new();
        for d in &docs[..2] {
            base.add_xml(d).unwrap();
        }
        let mut incremental = PrixEngine::build(base, EngineConfig::default()).unwrap();
        for d in &docs[2..] {
            incremental.insert_document(d).unwrap();
        }

        let mut full = Collection::new();
        for d in &docs {
            full.add_xml(d).unwrap();
        }
        let bulk = PrixEngine::build(full.clone(), EngineConfig::default()).unwrap();
        let (inc_view, bulk_view) = (incremental.snapshot(), bulk.snapshot());

        for xpath in [
            "//www[./editor]/url",
            r#"//inproceedings[./author="A"]"#,
            "//x//z",
            "//www/url",
        ] {
            let qi = inc_view.parse_query(xpath).unwrap();
            let qb = bulk_view.parse_query(xpath).unwrap();
            let mi = inc_view.query(&qi).unwrap().matches;
            let mb = bulk_view.query(&qb).unwrap().matches;
            assert_eq!(mi, mb, "{xpath}");
            let oracle = crate::naive::naive_count(&full, &qb);
            assert_eq!(mi.len(), oracle, "{xpath} vs oracle");
        }
    }

    /// A bare engine's view sees the documents the delta held when it
    /// was taken: 200 inserts later it answers exactly as it did, warm
    /// and cold, while a fresh view sees every insert.
    #[test]
    fn a_view_taken_before_an_insert_answers_as_before_it() {
        let www = |i: usize| {
            let v = i % 5;
            format!("<dblp><www><editor>E{v}</editor><url>u{v}</url></www></dblp>")
        };
        let mut c = Collection::new();
        for i in 0..10 {
            c.add_xml(&www(i)).unwrap();
        }
        let mut e = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let xpaths = [
            "//www[./editor]/url",
            "//dblp//url",
            r#"//www[./editor="E3"]"#,
            "//inproceedings/year",
        ];
        let answers = |view: &EngineSnapshot| -> Vec<Vec<crate::TwigMatch>> {
            xpaths
                .iter()
                .map(|xp| view.query(&view.parse_query(xp).unwrap()).unwrap().matches)
                .collect()
        };
        let view = e.snapshot();
        let before = answers(&view);
        for i in 10..210 {
            let doc = if i % 2 == 0 {
                www(i)
            } else {
                format!(
                    "<dblp><inproceedings><year>{}</year></inproceedings></dblp>",
                    i % 3
                )
            };
            e.insert_document(&doc).unwrap();
        }
        assert_eq!(answers(&view), before, "warm");
        e.clear_cache().unwrap();
        assert_eq!(answers(&view), before, "cold");
        let after = answers(&e.snapshot());
        assert_eq!(after[0].len(), before[0].len() + 100);
        assert_eq!((before[3].len(), after[3].len()), (0, 100));
    }

    /// A view of the delta holds the rows labeled when it was taken.
    /// Copies of its documents end on the trie nodes its own end on and
    /// carry values its predicates accept, and documents of a new shape
    /// grow new trie nodes and move every label after them; the view
    /// answers, counts and streams exactly as before them all.
    #[test]
    fn a_view_skips_documents_that_came_after_it() {
        let doc = |i: usize| format!("<r><p><n>{}</n><t>x{}</t></p></r>", i % 4, i % 3);
        let mut e = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
        for i in 0..8 {
            e.insert_document(&doc(i)).unwrap();
        }
        let view = e.snapshot();
        let xpaths = ["//p[./n]/t", r#"//p[./n="3"]/t"#, "//p[n > 1]/t", "//r//t"];
        let queries: Vec<_> = xpaths.map(|xp| view.parse_query(xp).unwrap()).into();
        let answers = || -> Vec<_> {
            let one = ExecOpts::new().with_limit(1);
            queries
                .iter()
                .flat_map(|q| [view.query(q).unwrap(), view.query_opts(q, &one).unwrap()])
                .map(|o| (o.matches, o.truncated, o.stats.valix_postings))
                .collect()
        };
        let before = answers();
        // Arrival order, so the stream pulls its candidates lazily: one
        // before the inserts, the rest after them.
        let rp = e.delta().index(IndexKind::Regular);
        let order = ExecOpts::new().with_limit(usize::MAX);
        let drain = |s: &mut crate::exec::MatchStream<'_>| {
            std::iter::from_fn(|| s.next_match().unwrap()).collect::<Vec<_>>()
        };
        let streamed = drain(&mut rp.stream(&queries[0], &order, None).unwrap());
        let mut stream = rp.stream(&queries[0], &order, None).unwrap();
        let first = stream.next_match().unwrap();
        for i in 0..40 {
            e.insert_document(&doc(i)).unwrap();
            e.insert_document(&format!("<r><p><n>{i}</n><t>y</t><u/></p></r>"))
                .unwrap();
        }
        assert_eq!(answers(), before);
        assert_eq!(view.mutable_docs(), 8);
        let rest = drain(&mut stream);
        assert_eq!([first.into_iter().collect(), rest].concat(), streamed);
        let now = e.snapshot();
        let q = now.parse_query(xpaths[0]).unwrap();
        assert_eq!(now.query(&q).unwrap().matches.len(), 8 + 80);
    }

    /// A build over no documents leaves a tier of none at doc base 0,
    /// which is where the delta's first compaction puts its tier too:
    /// the empty tier is dropped, its files unlinked, and the database
    /// reopens and answers like a build over the same documents.
    #[test]
    fn compacting_a_build_over_no_documents_keeps_the_database_open() {
        let docs = ["<a><b>v</b></a>", "<a><c/></a>", "<a><b>w</b><c/></a>"];
        let xpaths = ["//a/b", "//a[./c]", r#"//a[./b="w"]"#];
        let answers = |e: &PrixEngine| -> Vec<_> {
            let view = e.snapshot();
            xpaths
                .iter()
                .map(|xp| view.query(&view.parse_query(xp).unwrap()).unwrap().matches)
                .collect()
        };
        let mut full = Collection::new();
        for xml in docs {
            full.add_xml(xml).unwrap();
        }
        let want = answers(&PrixEngine::build(full, EngineConfig::default()).unwrap());
        let dir = std::env::temp_dir().join(format!("prix-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let envs: [Arc<dyn SegmentEnv>; 2] = [
            Arc::new(MemSegEnv::new()),
            Arc::new(FileSegEnv::new(dir.join("db.prix"))),
        ];
        for env in envs {
            let cfg = EngineConfig::default();
            let mut e = PrixEngine::build_env(Collection::new(), cfg, Arc::clone(&env)).unwrap();
            for xml in docs {
                e.insert_document(xml).unwrap();
            }
            e.save().unwrap();
            assert!(e.compact().unwrap());
            assert!(!env.exists(".g1.rp.seg").unwrap(), "the empty tier's files");
            assert!(env.exists(".g1.sym").unwrap(), "its symbol run stays");
            let reopened = PrixEngine::reopen_env(env, 64).unwrap();
            assert_eq!((reopened.generation(), reopened.segment_docs()), (2, 3));
            assert_eq!(answers(&e), want);
            assert_eq!(answers(&reopened), want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The batch log's epoch is the one clock: a commit moves it, a
    /// compaction starts the next log one past it, and a bare engine's
    /// view reports it.
    #[test]
    fn a_bare_engines_view_carries_the_engines_epoch() {
        let mut c = Collection::new();
        c.add_xml("<a><b>u</b></a>").unwrap();
        let mut e = PrixEngine::build(c, EngineConfig::default()).unwrap();
        assert_eq!((e.epoch(), e.snapshot().epoch()), (1, 1));
        e.insert_document("<a><b>v</b></a>").unwrap();
        e.save().unwrap();
        assert_eq!(e.epoch(), 2, "a commit moves the clock");
        assert_eq!(e.snapshot().epoch(), e.epoch());
        assert!(e.compact().unwrap());
        assert_eq!((e.epoch(), e.snapshot().epoch()), (3, 3));
    }

    #[test]
    fn incremental_insert_shares_existing_paths() {
        let mut c = Collection::new();
        c.add_xml("<a><b><c>v</c></b></a>").unwrap();
        let mut e = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let rp_nodes =
            |e: &PrixEngine| e.delta().index(IndexKind::Regular).build_stats().trie_nodes;
        assert_eq!(rp_nodes(&e), 0, "the delta starts empty");
        e.insert_document("<a><b><c>w</c></b></a>").unwrap();
        let nodes_before = rp_nodes(&e);
        // Identical structure: the RP trie path is fully shared.
        e.insert_document("<a><b><c>x</c></b></a>").unwrap();
        let nodes_after = rp_nodes(&e);
        assert_eq!(nodes_before, nodes_after, "no new RP trie nodes");
        assert_eq!(count(&e, "//a/b/c"), 3);
    }

    /// A build over no documents is a database like any other: a
    /// manifest, an empty tier, a log — and no answers.
    #[test]
    fn a_build_over_an_empty_collection_opens_and_answers_nothing() {
        let mut e = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
        assert_eq!(e.generation(), 1);
        assert_eq!((e.segment_docs(), e.mutable_docs()), (0, 0));
        for xpath in ["//a", "//a/b", r#"//a[./b="v"]"#] {
            assert_eq!(count(&e, xpath), 0, "{xpath}");
        }
        e.insert_document("<a><b>v</b></a>").unwrap();
        assert_eq!(count(&e, r#"//a[./b="v"]"#), 1);
    }

    /// `clear_cache` empties every tier's block cache too: two cold
    /// runs of one query fetch the same blocks, and some.
    #[test]
    fn cold_means_cold_for_every_tier() {
        let mut c = Collection::new();
        for i in 0..50 {
            c.add_xml(&format!("<a><b><c>v{i}</c></b><d>{i}</d></a>"))
                .unwrap();
        }
        let e = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let view = e.snapshot();
        let q = view.parse_query(r#"//a[./d="7"]/b/c"#).unwrap();
        let fetches = || {
            e.clear_cache().unwrap();
            view.query(&q).unwrap().io.seg_block_fetches
        };
        let first = fetches();
        assert!(first > 0, "a cold run reads the tier");
        assert_eq!(fetches(), first, "the second run was warm");
    }

    #[test]
    fn durable_engine_writes_its_manifest_tiers_and_log_and_reopens() {
        let dir = std::env::temp_dir().join(format!("prix-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            (e.generation(), e.segment_docs(), e.mutable_docs()),
            (1, 1, 0)
        );
        drop(e);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "db.prix.g1.ep.seg",
                "db.prix.g1.log",
                "db.prix.g1.rp.seg",
                "db.prix.g1.sym",
                "db.prix.g1.vx.seg",
                "db.prix.seg"
            ],
            "a manifest, the tier's files and one log: nothing else"
        );
        let r = PrixEngine::reopen(&path, 64).unwrap();
        let rep = r.recovery().expect("reopen reports what it replayed");
        assert!(!rep.unclean_shutdown);
        assert_eq!((rep.replayed_frames, rep.replayed_documents), (0, 0));
        assert_eq!(count(&r, "//a/b"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inserted_documents_survive_save_and_reopen() {
        let dir = std::env::temp_dir().join(format!("prix-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        e.insert_document("<a><q><b>w</b></q></a>").unwrap();
        e.save().unwrap();
        drop(e);
        let reopened = PrixEngine::reopen(&path, 256).unwrap();
        assert_eq!(count(&reopened, "//a//b"), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
