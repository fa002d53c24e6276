//! The PRIX engine's write side: build, reopen, insert, ingest, save,
//! compact, verify.
//!
//! "In the PRIX system, both RPIndex and EPIndex can coexist." A
//! [`PrixEngine`] owns both, plus the value index, the segment tiers
//! and the buffer pool they live in. It answers no queries itself:
//! every read goes through an [`EngineSnapshot`] (see
//! [`PrixEngine::snapshot`] and [`crate::snapshot::SharedEngine`]),
//! which carries the §5.6 optimizer rule and the §5.7 arrangement loop.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use prix_storage::segment::{put_varint, take_varint};
use prix_storage::{
    recover, BufferPool, FileSegEnv, IoStats, Manifest, ManifestSegment, MemSegEnv, Pager,
    RecordId, RecordStore, RecoveryReport, SegmentCheck, SegmentEnv, SegmentReader, SymbolRun,
    ValueRunReader, VxCheck, Wal, PAGE_SIZE, SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX,
};
use prix_xml::{Collection, Sym, SymbolTable};

use crate::index::{IndexError, IndexKind, PrixIndex, Result};
use crate::plan::{Planner, PlannerStats};
use crate::snapshot::EngineSnapshot;
use crate::trie::LabelingMode;
use crate::valix::Valix;

/// Version of the catalog-page layout written by [`PrixEngine::save`]
/// and the only one [`PrixEngine::reopen`] reads; any other version is
/// refused rather than misread.
///
/// Layout: magic, version, RP/EP metadata record ids, the head of the
/// names chain (0 = no names), dummy symbol, the number of symbols (what
/// the manifest's symbol runs and the chain must add up to), the
/// length-prefixed planner statistics blob, then the valix metadata
/// record id. A zero RP, EP or valix record id is refused at reopen.
/// Version 6 changed what the third id names: no longer one record
/// holding the whole symbol table, but the newest record of a chain (see
/// [`PrixEngine::save`]) that holds only the names the manifest's
/// symbol runs do not — which a version-5 reader would take for the
/// table. (The count replaced a constant no reader looked at.)
const CATALOG_VERSION: u32 = 6;

/// The label of the dummy child extended sequences give every leaf; no
/// document can spell it.
pub(crate) const DUMMY_LABEL: &str = "\u{1}prix-dummy";

/// Byte offset of the planner-stats blob (u32 length + payload) in the
/// catalog page, right after the fixed fields.
const CATALOG_STATS_OFF: usize = 44;

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool capacity in pages (paper default: 2000, §6.1).
    pub buffer_pages: usize,
    /// Virtual-trie labeling mode.
    pub labeling: LabelingMode,
    /// Backing file; `None` = in-memory pager.
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

/// Bytes of a names-chain record before its name list: the previous
/// record's id (`u64`, 0 = none) and the id of the first name (`u32`).
const CHAIN_HEAD: usize = 12;

/// The one encoder of a name list — a symbol run's payload, a
/// names-chain record's tail: the count, then `len | utf8` per name,
/// counts and lengths as varints.
fn encode_symbols(names: &[String]) -> Vec<u8> {
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
fn decode_symbols(bytes: &[u8], first: u32, syms: &mut SymbolTable) -> Option<()> {
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

/// One immutable segment tier: the RP/EP segment pair and the value
/// run covering global document ids `[doc_base, doc_base + n_docs)`.
/// Queries descend every tier and the mutable delta; tiers never change
/// after publication, so snapshots clone them for free (the indexes
/// inside are segment-backed and internally shared, the run is behind
/// an `Arc`).
#[derive(Clone)]
pub struct SegTier {
    pub(crate) rp: PrixIndex,
    pub(crate) ep: PrixIndex,
    pub(crate) vx: Arc<ValueRunReader>,
    pub(crate) doc_base: u32,
    pub(crate) n_docs: u32,
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

/// An indexed XML database: its symbol table, its RP/EP indexes and
/// value index, and the buffer pool they share. The document trees are
/// not kept: everything query processing needs is in the indexes.
pub struct PrixEngine {
    /// Every label the indexed documents (and the dummy) use, ids dense
    /// in interning order. On disk it is tiered like the indexes: the
    /// manifest's symbol runs in order, then the names chain of the
    /// mutable generation ([`PrixEngine::save`]).
    symbols: SymbolTable,
    pool: Arc<BufferPool>,
    rp: PrixIndex,
    ep: PrixIndex,
    dummy: Sym,
    /// Record store holding engine-level catalog records (the names
    /// chain); kept open across saves so repeated saves append into the
    /// same data page instead of allocating a fresh one each time.
    /// (Opening one allocates nothing: its first append does.)
    catalog_store: RecordStore,
    /// Raw id of the newest names-chain record (0 = the chain is empty)
    /// and the number of symbols the symbol runs and the chain cover
    /// between them: the table only ever grows, so a save owes the
    /// names past that and nothing when there are none.
    saved_syms: (u64, usize),
    /// What crash recovery did when this engine was reopened; `None`
    /// for freshly built engines.
    recovery: Option<RecoveryReport>,
    /// Immutable segment tiers in ascending `doc_base` order (empty for
    /// a never-segmented engine).
    segments: Vec<SegTier>,
    /// The manifest rows behind `segments`, kept verbatim for
    /// compaction (which appends to them) and `prix segments`.
    manifest_segments: Vec<ManifestSegment>,
    /// Where segment/manifest/mutable-generation files live. File
    /// engines resolve suffixes against the database path; in-memory
    /// and harness engines use an in-memory map.
    seg_env: Arc<dyn SegmentEnv>,
    /// Segment-block I/O counters. One instance for the engine's whole
    /// life: compaction swaps buffer pools (and their page counters)
    /// but `/metrics` totals must not reset.
    seg_stats: Arc<IoStats>,
    /// Manifest generation; 0 = no manifest has ever been written.
    generation: u64,
    /// File-name suffix of the live mutable generation (`""` = the
    /// base database file; compaction moves to `".g{N}"`).
    mutable_suffix: String,
    /// The cost-based planner's statistics, shared (via `Arc`) with
    /// every snapshot so observations from served queries feed back
    /// into later plans. Persisted in the catalog.
    planner: Arc<Planner>,
    /// The value-predicate secondary index over leaf values
    /// ([`crate::valix`]), living in the same buffer pool as the
    /// structural indexes.
    valix: Valix,
}

impl PrixEngine {
    /// Builds the engine over `collection`, keeping its symbol table
    /// and none of its trees. A file-backed engine
    /// ([`EngineConfig::path`]) gets the `<path>.sum` checksum sidecar
    /// and the `<path>.wal` write-ahead log next to the database file:
    /// pages evicted before a [`PrixEngine::save`] spill to the log,
    /// and every save is a group commit (one WAL append, one fsync; the
    /// page file catches up at checkpoints), so a crash at any instant
    /// leaves either the previous save or the new one — never a torn
    /// mixture. Without a path the engine lives in memory.
    pub fn build(mut collection: Collection, cfg: EngineConfig) -> Result<Self> {
        match &cfg.path {
            Some(p) => {
                let env = Arc::new(FileSegEnv::new(p.clone()));
                Self::build_env(collection, cfg, env)
            }
            None => {
                let pool = BufferPool::new(Pager::in_memory(), cfg.buffer_pages);
                let dummy = collection.intern(DUMMY_LABEL);
                Self::build_over(collection, dummy, &cfg, pool, Arc::new(MemSegEnv::new()))
            }
        }
    }

    /// [`PrixEngine::build`] with the database's stores — page file,
    /// `.sum`, `.wal`, and later its segments and manifest — living in
    /// `env` instead of at [`EngineConfig::path`] (which is ignored);
    /// durable exactly as if file-backed. The crash harness hands
    /// fault-injecting environments in here and reopens what survived
    /// through [`PrixEngine::reopen_env`].
    pub fn build_env(
        mut collection: Collection,
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
    ) -> Result<Self> {
        let dummy = collection.intern(DUMMY_LABEL);
        Self::build_at(collection, dummy, &cfg, env, "")
    }

    /// Builds a mutable-generation engine whose stores live in `env` at
    /// `suffix`: the base database at `""`, bulk builds and compaction
    /// at their generation's name.
    fn build_at(
        collection: Collection,
        dummy: Sym,
        cfg: &EngineConfig,
        env: Arc<dyn SegmentEnv>,
        suffix: &str,
    ) -> Result<Self> {
        let pager =
            Pager::create_durable(env.create(suffix)?, env.create(&format!("{suffix}.sum"))?)
                .map_err(IndexError::Storage)?;
        let wal = Wal::create(
            env.create(&format!("{suffix}.wal"))?,
            pager.epoch(),
            pager.stats(),
        )
        .map_err(IndexError::Storage)?;
        let pool = BufferPool::with_wal(pager, cfg.buffer_pages, wal);
        Self::build_over(collection, dummy, cfg, pool, env)
    }

    /// The engine over `collection`, whose symbol table it keeps;
    /// `dummy` is the label extended sequences hang under every leaf.
    fn build_over(
        mut collection: Collection,
        dummy: Sym,
        cfg: &EngineConfig,
        pool: BufferPool,
        seg_env: Arc<dyn SegmentEnv>,
    ) -> Result<Self> {
        let pool = Arc::new(pool);
        // Both indexes read the same immutable collection and write
        // through the internally synchronized buffer pool, so they are
        // built concurrently — except over no documents (the empty
        // generation of a bulk build or a compaction), where there is
        // nothing to overlap and one thread lays the page file out the
        // same way every time.
        let build =
            |kind| PrixIndex::build(Arc::clone(&pool), &collection, kind, cfg.labeling, dummy);
        let (rp, ep) = if collection.is_empty() {
            (build(IndexKind::Regular), build(IndexKind::Extended))
        } else {
            std::thread::scope(|s| {
                let rp = s.spawn(|| build(IndexKind::Regular));
                let ep = s.spawn(|| build(IndexKind::Extended));
                (
                    rp.join().expect("rp build thread"),
                    ep.join().expect("ep build thread"),
                )
            })
        };
        let (rp, ep) = (rp?, ep?);
        // Seed the planner from what the build just saw: label counts
        // from the collection, trie fanout from the RP build.
        let mut pstats = PlannerStats::default();
        pstats.merge_collection(&collection);
        let b = rp.build_stats();
        pstats.set_trie_shape(b.trie_nodes as u64, b.trie_paths as u64, b.sequences);
        // The value-predicate index shares the structural indexes'
        // document numbering.
        let mut valix = Valix::create(Arc::clone(&pool))?;
        for (doc, tree) in collection.iter() {
            valix.index_tree(tree, doc, collection.symbols())?;
        }
        let catalog_store = RecordStore::open(Arc::clone(&pool)).map_err(IndexError::Storage)?;
        Ok(PrixEngine {
            symbols: std::mem::take(collection.symbols_mut()),
            pool,
            rp,
            ep,
            dummy,
            catalog_store,
            saved_syms: (0, 0),
            recovery: None,
            segments: Vec::new(),
            manifest_segments: Vec::new(),
            seg_env,
            seg_stats: Arc::new(IoStats::new()),
            generation: 0,
            mutable_suffix: String::new(),
            planner: Arc::new(Planner::new(pstats)),
            valix,
        })
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

    /// The mutable tier's RPIndex.
    pub fn rp_index(&self) -> &PrixIndex {
        &self.rp
    }

    /// The mutable tier's EPIndex.
    pub fn ep_index(&self) -> &PrixIndex {
        &self.ep
    }

    /// An epoch-pinned read view of the engine as it stands now: the
    /// one way to parse, explain and run queries against a bare engine.
    /// The view borrows the engine, so it cannot be held across a
    /// `&mut self` call — outside [`crate::snapshot::SharedEngine`]'s
    /// ingest protocol the pool keeps no pre-images, and a view that
    /// outlived an insert or a compaction would read half-new pages
    /// through its frozen index handles.
    pub fn snapshot(&self) -> impl std::ops::Deref<Target = EngineSnapshot> + '_ {
        Box::new(EngineSnapshot::capture(self, None))
    }

    /// Flushes and empties the buffer pool so the next query measures
    /// cold-cache I/O, like the paper's direct-I/O setup.
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.clear().map_err(IndexError::Storage)
    }

    /// Persists the engine so [`PrixEngine::reopen`] can load it from
    /// the backing file: index metadata goes into the shared store, the
    /// names interned since the last save are appended to it as one
    /// record chained to the one before (`prev record id | first id |
    /// count | names`; a save that interned none appends nothing),
    /// their locations go into the reserved catalog page (page 0), and
    /// the buffer pool is flushed — for a durable engine one WAL group
    /// commit.
    ///
    /// Only works for file-backed engines (`EngineConfig::path`);
    /// in-memory engines have nowhere to persist to.
    pub fn save(&mut self) -> Result<()> {
        self.write_catalog()?;
        self.pool.flush().map_err(IndexError::Storage)
    }

    /// [`PrixEngine::save`] for the fresh mutable generation a bulk
    /// build or a compaction has just filled: its pages go straight to
    /// their files, unlogged. Nothing durable names those files until
    /// the manifest write that follows, so a crash in here leaves
    /// debris no reopen looks at, and logging the pages first would
    /// only write every one of them twice.
    fn save_unlogged(&mut self) -> Result<()> {
        self.write_catalog()?;
        self.pool.checkpoint_unlogged().map_err(IndexError::Storage)
    }

    /// Writes what [`PrixEngine::reopen`] starts from into the pool:
    /// index metadata, the names this save owes, the catalog page.
    fn write_catalog(&mut self) -> Result<()> {
        let rp_meta = self.rp.save()?.raw();
        let ep_meta = self.ep.save()?.raw();
        let (head, saved) = self.saved_syms;
        if self.symbols.len() > saved {
            let mut rec = head.to_le_bytes().to_vec();
            rec.extend_from_slice(&(saved as u32).to_le_bytes());
            rec.extend_from_slice(&encode_symbols(self.symbols.names_from(saved)));
            let id = self
                .catalog_store
                .append(&rec)
                .map_err(IndexError::Storage)?;
            self.saved_syms = (id.raw(), self.symbols.len());
        }
        let (syms_head, n_symbols) = self.saved_syms;
        let valix_meta = self.valix.save()?.raw();
        // Catalog page. The planner-stats blob is capped by its encoder
        // to fit the remainder of the page (minus the trailing valix
        // record id); an oversized blob would be a bug in that cap, so
        // refuse rather than corrupt the page.
        let stats_blob = self.planner.encode();
        if CATALOG_STATS_OFF + 4 + stats_blob.len() + 8 > PAGE_SIZE {
            return Err(IndexError::Unsupported(
                "planner statistics overflow the catalog page".into(),
            ));
        }
        self.pool
            .with_page_mut(0, |p: &mut [u8; PAGE_SIZE]| {
                p[..4].copy_from_slice(b"PRIX");
                p[4..8].copy_from_slice(&CATALOG_VERSION.to_le_bytes());
                p[8..16].copy_from_slice(&rp_meta.to_le_bytes());
                p[16..24].copy_from_slice(&ep_meta.to_le_bytes());
                p[24..32].copy_from_slice(&syms_head.to_le_bytes());
                p[32..36].copy_from_slice(&self.dummy.0.to_le_bytes());
                p[36..44].copy_from_slice(&(n_symbols as u64).to_le_bytes());
                let off = CATALOG_STATS_OFF;
                p[off..off + 4].copy_from_slice(&(stats_blob.len() as u32).to_le_bytes());
                p[off + 4..off + 4 + stats_blob.len()].copy_from_slice(&stats_blob);
                // v4: the valix metadata record id trails the blob.
                let voff = off + 4 + stats_blob.len();
                p[voff..voff + 8].copy_from_slice(&valix_meta.to_le_bytes());
            })
            .map_err(IndexError::Storage)
    }

    /// Reopens a previously [`PrixEngine::save`]d database: page
    /// checksums are verified on cold reads and every commit left in
    /// `<path>.wal` (an unclean shutdown's, not yet checkpointed) is
    /// replayed first (see [`PrixEngine::recovery`]).
    ///
    /// The document trees themselves are not persisted — only what
    /// query processing needs (sequences, leaf lists, indexes, symbol
    /// table). Queries, embeddings, and statistics work as before.
    pub fn reopen<P: AsRef<Path>>(path: P, buffer_pages: usize) -> Result<Self> {
        let env: Arc<dyn SegmentEnv> = Arc::new(FileSegEnv::new(path.as_ref().to_path_buf()));
        Self::reopen_env(env, buffer_pages)
    }

    /// [`PrixEngine::reopen`] over a segment environment. The manifest
    /// (suffix `".seg"`) is consulted *first*: it names the live
    /// mutable generation and every immutable segment; without one the
    /// base store is the whole database. The crash harness hands
    /// fault-injecting environments in here.
    pub fn reopen_env(env: Arc<dyn SegmentEnv>, buffer_pages: usize) -> Result<Self> {
        let manifest = if env.exists(".seg")? {
            Manifest::read_from(&*env.open(".seg")?)?
        } else {
            None
        };
        let msuffix = manifest
            .as_ref()
            .map_or_else(String::new, |m| m.mutable_suffix.clone());
        let db = env.open(&msuffix)?;
        let sum_suffix = format!("{msuffix}.sum");
        if !env.exists(&sum_suffix)? {
            // Opening the page file alone would mean serving it with
            // checksum verification off; refuse instead.
            return Err(IndexError::Unsupported(format!(
                "database has no checksum sidecar ('{sum_suffix}' is missing); \
                 re-index the source documents to rebuild it"
            )));
        }
        let wal_suffix = format!("{msuffix}.wal");
        let wal = if env.exists(&wal_suffix)? {
            env.open(&wal_suffix)?
        } else {
            // Sidecar present but the log is missing (deleted by
            // hand): nothing to replay; recreate it empty.
            env.create(&wal_suffix)?
        };
        let pager = Pager::open_durable(db, env.open(&sum_suffix)?).map_err(IndexError::Storage)?;
        let (wal, report) = recover(&pager, wal, pager.stats()).map_err(IndexError::Storage)?;
        let pool = BufferPool::with_wal(pager, buffer_pages, wal);
        let tiered = match &manifest {
            Some(m) => Self::read_symbol_runs(&*env, m.generation, &m.segments)?,
            None => SymbolTable::new(),
        };
        let mut eng = Self::reopen_over(pool, report, env, tiered)?;
        match &manifest {
            Some(m) => eng.attach_manifest(m)?,
            None => eng.valix.attach(0, eng.rp.doc_count())?,
        }
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

    /// The engine in `pool`, its symbol table `symbols` (what the tiers
    /// interned) and then the names chain of the catalog.
    fn reopen_over(
        pool: BufferPool,
        recovery: RecoveryReport,
        seg_env: Arc<dyn SegmentEnv>,
        mut symbols: SymbolTable,
    ) -> Result<Self> {
        let pool = Arc::new(pool);
        let (rp_meta, ep_meta, syms_head, dummy, n_symbols, pstats, valix_meta) = pool
            .with_page(0, |p: &[u8; PAGE_SIZE]| {
                if &p[..4] != b"PRIX" {
                    return Err(IndexError::Unsupported(
                        "file is not a PRIX database (bad magic)".into(),
                    ));
                }
                let version = u32::from_le_bytes(p[4..8].try_into().unwrap());
                if version != CATALOG_VERSION {
                    return Err(IndexError::Unsupported(format!(
                        "unsupported PRIX database version {version} (this build reads \
                         version {CATALOG_VERSION}); re-index the source documents"
                    )));
                }
                let corrupt_stats =
                    || IndexError::Unsupported("corrupt planner statistics in catalog".into());
                let off = CATALOG_STATS_OFF + 4;
                let len = u32::from_le_bytes(p[off - 4..off].try_into().unwrap()) as usize;
                // The valix record id trails the blob; both must fit.
                let blob = p.get(off..off + len).ok_or_else(corrupt_stats)?;
                let valix_rec = p.get(off + len..off + len + 8).ok_or_else(corrupt_stats)?;
                let pstats = PlannerStats::decode(blob).ok_or_else(corrupt_stats)?;
                let valix_meta = u64::from_le_bytes(valix_rec.try_into().unwrap());
                Ok((
                    u64::from_le_bytes(p[8..16].try_into().unwrap()),
                    u64::from_le_bytes(p[16..24].try_into().unwrap()),
                    u64::from_le_bytes(p[24..32].try_into().unwrap()),
                    Sym(u32::from_le_bytes(p[32..36].try_into().unwrap())),
                    u64::from_le_bytes(p[36..44].try_into().unwrap()),
                    pstats,
                    valix_meta,
                ))
            })
            .map_err(IndexError::Storage)??;
        // The chain runs from the newest record back: every hop starts
        // strictly below the one after it and not below what the tiers
        // cover (so a cycle ends the walk, it does not hang it), the
        // hops decoded oldest first must each start where the table
        // stands, and the table must end on the catalog's count — which
        // is what notices a manifest that lost a symbol row.
        let corrupt_syms = || {
            let what = "corrupt symbol table; re-index the source documents";
            IndexError::Unsupported(what.into())
        };
        let store = RecordStore::open(Arc::clone(&pool)).map_err(IndexError::Storage)?;
        let mut hops: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut at = syms_head;
        while at != 0 {
            let rec = store
                .read(RecordId::from_raw(at))
                .map_err(IndexError::Storage)?;
            let head = rec.get(..CHAIN_HEAD).ok_or_else(corrupt_syms)?;
            let first = u32::from_le_bytes(head[8..].try_into().unwrap());
            let newer = hops.last().map_or(u32::MAX, |(first, _)| *first);
            if first >= newer || (first as usize) < symbols.len() {
                return Err(corrupt_syms());
            }
            at = u64::from_le_bytes(head[..8].try_into().unwrap());
            hops.push((first, rec));
        }
        for (first, rec) in hops.iter().rev() {
            decode_symbols(&rec[CHAIN_HEAD..], *first, &mut symbols).ok_or_else(corrupt_syms)?;
        }
        if symbols.len() as u64 != n_symbols {
            return Err(corrupt_syms());
        }
        // Every engine this build writes carries all three; a zero id
        // is a database from a build that could leave one out.
        for (what, id) in [
            ("RPIndex", rp_meta),
            ("EPIndex", ep_meta),
            ("value index", valix_meta),
        ] {
            if id == 0 {
                return Err(IndexError::Unsupported(format!(
                    "database was written without its {what}; \
                     re-index the source documents"
                )));
            }
        }
        let rp = PrixIndex::load(Arc::clone(&pool), RecordId::from_raw(rp_meta))?;
        let ep = PrixIndex::load(Arc::clone(&pool), RecordId::from_raw(ep_meta))?;
        let valix = Valix::load(Arc::clone(&pool), RecordId::from_raw(valix_meta))?;
        let saved_syms = (syms_head, symbols.len());
        Ok(PrixEngine {
            symbols,
            pool,
            rp,
            ep,
            dummy,
            catalog_store: store,
            saved_syms,
            recovery: Some(recovery),
            segments: Vec::new(),
            manifest_segments: Vec::new(),
            seg_env,
            seg_stats: Arc::new(IoStats::new()),
            generation: 0,
            mutable_suffix: String::new(),
            planner: Arc::new(Planner::new(pstats)),
            valix,
        })
    }

    /// What crash recovery did when this engine was reopened: `None`
    /// for freshly built engines, `Some` (possibly a clean no-op
    /// report) for reopened ones.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Verifies every page of the backing store against its recorded
    /// checksum, returning `(verified, skipped)` counts. An in-memory
    /// engine has no sidecar and reports `Unsupported`.
    pub fn verify_checksums(&self) -> Result<(u64, u64)> {
        if !self.pool.pager().has_checksums() {
            return Err(IndexError::Unsupported(
                "in-memory engine has no checksum sidecar".into(),
            ));
        }
        self.pool
            .pager()
            .verify_checksums()
            .map_err(IndexError::Storage)
    }

    /// Opens every segment and value run the manifest lists and installs
    /// them as this engine's immutable tiers, re-basing the mutable
    /// indexes and the delta valix to start where the tiers end. (Its
    /// symbol runs are in the table already, its kinds known and its
    /// files there: [`PrixEngine::reopen_env`] walked its rows before
    /// anything else, or they were written a moment ago.) A header that
    /// disagrees with its manifest row, a tier
    /// without one of its three files (a database compacted before
    /// value runs existed has none) or a non-contiguous tier layout is
    /// a hard error — serving a database with silently absent documents
    /// would be worse than refusing.
    fn attach_manifest(&mut self, m: &Manifest) -> Result<()> {
        // Per kind: doc base -> (n_docs, reader).
        let mut rps = std::collections::BTreeMap::new();
        let mut eps = std::collections::BTreeMap::new();
        let mut vxs = std::collections::BTreeMap::new();
        let conflict = |doc_base: u32| {
            IndexError::Unsupported(format!(
                "manifest generation {} lists conflicting segments at doc base {doc_base}",
                m.generation
            ))
        };
        for s in m.segments.iter().filter(|s| s.kind != SEG_KIND_SYM) {
            let store = self.seg_env.open(&s.suffix)?;
            let stats = Arc::clone(&self.seg_stats);
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
                let run = ValueRunReader::open(store, stats).map_err(IndexError::Storage)?;
                check_row((SEG_KIND_VX, run.doc_base(), run.n_docs()))?;
                vxs.insert(s.doc_base, (s.n_docs, Arc::new(run))).is_none()
            } else {
                let reader =
                    Arc::new(SegmentReader::open(store, stats).map_err(IndexError::Storage)?);
                check_row((reader.kind(), reader.doc_base(), reader.n_docs()))?;
                let idx = PrixIndex::from_segment(reader)?;
                let slot = if s.kind == SEG_KIND_RP {
                    &mut rps
                } else {
                    &mut eps
                };
                slot.insert(s.doc_base, (s.n_docs, idx)).is_none()
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
            let ep = match eps.remove(&doc_base) {
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
                rp,
                ep,
                vx,
                doc_base,
                n_docs,
            });
        }
        if let Some(&doc_base) = eps.keys().chain(vxs.keys()).next() {
            return Err(lacks("RP segment", doc_base));
        }
        // The tiers partition `[0, next)`; the delta covers the rest.
        self.valix.attach(next, self.rp.doc_count())?;
        self.segments = tiers;
        self.manifest_segments = m.segments.clone();
        self.generation = m.generation;
        self.mutable_suffix = m.mutable_suffix.clone();
        self.rp.set_doc_base(next);
        self.ep.set_doc_base(next);
        Ok(())
    }

    /// Writes `m` into the manifest store (suffix `".seg"`), creating
    /// it on first use. The write itself is atomic at the slot level
    /// (two alternating CRC-framed slots; a torn write leaves the
    /// previous generation valid), so this call is the commit point of
    /// every bulk build and compaction.
    fn write_manifest(&self, m: &Manifest) -> Result<()> {
        let store = if self.seg_env.exists(".seg")? {
            self.seg_env.open(".seg")?
        } else {
            self.seg_env.create(".seg")?
        };
        m.write_to(&*store).map_err(IndexError::Storage)?;
        Ok(())
    }

    /// Assembles the engine a finished bulk build publishes: an empty
    /// mutable generation (its names chain empty: every name of `syms`
    /// is in the symbol run) plus the just-written segments, value run
    /// and symbol run, committed by one manifest write. Crash-ordering
    /// contract (the bulk crash suite pins it): those are fully written
    /// and synced
    /// *before* this runs, the mutable generation is created and saved
    /// (unlogged — see [`PrixEngine::save_unlogged`]) next, and the
    /// manifest write is last — a crash anywhere earlier leaves the
    /// previous manifest (or no database at all) in charge.
    pub(crate) fn from_bulk(
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
        syms: SymbolTable,
        dummy: Sym,
        generation: u64,
        mutable_suffix: String,
        segments: Vec<ManifestSegment>,
    ) -> Result<Self> {
        let mut eng = Self::build_at(Collection::new(), dummy, &cfg, env, &mutable_suffix)?;
        eng.saved_syms = (0, syms.len());
        eng.symbols = syms;
        eng.save_unlogged()?;
        let manifest = Manifest {
            generation,
            mutable_suffix,
            segments,
        };
        eng.write_manifest(&manifest)?;
        eng.attach_manifest(&manifest)?;
        Ok(eng)
    }

    /// Folds the mutable delta into a new immutable tier — a segment per
    /// index kind, the value run of the same documents and, when no
    /// symbol run holds them yet, the names they brought — and swaps in
    /// a fresh, empty mutable generation. What it writes is proportional
    /// to the delta, not to the collection or its dictionary. Returns
    /// `false` (and does nothing) when the delta is empty.
    ///
    /// Publish protocol, in order: (1) build and sync the new tier's
    /// files under the next generation's names — the live tree is
    /// untouched; (2) create the next mutable generation in *new*
    /// files, its names chain empty (the symbol runs now cover every
    /// name), and write it out unlogged, its epoch clock re-seeded past
    /// the old pool's so epoch-keyed caches and snapshots stay
    /// monotone; (3) write the manifest — the single commit point;
    /// (4) swap the in-memory state, retire the old pool and unlink
    /// the old mutable generation's files. Readers pinned on the old
    /// pool keep reading through their open handles (the files are
    /// unlinked, never truncated), so a snapshot taken before a
    /// compaction answers bit-identically after it.
    pub fn compact(&mut self) -> Result<bool> {
        self.compact_with(crate::segbuild::DEFAULT_RUN_MEM_BYTES)
    }

    /// [`PrixEngine::compact`] with an explicit sort-run budget.
    pub fn compact_with(&mut self, run_mem_bytes: usize) -> Result<bool> {
        let n = self.rp.doc_count() as u32;
        let doc_base = self.rp.doc_base();
        if n == 0 {
            return Ok(false);
        }
        let generation = self.generation + 1;
        // (1) The delta's documents go over as their stored records,
        // which are what the bulk path's encoder makes of a document, so
        // the segment bytes come out identical to a bulk build's.
        let mut manifest_segments = self.manifest_segments.clone();
        for (idx, kname, seg_kind) in [(&self.rp, "rp", SEG_KIND_RP), (&self.ep, "ep", SEG_KIND_EP)]
        {
            let suffix = format!(".g{generation}.{kname}.seg");
            let mut b = crate::segbuild::SegIndexBuilder::new(
                &self.seg_env,
                &suffix,
                idx.kind(),
                idx.dummy_sym(),
                doc_base,
                run_mem_bytes,
            )?;
            for local in 0..n {
                b.add_doc_data(&idx.doc_record(doc_base + local)?)?;
            }
            b.finish(idx.maxgap(), idx.childless_set())?;
            manifest_segments.push(ManifestSegment {
                kind: seg_kind,
                suffix,
                doc_base,
                n_docs: n,
            });
        }
        // The delta's value postings stream out of its two trees, which
        // hold them in key order already.
        let suffix = format!(".g{generation}.vx.seg");
        self.valix
            .write_run(self.seg_env.create(&suffix)?, n as usize)?;
        manifest_segments.push(ManifestSegment {
            kind: SEG_KIND_VX,
            suffix,
            doc_base,
            n_docs: n,
        });
        // The names no symbol run holds yet: the delta's chain, and
        // whatever a rejected ingest interned since the last save.
        write_symbol_run(
            &*self.seg_env,
            &self.symbols,
            generation,
            &mut manifest_segments,
        )?;
        // (2) The replacement mutable generation: empty (so the
        // labeling mode has nothing to label, and its valix is a bare
        // `Valix::create`), same pool capacity, fresh files. It carries
        // no name — the symbol runs hold them all now, and the table
        // stays where it is.
        let cfg = EngineConfig {
            buffer_pages: self.pool.capacity(),
            ..Default::default()
        };
        let new_suffix = format!(".g{generation}");
        let env = Arc::clone(&self.seg_env);
        let mut fresh = Self::build_at(Collection::new(), self.dummy, &cfg, env, &new_suffix)?;
        fresh.saved_syms = (0, self.symbols.len());
        let epoch = self.pool.published_epoch().max(self.pool.current_epoch()) + 1;
        fresh.pool.reseed_epoch(epoch);
        fresh.save_unlogged()?;
        // (3) Commit.
        let manifest = Manifest {
            generation,
            mutable_suffix: new_suffix,
            segments: manifest_segments,
        };
        self.write_manifest(&manifest)?;
        // (4) Publish in memory and retire the old generation's files.
        let old_suffix = std::mem::take(&mut self.mutable_suffix);
        // Whatever the old pool still holds un-checkpointed has been
        // folded into the new generation; its files are about to go.
        std::mem::replace(&mut self.pool, fresh.pool).retire();
        self.rp = fresh.rp;
        self.ep = fresh.ep;
        self.catalog_store = fresh.catalog_store;
        self.saved_syms = fresh.saved_syms;
        self.valix = fresh.valix;
        self.recovery = None;
        self.attach_manifest(&manifest)?;
        for side in ["", ".sum", ".wal"] {
            let _ = self.seg_env.remove(&format!("{old_suffix}{side}"));
        }
        Ok(true)
    }

    /// The segment environment (bulk builds retire superseded
    /// generations through it).
    pub(crate) fn seg_env(&self) -> &Arc<dyn SegmentEnv> {
        &self.seg_env
    }

    /// The immutable tiers in ascending document order (what a snapshot
    /// captures, and what [`crate::PredEval::build`] probes next to the
    /// delta valix).
    pub fn seg_tiers(&self) -> &[SegTier] {
        &self.segments
    }

    /// Manifest generation of this database; 0 when no bulk build or
    /// compaction has ever produced segments.
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
        self.rp.doc_count()
    }

    /// Lifetime segment-block I/O counters (survive compaction pool
    /// swaps; `/metrics` reads them).
    pub fn seg_io(&self) -> &Arc<IoStats> {
        &self.seg_stats
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
    /// now: the mutable generation's page file, checksum sidecar and
    /// log, the manifest, and every segment, value run and symbol run
    /// it lists (`prix stats`). A file the environment does not hold (an
    /// in-memory engine has no page file there) is left out.
    pub fn file_sizes(&self) -> Result<Vec<(String, u64)>> {
        let mut suffixes: Vec<String> = ["", ".sum", ".wal"]
            .iter()
            .map(|side| format!("{}{side}", self.mutable_suffix))
            .collect();
        suffixes.push(".seg".into());
        suffixes.extend(self.manifest_segments.iter().map(|s| s.suffix.clone()));
        let mut sizes = Vec::with_capacity(suffixes.len());
        for suffix in suffixes {
            if self.seg_env.exists(&suffix)? {
                let len = self.seg_env.open(&suffix)?.len()?;
                sizes.push((suffix, len));
            }
        }
        Ok(sizes)
    }

    /// Parses `xml` and incrementally indexes it into both indexes
    /// and the value index (§5.2.1 dynamic labeling in action). Use
    /// [`LabelingMode::Dynamic`] at build time to leave scope headroom;
    /// a bulk-exact index only accepts documents whose trie paths
    /// already exist or branch at the root.
    pub fn insert_document(&mut self, xml: &str) -> Result<prix_xml::DocId> {
        let tree = prix_xml::parse_document(xml, &mut self.symbols)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        self.insert_tree(tree)
    }

    /// [`PrixEngine::insert_document`] for an already-parsed tree
    /// (which must use this engine's symbol table).
    pub fn insert_tree(&mut self, tree: prix_xml::XmlTree) -> Result<prix_xml::DocId> {
        // Prepare against *both* indexes before mutating either: if RP
        // accepted the document but EP then ran out of trie scope, the
        // two indexes would disagree on document ids forever after.
        let (rp_doc, ep_doc) = (self.rp.prepare(&tree)?, self.ep.prepare(&tree)?);
        let id = self.rp.insert(rp_doc)?;
        let ep_id = self.ep.insert(ep_doc)?;
        debug_assert_eq!(id, ep_id, "indexes assign ids in lockstep");
        let b = self.rp.build_stats();
        self.planner.update(|s| {
            s.merge_tree(&tree);
            s.set_trie_shape(b.trie_nodes as u64, b.trie_paths as u64, b.sequences);
        });
        self.valix.index_tree(&tree, id, &self.symbols)?;
        Ok(id)
    }

    /// The shared planner (snapshots and the serving layer feed
    /// observations back through it).
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// The value-predicate index.
    pub fn valix(&self) -> &Valix {
        &self.valix
    }

    /// The commit epoch this engine's durable state is at: the last
    /// committed epoch for durable engines (what the next save will
    /// supersede), the pool's publish counter otherwise.
    pub fn epoch(&self) -> u64 {
        self.pool.current_epoch()
    }

    /// Batch ingest through the snapshot-isolation write path: every
    /// document is prepared against *both* indexes (the same lockstep
    /// rule as [`PrixEngine::insert_document`]) and accepted documents
    /// are inserted. Nothing is committed: the caller looks
    /// at the outcome and then makes **one** [`PrixEngine::save`] for
    /// the batch (one WAL group commit, one epoch advance) — or, when
    /// it wants all of `docs` or none (`prix add`), drops the engine
    /// unsaved, which commits nothing.
    ///
    /// Rejected documents (trie scope exhausted, parse errors) are
    /// reported per-document and never touch either index. Any error
    /// *after* a document passed validation aborts the whole batch and
    /// is returned as `Err` — the caller must treat the engine as
    /// broken (see [`crate::snapshot::SharedEngine`], which rolls the
    /// pool back and poisons itself).
    ///
    /// The caller is also responsible for the pool-level ingest
    /// protocol (`begin_ingest` / `publish_ingest`); this method only
    /// parses, validates and inserts.
    pub fn ingest_batch(&mut self, docs: &[String]) -> Result<IngestOutcome> {
        self.insert_each(docs, |engine, xml| engine.insert_document(xml))
    }

    /// [`PrixEngine::ingest_batch`] over a *wrapper* document: the
    /// body's root element is discarded and each of its element
    /// children becomes one indexed document (the same convention as
    /// `Collection::add_xml_split` — how a monolithic DBLP-style
    /// export turns into one sequence per record). A malformed wrapper
    /// is a clean whole-batch rejection, not an error.
    pub fn ingest_batch_split(&mut self, wrapper: &str) -> Result<IngestOutcome> {
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
        self.insert_each(subtrees, Self::insert_tree)
    }

    /// The one accept/reject loop: `insert` prepares against both
    /// indexes before mutating either, so an `Unsupported` error means
    /// the document was refused cleanly; anything else aborts.
    fn insert_each<T>(
        &mut self,
        docs: impl IntoIterator<Item = T>,
        mut insert: impl FnMut(&mut Self, T) -> Result<prix_xml::DocId>,
    ) -> Result<IngestOutcome> {
        let mut accepted: Vec<prix_xml::DocId> = Vec::new();
        let mut rejected: Vec<(usize, String)> = Vec::new();
        for (i, doc) in docs.into_iter().enumerate() {
            match insert(self, doc) {
                Ok(id) => accepted.push(id),
                Err(IndexError::Unsupported(msg)) => rejected.push((i, msg)),
                Err(e) => return Err(e),
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
    /// `(input position, reason)` for each cleanly rejected document.
    pub rejected: Vec<(usize, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut incremental = PrixEngine::build(
            base,
            EngineConfig {
                labeling: LabelingMode::Dynamic { alpha: 2 },
                ..Default::default()
            },
        )
        .unwrap();
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

    #[test]
    fn incremental_insert_shares_existing_paths() {
        let mut c = Collection::new();
        c.add_xml("<a><b><c>v</c></b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                labeling: LabelingMode::Dynamic { alpha: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        let nodes_before = e.rp_index().build_stats().trie_nodes;
        // Identical structure: the RP trie path is fully shared.
        e.insert_document("<a><b><c>w</c></b></a>").unwrap();
        let nodes_after = e.rp_index().build_stats().trie_nodes;
        assert_eq!(nodes_before, nodes_after, "no new RP trie nodes");
        assert_eq!(count(&e, "//a/b/c"), 2);
    }

    #[test]
    fn failed_ep_insert_leaves_indexes_in_lockstep() {
        // Exact labeling packs trie scopes densely: only existing paths
        // and fresh root branches are insertable. `<a><c>v</c></a>`
        // diverges from `<a><b>v</b></a>` at the *root* of the RP trie
        // (LPS `c a` vs `b a`), which exact labeling accepts — but its
        // EP sequence (`v c a` vs `v b a`) diverges *below* the packed
        // level-1 node for `v`, which underflows. The engine must
        // reject the document *before* touching either index.
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(c, EngineConfig::default()).unwrap();
        assert!(
            e.rp_index()
                .prepare(
                    &prix_xml::parse_document("<a><c>v</c></a>", &mut e.symbols().clone()).unwrap()
                )
                .is_ok(),
            "RP alone would accept the document (root branch)"
        );
        let err = e.insert_document("<a><c>v</c></a>").unwrap_err();
        assert!(
            matches!(err, IndexError::Unsupported(_)),
            "expected scope underflow, got {err}"
        );
        let rp_docs = e.rp_index().doc_count();
        let ep_docs = e.ep_index().doc_count();
        assert_eq!(rp_docs, ep_docs, "indexes out of lockstep");
        assert_eq!(rp_docs, 1, "rejected document must not be half-indexed");
        // The engine still works, and an insert both indexes accept
        // (identical document: both paths shared) assigns aligned ids.
        let id = e.insert_document("<a><b>v</b></a>").unwrap();
        assert_eq!(id, 1);
        assert_eq!(count(&e, "//a/b"), 2);
        assert_eq!(count(&e, r#"//b[text()="v"]"#), 2);
    }

    #[test]
    fn durable_engine_writes_sidecars_and_reopens_clean() {
        let dir = std::env::temp_dir().join(format!("prix-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                labeling: LabelingMode::Dynamic { alpha: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        e.save().unwrap();
        drop(e);
        assert!(dir.join("db.prix.sum").exists(), "checksum sidecar created");
        let wal = std::fs::metadata(dir.join("db.prix.wal")).expect("write-ahead log created");
        assert_eq!(wal.len(), 24, "a clean close checkpoints: header only");
        let r = PrixEngine::reopen(&path, 64).unwrap();
        let rep = r.recovery().expect("reopen reports recovery");
        assert!(!rep.unclean_shutdown, "clean shutdown: nothing to replay");
        assert_eq!(rep.replayed_frames, 0);
        let (verified, _) = r.verify_checksums().unwrap();
        assert!(verified > 0, "pages have checksums");
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
                labeling: LabelingMode::Dynamic { alpha: 1 },
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
