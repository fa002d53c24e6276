//! The PRIX engine's write side: build, reopen, insert, ingest, commit,
//! compact, verify.
//!
//! "In the PRIX system, both RPIndex and EPIndex can coexist." A
//! [`PrixEngine`] owns both, plus the value index, the segment tiers
//! and the buffer pool they live in. It answers no queries itself:
//! every read goes through an [`EngineSnapshot`] (see
//! [`PrixEngine::snapshot`] and [`crate::snapshot::SharedEngine`]),
//! which carries the §5.6 optimizer rule and the §5.7 arrangement loop.
//!
//! On disk a database is a manifest, immutable tiers and one batch log
//! (`prix_storage::wal`): the tiers hold what a bulk build or a
//! compaction wrote, the log the batches the live generation accepted
//! since, as they arrived. The mutable delta — both indexes' trees and
//! records, the delta valix — lives in an in-memory buffer pool and is
//! rebuilt on reopen by replaying the log through the same ingest
//! calls that built it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use prix_storage::segment::{put_varint, take_varint};
use prix_storage::{
    BatchLog, BatchMode, BufferPool, FileSegEnv, IoStats, Manifest, ManifestSegment, MemSegEnv,
    Pager, RecoveryReport, SegmentCheck, SegmentEnv, SegmentReader, SymbolRun, ValueRunReader,
    VxCheck, CHECKPOINT_LOG_BYTES, SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_SYM, SEG_KIND_VX,
};
use prix_xml::{Collection, Sym, SymbolTable};

use crate::index::{IndexError, IndexKind, PrixIndex, Result};
use crate::plan::{Planner, PlannerStats};
use crate::snapshot::EngineSnapshot;
use crate::trie::LabelingMode;
use crate::valix::Valix;

/// The label of the dummy child extended sequences give every leaf; no
/// document can spell it.
pub(crate) const DUMMY_LABEL: &str = "\u{1}prix-dummy";

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool capacity in pages (paper default: 2000, §6.1).
    pub buffer_pages: usize,
    /// Virtual-trie labeling mode of an in-memory build. (A database
    /// with a path is bulk-built: its delta starts empty, where both
    /// modes label alike.)
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
    /// manifest's symbol runs in order, then the names the log's
    /// batches intern again when they are replayed.
    symbols: SymbolTable,
    pool: Arc<BufferPool>,
    rp: PrixIndex,
    ep: PrixIndex,
    dummy: Sym,
    /// The live generation's batch log; `None` for an in-memory engine
    /// no compaction has given one yet.
    log: Option<BatchLog>,
    /// The bodies ingested since the last commit — accepted or refused:
    /// a refused document interned its names too — which the next
    /// [`PrixEngine::save`] appends to the log as one record.
    pending: Vec<(BatchMode, String)>,
    /// What replaying the log did when this engine was reopened;
    /// `None` for engines built or compacted in this process.
    recovery: Option<RecoveryReport>,
    /// Immutable segment tiers in ascending `doc_base` order (empty for
    /// an in-memory engine never compacted).
    segments: Vec<SegTier>,
    /// The manifest rows behind `segments`, kept verbatim for
    /// compaction (which appends to them) and `prix segments`.
    manifest_segments: Vec<ManifestSegment>,
    /// Where the manifest, tier and log files live. File engines
    /// resolve suffixes against the database path; in-memory and
    /// harness engines use an in-memory map.
    seg_env: Arc<dyn SegmentEnv>,
    /// Segment-block I/O counters. One instance for the engine's whole
    /// life: compaction swaps buffer pools (and their page counters)
    /// but `/metrics` totals must not reset.
    seg_stats: Arc<IoStats>,
    /// Manifest generation; 0 = no manifest has ever been written.
    generation: u64,
    /// The cost-based planner's statistics, shared (via `Arc`) with
    /// every snapshot so observations from served queries feed back
    /// into later plans. Persisted in the header of each log.
    planner: Arc<Planner>,
    /// The value-predicate secondary index over leaf values
    /// ([`crate::valix`]), living in the same buffer pool as the
    /// structural indexes.
    valix: Valix,
}

impl PrixEngine {
    /// Builds the engine over `collection`, keeping its symbol table
    /// and none of its trees. With a path ([`EngineConfig::path`]) this
    /// is the bulk build ([`crate::BulkBuilder`]): one tier of the
    /// documents, an empty delta, a fresh batch log and the manifest
    /// naming them. Without one the engine lives in memory, its indexes
    /// built over the collection in the buffer pool with
    /// [`EngineConfig::labeling`].
    pub fn build(mut collection: Collection, cfg: EngineConfig) -> Result<Self> {
        match &cfg.path {
            Some(p) => {
                let env = Arc::new(FileSegEnv::new(p.clone()));
                Self::build_env(collection, cfg, env)
            }
            None => {
                let dummy = collection.intern(DUMMY_LABEL);
                Self::build_over(collection, dummy, &cfg, Arc::new(MemSegEnv::new()))
            }
        }
    }

    /// The bulk build of [`PrixEngine::build`] with the database's files
    /// living in `env` instead of at [`EngineConfig::path`] (which is
    /// ignored). The crash harness hands fault-injecting environments
    /// in here and reopens what survived through
    /// [`PrixEngine::reopen_env`].
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

    /// The engine over `collection`, whose symbol table it keeps, in a
    /// fresh in-memory pool; `dummy` is the label extended sequences
    /// hang under every leaf.
    fn build_over(
        mut collection: Collection,
        dummy: Sym,
        cfg: &EngineConfig,
        seg_env: Arc<dyn SegmentEnv>,
    ) -> Result<Self> {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), cfg.buffer_pages));
        // Both indexes read the same immutable collection and write
        // through the internally synchronized buffer pool, so they are
        // built concurrently — except over no documents (the empty
        // delta of a bulk build, a compaction or a reopen), where there
        // is nothing to overlap and one thread lays the pages out the
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
        Ok(PrixEngine {
            symbols: std::mem::take(collection.symbols_mut()),
            pool,
            rp,
            ep,
            dummy,
            log: None,
            pending: Vec::new(),
            recovery: None,
            segments: Vec::new(),
            manifest_segments: Vec::new(),
            seg_env,
            seg_stats: Arc::new(IoStats::new()),
            generation: 0,
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

    /// Commits what was ingested since the last commit: the bodies, as
    /// received, become one record of the batch log — one append, one
    /// `fsync` — and the epoch it establishes the pool's committed
    /// epoch. A crash before the `fsync` returns loses the batch whole,
    /// one after it replays it whole. Nothing ingested, nothing
    /// written; an engine without a log (in memory, never compacted)
    /// only counts the epoch up.
    pub fn save(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let epoch = match &mut self.log {
            Some(log) => log.append(&self.pending)?,
            None => self.pool.current_epoch() + 1,
        };
        self.pending.clear();
        self.pool.commit_epoch(epoch);
        Ok(())
    }

    /// The live generation's batch log (`None` in memory until a
    /// compaction).
    pub fn log(&self) -> Option<&BatchLog> {
        self.log.as_ref()
    }

    /// Whether the log has reached `CHECKPOINT_LOG_BYTES`: the writer
    /// then compacts, which starts a fresh log and bounds what a reopen
    /// replays.
    pub fn log_full(&self) -> bool {
        self.log
            .as_ref()
            .is_some_and(|l| l.len() >= CHECKPOINT_LOG_BYTES)
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
    /// dictionary, the log's header the planner's statistics and the
    /// epoch the generation began at, and its records — every commit of
    /// its valid prefix, in order — are replayed into an empty delta
    /// through the ingest calls that accepted them. Replay is
    /// deterministic: the same documents are refused, the same names
    /// interned in the same order, the same ids assigned. A torn tail
    /// is left where it is until the next commit cuts it off.
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
        let stats = PlannerStats::decode(&contents.blob).ok_or_else(|| {
            IndexError::Unsupported("corrupt planner statistics in the batch log".into())
        })?;
        let cfg = EngineConfig {
            buffer_pages,
            ..Default::default()
        };
        let mut eng = Self::build_over(Collection::new(), dummy, &cfg, env)?;
        eng.symbols = symbols;
        eng.planner = Arc::new(Planner::new(stats));
        eng.attach_manifest(&m)?;
        for (lsn, record) in (1..).zip(&contents.records) {
            for (mode, body) in &record.bodies {
                eng.index_body(*mode, body).map_err(|e| {
                    IndexError::Unsupported(format!("replaying batch log record {lsn}: {e}"))
                })?;
            }
        }
        // A reopened engine starts cold, as one over files did: the
        // replay's pages are in the pool's page file, none in its frames.
        eng.pool.clear()?;
        let log = BatchLog::resume(store, &contents, eng.pool.pager().stats());
        eng.pool.reseed_epoch(log.epoch());
        eng.recovery = Some(RecoveryReport {
            unclean_shutdown: contents.file_len > contents.valid_len,
            replayed_frames: contents.records.len() as u64,
            replayed_documents: eng.rp.doc_count() as u64,
            wal_bytes: contents.valid_len,
            log_len: contents.file_len,
        });
        eng.log = Some(log);
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
    /// mutable indexes and delta valix where the tiers end. (Its symbol
    /// runs are in the table already, its kinds known and its files
    /// there: [`PrixEngine::reopen_env`] walked its rows before anything
    /// else, or they were written a moment ago.) A header that
    /// disagrees with its manifest row, a tier without one of its three
    /// files (a database compacted before value runs existed has none)
    /// or a non-contiguous tier layout is a hard error — serving a
    /// database with silently absent documents would be worse than
    /// refusing.
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
        self.segments = tiers;
        self.manifest_segments = m.segments.clone();
        self.generation = m.generation;
        self.rp.set_doc_base(next);
        self.ep.set_doc_base(next);
        self.valix.set_delta_base(next);
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

    /// The log of manifest generation `generation`, for a delta in
    /// `pool`: created (and synced) empty at `epoch`, the planner's
    /// statistics in its header — which the live planner is reset to,
    /// so that what a reopen decodes from the header and replays over
    /// it is what the engine holds.
    fn start_log(&self, generation: u64, epoch: u64, pool: &BufferPool) -> Result<BatchLog> {
        let blob = self.planner.encode();
        let stats = PlannerStats::decode(&blob).expect("the planner decodes what it encodes");
        self.planner.update(|s| *s = stats);
        let store = self.seg_env.create(&log_suffix(generation))?;
        Ok(BatchLog::create(store, epoch, &blob, pool.pager().stats())?)
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
        let mut eng = Self::build_over(Collection::new(), dummy, &cfg, env)?;
        eng.symbols = syms;
        let log = eng.start_log(generation, 1, &eng.pool)?;
        eng.log = Some(log);
        eng.pool.reseed_epoch(1);
        let manifest = Manifest {
            generation,
            log_suffix: log_suffix(generation),
            segments,
        };
        eng.write_manifest(&manifest)?;
        eng.attach_manifest(&manifest)?;
        Ok(eng)
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
    /// untouched; (2) build the next delta, empty, in a fresh pool whose
    /// epoch clock is re-seeded past the old pool's (so epoch-keyed
    /// caches and snapshots stay monotone), and create and sync its log;
    /// (3) write the manifest — the single commit point; (4) swap the
    /// in-memory state and unlink the old log. Readers pinned on the old
    /// pool keep reading it: it lives as long as they do.
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
        // The names no symbol run holds yet: the ones the log's batches
        // interned, refused documents' included.
        write_symbol_run(
            &*self.seg_env,
            &self.symbols,
            generation,
            &mut manifest_segments,
        )?;
        // (2) The replacement delta: empty (so the labeling mode has
        // nothing to label), same pool capacity; and its log.
        let cfg = EngineConfig {
            buffer_pages: self.pool.capacity(),
            ..Default::default()
        };
        let env = Arc::clone(&self.seg_env);
        let fresh = Self::build_over(Collection::new(), self.dummy, &cfg, env)?;
        let epoch = self.pool.published_epoch().max(self.pool.current_epoch()) + 1;
        fresh.pool.reseed_epoch(epoch);
        let log = self.start_log(generation, epoch, &fresh.pool)?;
        // (3) Commit.
        let manifest = Manifest {
            generation,
            log_suffix: log_suffix(generation),
            segments: manifest_segments,
        };
        self.write_manifest(&manifest)?;
        // (4) Publish in memory and retire the old log.
        let old_log = self.log.replace(log).map(|_| log_suffix(self.generation));
        self.pool = fresh.pool;
        self.rp = fresh.rp;
        self.ep = fresh.ep;
        self.valix = fresh.valix;
        self.pending.clear();
        self.recovery = None;
        self.attach_manifest(&manifest)?;
        if let Some(old_log) = old_log {
            let _ = self.seg_env.remove(&old_log);
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
    /// now: the manifest, the live batch log, and every segment, value
    /// run and symbol run the manifest lists (`prix stats`). A file the
    /// environment does not hold (an in-memory engine has no manifest
    /// until a compaction writes one) is left out.
    pub fn file_sizes(&self) -> Result<Vec<(String, u64)>> {
        let mut suffixes = vec![".seg".to_string(), log_suffix(self.generation)];
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
    /// and the value index (§5.2.1 dynamic labeling in action), to be
    /// logged by the next [`PrixEngine::save`]. Use
    /// [`LabelingMode::Dynamic`] for an in-memory build that should
    /// leave scope headroom; a bulk-exact index only accepts documents
    /// whose trie paths already exist or branch at the root. (A bulk
    /// build's delta starts empty: every scope is headroom.)
    pub fn insert_document(&mut self, xml: &str) -> Result<prix_xml::DocId> {
        self.log_body(BatchMode::Doc, xml);
        self.index_xml(xml)
    }

    /// Queues `body` for the next commit's record.
    fn log_body(&mut self, mode: BatchMode, body: &str) {
        self.pending.push((mode, body.to_string()));
    }

    /// What replay does with one logged body: what the call that logged
    /// it did, without logging it again.
    fn index_body(&mut self, mode: BatchMode, body: &str) -> Result<IngestOutcome> {
        match mode {
            BatchMode::Doc => self.insert_each([body], Self::index_xml),
            BatchMode::Split => self.index_split(body),
        }
    }

    /// Parses and indexes one document.
    fn index_xml(&mut self, xml: &str) -> Result<prix_xml::DocId> {
        let tree = prix_xml::parse_document(xml, &mut self.symbols)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        self.insert_tree(tree)
    }

    /// Indexes an already-parsed tree (which must use this engine's
    /// symbol table).
    fn insert_tree(&mut self, tree: prix_xml::XmlTree) -> Result<prix_xml::DocId> {
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

    /// The last committed epoch: what a reopen would come back at, and
    /// what the next publish makes visible.
    pub fn epoch(&self) -> u64 {
        self.pool.current_epoch()
    }

    /// Batch ingest through the snapshot-isolation write path: every
    /// document is prepared against *both* indexes (the same lockstep
    /// rule as [`PrixEngine::insert_document`]) and accepted documents
    /// are inserted. Nothing is committed: the caller looks at the
    /// outcome and then makes **one** [`PrixEngine::save`] for the batch
    /// (one log record, one `fsync`, one epoch) — or, when it wants all
    /// of `docs` or none (`prix add`), drops the engine unsaved, which
    /// commits nothing.
    ///
    /// Rejected documents (trie scope exhausted, parse errors) are
    /// reported per-document and never touch either index — but they
    /// are logged with the batch: parsing interned their names, and
    /// replay must intern them again. Any error *after* a document
    /// passed validation aborts the whole batch and is returned as
    /// `Err` — the caller must treat the engine as broken (see
    /// [`crate::snapshot::SharedEngine`], which rolls the pool back and
    /// poisons itself).
    ///
    /// The caller is also responsible for the pool-level ingest
    /// protocol (`begin_ingest` / `publish_ingest`); this method only
    /// parses, validates and inserts.
    pub fn ingest_batch(&mut self, docs: &[String]) -> Result<IngestOutcome> {
        for doc in docs {
            self.log_body(BatchMode::Doc, doc);
        }
        self.insert_each(docs.iter().map(String::as_str), Self::index_xml)
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
