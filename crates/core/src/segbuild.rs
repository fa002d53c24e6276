//! Tier construction: streaming documents into the immutable files of
//! one tier — its RP and EP segments and its value run
//! (`prix_storage::segment`).
//!
//! Two producers feed a tier, and both end at `TierBuilder`, the one
//! tier writer:
//!
//! * [`BulkBuilder`] — `prix index`: documents stream straight
//!   from the parser into the external sorters, never materializing the
//!   whole collection's B⁺-trees. Memory is bounded by the sort-run
//!   budget; everything else spills to scratch files.
//! * Compaction (`PrixEngine::compact`) — hands over the delta's stored
//!   records, which the same encoder wrote at insert.
//!
//! A tier's files are a function of its documents, their ids and the
//! symbol table alone: `TierBuilder` derives every label path, MaxGap
//! table, childless label and value posting from each document's regular
//! view, and lays the EP file's records out in the order of the RP
//! file's Docid section. So a compacted tier is **byte-identical** to
//! what a bulk build of the same documents writes
//! (`tests/segments.rs` pins it for all three files).

use std::collections::HashSet;
use std::sync::Arc;

use prix_prufer::MaxGapTable;
use prix_storage::segment::ExternalSorter;
use prix_storage::{
    env_temp_factory, ManifestSegment, SegmentBuilder, SegmentEnv, ValueRunBuilder, VxEntry,
    SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_VX,
};
use prix_xml::{parse_document, Sym, SymbolTable, XmlTree};

use crate::engine::{write_symbol_run, EngineConfig, PrixEngine, DUMMY_LABEL};
use crate::index::{
    corrupt_record, decode_doc_record, encode_doc_record, encode_seg_index_meta, BuildStats, Depth,
    DocData, IndexError, IndexKind, Result,
};
use crate::valix::run_entries;

/// Default in-memory sort budget per segment build (64 MiB, the
/// `--run-mem-mb` default).
pub const DEFAULT_RUN_MEM_BYTES: usize = 64 << 20;

/// The three files of one tier, written side by side from each
/// document's regular view: its label path and fine gaps in both
/// segments, its record in the EP file only (kept in arrival order,
/// spilled past the sort budget, laid out in RP Docid order), its
/// leaves' postings in the value run; and, at [`TierBuilder::finish`],
/// each segment's index-metadata blob from the MaxGap tables and
/// childless labels the documents folded in.
pub(crate) struct TierBuilder {
    env: Arc<dyn SegmentEnv>,
    generation: u64,
    dummy: Sym,
    doc_base: u32,
    n_docs: u32,
    rp: SegmentBuilder,
    ep: SegmentBuilder,
    /// The RP and EP MaxGap tables.
    maxgaps: [MaxGapTable; 2],
    childless: HashSet<Sym>,
    /// Every leaf value's run entries, sorted under the same budget as
    /// the label paths.
    vx: ExternalSorter<VxEntry>,
}

impl TierBuilder {
    /// The builder of generation `generation`'s tier, for documents from
    /// `doc_base` on.
    pub(crate) fn new(
        env: &Arc<dyn SegmentEnv>,
        generation: u64,
        dummy: Sym,
        doc_base: u32,
        run_mem_bytes: usize,
    ) -> Result<Self> {
        let seg = |kind, kname| -> Result<SegmentBuilder> {
            let out = env.create(&format!(".g{generation}.{kname}.seg"))?;
            let temp = env_temp_factory(env);
            Ok(SegmentBuilder::new(
                out,
                temp,
                kind,
                doc_base,
                run_mem_bytes,
            ))
        };
        Ok(TierBuilder {
            env: Arc::clone(env),
            generation,
            dummy,
            doc_base,
            n_docs: 0,
            rp: seg(SEG_KIND_RP, "rp")?,
            ep: seg(SEG_KIND_EP, "ep")?,
            maxgaps: Default::default(),
            childless: HashSet::new(),
            vx: ExternalSorter::new(run_mem_bytes, env_temp_factory(env)),
        })
    }

    /// Files the next document by its regular view `data` (leaf data
    /// loaded) and `record`, that view's encoding; `syms` names its leaf
    /// labels. A view that does not extend, or a leaf label past `syms`,
    /// is a corrupt record.
    fn add(&mut self, data: &DocData, record: &[u8], syms: &SymbolTable) -> Result<()> {
        let filed = |kind| data.filed_path(kind, self.dummy).ok_or_else(corrupt_record);
        let (rp_lps, rp_gaps) = filed(IndexKind::Regular)?;
        let (ep_lps, ep_gaps) = filed(IndexKind::Extended)?;
        let [rp_maxgap, ep_maxgap] = &mut self.maxgaps;
        rp_maxgap.add_seq(&rp_lps, &rp_gaps);
        ep_maxgap.add_seq(&ep_lps, &ep_gaps);
        let doc = self.doc_base + self.n_docs;
        // The extended view checked the leaf list: each leaf's parent is
        // labeled at its own position of the LPS, and only a lone root
        // (a leaf with no parent) has none.
        for &(label, post) in &data.leaves {
            self.childless.insert(label);
            let Some(&tag) = data.lps.get(post as usize - 1) else {
                continue;
            };
            let value = syms.get(label).ok_or_else(corrupt_record)?;
            for e in run_entries(tag, value, doc, post) {
                self.vx.push(e)?;
            }
        }
        let path = |lps: Vec<Sym>| lps.into_iter().map(|s| s.0).collect();
        self.rp.add_doc(&[], path(rp_lps), rp_gaps)?;
        self.ep.add_doc(record, path(ep_lps), ep_gaps)?;
        self.n_docs += 1;
        Ok(())
    }

    /// Files one parsed document (the bulk path), whose labels `syms`
    /// names.
    pub(crate) fn add_tree(&mut self, tree: &XmlTree, syms: &SymbolTable) -> Result<()> {
        let data = DocData::regular(tree);
        self.add(&data, &encode_doc_record(&data), syms)
    }

    /// Files one already-indexed document as its stored record (the
    /// compaction path): the bytes go into the EP file as they are,
    /// decoded once for everything else.
    pub(crate) fn add_record(&mut self, record: &[u8], syms: &SymbolTable) -> Result<()> {
        let data = decode_doc_record(record, Depth::Leaves).ok_or_else(corrupt_record)?;
        self.add(&data, record, syms)
    }

    /// Sorts, merges, labels, and writes the three files (header, CRC
    /// table, metadata blob), syncing each, and returns their manifest
    /// rows. The RP file goes first: its Docid order is the order of the
    /// EP file's records — the documents one RP filter match refines are
    /// one range of it, and documents of one structure sit together for
    /// an EP match too (the EP file's own order would group them by
    /// first leaf value). The value run goes last.
    pub(crate) fn finish(self) -> Result<Vec<ManifestSegment>> {
        let TierBuilder {
            env,
            generation,
            dummy,
            doc_base,
            n_docs,
            rp,
            ep,
            maxgaps: [rp_maxgap, ep_maxgap],
            childless,
            vx,
        } = self;
        let finish = |b: SegmentBuilder, order: &[u32], kind, maxgap| {
            b.finish(order, |st| {
                encode_seg_index_meta(kind, dummy, maxgap, &childless, &build_stats(st))
            })
        };
        let (_, order) = finish(rp, &[], IndexKind::Regular, &rp_maxgap)?;
        finish(ep, &order, IndexKind::Extended, &ep_maxgap)?;
        let suffix = |kname| format!(".g{generation}.{kname}.seg");
        let mut run = ValueRunBuilder::new(env.create(&suffix("vx"))?, doc_base, n_docs);
        vx.drain(|e| run.push(e.section, &e.key, e.doc, e.post))?;
        run.finish()?;
        Ok([
            (SEG_KIND_RP, "rp"),
            (SEG_KIND_EP, "ep"),
            (SEG_KIND_VX, "vx"),
        ]
        .map(|(kind, kname)| ManifestSegment {
            kind,
            suffix: suffix(kname),
            doc_base,
            n_docs,
        })
        .into())
    }
}

/// A trie's statistics as the index reports them: a segment's, or a
/// view of the delta's.
pub(crate) fn build_stats(st: &prix_storage::SegTrieStats) -> BuildStats {
    BuildStats {
        trie_nodes: st.nodes as usize,
        trie_paths: st.leaves as usize,
        sequences: st.sequences,
        max_path_sharing: st.max_path_sharing,
        total_seq_len: st.total_path_len,
    }
}

/// Streaming bulk index build (`prix index`, and [`PrixEngine::build`]):
/// how every database begins, in files or in memory.
///
/// Documents are parsed one at a time and handed to the tier's
/// `TierBuilder`, which pushes them straight into its external sorters
/// (label paths for RP and EP, leaf-value postings for the value run);
/// nothing but the symbol table, the MaxGap tables, and the bounded sort
/// runs stays in memory. [`finish`] merges the runs into the tier's
/// files, writes the symbol table as the tier's symbol run, starts
/// an empty delta and its batch log for future inserts, and writes the
/// manifest **last** — a crash anywhere before that single write leaves
/// the previous manifest (or, on a fresh path, nothing) in charge.
///
/// Rebuilding over an existing segmented database allocates the next
/// generation's file names, so the old generation keeps serving until
/// the manifest swap; its files are unlinked only after the commit.
///
/// [`finish`]: BulkBuilder::finish
pub struct BulkBuilder {
    cfg: EngineConfig,
    env: Arc<dyn SegmentEnv>,
    syms: SymbolTable,
    generation: u64,
    prev: Option<prix_storage::Manifest>,
    tier: TierBuilder,
}

impl BulkBuilder {
    /// A bulk build at `cfg.path` (in-memory when `path` is `None`).
    pub fn new(cfg: EngineConfig) -> Result<Self> {
        Self::new_mem(cfg, DEFAULT_RUN_MEM_BYTES)
    }

    /// [`BulkBuilder::new`] with an explicit sort-run budget in bytes
    /// (`prix index --run-mem-mb N`).
    pub fn new_mem(cfg: EngineConfig, run_mem_bytes: usize) -> Result<Self> {
        let env: Arc<dyn SegmentEnv> = match &cfg.path {
            Some(p) => Arc::new(prix_storage::FileSegEnv::new(p.clone())),
            None => Arc::new(prix_storage::MemSegEnv::new()),
        };
        Self::with_env_mem(cfg, env, run_mem_bytes)
    }

    /// A bulk build with the environment supplied explicitly (tests
    /// inject fault-wrapped environments here).
    pub fn with_env(cfg: EngineConfig, env: Arc<dyn SegmentEnv>) -> Result<Self> {
        Self::with_env_mem(cfg, env, DEFAULT_RUN_MEM_BYTES)
    }

    /// [`BulkBuilder::with_env`] with an explicit sort-run budget in
    /// bytes (`prix index --run-mem-mb N`).
    pub fn with_env_mem(
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
        run_mem_bytes: usize,
    ) -> Result<Self> {
        Self::over(cfg, env, run_mem_bytes, SymbolTable::new())
    }

    /// A bulk build whose documents use `syms` (an already-parsed
    /// collection's table; the dummy label is interned into it).
    pub(crate) fn over(
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
        run_mem_bytes: usize,
        mut syms: SymbolTable,
    ) -> Result<Self> {
        // A rebuild over a live segmented database takes the next
        // generation's names; a fresh path starts at generation 1.
        let prev = if env.exists(".seg")? {
            prix_storage::Manifest::read_from(&*env.open(".seg")?)?
        } else {
            None
        };
        let generation = prev.as_ref().map_or(1, |m| m.generation + 1);
        let dummy = syms.intern(DUMMY_LABEL);
        let tier = TierBuilder::new(&env, generation, dummy, 0, run_mem_bytes)?;
        Ok(BulkBuilder {
            cfg,
            syms,
            generation,
            prev,
            tier,
            env,
        })
    }

    /// Parses and streams one XML document. Returns its document id.
    pub fn add_xml(&mut self, xml: &str) -> Result<u32> {
        let tree = parse_document(xml, &mut self.syms)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        self.add_tree(&tree)
    }

    /// Streams each element child of `wrapper`'s root as its own
    /// document (the `--split` convention for monolithic exports).
    pub fn add_xml_split(&mut self, wrapper: &str) -> Result<Vec<u32>> {
        let tree = parse_document(wrapper, &mut self.syms)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        let mut ids = Vec::new();
        for record in tree.element_children() {
            ids.push(self.add_tree(&record)?);
        }
        if ids.is_empty() {
            return Err(IndexError::Unsupported(
                "wrapper has no element children to index".into(),
            ));
        }
        Ok(ids)
    }

    /// Streams one parsed tree (must use this builder's symbol table).
    pub fn add_tree(&mut self, tree: &XmlTree) -> Result<u32> {
        let id = self.tier.n_docs;
        self.tier.add_tree(tree, &self.syms)?;
        Ok(id)
    }

    /// Documents streamed so far.
    pub fn doc_count(&self) -> u32 {
        self.tier.n_docs
    }

    /// Mutable access to the builder's symbol table (callers parsing
    /// trees themselves intern labels here).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.syms
    }

    /// Merges the sort runs into the segment files, starts the empty
    /// delta's log, commits the manifest (the single atomic publish
    /// point), unlinks any previous generation, and opens the finished
    /// engine.
    pub fn finish(self) -> Result<PrixEngine> {
        let BulkBuilder {
            cfg,
            env,
            syms,
            generation,
            prev,
            tier,
        } = self;
        let dummy = tier.dummy;
        let mut segments = tier.finish()?;
        // No run precedes this one: it holds the whole table.
        write_symbol_run(&*env, &syms, generation, &mut segments)?;
        let engine = PrixEngine::from_bulk(cfg, env, syms, dummy, generation, segments)?;
        // The manifest has committed; the previous generation's files
        // are dead weight now. Unlinking is safe even under live
        // readers (their open handles keep the bytes).
        if let Some(prev) = prev {
            for s in prev.segments.iter().map(|s| &s.suffix) {
                let _ = engine.seg_env().remove(s);
            }
            let _ = engine.seg_env().remove(&prev.log_suffix);
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use prix_storage::{IoStats, MemSegEnv, RawStore, SegmentEnv, SegmentReader};
    use prix_xml::Collection;

    use super::*;

    const PAGES: usize = 16;

    /// Document `i`: three shapes, interleaved, opening with one of four
    /// values all shapes share — so the documents of a shape share one
    /// RP trie path, and the EP file (whose sequences open with the
    /// first leaf's value) groups them by value, across shapes.
    fn shaped(i: usize) -> String {
        let v = i / 3 % 4;
        match i % 3 {
            0 => format!("<a><b>v{v}</b><c><d>w</d><d>x</d></c></a>"),
            1 => format!("<p><q><r>v{v}</r></q><s>w</s></p>"),
            _ => format!("<x><y>v{v}</y><y>w</y><z><y>x</y></z></x>"),
        }
    }

    /// A [`MemSegEnv`] whose EP files log where every read starts.
    #[derive(Default)]
    struct EpReadLog {
        inner: MemSegEnv,
        reads: Arc<Mutex<Vec<u64>>>,
    }

    struct LoggedStore {
        inner: Box<dyn RawStore>,
        reads: Arc<Mutex<Vec<u64>>>,
    }

    impl RawStore for LoggedStore {
        fn len(&self) -> prix_storage::Result<u64> {
            self.inner.len()
        }
        fn set_len(&self, len: u64) -> prix_storage::Result<()> {
            self.inner.set_len(len)
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> prix_storage::Result<()> {
            self.reads.lock().unwrap().push(offset);
            self.inner.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, buf: &[u8]) -> prix_storage::Result<()> {
            self.inner.write_at(offset, buf)
        }
        fn sync(&self) -> prix_storage::Result<()> {
            self.inner.sync()
        }
    }

    impl SegmentEnv for EpReadLog {
        fn create(&self, suffix: &str) -> prix_storage::Result<Box<dyn RawStore>> {
            self.inner.create(suffix)
        }
        fn open(&self, suffix: &str) -> prix_storage::Result<Box<dyn RawStore>> {
            let inner = self.inner.open(suffix)?;
            Ok(match suffix.ends_with(".ep.seg") {
                true => Box::new(LoggedStore {
                    inner,
                    reads: Arc::clone(&self.reads),
                }),
                false => inner,
            })
        }
        fn exists(&self, suffix: &str) -> prix_storage::Result<bool> {
            self.inner.exists(suffix)
        }
        fn remove(&self, suffix: &str) -> prix_storage::Result<()> {
            self.inner.remove(suffix)
        }
        fn temp(&self) -> prix_storage::Result<Box<dyn RawStore>> {
            self.inner.temp()
        }
    }

    /// The bytes of `suffix` in `env`.
    fn file(env: &MemSegEnv, suffix: &str) -> Vec<u8> {
        env.store(suffix).unwrap().snapshot()
    }

    /// Where the record index of the EP file `ep` starts, how long its
    /// record section is, and the index's entries but the last (where
    /// each record starts, by document id).
    fn record_starts(ep: &[u8], n: usize) -> (u64, u64, Vec<u64>) {
        let word = |at: usize| u64::from_le_bytes(ep[at..at + 8].try_into().unwrap());
        let (idx, data) = (word(40), word(48)); // header fields
        let starts = (0..n).map(|d| word(idx as usize + d * 8)).collect();
        (idx, idx - data, starts)
    }

    /// The doc ids of the segment file `suffix`, in its Docid section's
    /// order.
    fn doc_order(env: &MemSegEnv, suffix: &str) -> Vec<u32> {
        let store = env.open(suffix).unwrap();
        let rp = SegmentReader::open(store, Arc::new(IoStats::default())).unwrap();
        let mut order = Vec::new();
        rp.scan_docids(0, u64::MAX, &mut |d| order.push(d)).unwrap();
        order
    }

    /// The document ids sorted by where their EP records start.
    fn by_record_offset(starts: &[u64]) -> Vec<u32> {
        let mut docs: Vec<u32> = (0..starts.len() as u32).collect();
        docs.sort_by_key(|&d| starts[d as usize]);
        docs
    }

    /// A tier's records lie in the order of its RP Docid section, in a
    /// bulk build and in a compaction of the same documents (which
    /// writes the same EP file); and a value-free query over one shape
    /// fetches no more record blocks than that shape's records span,
    /// plus one for where they start inside a block.
    #[test]
    fn records_lie_in_rp_docid_order_and_a_shape_reads_its_own_blocks() {
        const N: usize = 1800;
        let docs: Vec<String> = (0..N).map(shaped).collect();
        let env = Arc::new(EpReadLog::default());
        let mut b = BulkBuilder::with_env(EngineConfig::default(), env.clone()).unwrap();
        for d in &docs {
            b.add_xml(d).unwrap();
        }
        drop(b.finish().unwrap());
        let ep = file(&env.inner, ".g1.ep.seg");
        let (idx_off, section, starts) = record_starts(&ep, N);
        let order = doc_order(&env.inner, ".g1.rp.seg");
        assert_eq!(by_record_offset(&starts), order);
        // Not the arrival order, and not the EP file's own Docid order.
        assert_ne!(order, (0..N as u32).collect::<Vec<_>>());
        assert_ne!(order, doc_order(&env.inner, ".g1.ep.seg"));

        // The same documents through the delta and a compaction.
        let mem = Arc::new(MemSegEnv::new());
        let mut engine =
            PrixEngine::build_env(Collection::new(), EngineConfig::default(), mem.clone()).unwrap();
        for d in &docs {
            engine.insert_document(d).unwrap();
        }
        assert!(engine.compact().unwrap());
        let compacted = file(&mem, ".g2.ep.seg");
        let (_, _, compacted_starts) = record_starts(&compacted, N);
        assert_eq!(
            by_record_offset(&compacted_starts),
            doc_order(&mem, ".g2.rp.seg")
        );
        assert!(
            compacted == ep,
            "a compaction writes the bulk build's EP file"
        );

        // `//a/b` refines every document of shape 0 and nothing else.
        let shape: Vec<u32> = (0..N as u32).step_by(3).collect();
        let end_of = |d: u32| {
            let next = starts.iter().filter(|&&s| s > starts[d as usize]).min();
            *next.unwrap_or(&section)
        };
        let bytes: u64 = shape.iter().map(|&d| end_of(d) - starts[d as usize]).sum();
        let engine = PrixEngine::reopen_env(env.clone(), PAGES).unwrap();
        let view = engine.snapshot();
        let q = view.parse_query("//a/b").unwrap();
        engine.clear_cache().unwrap();
        env.reads.lock().unwrap().clear();
        let out = view.query(&q).unwrap();
        assert_eq!(out.matches.len(), shape.len());
        let block = 4096; // a segment block
        let fetched = env
            .reads
            .lock()
            .unwrap()
            .iter()
            .filter(|&&at| at < idx_off)
            .count();
        let bound = bytes.div_ceil(block) + 1;
        assert!(
            fetched as u64 <= bound,
            "{fetched} record blocks fetched for {bytes} bytes of records"
        );
        // In arrival order every block holds all three shapes.
        let section_blocks = section.div_ceil(block);
        assert!(2 * bound <= section_blocks, "{section_blocks} blocks");
    }
}
