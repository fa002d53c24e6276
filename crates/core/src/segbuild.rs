//! Bulk segment construction: streaming documents into the immutable
//! segment files of `prix_storage::segment`.
//!
//! Two producers feed a segment:
//!
//! * [`BulkBuilder`] — `prix index`: documents stream straight
//!   from the parser into the external sorter, never materializing the
//!   whole collection's B⁺-trees. Memory is bounded by the sort-run
//!   budget; everything else spills to scratch files.
//! * Compaction (`PrixEngine::compact`) — hands over the mutable tier's
//!   stored records, which the same encoder wrote at insert, so a
//!   compacted segment is **byte-identical** to what a bulk build of
//!   the same documents would have produced (the property the
//!   `bulk_equals_incremental` suite pins).
//!
//! Both paths end at [`SegIndexBuilder`], a thin adapter that turns one
//! document into the segment builder's `(record, path, gaps)` triple.

use std::collections::HashSet;
use std::sync::Arc;

use prix_prufer::MaxGapTable;
use prix_storage::segment::ExternalSorter;
use prix_storage::{
    env_temp_factory, ManifestSegment, SegmentBuilder, SegmentEnv, ValueRunBuilder, VxEntry,
    SEG_KIND_EP, SEG_KIND_RP, SEG_KIND_VX,
};
use prix_xml::{parse_document, PostNum, Sym, SymbolTable, XmlTree};

use crate::engine::{write_symbol_run, EngineConfig, PrixEngine, DUMMY_LABEL};
use crate::index::{
    decode_doc_record, encode_doc_record, encode_seg_index_meta, BuildStats, DocArtifacts,
    IndexError, IndexKind, Result,
};
use crate::valix::run_entries;

/// Default in-memory sort budget per segment build (64 MiB, the
/// `--run-mem-mb` default).
pub const DEFAULT_RUN_MEM_BYTES: usize = 64 << 20;

/// Reconstructs the per-position fine gaps from an NPS alone —
/// equivalent to `position_gaps(nps, node_gaps(tree))` without the
/// tree: the children of the node with postorder `p` are exactly the
/// positions `i` with `nps[i] == p` (child postorder `i + 1`, already
/// ascending), so the node's gap is `last - first` when it has two or
/// more children. Compaction uses this to label a stored record's path
/// bit-identically to the original bulk path.
pub(crate) fn gaps_from_nps(nps: &[PostNum]) -> Vec<u32> {
    let hi = nps.len() + 2; // postorders run 1..=len+1
    let mut first = vec![0u32; hi];
    let mut last = vec![0u32; hi];
    for (i, &p) in nps.iter().enumerate() {
        let child = (i + 1) as u32;
        if first[p as usize] == 0 {
            first[p as usize] = child;
        }
        last[p as usize] = child;
    }
    nps.iter()
        .map(|&p| {
            let (f, l) = (first[p as usize], last[p as usize]);
            if f != 0 && l > f {
                l - f
            } else {
                0
            }
        })
        .collect()
}

/// Adapter from documents to one segment file of a given index kind.
/// Wraps [`SegmentBuilder`] with the PRIX-level encoding: Prüfer
/// sequences, refinement records, fine gaps, and the index-metadata
/// blob written at [`SegIndexBuilder::finish`].
pub(crate) struct SegIndexBuilder {
    kind: IndexKind,
    dummy: Sym,
    inner: SegmentBuilder,
}

impl SegIndexBuilder {
    pub(crate) fn new(
        env: &Arc<dyn SegmentEnv>,
        suffix: &str,
        kind: IndexKind,
        dummy: Sym,
        doc_base: u32,
        run_mem_bytes: usize,
    ) -> Result<Self> {
        let out = env.create(suffix)?;
        let seg_kind = match kind {
            IndexKind::Regular => SEG_KIND_RP,
            IndexKind::Extended => SEG_KIND_EP,
        };
        Ok(SegIndexBuilder {
            kind,
            dummy,
            inner: SegmentBuilder::new(
                out,
                env_temp_factory(env),
                seg_kind,
                doc_base,
                run_mem_bytes,
            ),
        })
    }

    /// Streams one parsed document in, folding its gaps into `maxgap`
    /// and its childless labels into `childless` (the caller owns both
    /// because they span the whole segment).
    pub(crate) fn add_tree(
        &mut self,
        tree: &XmlTree,
        maxgap: &mut MaxGapTable,
        childless: &mut HashSet<Sym>,
    ) -> Result<()> {
        let art = DocArtifacts::of(tree, self.kind, self.dummy, maxgap);
        childless.extend(&art.childless);
        let path = art.data.lps.iter().map(|s| s.0).collect();
        self.inner
            .add_doc(&encode_doc_record(&art.data), path, art.gaps)?;
        Ok(())
    }

    /// Streams one already-indexed document in as its stored record
    /// (the compaction path): the bytes go into the segment as they
    /// are, decoded only for the label path and the gaps.
    pub(crate) fn add_doc_data(&mut self, record: &[u8]) -> Result<()> {
        let d = decode_doc_record(record, true)
            .ok_or_else(|| IndexError::Unsupported("corrupt document record".into()))?;
        let path = d.lps.iter().map(|s| s.0).collect();
        self.inner.add_doc(record, path, gaps_from_nps(&d.nps))?;
        Ok(())
    }

    /// Sorts, merges, labels, and writes the segment (header, CRC
    /// table, metadata blob), then syncs it.
    pub(crate) fn finish(
        self,
        maxgap: &MaxGapTable,
        childless: &HashSet<Sym>,
    ) -> Result<BuildStats> {
        let (kind, dummy) = (self.kind, self.dummy);
        let st = self.inner.finish(|st| {
            let bs = BuildStats {
                trie_nodes: st.nodes as usize,
                trie_paths: st.leaves as usize,
                sequences: st.sequences,
                max_path_sharing: st.max_path_sharing,
                underflows: 0,
                total_seq_len: st.total_path_len,
            };
            encode_seg_index_meta(kind, dummy, maxgap, childless, &bs)
        })?;
        Ok(BuildStats {
            trie_nodes: st.nodes as usize,
            trie_paths: st.leaves as usize,
            sequences: st.sequences,
            max_path_sharing: st.max_path_sharing,
            underflows: 0,
            total_seq_len: st.total_path_len,
        })
    }
}

/// Streaming bulk index build (`prix index`, and
/// [`PrixEngine::build`] with a path): how every file database begins.
///
/// Documents are parsed one at a time and pushed straight into the
/// per-kind external sorters (label paths for RP and EP, leaf-value
/// postings for the value run); nothing but the symbol table, the
/// MaxGap tables, and the bounded sort runs stays in memory. [`finish`]
/// merges the runs into one immutable segment per kind and the tier's
/// value run, writes the symbol table as the tier's symbol run, starts
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
    rp: SegIndexBuilder,
    ep: SegIndexBuilder,
    rp_maxgap: MaxGapTable,
    ep_maxgap: MaxGapTable,
    childless: HashSet<Sym>,
    /// Every leaf value's run entries, sorted under the same budget as
    /// the label paths.
    vx: ExternalSorter<VxEntry>,
    n_docs: u32,
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
        let rp = SegIndexBuilder::new(
            &env,
            &format!(".g{generation}.rp.seg"),
            IndexKind::Regular,
            dummy,
            0,
            run_mem_bytes,
        )?;
        let ep = SegIndexBuilder::new(
            &env,
            &format!(".g{generation}.ep.seg"),
            IndexKind::Extended,
            dummy,
            0,
            run_mem_bytes,
        )?;
        Ok(BulkBuilder {
            cfg,
            syms,
            generation,
            prev,
            rp,
            ep,
            rp_maxgap: MaxGapTable::new(),
            ep_maxgap: MaxGapTable::new(),
            childless: HashSet::new(),
            vx: ExternalSorter::new(run_mem_bytes, env_temp_factory(&env)),
            n_docs: 0,
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
        for node in tree.nodes() {
            if tree.is_leaf(node) && node != tree.root() {
                let post = tree.postorder(node);
                let parent = tree.parent_post(post).expect("non-root leaf has a parent");
                let (tag, value) = (tree.label_at(parent), self.syms.name(tree.label(node)));
                for e in run_entries(tag, value, self.n_docs, post) {
                    self.vx.push(e)?;
                }
            }
        }
        self.rp
            .add_tree(tree, &mut self.rp_maxgap, &mut self.childless)?;
        self.ep
            .add_tree(tree, &mut self.ep_maxgap, &mut self.childless)?;
        let id = self.n_docs;
        self.n_docs += 1;
        Ok(id)
    }

    /// Documents streamed so far.
    pub fn doc_count(&self) -> u32 {
        self.n_docs
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
            rp,
            ep,
            rp_maxgap,
            ep_maxgap,
            childless,
            vx,
            n_docs,
        } = self;
        let dummy = rp.dummy;
        rp.finish(&rp_maxgap, &childless)?;
        ep.finish(&ep_maxgap, &childless)?;
        let mut run =
            ValueRunBuilder::new(env.create(&format!(".g{generation}.vx.seg"))?, 0, n_docs);
        vx.drain(|e| run.push(e.section, &e.key, e.doc, e.post))?;
        run.finish()?;
        let mut segments = Vec::from(
            [
                (SEG_KIND_RP, "rp"),
                (SEG_KIND_EP, "ep"),
                (SEG_KIND_VX, "vx"),
            ]
            .map(|(kind, kname)| ManifestSegment {
                kind,
                suffix: format!(".g{generation}.{kname}.seg"),
                doc_base: 0,
                n_docs,
            }),
        );
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
    use super::*;

    #[test]
    fn gaps_from_nps_matches_tree_derivation() {
        let mut syms = SymbolTable::new();
        for xml in [
            "<a><b><c/><d/></b><e/></a>",
            "<a><b>v</b></a>",
            "<r><x><y><z/></y></x><x/><x><q/></x></r>",
            "<one/>",
        ] {
            let tree = parse_document(xml, &mut syms).unwrap();
            let dummy = syms.intern("\u{1}d");
            for kind in [IndexKind::Regular, IndexKind::Extended] {
                let art = DocArtifacts::of(&tree, kind, dummy, &mut MaxGapTable::new());
                assert_eq!(gaps_from_nps(&art.data.nps), art.gaps, "{kind} {xml}");
            }
        }
    }
}
