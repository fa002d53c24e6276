//! The delta: the one tier that takes inserts.
//!
//! The writer keeps, for each index kind, every document's filed path
//! and fine gaps (`DocData::filed_path`) and the MaxGap table they
//! fold into, the labels of the documents' childless nodes, and each
//! document's one record, in a record store in the buffer pool. It
//! labels nothing as documents arrive. A view labels the paths of the
//! documents it holds when it is taken ([`Delta::index`]) with
//! `prix_storage::segment::label_paths`, the streaming trie a segment
//! build runs: §5.2.1's exact labels over the delta's trie. So a view
//! holds exactly the Trie-Symbol and Docid rows of the tier a compaction
//! of the same documents writes, and no document is refused for want of
//! label space (the scope-halving labeling the paper offers for inserts
//! "suffers from scope underflows"). The rows are the view's own: a
//! later insert changes nothing it reads but the record store, where it
//! reads only the records of its own documents.

use std::collections::HashSet;
use std::sync::{Arc, RwLock};

use prix_prufer::MaxGapTable;
use prix_storage::segment::label_paths;
use prix_storage::{BufferPool, RecordStore};
use prix_xml::{DocId, Sym, XmlTree};

use crate::index::{
    encode_doc_record, half_changed, DeltaRecords, DocData, IndexKind, PrixIndex, Records, Result,
    Rows,
};

/// The delta's documents, as its writer keeps them.
pub struct Delta {
    /// The label of the §5.6 leaf extension.
    dummy: Sym,
    /// The first document's global id: where the tiers end.
    doc_base: DocId,
    records: Arc<RwLock<DeltaRecords>>,
    rp: Filed,
    ep: Filed,
    /// Labels of the documents' childless nodes (§4.4 gate): their
    /// leaves'. Both indexes gate on the same set.
    childless: HashSet<Sym>,
}

/// What one index kind files the delta's documents under.
#[derive(Default)]
struct Filed {
    /// Each document's label path and per-position fine gaps, by local
    /// id.
    paths: Vec<(Vec<u32>, Vec<u32>)>,
    /// The MaxGap table of those paths.
    maxgap: MaxGapTable,
}

impl Delta {
    /// An empty delta whose records go to `pool`, with `dummy` as the
    /// label of the extended sequences' leaves. The record store takes
    /// its first page now, the delta's first: a query's cold page count
    /// depends on which ids its records got.
    pub fn new(pool: Arc<BufferPool>, dummy: Sym) -> Result<Self> {
        let records = DeltaRecords {
            docs: Vec::new(),
            store: RecordStore::create(pool)?,
        };
        Ok(Delta {
            dummy,
            doc_base: 0,
            records: Arc::new(RwLock::new(records)),
            rp: Filed::default(),
            ep: Filed::default(),
            childless: HashSet::new(),
        })
    }

    /// Adds `tree`, whose labels are the engine's, as the next document
    /// and returns its id. Its record is appended first, so an insert
    /// that fails there leaves the delta as it was; an insert that
    /// panicked under the store's lock leaves it refusing every reader
    /// ("half-changed").
    pub fn insert(&mut self, tree: &XmlTree) -> Result<DocId> {
        let data = DocData::regular(tree);
        let filed = |kind| {
            data.filed_path(kind, self.dummy)
                .expect("a tree's regular view extends")
        };
        let filed = [filed(IndexKind::Regular), filed(IndexKind::Extended)];
        let local = self.doc_count() as DocId;
        {
            let mut r = self.records.write().map_err(half_changed)?;
            let rec = r.store.append(&encode_doc_record(&data))?;
            r.docs.push(rec);
        }
        for (side, (path, gaps)) in [&mut self.rp, &mut self.ep].into_iter().zip(filed) {
            side.maxgap.add_seq(&path, &gaps);
            side.paths
                .push((path.into_iter().map(|s| s.0).collect(), gaps));
        }
        self.childless.extend(data.leaves.iter().map(|&(s, _)| s));
        Ok(self.doc_base + local)
    }

    /// A view of the delta's index of `kind` as it stands: the paths
    /// labeled now into rows of its own, which later inserts do not
    /// touch, over the delta's record store.
    pub fn index(&self, kind: IndexKind) -> PrixIndex {
        let filed = match kind {
            IndexKind::Regular => &self.rp,
            IndexKind::Extended => &self.ep,
        };
        let paths = filed.paths.iter().zip(0..);
        let (tags, ends, stats) = label_paths(paths.map(|((p, g), doc)| (&p[..], &g[..], doc)));
        let mut idx = PrixIndex::from_rows(
            kind,
            self.dummy,
            Rows { tags, ends },
            crate::segbuild::build_stats(&stats),
            filed.maxgap.clone(),
            self.childless.clone(),
            Records::Delta(Arc::clone(&self.records)),
        );
        idx.set_doc_base(self.doc_base);
        idx
    }

    /// Documents inserted.
    pub(crate) fn doc_count(&self) -> usize {
        self.rp.paths.len()
    }

    /// The first document's global id.
    pub(crate) fn doc_base(&self) -> DocId {
        self.doc_base
    }

    /// Re-bases the delta's document ids: it starts where the tiers
    /// end.
    pub(crate) fn set_doc_base(&mut self, base: DocId) {
        self.doc_base = base;
    }

    /// The record of local document `local` (what a compaction writes
    /// into the tier).
    pub(crate) fn record(&self, local: usize) -> Result<Vec<u8>> {
        let r = self.records.read().map_err(half_changed)?;
        Ok(r.store.read(r.docs[local])?)
    }
}

#[cfg(test)]
mod tests {
    use prix_datagen::{generate, Dataset};
    use prix_xml::{write_document, Collection};

    use super::*;
    use crate::engine::{EngineConfig, PrixEngine};
    use crate::index::{ExecOpts, TwigMatch};

    /// Per index kind, a view of the delta holds the rows, in order, and
    /// the trie statistics of the tier its compaction writes; and the
    /// RPIndex's limited answers, which come in trie order, do not move
    /// across that compaction.
    #[test]
    fn a_view_holds_the_rows_its_compaction_writes() {
        for ds in Dataset::all() {
            let collection = generate(ds, 0.01, 3);
            let xml: Vec<String> = collection
                .iter()
                .map(|(_, t)| write_document(t, collection.symbols()))
                .collect();
            let mut e = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
            assert!(e.ingest_batch(&xml).unwrap().rejected.is_empty());
            e.save().unwrap();
            let views = [IndexKind::Regular, IndexKind::Extended].map(|k| e.delta().index(k));
            let xpaths: &[&str] = match ds {
                Dataset::Dblp => &["//www[./editor]/url", "//inproceedings[./author]/year"],
                Dataset::Swissprot => &["//Entry/Ref/Author", "//Entry[./Org]/Ref/Cite"],
                Dataset::Treebank => &["//S//NP/SYM", "//NP/PP/NP[./NNS_OR_NN][./NN]"],
            };
            let limited = |e: &PrixEngine| -> Vec<Vec<TwigMatch>> {
                let snap = e.snapshot();
                let opts = [1, 7, 50].map(|k| ExecOpts::new().with_limit(k));
                let forced = Some(IndexKind::Regular);
                xpaths
                    .iter()
                    .map(|xp| snap.parse_query(xp).unwrap())
                    .flat_map(|q| opts.map(|o| snap.execute_prix(&q, &o, forced)))
                    .map(|out| out.unwrap().matches)
                    .collect()
            };
            let before = limited(&e);
            assert!(before.iter().all(|m| !m.is_empty()), "{ds:?}");
            assert!(e.compact().unwrap());
            let tier = e.seg_tiers().last().unwrap();
            assert_eq!((tier.doc_base, tier.n_docs as usize), (0, xml.len()));
            for view in &views {
                let kind = view.kind();
                let written = tier.index_of(kind);
                for sym in (0..e.symbols().len() as u32).map(Sym) {
                    let rows = |idx: &PrixIndex| idx.scan_tag_range(sym, 0, u64::MAX).unwrap();
                    assert_eq!(rows(view), rows(written), "{ds:?} {kind} {sym:?}");
                }
                let ends = |idx: &PrixIndex| {
                    let mut out = std::collections::VecDeque::new();
                    idx.scan_docids(0, u64::MAX, &mut out).unwrap();
                    out
                };
                assert_eq!(ends(view), ends(written), "{ds:?} {kind}");
                let stats = |idx: &PrixIndex| format!("{:?}", idx.build_stats());
                assert_eq!(stats(view), stats(written), "{ds:?} {kind}");
            }
            assert_eq!(limited(&e), before, "{ds:?}");
        }
    }

    /// A view's rows are its own: inserts after it, of shapes that add
    /// trie nodes under and beside its own, move neither its answer nor
    /// any of its counters.
    #[test]
    fn a_views_counters_do_not_move_when_the_writer_inserts() {
        let mut e = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
        for i in 0..5 {
            e.insert_document(&format!("<a><b>v{i}</b></a>")).unwrap();
        }
        let view = e.snapshot();
        let q = view.parse_query("//a/b").unwrap();
        let run = || {
            let out = view.query(&q).unwrap();
            (out.matches, out.stats.counters_only())
        };
        let before = run();
        assert_eq!(before.0.len(), 5);
        for xml in [
            "<a><b><c/></b></a>",
            "<r><a><b/></a></r>",
            "<b><a><b>v1</b></a></b>",
            "<a><x/><b>v9</b></a>",
        ] {
            e.insert_document(xml).unwrap();
        }
        assert_eq!(run(), before);
    }
}
