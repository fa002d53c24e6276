//! The disk-resident PRIX index (paper §5).
//!
//! One [`PrixIndex`] covers one collection in one of two flavors
//! (§5.6): **RPIndex** over Regular-Prüfer sequences or **EPIndex** over
//! Extended-Prüfer sequences. Both consist of
//!
//! * the **Trie-Symbol index** — the virtual trie's labeled nodes keyed
//!   by `(symbol, LeftPos)` in a B⁺-tree (one logical index per tag,
//!   stored as a composite key so sparsely-used tags share pages),
//! * the **Docid index** — document ids keyed by the LeftPos of the trie
//!   node where each LPS ends,
//! * one record per document (NPS, LPS, leaf list, and for EPIndex the
//!   extended→original postorder map: [`encode_doc_record`]) in a
//!   [`RecordStore`],
//! * the per-label [`MaxGapTable`] (§5.4).
//!
//! Query execution is Algorithm 1 (`FindSubsequence` by range queries,
//! with the Theorem 4 MaxGap pruning) followed by Algorithm 2 (the
//! refinement phases), producing the set of twig matches with their
//! embeddings.

use std::collections::HashSet;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use prix_prufer::{EdgeKind, ExtendedTree, MaxGapTable, PruferSeq};
use prix_storage::{
    BPlusTree, BufferPool, RecordId, RecordStore, SegmentReader, StorageError, SEG_KIND_RP,
};
use prix_xml::{Collection, DocId, PostNum, Sym, XmlTree};

use crate::query::TwigQuery;
use crate::trie::{LabeledNode, LabelingMode, VirtualTrie};

/// Which sequence flavor an index stores (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Regular-Prüfer sequences: internal labels only; queries whose
    /// leaves all hang on `/` edges and carry no values.
    Regular,
    /// Extended-Prüfer sequences: every label appears; required for
    /// value predicates, single-node queries, and wildcard edges above
    /// leaves.
    Extended,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::Regular => write!(f, "RPIndex"),
            IndexKind::Extended => write!(f, "EPIndex"),
        }
    }
}

/// Index-layer error.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// The query cannot be answered by this index kind.
    Unsupported(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "index storage error: {e}"),
            IndexError::Unsupported(m) => write!(f, "unsupported query: {m}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

/// One occurrence of a twig in a document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TwigMatch {
    /// Document containing the occurrence.
    pub doc: DocId,
    /// `embedding[q - 1]` = postorder number (in the *original*
    /// document numbering) of the image of query node `q` (original
    /// query postorder).
    pub embedding: Vec<PostNum>,
}

/// Counters describing one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Range queries issued against the Trie-Symbol index
    /// (line 1 of Algorithm 1).
    pub range_queries: u64,
    /// Trie nodes produced by those range queries.
    pub nodes_scanned: u64,
    /// Candidates pruned by the MaxGap metric (Theorem 4).
    pub maxgap_pruned: u64,
    /// `(doc, S)` candidate pairs entering refinement.
    pub candidates: u64,
    /// Candidates surviving all refinement phases.
    pub refined: u64,
    /// Distinct twig matches reported.
    pub matches: u64,
    /// Value-index probes issued for the query's predicates.
    pub valix_probes: u64,
    /// Postings scanned by those probes.
    pub valix_postings: u64,
    /// Candidates dropped by the valix document pre-filter before
    /// refinement (their documents cannot satisfy every predicate).
    pub pred_skipped: u64,
    /// Refined matches rejected by positional predicate verification.
    pub pred_rejected: u64,
    /// Wall clock spent in the filtering stage (Algorithm 1: trie range
    /// queries + MaxGap pruning + docid scans).
    pub filter_time: Duration,
    /// Wall clock spent in refinement (per-document record loads +
    /// Algorithm 2).
    pub refine_time: Duration,
    /// Wall clock spent projecting embeddings and deduplicating
    /// matches.
    pub project_time: Duration,
}

impl QueryStats {
    /// This stats value with the wall-clock timings zeroed. Counters
    /// are deterministic per query; timings are not — compare
    /// `a.counters_only() == b.counters_only()` in tests.
    pub fn counters_only(mut self) -> QueryStats {
        self.filter_time = Duration::default();
        self.refine_time = Duration::default();
        self.project_time = Duration::default();
        self
    }
}

/// Execution options: the MaxGap toggles back the §5.4 ablation bench,
/// `limit` drives LIMIT pushdown through the streaming executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecOpts {
    /// Apply the Theorem 4 pruning during subsequence matching.
    pub use_maxgap: bool,
    /// Use the finer-grained per-trie-node MaxGap values (§5.4:
    /// "Finer-grained MaxGap values can be stored in every occurrence
    /// of a symbol in the virtual trie"). Only effective when
    /// `use_maxgap` is set.
    pub use_fine_maxgap: bool,
    /// Stop after this many distinct matches. `None` = unlimited. With
    /// a limit the executor stops *pulling* — remaining trie range
    /// queries, docid scans, and refinements never run — and matches
    /// arrive in trie-traversal order rather than sorted candidate
    /// order (so a limit no query reaches, `usize::MAX`, asks for
    /// exactly that order).
    pub limit: Option<usize>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            use_maxgap: true,
            use_fine_maxgap: true,
            limit: None,
        }
    }
}

impl ExecOpts {
    /// Default options: MaxGap pruning on, no limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stops after `limit` distinct matches.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Removes any match limit.
    pub fn without_limit(mut self) -> Self {
        self.limit = None;
        self
    }

    /// Disables Theorem 4 pruning entirely.
    pub fn without_maxgap(mut self) -> Self {
        self.use_maxgap = false;
        self
    }

    /// Keeps the global per-label MaxGap bound but drops the per-node
    /// fine gaps (§5.4 ablation).
    pub fn without_fine_maxgap(mut self) -> Self {
        self.use_fine_maxgap = false;
        self
    }
}

/// Statistics recorded while building the index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Labeled trie nodes.
    pub trie_nodes: usize,
    /// Distinct root-to-leaf trie paths.
    pub trie_paths: usize,
    /// Sequences inserted (= documents).
    pub sequences: u64,
    /// Maximum number of sequences sharing one path.
    pub max_path_sharing: u64,
    /// Scope underflows (dynamic labeling only).
    pub underflows: u64,
    /// Total length of all indexed sequences.
    pub total_seq_len: u64,
}

/// A PRIX index over one collection *tier*.
///
/// `Clone` snapshots the *handles* (tree roots, the documents' record
/// ids, MaxGap): clones share the underlying pages. The engine's
/// snapshot publication clones the index once per commit to give
/// readers a frozen catalog while the writer's copy keeps mutating;
/// the two stay consistent through the pool's epoch-pinned page views.
///
/// Two backings exist behind one query interface: the **mutable tier**
/// (B⁺-trees and a record store through the buffer pool, the only tier
/// that accepts inserts) and **immutable segments** (the bulk-built
/// implicit-tree files of `prix_storage::segment`, read through their
/// own block cache). The executor is backing-agnostic — it only sees
/// [`PrixIndex::scan_tag_range`] / [`PrixIndex::scan_docids`] /
/// [`PrixIndex::load_doc`].
#[derive(Clone)]
pub struct PrixIndex {
    kind: IndexKind,
    maxgap: MaxGapTable,
    dummy: Sym,
    build_stats: BuildStats,
    /// First global document id of this tier: ids stored in the backing
    /// are tier-local, [`PrixIndex::scan_docids`] adds the base and
    /// [`PrixIndex::load_doc`] subtracts it.
    doc_base: DocId,
    /// Labels that occur on childless nodes somewhere in the collection
    /// (values, empty elements). A query leaf with such a label cannot
    /// use the leaf-extended plan soundly (§4.4): its image might be a
    /// childless node, which a dummy-extended query would miss.
    childless: HashSet<Sym>,
    backing: Backing,
}

/// Where a [`PrixIndex`] reads its trie nodes, doc ends, and records.
#[derive(Clone)]
enum Backing {
    Tree(TreeBacking),
    Seg(Arc<SegmentReader>),
}

/// The mutable tier: everything lives in buffer-pool pages.
#[derive(Clone)]
struct TreeBacking {
    /// Trie-Symbol index: [`tag_key`] → [`tag_val`].
    tag_index: BPlusTree,
    /// Docid index: key = left(8, BE), value = doc(4, LE).
    docid_index: BPlusTree,
    /// Trie-node table for incremental inserts: left(8, BE) →
    /// [`node_val`]. Entry 0 is the virtual root.
    trie_nodes: BPlusTree,
    /// Each document's record, by local id.
    docs: Vec<RecordId>,
    store: RecordStore,
}

/// Trie-Symbol index key: sym(4, BE) ++ left(8, BE).
fn tag_key(sym: Sym, left: u64) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..4].copy_from_slice(&sym.0.to_be_bytes());
    k[4..].copy_from_slice(&left.to_be_bytes());
    k
}

/// Trie-Symbol index value: right(8, LE) ++ level(4, LE) ++
/// fine_gap(4, LE).
fn tag_val(right: u64, level: u32, fine_gap: u32) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[..8].copy_from_slice(&right.to_le_bytes());
    v[8..12].copy_from_slice(&level.to_le_bytes());
    v[12..].copy_from_slice(&fine_gap.to_le_bytes());
    v
}

/// A Trie-Symbol entry as `(left, right, level, fine_gap)`: the inverse
/// of [`tag_key`] and [`tag_val`].
fn tag_row(k: &[u8], v: &[u8]) -> (u64, u64, u32, u32) {
    (
        u64::from_be_bytes(k[4..12].try_into().unwrap()),
        u64::from_le_bytes(v[..8].try_into().unwrap()),
        u32::from_le_bytes(v[8..12].try_into().unwrap()),
        u32::from_le_bytes(v[12..16].try_into().unwrap()),
    )
}

/// Trie-node table value: right(8, LE) ++ frontier(8, LE) ++
/// level(4, LE) ++ sym(4, LE), under the key left(8, BE).
fn node_val(n: &LabeledNode) -> [u8; 24] {
    let mut v = [0u8; 24];
    v[..8].copy_from_slice(&n.right.to_le_bytes());
    v[8..16].copy_from_slice(&n.frontier.to_le_bytes());
    v[16..20].copy_from_slice(&n.level.to_le_bytes());
    v[20..].copy_from_slice(&n.sym.0.to_le_bytes());
    v
}

/// The trie-node table's row at `left`: the inverse of [`node_val`].
/// The table does not hold fine gaps (the Trie-Symbol index does).
fn node_row(left: u64, v: &[u8]) -> LabeledNode {
    LabeledNode {
        left,
        right: u64::from_le_bytes(v[..8].try_into().unwrap()),
        frontier: u64::from_le_bytes(v[8..16].try_into().unwrap()),
        level: u32::from_le_bytes(v[16..20].try_into().unwrap()),
        sym: Sym(u32::from_le_bytes(v[20..24].try_into().unwrap())),
        fine_gap: u32::MAX,
    }
}

/// Everything indexing derives from one document, computed in one place
/// and once per index: the only code that knows a Regular sequence from
/// an Extended one.
pub(crate) struct DocArtifacts {
    /// What the document's record holds ([`encode_doc_record`]).
    pub(crate) data: DocData,
    /// Per-position gaps feeding the fine-grained MaxGap.
    pub(crate) gaps: Vec<u32>,
    /// Labels of the document's childless nodes (§4.4 gate).
    pub(crate) childless: Vec<Sym>,
}

impl DocArtifacts {
    /// The artifacts of `tree` for an index of `kind`, folding the tree
    /// (extended with `dummy` leaves for [`IndexKind::Extended`]) into
    /// `maxgap`.
    pub(crate) fn of(
        tree: &XmlTree,
        kind: IndexKind,
        dummy: Sym,
        maxgap: &mut MaxGapTable,
    ) -> Self {
        let ext = match kind {
            IndexKind::Regular => None,
            IndexKind::Extended => Some(ExtendedTree::build(tree, dummy)),
        };
        let indexed = ext.as_ref().map_or(tree, |e| &e.tree);
        maxgap.add_tree(indexed);
        let PruferSeq { lps, nps } = PruferSeq::regular(indexed);
        let childless = tree.nodes().filter(|&n| tree.is_leaf(n));
        DocArtifacts {
            gaps: position_gaps(&nps, &node_gaps(indexed)),
            childless: childless.map(|n| tree.label(n)).collect(),
            data: DocData {
                nps,
                lps,
                leaves: indexed.leaves(),
                orig_map: ext.map(|e| e.orig_post),
                n_orig: tree.len() as u32,
            },
        }
    }
}

/// A document [`PrixIndex::prepare`] has encoded and found room for in
/// the virtual trie: the only thing [`PrixIndex::insert`] takes.
pub struct Prepared {
    art: DocArtifacts,
    /// The document's own MaxGap table, folded into the index's by the
    /// insert (preparing mutates nothing).
    maxgap: MaxGapTable,
}

/// Per-document data used by refinement: what a document's record
/// encodes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DocData {
    pub(crate) nps: Vec<PostNum>,
    pub(crate) lps: Vec<Sym>,
    pub(crate) leaves: Vec<(Sym, PostNum)>,
    pub(crate) orig_map: Option<Vec<PostNum>>,
    pub(crate) n_orig: u32,
}

impl PrixIndex {
    /// Builds an index of the given `kind` over `collection`.
    ///
    /// `dummy` is the label used for the §5.6 leaf extension (EPIndex
    /// only); it must not be used as a query label.
    pub fn build(
        pool: Arc<BufferPool>,
        collection: &Collection,
        kind: IndexKind,
        mode: LabelingMode,
        dummy: Sym,
    ) -> Result<Self> {
        let mut store = RecordStore::create(Arc::clone(&pool))?;
        let mut trie = VirtualTrie::new();
        let mut maxgap = MaxGapTable::new();
        let mut docs = Vec::with_capacity(collection.len());
        let mut total_seq_len = 0u64;
        let mut childless = HashSet::new();

        for (doc_id, tree) in collection.iter() {
            let art = DocArtifacts::of(tree, kind, dummy, &mut maxgap);
            childless.extend(&art.childless);
            total_seq_len += art.data.lps.len() as u64;
            trie.insert_with_gaps(&art.data.lps, doc_id, Some(&art.gaps));
            docs.push(store.append(&encode_doc_record(&art.data))?);
        }

        trie.assign_ranges(mode);
        let build_stats = BuildStats {
            trie_nodes: trie.node_count(),
            trie_paths: trie.leaf_count(),
            sequences: trie.sequence_count(),
            max_path_sharing: trie.max_path_sharing(),
            underflows: trie.underflows(),
            total_seq_len,
        };

        // Bulk-load the Trie-Symbol index sorted by (sym, left).
        let mut tag_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(trie.node_count());
        trie.for_each_node(|n| {
            let val = tag_val(n.right, n.level, n.fine_gap);
            tag_entries.push((tag_key(n.sym, n.left).to_vec(), val.to_vec()));
        });
        tag_entries.sort();
        let tag_index = BPlusTree::bulk_load(Arc::clone(&pool), tag_entries, 0.9)?;

        // Docid index sorted by left.
        let mut doc_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        trie.for_each_doc_end(|left, doc| {
            doc_entries.push((left.to_be_bytes().to_vec(), doc.to_le_bytes().to_vec()));
        });
        doc_entries.sort();
        let docid_index = BPlusTree::bulk_load(Arc::clone(&pool), doc_entries, 0.9)?;

        // Trie-node table (allocation state for incremental inserts).
        let mut node_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(trie.node_count() + 1);
        let mut push_node = |n: LabeledNode| {
            node_entries.push((n.left.to_be_bytes().to_vec(), node_val(&n).to_vec()))
        };
        push_node(trie.root_node());
        trie.for_each_node(push_node);
        node_entries.sort();
        let trie_nodes = BPlusTree::bulk_load(Arc::clone(&pool), node_entries, 0.8)?;

        Ok(PrixIndex {
            kind,
            maxgap,
            dummy,
            build_stats,
            doc_base: 0,
            childless,
            backing: Backing::Tree(TreeBacking {
                tag_index,
                docid_index,
                trie_nodes,
                docs,
                store,
            }),
        })
    }

    /// The mutable-tier backing, or `Unsupported` for a segment tier.
    fn tree(&self) -> Result<&TreeBacking> {
        match &self.backing {
            Backing::Tree(t) => Ok(t),
            Backing::Seg(_) => Err(IndexError::Unsupported(
                "operation needs the mutable index tier; this is an immutable segment".into(),
            )),
        }
    }

    fn tree_mut(&mut self) -> Result<&mut TreeBacking> {
        match &mut self.backing {
            Backing::Tree(t) => Ok(t),
            Backing::Seg(_) => Err(IndexError::Unsupported(
                "operation needs the mutable index tier; this is an immutable segment".into(),
            )),
        }
    }

    /// Encodes `tree` for this index and checks, without mutating
    /// anything, that [`PrixIndex::insert`] has room for it: a read-only
    /// descent of the virtual trie that verifies the parent scope at the
    /// first divergence point fits the remaining suffix. (Once a fresh
    /// child is carved out it receives at least `need` positions, so
    /// every deeper level fits by induction — the first divergence is
    /// the only place an insert can fail.) Fails with
    /// [`IndexError::Unsupported`] on scope underflow — build the index
    /// with [`LabelingMode::Dynamic`] to leave headroom (the bulk-exact
    /// labeling packs scopes densely, so only already-present paths and
    /// fresh top-level branches can be added to it).
    ///
    /// [`crate::PrixEngine::insert_tree`] prepares against *both*
    /// indexes before inserting into either, so a rejected document
    /// cannot leave RP and EP with different document counts.
    pub fn prepare(&self, tree: &XmlTree) -> Result<Prepared> {
        let mut maxgap = MaxGapTable::new();
        let art = DocArtifacts::of(tree, self.kind, self.dummy, &mut maxgap);
        let lps = &art.data.lps;
        let mut cur = self.read_trie_node(0)?;
        for (i, &sym) in lps.iter().enumerate() {
            let level = (i + 1) as u32;
            match self.find_child(&cur, sym, level)? {
                Some(child) => cur = child,
                None => {
                    scope_left(&cur, level, (lps.len() - i) as u64)?;
                    break;
                }
            }
        }
        Ok(Prepared { art, maxgap })
    }

    /// Incrementally indexes one more document — the use case the
    /// paper's dynamic labeling scheme exists for (§5.2.1: ranges can
    /// be assigned "without building a physical trie").
    ///
    /// Descends the virtual trie through the node table; existing path
    /// prefixes are shared, new trie nodes take half of their parent's
    /// remaining scope (the paper's policy). The document's record is
    /// the bytes a segment would hold for it, appended once.
    pub fn insert(&mut self, doc: Prepared) -> Result<DocId> {
        let Prepared { art, maxgap } = doc;
        let (lps, gaps) = (&art.data.lps, &art.gaps);
        let mut cur = self.read_trie_node(0)?;
        for (i, &sym) in lps.iter().enumerate() {
            let level = (i + 1) as u32;
            match self.find_child(&cur, sym, level)? {
                Some(child) => {
                    // Shared prefix: refresh the per-node fine gap.
                    if child.fine_gap != u32::MAX && gaps[i] > child.fine_gap {
                        let key = tag_key(sym, child.left);
                        let t = self.tree_mut()?;
                        t.tag_index.delete(&key, None)?;
                        t.tag_index
                            .insert(&key, &tag_val(child.right, level, gaps[i]))?;
                    }
                    cur = child;
                }
                None => {
                    let need = (lps.len() - i) as u64;
                    let available = scope_left(&cur, level, need)?;
                    let share = (available / 2).max(need).min(available);
                    let child = LabeledNode {
                        left: cur.frontier + 1,
                        right: cur.frontier + share,
                        frontier: cur.frontier + 1,
                        level,
                        sym,
                        fine_gap: gaps[i],
                    };
                    // The child's two entries, and the parent's advanced
                    // frontier.
                    cur.frontier = child.right;
                    let t = self.tree_mut()?;
                    t.tag_index.insert(
                        &tag_key(sym, child.left),
                        &tag_val(child.right, level, child.fine_gap),
                    )?;
                    t.trie_nodes
                        .insert(&child.left.to_be_bytes(), &node_val(&child))?;
                    t.trie_nodes.delete(&cur.left.to_be_bytes(), None)?;
                    t.trie_nodes
                        .insert(&cur.left.to_be_bytes(), &node_val(&cur))?;
                    self.build_stats.trie_nodes += 1;
                    cur = child;
                }
            }
        }
        // Document endpoint and record.
        let t = self.tree_mut()?;
        let local = t.docs.len() as u32;
        t.docid_index
            .insert(&cur.left.to_be_bytes(), &local.to_le_bytes())?;
        let rec = t.store.append(&encode_doc_record(&art.data))?;
        t.docs.push(rec);
        self.maxgap.merge(&maxgap);
        self.childless.extend(&art.childless);
        self.build_stats.sequences += 1;
        self.build_stats.total_seq_len += lps.len() as u64;
        Ok(self.doc_base + local)
    }

    fn read_trie_node(&self, left: u64) -> Result<LabeledNode> {
        let v = self
            .tree()?
            .trie_nodes
            .get(&left.to_be_bytes())?
            .ok_or_else(|| IndexError::Unsupported(format!("trie node {left} missing")))?;
        Ok(node_row(left, &v))
    }

    /// The direct child of `cur` labeled `sym` (a trie node at exactly
    /// `level` inside `cur`'s scope), if present.
    fn find_child(&self, cur: &LabeledNode, sym: Sym, level: u32) -> Result<Option<LabeledNode>> {
        let lo = tag_key(sym, cur.left);
        let hi = tag_key(sym, cur.right);
        let mut found = None;
        self.tree()?
            .tag_index
            .scan(Bound::Excluded(&lo), Bound::Included(&hi), |k, v| {
                let (left, _, l, fine_gap) = tag_row(k, v);
                if l == level {
                    found = Some((left, fine_gap));
                }
                found.is_none()
            })?;
        // The node table has the rest of the row (the frontier).
        let Some((left, fine_gap)) = found else {
            return Ok(None);
        };
        Ok(Some(LabeledNode {
            fine_gap,
            ..self.read_trie_node(left)?
        }))
    }

    /// This index's sequence flavor.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Build-time statistics (trie sharing, underflows, ...).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The per-label MaxGap table (§5.4).
    pub fn maxgap(&self) -> &MaxGapTable {
        &self.maxgap
    }

    /// Number of documents indexed *in this tier*.
    pub fn doc_count(&self) -> usize {
        match &self.backing {
            Backing::Tree(t) => t.docs.len(),
            Backing::Seg(r) => r.n_docs() as usize,
        }
    }

    /// First global document id of this tier.
    pub fn doc_base(&self) -> DocId {
        self.doc_base
    }

    /// Re-bases this tier's document ids (engine tiering: the mutable
    /// tier starts where the segments end).
    pub(crate) fn set_doc_base(&mut self, base: DocId) {
        self.doc_base = base;
    }

    /// The dummy label used for extended sequences.
    pub(crate) fn dummy_sym(&self) -> Sym {
        self.dummy
    }

    /// The childless-label set (§4.4 leaf-extended-plan gate).
    pub(crate) fn childless_set(&self) -> &HashSet<Sym> {
        &self.childless
    }

    /// The segment reader behind a segment-backed tier, if any.
    pub(crate) fn segment(&self) -> Option<&Arc<SegmentReader>> {
        match &self.backing {
            Backing::Seg(r) => Some(r),
            Backing::Tree(_) => None,
        }
    }

    /// Describes how this index would run `q`: the plan flavor, the
    /// query's Prüfer sequences, edge constraints, and the Theorem 4
    /// pruning rules.
    pub fn explain(&self, q: &TwigQuery, syms: &prix_xml::SymbolTable) -> Result<String> {
        let plan = self.plan(q)?;
        let mut out = String::new();
        let flavor = match (&self.kind, plan.ext_of_orig.is_some()) {
            (IndexKind::Regular, true) => "RPIndex, leaf-extended query (§4.4 fast path)",
            (IndexKind::Regular, false) => "RPIndex, exact plan with leaf-matching phase",
            (IndexKind::Extended, _) => "EPIndex, extended query (§5.6)",
        };
        out.push_str(&format!("plan: {flavor}\n"));
        let lps: Vec<&str> = plan.seq.lps.iter().map(|&x| syms.name(x)).collect();
        out.push_str(&format!("LPS(Q) = {}\n", lps.join(" ")));
        out.push_str(&format!(
            "NPS(Q) = {}\n",
            plan.seq
                .nps
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let edge_str: Vec<String> = plan
            .edges
            .iter()
            .map(|e| match e {
                EdgeKind::Child => "/".to_string(),
                EdgeKind::Descendant => "//".to_string(),
                EdgeKind::Exactly(k) => format!("*{{{k}}}"),
            })
            .collect();
        out.push_str(&format!("edges  = {}\n", edge_str.join(" ")));
        out.push_str("executor: streaming filter -> refine -> project (limit pushdown)\n");
        let rules = self.gap_rules(&plan);
        let bounded = rules.iter().flatten().count();
        out.push_str(&format!(
            "MaxGap rules: {bounded} of {} adjacent pairs bounded",
            rules.len()
        ));
        for (k, r) in rules.iter().enumerate() {
            if let Some(rule) = r {
                out.push_str(&format!(
                    "\n  positions {}->{}: distance <= min({}, per-node) + {}",
                    k + 1,
                    k + 2,
                    rule.global,
                    rule.extra
                ));
            }
        }
        out.push('\n');
        Ok(out)
    }

    /// Executes an ordered twig query as a pull-based stream, the one
    /// way this index runs a query: each
    /// [`crate::exec::MatchStream::next_match`] call does exactly the
    /// trie traversal and refinement the next distinct match needs.
    /// With `opts.limit` set, matches arrive in trie-traversal order
    /// and hitting the limit (or dropping the stream) abandons the rest
    /// of the descent — the LIMIT pushdown; without one, the first pull
    /// drains the descent and matches arrive in `(doc, positions)`
    /// candidate order. With a value-predicate evaluator (which must
    /// outlive the stream), candidates from documents its valix
    /// pre-filter rules out are skipped before refinement and every
    /// emitted match passes its positional verification — the results
    /// are exactly the predicate-free results post-filtered.
    pub fn stream<'a>(
        &'a self,
        q: &TwigQuery,
        opts: &ExecOpts,
        pred: Option<&'a crate::valix::PredEval>,
    ) -> Result<crate::exec::MatchStream<'a>> {
        let plan = self.plan(q)?;
        if plan.seq.is_empty() {
            return Err(IndexError::Unsupported(
                "query has an empty Prüfer sequence (single-node query on RPIndex)".into(),
            ));
        }
        Ok(crate::exec::MatchStream::new(
            self,
            plan,
            q.is_absolute(),
            opts,
            pred,
        ))
    }

    /// Prepares the sequences / edges / leaves for this index kind.
    pub(crate) fn plan(&self, q: &TwigQuery) -> Result<QueryPlan> {
        match self.kind {
            IndexKind::Regular => {
                if q.needs_extended() {
                    return Err(IndexError::Unsupported(
                        "query requires the EPIndex (values, single node, or wildcard above a leaf)"
                            .into(),
                    ));
                }
                // §4.4 special leaf treatment: when no query-leaf label
                // ever occurs childless in the data, extending the
                // *query* with dummy leaf children is exact — every
                // query label then participates in subsequence matching,
                // and the LPS starts with the selective deep labels
                // (this is what makes the paper's Q2/Q7/Q8 fast).
                let leaf_ok = q.leaves().iter().all(|(s, _)| !self.childless.contains(s));
                if leaf_ok {
                    let eq = q.extended(self.dummy);
                    let mut ext_of_orig = vec![0 as PostNum; q.tree().len()];
                    for (i, &orig) in eq.ext.orig_post.iter().enumerate() {
                        if orig != 0 {
                            ext_of_orig[(orig - 1) as usize] = (i + 1) as PostNum;
                        }
                    }
                    Ok(QueryPlan {
                        seq: eq.seq,
                        edges: eq.edges,
                        leaves: Vec::new(),
                        qtree: eq.ext.tree,
                        ext_of_orig: Some(ext_of_orig),
                        n_orig_query: q.tree().len() as u32,
                        skip_leaf: true,
                    })
                } else {
                    Ok(QueryPlan {
                        seq: q.prufer(),
                        edges: q.edges_by_post(),
                        leaves: q.leaves(),
                        qtree: q.tree().clone(),
                        ext_of_orig: None,
                        n_orig_query: q.tree().len() as u32,
                        skip_leaf: false,
                    })
                }
            }
            IndexKind::Extended => {
                let eq = q.extended(self.dummy);
                // Invert ext -> orig into orig -> ext.
                let mut ext_of_orig = vec![0 as PostNum; q.tree().len()];
                for (i, &orig) in eq.ext.orig_post.iter().enumerate() {
                    if orig != 0 {
                        ext_of_orig[(orig - 1) as usize] = (i + 1) as PostNum;
                    }
                }
                Ok(QueryPlan {
                    seq: eq.seq,
                    edges: eq.edges,
                    leaves: Vec::new(),
                    qtree: eq.ext.tree,
                    ext_of_orig: Some(ext_of_orig),
                    n_orig_query: q.tree().len() as u32,
                    skip_leaf: true,
                })
            }
        }
    }

    /// Theorem 4 pruning rules: `rules[k]` bounds `S[k+1] - S[k]` as
    /// `min(global MaxGap(A), per-node fine gap) + extra`.
    ///
    /// All cases require the participating query edges to be `/` edges —
    /// wildcard edges stretch the data-side distance arbitrarily, so no
    /// bound applies (see DESIGN.md).
    pub(crate) fn gap_rules(&self, plan: &QueryPlan) -> Vec<Option<GapRule>> {
        let len = plan.seq.len();
        let mut rules = vec![None; len.saturating_sub(1)];
        for k in 1..len {
            // 1-based pair (k, k+1): nodes k and k+1 of the query.
            let a = plan.seq.nps[k - 1]; // parent of node k ("A")
            let b = plan.seq.nps[k]; // parent of node k + 1 ("B")
            let mg = self.maxgap.get(plan.seq.lps[k - 1]) as u64;
            let edge_k = plan.edges[k - 1];
            let edge_k1 = plan.edges[k];
            if edge_k != EdgeKind::Child {
                continue;
            }
            let rule = if (k + 1) as PostNum == a && edge_k1 == EdgeKind::Child {
                // Node A is a child of node B in Q (node k+1 IS A).
                Some(GapRule {
                    global: mg,
                    extra: 1,
                })
            } else if a == b && edge_k1 == EdgeKind::Child {
                // Nodes k and k+1 are siblings under A.
                Some(GapRule {
                    global: mg,
                    extra: 0,
                })
            } else if edge_k1 == EdgeKind::Child
                && plan
                    .qtree
                    .is_ancestor(plan.qtree.node_at(a), plan.qtree.node_at(b))
            {
                // Node A is an ancestor of node B in Q.
                Some(GapRule {
                    global: mg,
                    extra: 0,
                })
            } else {
                None
            };
            rules[k - 1] = rule;
        }
        rules
    }

    /// One Algorithm 1 range query against the Trie-Symbol index of
    /// `sym`, open-left: descendants of the current trie node have
    /// `left` in `(ql, qr]`. Returns `(left, right, level, fine_gap)`
    /// rows in key order. The [`crate::exec::CandidateCursor`] drives
    /// the trie descent one of these scans at a time.
    pub(crate) fn scan_tag_range(
        &self,
        sym: Sym,
        ql: u64,
        qr: u64,
    ) -> Result<Vec<(u64, u64, u32, u32)>> {
        match &self.backing {
            Backing::Tree(t) => {
                let lo = tag_key(sym, ql);
                let hi = tag_key(sym, qr);
                let mut hits: Vec<(u64, u64, u32, u32)> = Vec::new();
                t.tag_index
                    .scan(Bound::Excluded(&lo), Bound::Included(&hi), |k, v| {
                        hits.push(tag_row(k, v));
                        true
                    })?;
                Ok(hits)
            }
            Backing::Seg(r) => Ok(r.scan_tag_range(sym.0, ql, qr)?),
        }
    }

    /// Appends every document whose LPS ends on a trie node with `left`
    /// in `[left, right]` (the Docid-index scan at the last LPS
    /// position of Algorithm 1).
    pub(crate) fn scan_docids(
        &self,
        left: u64,
        right: u64,
        out: &mut std::collections::VecDeque<DocId>,
    ) -> Result<()> {
        let base = self.doc_base;
        match &self.backing {
            Backing::Tree(t) => {
                let lo = left.to_be_bytes();
                let hi = right.to_be_bytes();
                t.docid_index
                    .scan(Bound::Included(&lo), Bound::Included(&hi), |_, v| {
                        out.push_back(base + u32::from_le_bytes(v.try_into().unwrap()));
                        true
                    })?;
            }
            Backing::Seg(r) => {
                r.scan_docids(left, right, &mut |d| out.push_back(base + d))?;
            }
        }
        Ok(())
    }

    /// A document's stored record: [`encode_doc_record`]'s bytes,
    /// whichever backing holds them.
    pub(crate) fn doc_record(&self, doc: DocId) -> Result<Vec<u8>> {
        // A docid scan or a value posting can name a document this tier
        // does not hold only if the database is corrupt (a torn ingest,
        // say); that is the caller's error to report, not a panic.
        let unknown = || {
            IndexError::Unsupported(format!(
                "corrupt index: it names document {doc}, outside the {} held from id {}",
                self.doc_count(),
                self.doc_base
            ))
        };
        let local = doc.checked_sub(self.doc_base).ok_or_else(unknown)?;
        Ok(match &self.backing {
            Backing::Tree(t) => {
                let rec = t.docs.get(local as usize).ok_or_else(unknown)?;
                t.store.read(*rec)?
            }
            Backing::Seg(r) => r.record(local)?,
        })
    }

    /// Reads a document's refinement data. The LPS and leaf list are
    /// only needed by the leaf-matching phase; extended-query plans skip
    /// it, so that part of the record is stepped over undecoded.
    pub(crate) fn load_doc(&self, doc: DocId, need_leaf_data: bool) -> Result<DocData> {
        decode_doc_record(&self.doc_record(doc)?, need_leaf_data)
            .ok_or_else(|| IndexError::Unsupported("corrupt document record".into()))
    }
}

/// One Theorem 4 pruning rule between adjacent LPS positions: allowed
/// distance = `min(global, per-node fine gap) + extra`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapRule {
    pub(crate) global: u64,
    pub(crate) extra: u64,
}

/// The positions `cur` can still hand to a fresh child at `level`, or
/// the error when a suffix of `need` labels does not fit in them.
fn scope_left(cur: &LabeledNode, level: u32, need: u64) -> Result<u64> {
    let available = cur.right.saturating_sub(cur.frontier);
    if available < need {
        return Err(IndexError::Unsupported(format!(
            "virtual-trie scope underflow at level {level}: {available} positions left \
             for a suffix of {need}; rebuild with dynamic labeling"
        )));
    }
    Ok(available)
}

/// Postorder gap between the first and last children per node
/// (`out[post - 1]`; 0 for nodes with ≤ 1 child) — Definition 5 at
/// single-node granularity.
fn node_gaps(tree: &XmlTree) -> Vec<u32> {
    let mut out = vec![0u32; tree.len()];
    for node in tree.nodes() {
        let kids = tree.children(node);
        if kids.len() >= 2 {
            let first = tree.postorder(kids[0]);
            let last = tree.postorder(kids[kids.len() - 1]);
            out[(tree.postorder(node) - 1) as usize] = last - first;
        }
    }
    out
}

/// Per-LPS-position gaps: `gaps[i]` = gap of the parent node recorded
/// at position `i`.
fn position_gaps(nps: &[PostNum], node_gaps: &[u32]) -> Vec<u32> {
    nps.iter().map(|&p| node_gaps[(p - 1) as usize]).collect()
}

/// Tiny byte codec for document records and tier metadata.
mod codec {
    pub struct Writer(pub Vec<u8>);
    impl Writer {
        pub fn new() -> Self {
            Writer(Vec::new())
        }
        pub fn u8(&mut self, v: u8) {
            self.0.push(v);
        }
        /// A LEB128 varint: what a segment's records and meta blob
        /// are made of.
        pub fn var(&mut self, v: u64) {
            prix_storage::segment::put_varint(&mut self.0, v);
        }
    }
    /// Bounds-checked: the bytes come from disk, and the
    /// unverified-on-read segment blocks vouch for nothing about their
    /// shape. `None` = the input ended early.
    pub struct Reader<'a>(pub &'a [u8]);
    impl<'a> Reader<'a> {
        fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
            if n > self.0.len() {
                return None;
            }
            let (head, tail) = self.0.split_at(n);
            self.0 = tail;
            Some(head)
        }
        pub fn u8(&mut self) -> Option<u8> {
            self.bytes(1).map(|b| b[0])
        }
        pub fn var(&mut self) -> Option<u64> {
            prix_storage::segment::take_varint(&mut self.0)
        }
        pub fn var32(&mut self) -> Option<u32> {
            self.var().and_then(|v| u32::try_from(v).ok())
        }
        /// `n` consecutive 32-bit varints, `n` itself read from the
        /// input: a varint is at least a byte, so a count above what is
        /// left is refused before anything is allocated for it.
        pub fn var32s(&mut self, n: u64) -> Option<Vec<u32>> {
            if n > self.0.len() as u64 {
                return None;
            }
            let mut out = Vec::with_capacity(n as usize);
            for _ in 0..n {
                out.push(self.var32()?);
            }
            Some(out)
        }
    }
}

impl PrixIndex {
    /// Opens an immutable segment as an index tier. The tier's
    /// `doc_base` comes from the segment header; MaxGap table,
    /// childless set, and build stats come from the segment's metadata
    /// blob (see [`encode_seg_index_meta`]).
    pub fn from_segment(reader: Arc<SegmentReader>) -> Result<Self> {
        let (kind, dummy, maxgap, childless, build_stats) =
            decode_seg_index_meta(&mut codec::Reader(&reader.meta()?))
                .ok_or_else(|| IndexError::Unsupported("corrupt segment metadata".into()))?;
        if (reader.kind() == SEG_KIND_RP) != matches!(kind, IndexKind::Regular) {
            return Err(IndexError::Unsupported(
                "segment header kind disagrees with its index metadata".into(),
            ));
        }
        Ok(PrixIndex {
            kind,
            maxgap,
            dummy,
            build_stats,
            doc_base: reader.doc_base(),
            childless,
            backing: Backing::Seg(reader),
        })
    }
}

/// Encodes one document's refinement record: everything
/// [`PrixIndex::load_doc`] serves (NPS, LPS, leaf list, the ext→orig
/// map for EPIndex tiers, and the original node count), in one
/// contiguous blob. A segment's record section and the mutable tier's
/// record store hold it verbatim, so a compaction moves it unread.
pub(crate) fn encode_doc_record(d: &DocData) -> Vec<u8> {
    debug_assert_eq!(d.nps.len(), d.lps.len());
    let mut leaf_part = codec::Writer::new();
    for &s in &d.lps {
        leaf_part.var(u64::from(s.0));
    }
    leaf_part.var(d.leaves.len() as u64);
    for &(s, p) in &d.leaves {
        leaf_part.var(u64::from(s.0));
        leaf_part.var(u64::from(p));
    }
    let mut w = codec::Writer::new();
    w.var(d.nps.len() as u64);
    for &v in &d.nps {
        w.var(u64::from(v));
    }
    w.var(leaf_part.0.len() as u64);
    w.0.extend_from_slice(&leaf_part.0);
    let orig_map = d.orig_map.as_deref().unwrap_or(&[]);
    w.var(orig_map.len() as u64);
    for &v in orig_map {
        w.var(u64::from(v));
    }
    w.var(u64::from(d.n_orig));
    w.0
}

/// Inverse of [`encode_doc_record`]: every field a varint, the byte
/// length of the LPS + leaf-list part ahead of it, so that with
/// `need_leaf_data` unset the part is stepped over undecoded. `None`
/// when the bytes are not one whole record: segment blocks are not
/// checksummed on the query path.
pub(crate) fn decode_doc_record(bytes: &[u8], need_leaf_data: bool) -> Option<DocData> {
    let mut r = codec::Reader(bytes);
    let n = r.var()?;
    let nps = r.var32s(n)?;
    let leaf_len = usize::try_from(r.var()?).ok()?;
    let (leaf_part, rest) = r.0.split_at_checked(leaf_len)?;
    r.0 = rest;
    let (lps, leaves) = if need_leaf_data {
        let mut part = codec::Reader(leaf_part);
        let lps = part.var32s(n)?.into_iter().map(Sym).collect();
        let nl = part.var()?;
        let leaf_words = part.var32s(nl.checked_mul(2)?)?;
        if !part.0.is_empty() {
            return None;
        }
        let leaves = leaf_words.chunks_exact(2).map(|c| (Sym(c[0]), c[1]));
        (lps, leaves.collect())
    } else {
        (Vec::new(), Vec::new())
    };
    let n_map = r.var()?;
    let orig_map = r.var32s(n_map)?;
    let n_orig = r.var32()?;
    r.0.is_empty().then_some(DocData {
        nps,
        lps,
        leaves,
        orig_map: (n_map != 0).then_some(orig_map),
        n_orig,
    })
}

/// Encodes the metadata a segment describes itself with, in its meta
/// blob: kind, dummy symbol, MaxGap table, childless-label set, and build
/// statistics. Map-shaped fields are **sorted** so the blob — and
/// therefore the whole segment file — is byte-deterministic: bulk
/// loading a collection and compacting the same documents out of the
/// mutable tier produce identical files.
pub(crate) fn encode_seg_index_meta(
    kind: IndexKind,
    dummy: Sym,
    maxgap: &MaxGapTable,
    childless: &HashSet<Sym>,
    stats: &BuildStats,
) -> Vec<u8> {
    let mut w = codec::Writer::new();
    w.u8(match kind {
        IndexKind::Regular => 0,
        IndexKind::Extended => 1,
    });
    w.var(u64::from(dummy.0));
    let mut gaps: Vec<(Sym, PostNum)> = maxgap.entries().collect();
    gaps.sort_by_key(|&(s, _)| s.0);
    w.var(gaps.len() as u64);
    let mut prev = 0;
    for (sym, gap) in gaps {
        w.var(u64::from(sym.0 - prev));
        w.var(u64::from(gap));
        prev = sym.0;
    }
    let mut cl: Vec<u32> = childless.iter().map(|s| s.0).collect();
    cl.sort_unstable();
    w.var(cl.len() as u64);
    let mut prev = 0;
    for s in cl {
        w.var(u64::from(s - prev));
        prev = s;
    }
    for stat in [
        stats.trie_nodes as u64,
        stats.trie_paths as u64,
        stats.sequences,
        stats.max_path_sharing,
        stats.underflows,
        stats.total_seq_len,
    ] {
        w.var(stat);
    }
    w.0
}

/// Inverse of [`encode_seg_index_meta`], requiring the input to end
/// where the blob does.
fn decode_seg_index_meta(
    r: &mut codec::Reader,
) -> Option<(IndexKind, Sym, MaxGapTable, HashSet<Sym>, BuildStats)> {
    /// The ascending symbols `deltas` are the successive distances of.
    fn ascending(deltas: impl Iterator<Item = u32>) -> Option<Vec<Sym>> {
        let mut sym = 0u32;
        let mut next = |d| {
            sym = sym.checked_add(d)?;
            Some(Sym(sym))
        };
        deltas.map(&mut next).collect()
    }
    let kind = match r.u8()? {
        0 => IndexKind::Regular,
        1 => IndexKind::Extended,
        _ => return None,
    };
    let dummy = Sym(r.var32()?);
    let n_gaps = r.var()?;
    let words = r.var32s(n_gaps.checked_mul(2)?)?;
    let syms = ascending(words.iter().step_by(2).copied())?;
    let gaps = words.iter().skip(1).step_by(2).copied();
    let maxgap = MaxGapTable::from_entries(syms.into_iter().zip(gaps));
    let n_childless = r.var()?;
    let childless = ascending(r.var32s(n_childless)?.into_iter())?;
    let stats = BuildStats {
        trie_nodes: r.var()? as usize,
        trie_paths: r.var()? as usize,
        sequences: r.var()?,
        max_path_sharing: r.var()?,
        underflows: r.var()?,
        total_seq_len: r.var()?,
    };
    r.0.is_empty()
        .then(|| (kind, dummy, maxgap, childless.into_iter().collect(), stats))
}

pub(crate) struct QueryPlan {
    pub(crate) seq: PruferSeq,
    pub(crate) edges: Vec<EdgeKind>,
    pub(crate) leaves: Vec<(Sym, PostNum)>,
    pub(crate) qtree: XmlTree,
    /// For extended-query plans: `ext_of_orig[orig - 1]` = extended
    /// postorder of the original query node.
    pub(crate) ext_of_orig: Option<Vec<PostNum>>,
    pub(crate) n_orig_query: u32,
    /// Leaf-matching phase can be skipped (every query label already
    /// participated in subsequence matching).
    pub(crate) skip_leaf: bool,
}

/// Projects an embedding in plan numbering (possibly extended, possibly
/// over the extended document) down to original query and document
/// postorder numbers. Returns `None` if any original query node lands on
/// a document dummy (cannot happen for well-formed plans; defensive).
pub(crate) fn project_embedding(
    plan: &QueryPlan,
    data: &DocData,
    img: &[PostNum],
) -> Option<Vec<PostNum>> {
    let m = plan.n_orig_query as usize;
    let mut out = Vec::with_capacity(m);
    match (&plan.ext_of_orig, &data.orig_map) {
        (None, _) => {
            debug_assert!(data.orig_map.is_none());
            out.extend_from_slice(img);
        }
        // Extended query over an extended document (EPIndex).
        (Some(map), Some(doc_map)) => {
            for orig_q in 1..=m {
                let ext_q = map[orig_q - 1];
                let ext_img = img[(ext_q - 1) as usize];
                let orig_img = doc_map[(ext_img - 1) as usize];
                if orig_img == 0 {
                    return None; // image is a dummy: not a real embedding
                }
                out.push(orig_img);
            }
        }
        // Extended query over a *regular* document (§4.4 leaf-extended
        // plan): images are already original postorder numbers.
        (Some(map), None) => {
            for orig_q in 1..=m {
                let ext_q = map[orig_q - 1];
                out.push(img[(ext_q - 1) as usize]);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_storage::Pager;

    fn small_collection() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<dblp><inproceedings><author>Jim Gray</author><year>1990</year></inproceedings></dblp>")
            .unwrap();
        c.add_xml(
            "<dblp><inproceedings><author>Ann</author><year>1990</year></inproceedings></dblp>",
        )
        .unwrap();
        c.add_xml("<dblp><article><author>Jim Gray</author><year>1991</year></article></dblp>")
            .unwrap();
        c.add_xml("<dblp><www><editor>E</editor><url>u</url></www></dblp>")
            .unwrap();
        c
    }

    /// Drains `idx.stream(q, opts, None)`: the matches and final stats.
    fn run(
        idx: &PrixIndex,
        q: &TwigQuery,
        opts: &ExecOpts,
    ) -> Result<(Vec<TwigMatch>, QueryStats)> {
        let mut stream = idx.stream(q, opts, None)?;
        let mut matches = Vec::new();
        while let Some(m) = stream.next_match()? {
            matches.push(m);
        }
        Ok((matches, stream.stats()))
    }

    fn build_index(c: &mut Collection, kind: IndexKind) -> PrixIndex {
        let dummy = c.intern("\u{1}dummy");
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 256));
        PrixIndex::build(pool, c, kind, LabelingMode::Exact, dummy).unwrap()
    }

    #[test]
    fn value_query_finds_the_right_documents() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(
            r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#,
            &mut syms,
        )
        .unwrap();
        let (matches, stats) = run(&idx, &q, &ExecOpts::new()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 0);
        assert!(stats.range_queries > 0);
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn structural_query_on_regular_index() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        // //www[./editor]/url — leaves editor and url hang on '/' edges,
        // but they are leaves, so RP cannot verify their labels...
        // actually it can: via the leaf-matching phase. The query's
        // needs_extended is false only if all leaf edges are Child: here
        // they are.
        let q = crate::xpath::parse_xpath("//www[./editor]/url", &mut syms).unwrap();
        assert!(!q.needs_extended());
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 3);
    }

    #[test]
    fn regular_index_rejects_value_queries() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(r#"//author[text()="Jim Gray"]"#, &mut syms).unwrap();
        assert!(matches!(
            run(&idx, &q, &ExecOpts::new()),
            Err(IndexError::Unsupported(_))
        ));
    }

    /// A document id past (or below) what a tier holds — what a torn
    /// ingest's docid entry or value posting names — is an error.
    #[test]
    fn load_doc_outside_the_tier_is_an_error_not_a_panic() {
        let mut c = small_collection();
        let mut idx = build_index(&mut c, IndexKind::Regular);
        assert!(idx.load_doc(3, true).is_ok());
        let err = idx
            .load_doc(4, true)
            .err()
            .expect("past the end")
            .to_string();
        assert!(err.contains("names document 4"), "{err}");
        idx.set_doc_base(10);
        assert!(idx.load_doc(13, false).is_ok());
        assert!(idx.load_doc(9, false).is_err(), "below the tier's base");
    }

    #[test]
    fn embeddings_point_at_real_nodes() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(r#"//author[text()="Jim Gray"]"#, &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        assert_eq!(matches.len(), 2);
        for m in &matches {
            let tree = c.doc(m.doc);
            // Query postorder: "Jim Gray"=1, author=2.
            let author = syms.lookup("author").unwrap();
            let value = syms.lookup("Jim Gray").unwrap();
            assert_eq!(tree.label_at(m.embedding[1]), author);
            assert_eq!(tree.label_at(m.embedding[0]), value);
        }
    }

    #[test]
    fn wildcard_descendant_query() {
        let mut c = Collection::new();
        c.add_xml("<S><X><NP><SYM>s</SYM></NP></X></S>").unwrap();
        c.add_xml("<S><NP><SYM>s</SYM></NP></S>").unwrap();
        c.add_xml("<S><NP><X><SYM>s</SYM></X></NP></S>").unwrap();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        // //S//NP/SYM: SYM must be a child of NP, NP a descendant of S.
        let q = crate::xpath::parse_xpath("//S//NP/SYM", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        let docs: Vec<DocId> = matches.iter().map(|m| m.doc).collect();
        assert_eq!(docs, vec![0, 1], "doc 2 has SYM under X, not under NP");
    }

    #[test]
    fn star_distance_query() {
        let mut c = Collection::new();
        c.add_xml("<a><m><b><x/></b></m></a>").unwrap(); // a/*/b: depth 2 ✓
        c.add_xml("<a><b><x/></b></a>").unwrap(); // depth 1 ✗
        c.add_xml("<a><m><n><b><x/></b></n></m></a>").unwrap(); // depth 3 ✗
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//a/*/b/x", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        let docs: Vec<DocId> = matches.iter().map(|m| m.doc).collect();
        assert_eq!(docs, vec![0]);
    }

    #[test]
    fn absolute_query_pins_the_root() {
        let mut c = Collection::new();
        c.add_xml("<a><b><t>v</t></b></a>").unwrap();
        c.add_xml("<r><a><b><t>v</t></b></a></r>").unwrap();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q_rel = crate::xpath::parse_xpath("//a/b/t", &mut syms).unwrap();
        let (m_rel, _) = run(&idx, &q_rel, &ExecOpts::new()).unwrap();
        assert_eq!(m_rel.len(), 2);
        let q_abs = crate::xpath::parse_xpath("/a/b/t", &mut syms).unwrap();
        let (m_abs, _) = run(&idx, &q_abs, &ExecOpts::new()).unwrap();
        assert_eq!(m_abs.len(), 1);
        assert_eq!(m_abs[0].doc, 0);
    }

    #[test]
    fn maxgap_pruning_does_not_change_results() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(
            r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#,
            &mut syms,
        )
        .unwrap();
        let (with, s_with) = run(&idx, &q, &ExecOpts::new()).unwrap();
        let (without, s_without) = run(&idx, &q, &ExecOpts::new().without_maxgap()).unwrap();
        assert_eq!(with, without, "pruning must be lossless (Theorem 4)");
        assert!(s_with.nodes_scanned <= s_without.nodes_scanned);
    }

    #[test]
    fn single_node_query_on_extended_index() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//editor", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 3);
    }

    #[test]
    fn duplicate_sequences_share_one_trie_path() {
        let mut c = Collection::new();
        for _ in 0..10 {
            c.add_xml("<a><b><c/></b></a>").unwrap();
        }
        let idx = build_index(&mut c, IndexKind::Regular);
        let st = idx.build_stats();
        assert_eq!(st.sequences, 10);
        assert_eq!(st.trie_paths, 1);
        assert_eq!(st.max_path_sharing, 10);
        // All ten docs match //a/b.
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//a/b/c", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        assert_eq!(matches.len(), 10);
    }

    #[test]
    fn no_false_alarms_on_split_twigs() {
        // The ViST false-alarm scenario of Figure 1(b): a query twig
        // whose branches appear in the document but under *different*
        // parents must not match.
        let mut c = Collection::new();
        // Doc1: P(Q, R) — the twig is present.
        c.add_xml("<P><Q><x/></Q><R><y/></R></P>").unwrap();
        // Doc2: P(Q), P(R) under different P instances.
        c.add_xml("<root><P><Q><x/></Q></P><P><R><y/></R></P></root>")
            .unwrap();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//P[./Q]/R", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new()).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 0, "doc 1 would be a ViST false alarm");
    }

    #[test]
    fn fine_maxgap_prunes_at_least_as_much_and_is_lossless() {
        // Data where the *global* MaxGap of a label is inflated by one
        // wide node, while most occurrences are narrow: the per-node
        // fine gaps (§5.4) prune candidates the global bound keeps.
        let mut c = Collection::new();
        // One wide `a` (many children) inflates MaxGap(a)...
        c.add_xml("<a><b><v/></b><x><v/></x><x><v/></x><x><v/></x><x><v/></x><c><v/></c></a>")
            .unwrap();
        // ...while many narrow `a`s are where the query misses.
        for _ in 0..30 {
            c.add_xml("<root><a><b><v/></b></a><junk><c><v/></c></junk></root>")
                .unwrap();
        }
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//a[./b]/c", &mut syms).unwrap();
        let fine = run(&idx, &q, &ExecOpts::new()).unwrap();
        let coarse = run(&idx, &q, &ExecOpts::new().without_fine_maxgap()).unwrap();
        assert_eq!(fine.0, coarse.0, "fine pruning must be lossless");
        assert_eq!(fine.0.len(), 1, "only the wide document matches");
        assert!(
            fine.1.maxgap_pruned >= coarse.1.maxgap_pruned,
            "fine gaps prune at least as much ({} vs {})",
            fine.1.maxgap_pruned,
            coarse.1.maxgap_pruned
        );
    }

    /// A document record round-trips, with and without its
    /// leaf part; cut short, overwritten with a varint that never ends,
    /// or claiming more than it holds, it decodes to `None` (which
    /// `load_doc` reports as "corrupt document record") — never a
    /// panic, never an allocation sized by a count it does not back.
    #[test]
    fn doc_record_roundtrips_and_damaged_ones_are_refused() {
        use prix_testkit::{check, from_fn, Config};
        // Values of one, two and three varint bytes.
        let nps: Vec<PostNum> = (0..300).map(|i| i * 71 % 20_000 + 1).collect();
        let lps: Vec<Sym> = (0..300).map(|i| Sym(i * 7 % 400)).collect();
        let leaves: Vec<(Sym, PostNum)> = (0..40).map(|i| (Sym(i * 11 % 300), i * 3 + 1)).collect();
        let map: Vec<PostNum> = (0..350).map(|i| if i % 5 == 0 { 0 } else { i }).collect();
        let whole = DocData {
            nps,
            lps,
            leaves,
            orig_map: Some(map),
            n_orig: 281,
        };
        let good = encode_doc_record(&whole);
        let bare = DocData {
            lps: vec![],
            leaves: vec![],
            ..whole.clone()
        };
        assert_eq!(decode_doc_record(&good, true), Some(whole));
        assert_eq!(decode_doc_record(&good, false).as_ref(), Some(&bare));
        let none = DocData {
            nps: vec![],
            orig_map: None,
            n_orig: 1,
            ..bare.clone()
        };
        assert_eq!(
            decode_doc_record(&encode_doc_record(&none), true),
            Some(none)
        );

        // Counts and lengths the bytes do not back.
        let record = |words: &[u64]| {
            let mut w = codec::Writer::new();
            words.iter().for_each(|&v| w.var(v));
            w.0
        };
        for bad in [
            record(&[u64::MAX]),
            record(&[3, 1, 2]),
            record(&[1, 7, 1 << 40, 0, 0, 0, 1]),
            record(&[1, 7, 11, 5, u64::MAX, 0, 1]),
            record(&[0, 1, 0, 1 << 33, 1]),
            record(&[0, 1, 0, 0, 1 << 32]),
            record(&[0, 1, 0, 0, 1, 0]),
        ] {
            assert!(decode_doc_record(&bad, true).is_none(), "{bad:?}");
        }

        #[derive(Debug, Clone)]
        enum Damage {
            Truncate(usize),
            Endless(usize),
            Flip(usize, u8),
        }
        let len = good.len();
        // The leaf part: after `n`, the NPS and the part's own length.
        let leaf_part = {
            let mut r = codec::Reader(&good);
            let n = r.var().unwrap();
            r.var32s(n).unwrap();
            let part_len = r.var().unwrap() as usize;
            let at = len - r.0.len();
            at..at + part_len
        };
        let damage = from_fn(move |rng| match rng.below(3) {
            0 => Damage::Truncate(rng.below(len as u64) as usize),
            1 => Damage::Endless(rng.below(len as u64) as usize),
            _ => Damage::Flip(rng.below(len as u64) as usize, 1 << rng.below(8)),
        });
        let cfg = Config {
            cases: 600,
            max_shrink_iters: 100,
            ..Default::default()
        };
        check("hostile_doc_record", &cfg, &damage, |d| {
            let mut bytes = good.clone();
            // Whether each of the two decodes must refuse the damage
            // (a flipped bit may leave a different, whole record).
            let refused = match *d {
                Damage::Truncate(at) => {
                    bytes.truncate(at);
                    Some([true, true])
                }
                Damage::Endless(at) => {
                    let end = len.min(at + 11);
                    bytes[at..end].fill(0xff);
                    Some([true, at < leaf_part.start || end > leaf_part.end])
                }
                Damage::Flip(at, mask) => {
                    bytes[at] ^= mask;
                    None
                }
            };
            let got = [true, false].map(|leaf| decode_doc_record(&bytes, leaf));
            match refused {
                None => Ok(()),
                Some(refused) if refused == got.each_ref().map(Option::is_none) => {
                    // Damage inside a leaf part stepped over undecoded.
                    match &got[1] {
                        Some(rec) if *rec != bare => Err(format!("{d:?} changed the record")),
                        _ => Ok(()),
                    }
                }
                Some(_) => Err(format!("{d:?} decoded to {got:?}")),
            }
        });
    }
}
