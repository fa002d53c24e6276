//! The disk-resident PRIX index (paper §5).
//!
//! One [`PrixIndex`] covers one collection in one of two flavors
//! (§5.6): **RPIndex** over Regular-Prüfer sequences or **EPIndex** over
//! Extended-Prüfer sequences. Both consist of
//!
//! * the **Trie-Symbol index** — the virtual trie's labeled nodes keyed
//!   by `(symbol, LeftPos)` (one logical index per tag, stored under a
//!   composite key): a segment's tag rows in a tier, the same rows in
//!   memory in a view of the delta,
//! * the **Docid index** — document ids keyed by the LeftPos of the trie
//!   node where each LPS ends: a segment's doc-end rows, or the same
//!   rows in memory,
//! * the per-label [`MaxGapTable`] (§5.4).
//!
//! A tier keeps one record per document, which both of its indexes
//! read: the *regular* view of the document — NPS, LPS and leaf list
//! (`encode_doc_record`) — in the record section of the tier's EP
//! segment file, laid out in the order of the tier's RP Docid index so
//! that the candidates of one filter match share blocks, or in the
//! delta's one [`RecordStore`]. The extended
//! tree is a fixed function of the regular one, so an EPIndex derives
//! its extended view — extended NPS, LPS and leaf list, and the
//! extended→original postorder map — when it loads a record
//! (`DocData::extended`).
//!
//! Query execution is Algorithm 1 (`FindSubsequence` by range queries,
//! with the Theorem 4 MaxGap pruning) followed by Algorithm 2 (the
//! refinement phases), producing the set of twig matches with their
//! embeddings.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use prix_prufer::{EdgeKind, MaxGapTable, PruferSeq};
use prix_storage::segment::{DocEnd, TagEntry};
use prix_storage::{RecordId, RecordStore, SegmentReader, StorageError, SEG_KIND_RP};
use prix_xml::{DocId, PostNum, Sym, XmlTree};

use crate::query::TwigQuery;

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
    /// Value-index probes issued for the query's predicates, and the
    /// value-run keys its anchored streams scanned.
    pub valix_probes: u64,
    /// Postings scanned by those probes.
    pub valix_postings: u64,
    /// Candidates dropped by the valix document pre-filter before
    /// refinement (their documents cannot satisfy every predicate); an
    /// anchored stream drops such a document before reading it and
    /// counts it once, and one anchored on predicates counts every
    /// document of its tier their postings rule out, none of which it
    /// visits.
    pub pred_skipped: u64,
    /// Refined matches rejected by positional predicate verification.
    pub pred_rejected: u64,
    /// Wall clock spent in the filtering stage — the candidate source
    /// (Algorithm 1: trie range queries + MaxGap pruning + docid scans;
    /// or an anchored value twig's value-run probes and record walks),
    /// planning each stream, buffering and sorting an unlimited
    /// descent's candidates — and in the value-index probe that
    /// pre-filters a predicate query's documents.
    pub filter_time: Duration,
    /// Wall clock spent in refinement (per-document record loads +
    /// Algorithm 2 + positional predicate verification, and freeing
    /// each stream's record views and dedup sets).
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

/// Execution options: the MaxGap toggle backs the §5.4 ablation bench,
/// `limit` drives LIMIT pushdown through the streaming executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecOpts {
    /// Apply the Theorem 4 pruning during subsequence matching, bounded
    /// by the finer-grained per-trie-node MaxGap values as well as the
    /// per-label ones (§5.4: "Finer-grained MaxGap values can be stored
    /// in every occurrence of a symbol in the virtual trie").
    pub use_maxgap: bool,
    /// Stop after this many distinct matches. `None` = unlimited. With
    /// a limit the executor stops *pulling* — the rest of the candidate
    /// source (trie range queries and docid scans, or value-run walks)
    /// and refinements never run — and matches arrive in the tier's
    /// candidate order: trie-traversal order for a descent, `(doc,
    /// positions)` order for an anchored value twig (so a limit no
    /// query reaches, `usize::MAX`, asks for exactly that order).
    pub limit: Option<usize>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            use_maxgap: true,
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
    /// Total length of all indexed sequences.
    pub total_seq_len: u64,
}

/// A PRIX index over one collection *tier*. It never changes: `Clone`
/// shares its rows and records.
///
/// Two backings exist behind one query interface: a **view of the
/// delta** (the rows [`crate::Delta::index`] labeled at one capture,
/// in memory, and the delta's record store in the buffer pool) and
/// **immutable segments** (the bulk-built implicit-tree files of
/// `prix_storage::segment`, read through their tier's block cache).
/// Both hold the rows a segment of the same documents holds. The
/// executor is backing-agnostic — it only sees
/// `PrixIndex::scan_tag_range` / `PrixIndex::scan_docids` /
/// `PrixIndex::load_doc`.
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
    records: Records,
}

/// Where a [`PrixIndex`] reads its trie nodes and doc ends.
#[derive(Clone)]
enum Backing {
    /// A view of the delta: the rows one capture labeled, its own.
    Rows(Arc<Rows>),
    Seg(Arc<SegmentReader>),
}

/// The Trie-Symbol and Docid rows of a view of the delta, as
/// `prix_storage::segment::label_paths` labels them: what a segment of
/// the same documents holds, in memory.
pub(crate) struct Rows {
    /// Trie-Symbol rows in `(sym, left)` order.
    pub(crate) tags: Vec<TagEntry>,
    /// Docid rows in `(left, doc)` order, one per document.
    pub(crate) ends: Vec<DocEnd>,
}

/// Where a tier's document records are: one copy, which both of its
/// indexes read.
#[derive(Clone)]
pub(crate) enum Records {
    /// The delta's store, which its writer appends to; a view reads the
    /// documents it holds rows for.
    Delta(Arc<RwLock<DeltaRecords>>),
    /// A segment tier's EP file.
    Seg(Arc<SegmentReader>),
}

/// The delta's records, in buffer-pool pages: each document's
/// [`encode_doc_record`] bytes, by local id.
pub(crate) struct DeltaRecords {
    pub(crate) docs: Vec<RecordId>,
    pub(crate) store: RecordStore,
}

/// What a reader gets from a delta whose record store an insert
/// panicked under: the store holds a half-made change, and nothing is
/// read past it.
pub(crate) fn half_changed<T>(_: T) -> IndexError {
    IndexError::Unsupported(
        "the delta was left half-changed by a failed insert; reopen the database".into(),
    )
}

/// Per-document data used by refinement: a record's regular view
/// ([`decode_doc_record`]), or the extended view an EPIndex derives from
/// it ([`DocData::extended`]). A stream grouped by document keeps one
/// and decodes each document into it in turn (the `_into` forms), so its
/// vectors are allocated once per stream, not once per document.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DocData {
    pub(crate) nps: Vec<PostNum>,
    pub(crate) lps: Vec<Sym>,
    pub(crate) leaves: Vec<(Sym, PostNum)>,
    /// The extended view's ext→orig postorder map (0 for a dummy);
    /// `None` in the regular view.
    pub(crate) orig_map: Option<Vec<PostNum>>,
    /// Nodes of the original document.
    pub(crate) n_orig: u32,
}

impl DocData {
    /// The regular view of `tree`: what its record holds.
    pub(crate) fn regular(tree: &XmlTree) -> DocData {
        let PruferSeq { lps, nps } = PruferSeq::regular(tree);
        DocData {
            nps,
            lps,
            leaves: tree.leaves(),
            orig_map: None,
            n_orig: tree.len() as u32,
        }
    }

    /// The extended view (§5.6) of the document whose regular view this
    /// is, with `dummy` as the label of the leaf every original leaf
    /// gains. [`ExtendedTree::build`](prix_prufer::ExtendedTree::build)
    /// adds each dummy as the only child of its leaf, so in postorder the
    /// dummy comes just before its leaf, and original node `v` is
    /// extended node `v + #(original leaves with postorder ≤ v)`
    /// ([`extension_numbering`]). The extended NPS, the ext→orig map and
    /// `n_orig` therefore follow from the regular NPS alone: with
    /// `leaf_data` unset that is all this reads, and the extended
    /// LPS and leaf list stay empty. With it set, they need the leaf list
    /// too: a dummy's parent label is its leaf's, and every extended leaf
    /// is a dummy. `None` when this is not one tree's regular view: a
    /// parent at or below its child or past the root, or a leaf list that
    /// is not exactly the leaves in postorder.
    pub(crate) fn extended(&self, dummy: Sym, leaf_data: bool) -> Option<DocData> {
        let mut out = DocData::default();
        self.extended_into(dummy, leaf_data, &mut Vec::new(), &mut out)
            .map(|()| out)
    }

    /// [`DocData::extended`] written into `out`, whose vectors it reuses,
    /// leaving the view's [`extension_numbering`] in `ext`. On `None`,
    /// `out` holds no view.
    pub(crate) fn extended_into(
        &self,
        dummy: Sym,
        leaf_data: bool,
        ext: &mut Vec<PostNum>,
        out: &mut DocData,
    ) -> Option<()> {
        let n = self.nps.len() + 1;
        extension_numbering(&self.nps, ext)?;
        let ext = &ext[..];
        let is_leaf = |v: usize| ext[v] - ext[v - 1] == 2;
        let n_ext = ext[n] as usize;
        out.nps.clear();
        let orig_map = out.orig_map.get_or_insert_with(Vec::new);
        orig_map.clear();
        orig_map.resize(n_ext, 0);
        for v in 1..=n {
            if is_leaf(v) {
                out.nps.push(ext[v]);
            }
            if v < n {
                out.nps.push(ext[self.nps[v - 1] as usize]);
            }
            orig_map[ext[v] as usize - 1] = v as PostNum;
        }
        out.lps.clear();
        out.leaves.clear();
        if leaf_data {
            let mut stored = self.leaves.iter();
            for (v, &e) in ext.iter().enumerate().skip(1) {
                if is_leaf(v) {
                    let &(label, _) = stored.next().filter(|l| l.1 as usize == v)?;
                    out.lps.push(label);
                    out.leaves.push((dummy, e - 1));
                }
                if v < n {
                    out.lps.push(*self.lps.get(v - 1)?);
                }
            }
            stored.next().is_none().then_some(())?;
        }
        out.n_orig = n as PostNum;
        Some(())
    }

    /// The LPS and per-position fine gaps an index of `kind` files the
    /// document whose regular view this is (its leaf data loaded) under:
    /// the node at position `i`'s parent is labeled `lps[i]` and has gap
    /// `gaps[i]`, so `MaxGapTable::add_seq` of them is `add_tree` over
    /// the indexed tree. `None` when the view does not extend
    /// ([`DocData::extended`]).
    pub(crate) fn filed_path(&self, kind: IndexKind, dummy: Sym) -> Option<(Vec<Sym>, Vec<u32>)> {
        Some(match kind {
            IndexKind::Regular => (self.lps.clone(), gaps_from_nps(&self.nps)),
            IndexKind::Extended => {
                let view = self.extended(dummy, true)?;
                let gaps = gaps_from_nps(&view.nps);
                (view.lps, gaps)
            }
        })
    }
}

/// The extension numbering (§5.6) of the tree whose regular NPS is
/// `nps`, written into `ext`: `ext[v]` is node `v`'s postorder in the
/// extended tree, `v + #(leaves with postorder ≤ v)`, and `ext[0]`, no
/// node, is 0. A leaf is a node no position names as its parent, so it is
/// exactly a `v` with `ext[v] - ext[v - 1] == 2`, its dummy sitting
/// between the two. `None` when `nps` is not one tree's: a parent at or
/// below its child or past the root.
pub(crate) fn extension_numbering(nps: &[PostNum], ext: &mut Vec<PostNum>) -> Option<()> {
    let n = nps.len() + 1;
    // `ext[v]` starts as 1 for a leaf, 0 for a node some position names
    // as its parent; the running sum then makes it `v`'s extended
    // postorder.
    ext.clear();
    ext.resize(n + 1, 1);
    ext[0] = 0;
    for (i, &p) in nps.iter().enumerate() {
        if p as usize <= i + 1 || p as usize > n {
            return None;
        }
        ext[p as usize] = 0;
    }
    let mut leaves_so_far = 0;
    for (v, e) in ext.iter_mut().enumerate().skip(1) {
        leaves_so_far += *e;
        *e = v as PostNum + leaves_so_far;
    }
    Some(())
}

/// Reconstructs the per-position fine gaps from an NPS alone: the
/// children of the node with postorder `p` are exactly the positions
/// `i` with `nps[i] == p` (child postorder `i + 1`, already ascending),
/// so the node's gap is `last - first` when it has two or more children
/// (Definition 5 at single-node granularity), and `gaps[i]` is the gap
/// of the parent recorded at position `i`.
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
        .map(|&p| last[p as usize] - first[p as usize])
        .collect()
}

impl PrixIndex {
    /// A view of the delta: its index of `kind` over `rows` and the
    /// records of `records`, with the MaxGap table, childless labels and
    /// trie statistics of the documents the rows hold. Its documents
    /// start at id 0 until [`PrixIndex::set_doc_base`] moves them.
    pub(crate) fn from_rows(
        kind: IndexKind,
        dummy: Sym,
        rows: Rows,
        build_stats: BuildStats,
        maxgap: MaxGapTable,
        childless: HashSet<Sym>,
        records: Records,
    ) -> Self {
        PrixIndex {
            kind,
            maxgap,
            dummy,
            build_stats,
            doc_base: 0,
            childless,
            backing: Backing::Rows(Arc::new(rows)),
            records,
        }
    }

    /// This index's sequence flavor.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Build-time statistics (trie sharing, sequence lengths, ...).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Number of documents indexed *in this tier*.
    pub fn doc_count(&self) -> usize {
        match &self.backing {
            Backing::Rows(rows) => rows.ends.len(),
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

    /// The segment reader behind a segment-backed tier, if any.
    pub(crate) fn segment(&self) -> Option<&Arc<SegmentReader>> {
        match &self.backing {
            Backing::Seg(r) => Some(r),
            Backing::Rows(_) => None,
        }
    }

    /// Whether some node labeled `label` has a child in this tier: what
    /// an RPIndex's MaxGap table records (an EPIndex's dummies give
    /// every node a child).
    pub(crate) fn labels_a_parent(&self, label: Sym) -> bool {
        self.maxgap.contains(label)
    }

    /// Describes how this index runs `plan`: the plan flavor, the
    /// query's Prüfer sequences, edge constraints, then `anchored` — the
    /// line naming the value-run anchors when the tier takes its
    /// candidates from them — or, when it descends the trie, the line
    /// naming the rarest label that prunes the descent
    /// ([`PrixIndex::rarest_label`]), if one does, and the Theorem 4
    /// pruning rules, which
    /// only a trie descent applies: with anchors, that of a tier which
    /// cannot anchor, such as the delta, which has no value run.
    pub(crate) fn explain(
        &self,
        plan: &QueryPlan,
        syms: &prix_xml::SymbolTable,
        anchored: Option<String>,
    ) -> Result<String> {
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
        let rules = self.gap_rules(plan);
        let bounded = rules.iter().flatten().count();
        let scope = match anchored {
            Some(line) => {
                out.push_str(&line);
                " (trie descent only, as on the delta)"
            }
            None => {
                if let Some((j, lefts)) = self.rarest_label(&plan.seq.lps)? {
                    out.push_str(&format!(
                        "filter: descent pruned to subtrees holding {} ({} rows)\n",
                        syms.name(plan.seq.lps[j]),
                        lefts.len()
                    ));
                }
                ""
            }
        };
        out.push_str(&format!(
            "MaxGap rules{scope}: {bounded} of {} adjacent pairs bounded",
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

    /// The rarest-label pruning a trie descent of `lps` gets on this
    /// tier: the LPS position `j ≥ 1` whose label's rows span the fewest
    /// tag-section blocks (the later position on a tie), and the `left`
    /// of every row of that label, ascending — when that label spans
    /// fewer blocks than position 0's does, so reading its rows costs
    /// less than the descent's first range query. A candidate's trie
    /// node at position `j` descends from the one it passes at every
    /// shallower position, so a row there whose subtree `(left, right]`
    /// holds none of these rows leads to no candidate. `None` on the
    /// delta, whose ordered maps have no blocks to count, and for a
    /// one-label LPS.
    pub(crate) fn rarest_label(&self, lps: &[Sym]) -> Result<Option<(usize, Vec<u64>)>> {
        let Backing::Seg(r) = &self.backing else {
            return Ok(None);
        };
        let blocks = |j: usize| r.tag_blocks(lps[j].0);
        let Some(j) = (1..lps.len()).min_by_key(|&j| (blocks(j), std::cmp::Reverse(j))) else {
            return Ok(None);
        };
        if blocks(j) >= blocks(0) {
            return Ok(None);
        }
        let rows = r.scan_tag_range(lps[j].0, 0, u64::MAX)?;
        Ok(Some((j, rows.into_iter().map(|row| row.0).collect())))
    }

    /// Executes an ordered twig query as a pull-based stream, the one
    /// way this index runs a query: each
    /// [`crate::exec::MatchStream::next_match`] call does exactly the
    /// trie traversal and refinement the next distinct match needs.
    /// With `opts.limit` set, matches arrive in the tier's candidate
    /// order (here, trie-traversal order) and hitting the limit (or
    /// dropping the stream) abandons the rest of the descent — the
    /// LIMIT pushdown; without one, the first pull drains the descent
    /// and matches arrive in `(doc, positions)` candidate order. With a value-predicate evaluator (which must
    /// outlive the stream), candidates from documents its valix
    /// pre-filter rules out are skipped before refinement and every
    /// emitted match passes its positional verification — the results
    /// are exactly the predicate-free results post-filtered.
    pub fn stream<'a>(
        &'a self,
        q: &TwigQuery,
        opts: &ExecOpts,
        pred: Option<&'a crate::valix::PredEval<'a>>,
    ) -> Result<crate::exec::MatchStream<'a>> {
        self.stream_tier(q, opts, pred, None)
    }

    /// [`PrixIndex::stream`] over a segment tier whose value run
    /// `values` lends: a value twig takes its candidates from the run
    /// instead of the trie (`crate::exec::AnchoredCursor`), in `(doc,
    /// positions)` order with a limit or without.
    pub(crate) fn stream_tier<'a>(
        &'a self,
        q: &TwigQuery,
        opts: &ExecOpts,
        pred: Option<&'a crate::valix::PredEval<'a>>,
        values: Option<crate::exec::TierValues<'a>>,
    ) -> Result<crate::exec::MatchStream<'a>> {
        let setup = std::time::Instant::now();
        crate::exec::MatchStream::new(self, q, opts, pred, values, setup)
    }

    /// Whether this index runs `q` extended, every query leaf given a
    /// dummy child: an EPIndex always does (§5.6), an RPIndex when no
    /// query leaf's label occurs childless in its data (§4.4 special leaf
    /// treatment). Extending the query is then exact — every query label
    /// participates in subsequence matching, and the LPS starts with the
    /// selective deep labels (this is what makes the paper's Q2/Q7/Q8
    /// fast). Refuses on an RPIndex a query that needs the EPIndex.
    pub(crate) fn extends(&self, q: &TwigQuery) -> Result<bool> {
        if self.kind == IndexKind::Extended {
            return Ok(true);
        }
        if q.needs_extended() {
            return Err(IndexError::Unsupported(
                "query requires the EPIndex (values, single node, or wildcard above a leaf)".into(),
            ));
        }
        Ok(!q.leaves().iter().any(|(s, _)| self.childless.contains(s)))
    }

    /// Prepares the sequences / edges / leaves for this index kind: the
    /// query extended when [`PrixIndex::extends`] says so, as it stands
    /// otherwise.
    pub(crate) fn plan(&self, q: &TwigQuery) -> Result<QueryPlan> {
        let n_orig_query = q.tree().len() as u32;
        if !self.extends(q)? {
            return Ok(QueryPlan {
                seq: q.prufer(),
                edges: q.edges_by_post(),
                leaves: q.leaves(),
                qtree: q.tree().clone(),
                ext_of_orig: None,
                n_orig_query,
                skip_leaf: false,
            });
        }
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
            n_orig_query,
            skip_leaf: true,
        })
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
            Backing::Rows(rows) => {
                let tags = &rows.tags;
                let from = tags.partition_point(|t| (t.sym, t.left) <= (sym.0, ql));
                let to = tags.partition_point(|t| (t.sym, t.left) <= (sym.0, qr));
                let hits = tags[from..to.max(from)].iter();
                Ok(hits
                    .map(|t| (t.left, t.right, t.level, t.fine_gap))
                    .collect())
            }
            Backing::Seg(r) => Ok(r.scan_tag_range(sym.0, ql, qr)?),
        }
    }

    /// Appends every document whose LPS ends on a trie node with `left`
    /// in `[left, right]` (the Docid-index scan at the last LPS
    /// position of Algorithm 1), in `(left, doc)` order.
    pub(crate) fn scan_docids(
        &self,
        left: u64,
        right: u64,
        out: &mut std::collections::VecDeque<DocId>,
    ) -> Result<()> {
        let base = self.doc_base;
        match &self.backing {
            Backing::Rows(rows) => {
                let from = rows.ends.partition_point(|e| e.left < left);
                let ends = rows.ends[from..].iter().take_while(|e| e.left <= right);
                out.extend(ends.map(|e| base + e.doc));
            }
            Backing::Seg(r) => {
                r.scan_docids(left, right, &mut |d| out.push_back(base + d))?;
            }
        }
        Ok(())
    }

    /// A document's stored record — [`encode_doc_record`]'s bytes,
    /// wherever its tier keeps them — written into `out`, whose contents
    /// it replaces.
    pub(crate) fn doc_record_into(&self, doc: DocId, out: &mut Vec<u8>) -> Result<()> {
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
        let local = doc
            .checked_sub(self.doc_base)
            .filter(|&l| (l as usize) < self.doc_count())
            .ok_or_else(unknown)?;
        match &self.records {
            Records::Delta(r) => {
                let r = r.read().map_err(half_changed)?;
                let id = r.docs.get(local as usize).ok_or_else(unknown)?;
                r.store.read_into(*id, out)?
            }
            Records::Seg(r) => r.record_into(local, out)?,
        }
        Ok(())
    }

    /// Reads a document's refinement data: its record's regular view,
    /// or for an EPIndex the extended view derived from it, decoded to
    /// `depth`. The LPS and leaf list are only needed by the
    /// leaf-matching phase and by predicate verification;
    /// extended-query plans skip the former, so without a predicate the
    /// decode stops after the NPS and leaves the rest of the record
    /// undecoded.
    pub(crate) fn load_doc(&self, doc: DocId, depth: Depth) -> Result<DocData> {
        let mut out = DocData::default();
        self.load_doc_into(doc, self.kind, depth, &mut DocBuf::default(), &mut out)
            .map(|()| out)
    }

    /// [`PrixIndex::load_doc`] written into `out`, reading through
    /// `buf`'s scratch, in the view of `kind`: the index's own, or the
    /// record's regular view on either index. On an error, `out` holds no
    /// view.
    pub(crate) fn load_doc_into(
        &self,
        doc: DocId,
        kind: IndexKind,
        depth: Depth,
        buf: &mut DocBuf,
        out: &mut DocData,
    ) -> Result<()> {
        self.doc_record_into(doc, &mut buf.record)?;
        buf.view_into(kind, self.dummy, depth, out)
    }
}

/// How much of a record a load decodes. A record is `n | NPS | LPS |
/// leaves` ([`encode_doc_record`]), and each depth decodes the parts
/// before its own too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Depth {
    /// The NPS: what Algorithm 2 reads when the plan skips the leaf
    /// check and no predicate is verified.
    Nps,
    /// The NPS and LPS: what an anchored walk reads.
    Lps,
    /// The whole record: the leaf check and predicate verification read
    /// the leaf list, and an extended view's LPS is derived from it.
    Leaves,
}

/// What a stream reads documents through, one at a time: a record's
/// bytes, its regular view, and the scratch the extended view is
/// derived with. Each document overwrites the last one's, so the
/// buffers grow to the widest document and are not allocated again.
#[derive(Default)]
pub(crate) struct DocBuf {
    /// The record: [`encode_doc_record`]'s bytes.
    pub(crate) record: Vec<u8>,
    /// Its regular view, when it is not the view refined against (an
    /// EPIndex derives the extended view from it).
    pub(crate) regular: DocData,
    /// The regular view's [`extension_numbering`], which
    /// [`DocData::extended_into`] leaves here.
    pub(crate) ext: Vec<PostNum>,
}

impl DocBuf {
    /// What an index of `kind` refines against, from the record in
    /// `self.record`, into `out`: the regular view decoded to `depth`,
    /// or the extended view derived from it, with its LPS and leaf list
    /// when `depth` is [`Depth::Leaves`]. On an error, `out` holds no
    /// view.
    pub(crate) fn view_into(
        &mut self,
        kind: IndexKind,
        dummy: Sym,
        depth: Depth,
        out: &mut DocData,
    ) -> Result<()> {
        match kind {
            IndexKind::Regular => decode_doc_record_into(&self.record, depth, out),
            IndexKind::Extended => decode_doc_record_into(&self.record, depth, &mut self.regular)
                .and_then(|()| {
                    let leaf_data = depth == Depth::Leaves;
                    self.regular
                        .extended_into(dummy, leaf_data, &mut self.ext, out)
                }),
        }
        .ok_or_else(corrupt_record)
    }
}

/// What an index of `kind` refines against, from one record's bytes:
/// the regular view, or the extended view derived from it.
#[cfg(test)]
pub(crate) fn doc_view(
    record: &[u8],
    kind: IndexKind,
    dummy: Sym,
    depth: Depth,
) -> Result<DocData> {
    let mut buf = DocBuf {
        record: record.to_vec(),
        ..DocBuf::default()
    };
    let mut out = DocData::default();
    buf.view_into(kind, dummy, depth, &mut out).map(|()| out)
}

/// The refusal of a record that is not one tree's regular view.
pub(crate) fn corrupt_record() -> IndexError {
    IndexError::Unsupported("corrupt document record".into())
}

/// One Theorem 4 pruning rule between adjacent LPS positions: allowed
/// distance = `min(global, per-node fine gap) + extra`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapRule {
    pub(crate) global: u64,
    pub(crate) extra: u64,
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
            let mut out = Vec::new();
            self.var32s_each(n, |v| out.push(v)).map(|()| out)
        }
        /// [`Reader::var32s`] handing each value to `each`, with the
        /// same refusal of a count above what is left.
        pub fn var32s_each(&mut self, n: u64, mut each: impl FnMut(u32)) -> Option<()> {
            if n > self.0.len() as u64 {
                return None;
            }
            for _ in 0..n {
                each(self.var32()?);
            }
            Some(())
        }
    }
}

impl PrixIndex {
    /// Opens an immutable segment as an index tier whose records are in
    /// `records`, the tier's EP segment (`reader` itself for an
    /// EPIndex). The tier's `doc_base` comes from the segment header;
    /// MaxGap table, childless set, and build stats come from the
    /// segment's metadata blob (see `encode_seg_index_meta`).
    pub fn from_segment(reader: Arc<SegmentReader>, records: Arc<SegmentReader>) -> Result<Self> {
        let (kind, dummy, maxgap, childless, build_stats) = decode_seg_index_meta(&reader.meta()?)
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
            records: Records::Seg(records),
        })
    }
}

/// Encodes one document's refinement record: its regular view (NPS,
/// LPS, leaf list), from which [`PrixIndex::load_doc`] serves both
/// indexes, in one contiguous blob of varints — `n | NPS × n | LPS × n |
/// leaf count | (sym, post) × count`. Whoever stores the blob knows its
/// length (a segment prefixes it, the mutable tier's record store keeps
/// it), so the LPS and leaf list are simply the rest of it. A segment's
/// record section and the mutable tier's record store hold it verbatim,
/// so a compaction moves it unread.
pub(crate) fn encode_doc_record(d: &DocData) -> Vec<u8> {
    debug_assert_eq!(d.nps.len(), d.lps.len());
    debug_assert!(d.orig_map.is_none(), "a record holds the regular view");
    let mut w = codec::Writer::new();
    w.var(d.nps.len() as u64);
    for &v in &d.nps {
        w.var(u64::from(v));
    }
    for &s in &d.lps {
        w.var(u64::from(s.0));
    }
    w.var(d.leaves.len() as u64);
    for &(s, p) in &d.leaves {
        w.var(u64::from(s.0));
        w.var(u64::from(p));
    }
    w.0
}

/// Inverse of [`encode_doc_record`], the regular view, decoded to
/// `depth`: what lies past it (the LPS, the leaf list) is left undecoded
/// and its vectors empty. `None` when the bytes it decodes are not one
/// whole record (short, or with bytes left over after the leaf list), or
/// its NPS names a parent at or below its child or past the root:
/// segment blocks are not checksummed on the query path.
pub(crate) fn decode_doc_record(bytes: &[u8], depth: Depth) -> Option<DocData> {
    let mut out = DocData::default();
    decode_doc_record_into(bytes, depth, &mut out).map(|()| out)
}

/// [`decode_doc_record`] written into `out`, whose vectors it reuses.
/// On `None`, `out` holds no view.
pub(crate) fn decode_doc_record_into(bytes: &[u8], depth: Depth, out: &mut DocData) -> Option<()> {
    let mut r = codec::Reader(bytes);
    let n = r.var()?;
    out.nps.clear();
    r.var32s_each(n, |p| out.nps.push(p))?;
    let root = out.nps.len() + 1;
    let parents_ok = out
        .nps
        .iter()
        .enumerate()
        .all(|(i, &p)| i + 1 < p as usize && p as usize <= root);
    if !parents_ok {
        return None;
    }
    out.lps.clear();
    out.leaves.clear();
    out.orig_map = None;
    if depth >= Depth::Lps {
        r.var32s_each(n, |s| out.lps.push(Sym(s)))?;
    }
    if depth == Depth::Leaves {
        let nl = r.var()?;
        if nl.checked_mul(2)? > r.0.len() as u64 {
            return None;
        }
        for _ in 0..nl {
            out.leaves.push((Sym(r.var32()?), r.var32()?));
        }
        if !r.0.is_empty() {
            return None;
        }
    }
    out.n_orig = u32::try_from(root).ok()?;
    Some(())
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
        // Scope underflows: a word the format keeps, always 0.
        0,
        stats.total_seq_len,
    ] {
        w.var(stat);
    }
    w.0
}

/// Inverse of [`encode_seg_index_meta`], requiring the input to end
/// where the blob does.
pub(crate) fn decode_seg_index_meta(
    bytes: &[u8],
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
    let r = &mut codec::Reader(bytes);
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
        // The scope-underflow word (always 0), then the total.
        total_seq_len: {
            r.var()?;
            r.var()?
        },
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
/// postorder numbers, into `out`, whose contents it replaces. Returns
/// `None` if any original query node lands on a document dummy (cannot
/// happen for well-formed plans; defensive).
pub(crate) fn project_embedding_into(
    plan: &QueryPlan,
    data: &DocData,
    img: &[PostNum],
    out: &mut Vec<PostNum>,
) -> Option<()> {
    let m = plan.n_orig_query as usize;
    out.clear();
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
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_xml::Collection;

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

    /// The bulk-built tier of `kind` over `c`, whose symbol table then
    /// holds the engine's (the dummy label included).
    fn build_index(c: &mut Collection, kind: IndexKind) -> PrixIndex {
        let engine = crate::PrixEngine::build(c.clone(), Default::default()).unwrap();
        *c.symbols_mut() = engine.symbols().clone();
        engine.seg_tiers()[0].index_of(kind).clone()
    }

    /// An insert that panics under the delta's record store's write
    /// lock leaves a half-made change behind it: every reader of the
    /// store — a view taken before, and the writer itself — gets an
    /// error, never an answer read past it.
    #[test]
    fn a_delta_a_writer_panicked_in_is_refused() {
        let mut e = crate::PrixEngine::build(Collection::new(), Default::default()).unwrap();
        for xml in ["<a><b><c/></b></a>", "<a><b><d/></b></a>"] {
            e.insert_document(xml).unwrap();
        }
        let view = e.delta().index(IndexKind::Regular);
        let q = crate::xpath::parse_xpath("//a/b/c", &mut e.symbols().clone()).unwrap();
        assert_eq!(run(&view, &q, &ExecOpts::new()).unwrap().0.len(), 1);
        let Records::Delta(records) = &view.records else {
            panic!("the delta's records are its store's")
        };
        let records = Arc::clone(records);
        let panicked = std::thread::spawn(move || {
            let _append = records.write().unwrap();
            panic!("an insert fails half-way");
        });
        assert!(panicked.join().is_err());
        let refusals = [
            run(&view, &q, &ExecOpts::new()).err(),
            view.load_doc(0, Depth::Leaves).err(),
            e.snapshot().query(&q).err(),
            e.insert_document("<a><b><c/></b></a>").err(),
        ];
        for err in refusals {
            let err = err.expect("refused").to_string();
            assert!(err.contains("half-changed by a failed insert"), "{err}");
        }
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
        assert!(idx.load_doc(3, Depth::Leaves).is_ok());
        let err = idx
            .load_doc(4, Depth::Leaves)
            .expect_err("past the end")
            .to_string();
        assert!(err.contains("names document 4"), "{err}");
        idx.set_doc_base(10);
        assert!(idx.load_doc(13, Depth::Nps).is_ok());
        assert!(
            idx.load_doc(9, Depth::Nps).is_err(),
            "below the tier's base"
        );
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
    fn fine_maxgap_prunes_and_is_lossless() {
        // Data where the *global* MaxGap of a label is inflated by one
        // wide node, while most occurrences are narrow: the per-node
        // fine gaps (§5.4) bound the pruning as well as the global one.
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
        let (pruned, stats) = run(&idx, &q, &ExecOpts::new()).unwrap();
        let (unpruned, _) = run(&idx, &q, &ExecOpts::new().without_maxgap()).unwrap();
        assert_eq!(pruned, unpruned, "pruning must be lossless");
        assert_eq!(pruned.len(), 1, "only the wide document matches");
        assert_eq!(stats.maxgap_pruned, 5, "the candidates the gaps prune");
    }

    /// A valid regular view of 300 nodes whose values take one, two and
    /// three varint bytes: each node's parent a few places on, every
    /// node labeled by its postorder.
    fn wide_view() -> DocData {
        let n: PostNum = 300;
        let label = |v: PostNum| Sym(v * 7919 % 40_000);
        let nps: Vec<PostNum> = (1..n).map(|c| (c + 1 + c * 37 % 50).min(n)).collect();
        let parents: HashSet<PostNum> = nps.iter().copied().collect();
        DocData {
            lps: nps.iter().map(|&p| label(p)).collect(),
            leaves: (1..=n)
                .filter(|v| !parents.contains(v))
                .map(|v| (label(v), v))
                .collect(),
            nps,
            orig_map: None,
            n_orig: n,
        }
    }

    /// The varints `words`, as a record's bytes.
    fn record(words: &[u64]) -> Vec<u8> {
        let mut w = codec::Writer::new();
        words.iter().for_each(|&v| w.var(v));
        w.0
    }

    /// A document record round-trips, with and without its leaf part
    /// (the LPS and leaf list, the rest of the blob); cut short, overwritten with a varint that never ends, claiming
    /// more than it holds, or naming a parent at or below its child or
    /// past the root, it decodes to `None` (which `load_doc` reports as
    /// "corrupt document record") — never a panic, never an allocation
    /// sized by a count it does not back. Whatever the damage, deriving
    /// the extended view of it does not panic either.
    #[test]
    fn doc_record_roundtrips_and_damaged_ones_are_refused() {
        use prix_testkit::{check, from_fn, Config};
        let whole = wide_view();
        let good = encode_doc_record(&whole);
        let bare = DocData {
            lps: vec![],
            leaves: vec![],
            ..whole.clone()
        };
        assert_eq!(
            decode_doc_record(&good, Depth::Leaves).as_ref(),
            Some(&whole)
        );
        assert_eq!(decode_doc_record(&good, Depth::Nps).as_ref(), Some(&bare));
        let walked = DocData {
            leaves: vec![],
            ..whole.clone()
        };
        assert_eq!(decode_doc_record(&good, Depth::Lps), Some(walked));
        let one = DocData {
            nps: vec![],
            lps: vec![],
            leaves: vec![(Sym(5), 1)],
            orig_map: None,
            n_orig: 1,
        };
        assert_eq!(
            decode_doc_record(&encode_doc_record(&one), Depth::Leaves),
            Some(one)
        );

        // `n | nps × n | lps × n | leaf count | (sym, post) × count`,
        // each word a varint.
        for bad in [
            record(&[u64::MAX]),
            record(&[3, 2, 3]),
            record(&[1, 2, 1 << 40]),
            record(&[1, 2, 7, 100, 1]),
            record(&[1, 2, 7, 1, 5, 1, 9]),
            record(&[0, 1, 5, 1, 9]),
            record(&[1, 1 << 33, 0]),
            record(&[1, 1, 0]),
            record(&[2, 3, 2, 0]),
            record(&[1, 3, 0]),
        ] {
            assert!(decode_doc_record(&bad, Depth::Leaves).is_none(), "{bad:?}");
        }

        #[derive(Debug, Clone)]
        enum Damage {
            Truncate(usize),
            Endless(usize),
            Flip(usize, u8),
        }
        let len = good.len();
        // Where the leaf part, the rest of the record, starts: after `n`
        // and the NPS.
        let leaf_part = {
            let mut r = codec::Reader(&good);
            let n = r.var().unwrap();
            r.var32s(n).unwrap();
            len - r.0.len()
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
                    Some([true, at < leaf_part])
                }
                Damage::Endless(at) => {
                    let end = len.min(at + 11);
                    bytes[at..end].fill(0xff);
                    Some([true, at < leaf_part])
                }
                Damage::Flip(at, mask) => {
                    bytes[at] ^= mask;
                    None
                }
            };
            for depth in [Depth::Leaves, Depth::Nps] {
                let _ = doc_view(&bytes, IndexKind::Extended, Sym(1), depth);
            }
            let got = [Depth::Leaves, Depth::Nps].map(|depth| decode_doc_record(&bytes, depth));
            match refused {
                None => Ok(()),
                Some(refused) if refused == got.each_ref().map(Option::is_none) => {
                    // Damage inside a leaf part left undecoded.
                    match &got[1] {
                        Some(rec) if *rec != bare => Err(format!("{d:?} changed the record")),
                        _ => Ok(()),
                    }
                }
                Some(_) => Err(format!("{d:?} decoded to {got:?}")),
            }
        });
    }

    /// The `_into` forms reuse what they write into: a wide record, then
    /// a narrow one, with and without leaf data, decoded into the same
    /// buffers, give what a fresh decode gives, for the regular view and
    /// for the extended view derived into a used output. A damaged record
    /// decoded into used buffers is refused.
    #[test]
    fn decoding_into_used_buffers_equals_a_fresh_decode() {
        let wide = encode_doc_record(&wide_view());
        let narrow = record(&[1, 2, 7, 1, 5, 1]);
        let dummy = Sym(9);
        let (mut regular, mut view, mut ext) = (DocData::default(), DocData::default(), Vec::new());
        let mut buf = DocBuf::default();
        let mut out = DocData::default();
        let (w, n) = (&wide, &narrow);
        let (all, nps) = (Depth::Leaves, Depth::Nps);
        for (bytes, depth) in [
            (w, all),
            (n, all),
            (w, nps),
            (n, nps),
            (w, all),
            (n, nps),
            (w, nps),
            (n, all),
        ] {
            let leaf = depth == Depth::Leaves;
            let fresh = decode_doc_record(bytes, depth).unwrap();
            decode_doc_record_into(bytes, depth, &mut regular).unwrap();
            assert_eq!(regular, fresh, "leaf data {leaf}");
            let fresh_ext = fresh.extended(dummy, leaf).unwrap();
            regular
                .extended_into(dummy, leaf, &mut ext, &mut view)
                .unwrap();
            assert_eq!(view, fresh_ext, "leaf data {leaf}");
            buf.record.clone_from(bytes);
            for (kind, want) in [
                (IndexKind::Regular, &fresh),
                (IndexKind::Extended, &fresh_ext),
            ] {
                buf.view_into(kind, dummy, depth, &mut out).unwrap();
                assert_eq!(&out, want, "{kind}, leaf data {leaf}");
            }
        }
        let mut cut = wide.clone();
        cut.truncate(cut.len() - 3);
        // Refused by the decoder: a parent at or below its child, a leaf
        // part cut short; by the derivation only: a leaf with a child.
        let leafy_parent = record(&[1, 2, 7, 1, 5, 2]);
        for (bad, decodes) in [
            (record(&[2, 3, 1, 0]), false),
            (cut, false),
            (leafy_parent, true),
        ] {
            decode_doc_record_into(&wide, Depth::Leaves, &mut regular).unwrap();
            regular
                .extended_into(dummy, true, &mut ext, &mut view)
                .unwrap();
            let got = decode_doc_record_into(&bad, Depth::Leaves, &mut regular);
            assert_eq!(got.is_some(), decodes, "{bad:?}");
            if decodes {
                assert!(regular
                    .extended_into(dummy, true, &mut ext, &mut view)
                    .is_none());
            }
            for kind in [IndexKind::Regular, IndexKind::Extended] {
                buf.record.clone_from(&wide);
                buf.view_into(kind, dummy, Depth::Leaves, &mut out).unwrap();
                buf.record.clone_from(&bad);
                let refused = buf.view_into(kind, dummy, Depth::Leaves, &mut out).is_err();
                // A regular view is not derived: a leaf with a child
                // decodes.
                let regular_decodes = decodes && kind == IndexKind::Regular;
                assert_eq!(refused, !regular_decodes, "{kind}: {bad:?}");
            }
        }
    }

    /// Records that decode but are not one tree's regular view: the
    /// extended view of each is "corrupt document record" — an NPS
    /// naming a parent past the root or at or below its child (refused
    /// by the decoder already), more leaves than the tree has, a leaf at
    /// a node with children, too few leaves, and a leaf part cut short.
    #[test]
    fn an_extended_view_of_a_hostile_record_is_an_error_not_a_panic() {
        // Two nodes: leaf 1 under root 2.
        let ok = record(&[1, 2, 7, 1, 5, 1]);
        assert!(doc_view(&ok, IndexKind::Extended, Sym(0), Depth::Leaves).is_ok());
        let mut cut = encode_doc_record(&wide_view());
        cut.truncate(cut.len() - 3);
        for (what, bad, depth) in [
            ("a parent past the root", record(&[1, 3, 0]), Depth::Nps),
            (
                "a parent below its child",
                record(&[2, 3, 1, 0]),
                Depth::Nps,
            ),
            (
                "a parent that is its child",
                record(&[2, 1, 3, 0]),
                Depth::Nps,
            ),
            (
                "a leaf count past n",
                record(&[1, 2, 7, 3, 5, 1, 6, 1, 7, 1]),
                Depth::Leaves,
            ),
            (
                "a leaf with a child",
                record(&[1, 2, 7, 1, 5, 2]),
                Depth::Leaves,
            ),
            ("no leaves", record(&[1, 2, 7, 0]), Depth::Leaves),
            ("a truncated leaf part", cut, Depth::Leaves),
        ] {
            for kind in [IndexKind::Regular, IndexKind::Extended] {
                let got = doc_view(&bad, kind, Sym(0), depth);
                match (kind, got) {
                    (_, Err(e)) => assert_eq!(
                        e.to_string(),
                        "unsupported query: corrupt document record",
                        "{what}"
                    ),
                    (IndexKind::Regular, Ok(_)) if depth == Depth::Leaves => {}
                    (_, Ok(v)) => panic!("{what}: {kind} view {v:?}"),
                }
            }
        }
    }

    /// The extended view built from the tree itself: the extended tree
    /// [`prix_prufer::ExtendedTree::build`] makes, its sequences, leaves
    /// and ext→orig map — what the derivation must reproduce.
    fn extended_by_tree(tree: &XmlTree, dummy: Sym) -> (DocData, XmlTree) {
        let ext = prix_prufer::ExtendedTree::build(tree, dummy);
        let PruferSeq { lps, nps } = PruferSeq::regular(&ext.tree);
        let data = DocData {
            nps,
            lps,
            leaves: ext.tree.leaves(),
            orig_map: Some(ext.orig_post),
            n_orig: tree.len() as u32,
        };
        (data, ext.tree)
    }

    /// Per-position gaps of `tree`'s NPS computed from the tree:
    /// the postorder gap between its first and last children, of the
    /// parent recorded at each position.
    fn gaps_by_tree(tree: &XmlTree) -> Vec<u32> {
        let mut node_gap = vec![0u32; tree.len()];
        for node in tree.nodes() {
            if let [first, .., last] = tree.children(node) {
                let gap = tree.postorder(*last) - tree.postorder(*first);
                node_gap[(tree.postorder(node) - 1) as usize] = gap;
            }
        }
        let nps = PruferSeq::regular(tree).nps;
        nps.iter().map(|&p| node_gap[(p - 1) as usize]).collect()
    }

    /// The derivation against the extended tree, for the one document
    /// `xml`: the derived view field for field, without leaf data the
    /// same with the LPS and leaf list emptied, and both indexes' paths,
    /// gaps and MaxGap tables what the tree they index gives.
    fn derivation_matches_the_extended_tree(xml: &str) -> std::result::Result<(), String> {
        let mut c = Collection::new();
        c.add_xml(xml).map_err(|e| format!("{xml}: {e}"))?;
        let dummy = c.intern("\u{1}d");
        let tree = c.doc(0);
        let (want, ext_tree) = extended_by_tree(tree, dummy);
        let record = encode_doc_record(&DocData::regular(tree));
        let view = |leaf| doc_view(&record, IndexKind::Extended, dummy, leaf);
        let got = view(Depth::Leaves).map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!("{xml}: derived {got:?}, built {want:?}"));
        }
        let bare = DocData {
            lps: vec![],
            leaves: vec![],
            ..want.clone()
        };
        if view(Depth::Nps).map_err(|e| e.to_string())? != bare {
            return Err(format!("{xml}: the view without leaf data differs"));
        }
        for (kind, indexed) in [(IndexKind::Regular, tree), (IndexKind::Extended, &ext_tree)] {
            let mut maxgap = MaxGapTable::new();
            let (path, gaps) = DocData::regular(tree).filed_path(kind, dummy).unwrap();
            maxgap.add_seq(&path, &gaps);
            let sorted = |t: &MaxGapTable| {
                let mut e: Vec<_> = t.entries().collect();
                e.sort_unstable_by_key(|&(s, _)| s.0);
                e
            };
            let paths = (path, gaps, sorted(&maxgap));
            let built = (
                PruferSeq::regular(indexed).lps,
                gaps_by_tree(indexed),
                sorted(&MaxGapTable::build([indexed])),
            );
            if paths != built {
                return Err(format!(
                    "{xml}: {kind} files {paths:?}, the tree gives {built:?}"
                ));
            }
        }
        Ok(())
    }

    /// A random document of up to 5 levels: elements from four names,
    /// empty ones among them, and value leaves.
    fn random_xml() -> impl prix_testkit::Generator<Value = String> {
        fn element(rng: &mut prix_testkit::TestRng, depth: u32, out: &mut String) {
            let name = *rng.pick(&["a", "b", "c", "d"]);
            out.push_str(&format!("<{name}>"));
            if depth < 5 && rng.chance(0.25) {
                out.push_str(rng.pick::<&str>(&["v1", "v2", "Jim Gray"]));
            } else if depth < 5 {
                for _ in 0..rng.below(4) {
                    element(rng, depth + 1, out);
                }
            }
            out.push_str(&format!("</{name}>"));
        }
        prix_testkit::from_fn(|rng| {
            let mut xml = String::new();
            element(rng, 0, &mut xml);
            xml
        })
    }

    /// The extended view derived from a record equals the one built
    /// from the extended tree: the paper's Figure 2 tree, a single node,
    /// a deep chain, value leaves, and random documents.
    #[test]
    fn the_derived_extended_view_is_the_extended_trees() {
        let chain = "<a>".repeat(200) + &"</a>".repeat(200);
        for xml in [
            "<A><C/><B><C><D/></C><C><D/><E/></C></B><C><C/></C><D><E><G/><F/><F/></E></D></A>",
            "<one/>",
            "<a>v</a>",
            &chain,
            r#"<r><p><name>Jim Gray</name><year>1990</year></p><p><name/><year>1991</year></p></r>"#,
        ] {
            derivation_matches_the_extended_tree(xml).unwrap();
        }
        let cfg = prix_testkit::Config::cases(300);
        prix_testkit::check("derived_extended_view", &cfg, &random_xml(), |xml| {
            derivation_matches_the_extended_tree(xml)
        });
    }

    #[test]
    fn derived_extended_view_regression_seed() {
        prix_testkit::replay(0x5EED_0032, &random_xml(), |xml| {
            derivation_matches_the_extended_tree(xml)
        });
    }
}
