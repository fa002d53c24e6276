//! The streaming query executor: a pull-based filter → refine →
//! project pipeline over the PRIX index.
//!
//! The paper's two-phase evaluation (Algorithm 1 subsequence filtering,
//! Algorithm 2 refinement) is decomposed into composable operators:
//!
//! ```text
//!   CandidateCursor ─┬─► RefineStage ──► MatchStream
//!   (explicit-stack   │   (per-candidate   (composition +
//!    trie descent,    │    refinement,      ordering rule,
//!    predicate        │    embedding        limit pushdown,
//!    pre-filter, one  │    projection,      per-stage stats)
//!    candidate per    │    dedup; an
//!    pull)            │    anchored match
//!                     │    is taken as
//!                     │    proven)
//!   AnchoredCursor ───┘
//!   (value-run postings + record walks, a value or predicate twig on
//!    a tier; one match per pull)
//! ```
//!
//! `CandidateCursor` is the recursive `FindSubsequence` turned into
//! an explicit stack of suspended trie levels: each `next()` resumes
//! the depth-first descent exactly where the previous candidate was
//! emitted, so a consumer that stops pulling stops the traversal
//! mid-trie — the remaining range queries, trie-node scans, and docid
//! scans never run. That is what makes `LIMIT` a real pushdown instead
//! of a post-hoc truncation.
//!
//! `RefineStage` is order-agnostic; the order is the source's. A trie
//! cursor made with a limit yields candidates as the trie does, so the
//! stream can stop mid-descent. Without one nobody can stop it early, so
//! its first pull drains the descent, sorts the candidates by `(doc,
//! positions)` and yields them in that order: each document's records
//! are fetched once and in record order, which is what keeps the pages
//! per query down (refining in arrival order instead measured +9
//! `pages_per_query` on `query_cold`).
//!
//! The trie descent is one of two candidate sources. A twig on a
//! segment tier whose every edge is `/` and whose every leaf is a text
//! leaf or carries a probeable value predicate takes its candidates from
//! the tier's value run instead: `AnchoredCursor` takes each text leaf's
//! `(parent tag, value)` postings and each predicate's probed postings,
//! and the document's record fixes the rest of the embedding, since
//! `NPS[i]` is node *i*'s parent (Theorem 2). Each join that survives is
//! a match, not a candidate: it already holds what Algorithm 2 checks
//! (labels, connectedness, distinct images in query order), so the stage
//! does not refine it again, project it or look it up in a dedup set; it
//! applies only the absolute-root check and predicate verification. The
//! source yields the matches in the order the trie descent's `(doc, S)`
//! sort gives them, one document at a time, with a limit or without, and
//! a limited answer is the first matches of the unlimited one.
//!
//! An anchored stream needs no `QueryPlan`: it works in the query's
//! own postorder and the record's. Its order key is every non-root query
//! node's image in postorder, with a predicate leaf's §4.4 dummy (the
//! image's first child) just before the leaf when the index extends the
//! query (`PrixIndex::extends`). That is the descent's `S` up to a
//! strictly increasing map: an EPIndex places node `v` at `v + #leaves ≤
//! v`, and a text leaf's dummy is a strictly increasing function of the
//! leaf's image, placed just before it, so it never decides an order; it
//! lies strictly below its leaf exactly when the image is a leaf of the
//! record, which the walk checks instead.
//!
//! Both sources sit behind one interface, `Source` (`next`, `stats`,
//! `exhausted`), and [`MatchStream`] calls each once. Neither reads a
//! document itself: both load documents through the refine stage's
//! `Views::get`, a trie stream in its index's view, an anchored stream
//! in the record's regular view, decoded only as far as
//! `AnchoredCursor::depth` asks.
//!
//! A descent that stays on the trie is pruned by the rarest label of
//! its LPS on a segment tier (`PrixIndex::rarest_label`): a row whose
//! subtree holds none of that label's rows leads to no candidate, so
//! the cursor skips it before its range query.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Bound;
use std::time::{Duration, Instant};

use prix_prufer::{embedding_into, refine_match, EdgeKind, RefineCtx};
use prix_storage::{ValueRunReader, VxSection};
use prix_xml::{DocId, NodeKind, PostNum, Sym, SymbolTable};

use crate::index::{
    corrupt_record, project_embedding_into, Depth, DocBuf, DocData, ExecOpts, GapRule, IndexKind,
    PrixIndex, QueryPlan, QueryStats, Result, TwigMatch,
};
use crate::query::TwigQuery;
use crate::valix::{docs_of, merge_join, str_key, PredEval, STR_KEY_CAP};

/// Where a [`MatchStream`]'s candidates come from: Algorithm 1's trie
/// descent ([`CandidateCursor`]), or a tier's value run and records
/// ([`AnchoredCursor`]).
trait Source {
    /// Pulls the next `(doc, positions)` candidate of the trie descent,
    /// or the next `(doc, embedding)` match an anchored source proved; a
    /// source that reads documents loads them through `views`, the
    /// refine stage's.
    fn next(&mut self, views: &mut Views<'_>) -> Result<Option<(DocId, &[PostNum])>>;
    /// Filter-stage counters and clock accumulated so far.
    fn stats(&self) -> QueryStats;
    /// `true` once a pull found no candidate left. A source abandoned
    /// early (limit hit) never becomes exhausted.
    fn exhausted(&self) -> bool;
}

/// One suspended level of the trie descent: the rows its range query
/// produced and how far the cursor has advanced through them.
struct Frame {
    /// `(left, right, level, fine_gap)` rows from the Trie-Symbol scan.
    hits: Vec<(u64, u64, u32, u32)>,
    /// Next row to try.
    next: usize,
}

impl Frame {
    /// The row currently being explored (`next` was advanced past it).
    fn current(&self) -> (u64, u64, u32, u32) {
        self.hits[self.next - 1]
    }
}

/// Algorithm 1 (`FindSubsequence` + Theorem 4 MaxGap pruning) as a
/// resumable cursor. Each pull of a limited cursor yields one
/// `(doc, positions)` candidate pair in the same depth-first order the
/// recursive formulation emitted them, then suspends; an unlimited one
/// yields them all sorted by `(doc, positions)`. Documents the predicate
/// pre-filter rules out are never yielded.
pub(crate) struct CandidateCursor<'a> {
    idx: &'a PrixIndex,
    lps: Vec<Sym>,
    rules: Vec<Option<GapRule>>,
    /// Value-predicate evaluator: a document its valix probe ruled out
    /// cannot pass positional verification, so its candidates are
    /// dropped here, before refinement loads a record for them.
    pred: Option<&'a PredEval<'a>>,
    /// `frames[d]` is the suspended range-query state for LPS position
    /// `d`; `positions[..d]` are the levels chosen by frames `0..d`.
    frames: Vec<Frame>,
    positions: Vec<PostNum>,
    /// Documents found at the last LPS position, drained one per pull
    /// (all share the current `positions`).
    pending: VecDeque<DocId>,
    /// Rarest-label pruning ([`PrixIndex::rarest_label`]): the frames
    /// shallower than the position skip every row whose subtree holds
    /// none of the lefts, the rows of that position's label.
    prune: Option<(usize, Vec<u64>)>,
    /// An unlimited cursor's candidates, which its first pull drains
    /// from the descent and sorts by `(doc, positions)`, descending so
    /// the next pops off the back; `None` for a limited cursor, which
    /// yields in descent order.
    sorted: Option<Vec<(DocId, Vec<PostNum>)>>,
    done: bool,
    stats: QueryStats,
}

impl<'a> CandidateCursor<'a> {
    pub(crate) fn new(
        idx: &'a PrixIndex,
        lps: Vec<Sym>,
        rules: Vec<Option<GapRule>>,
        pred: Option<&'a PredEval<'a>>,
        unlimited: bool,
    ) -> Self {
        let cap = lps.len();
        CandidateCursor {
            idx,
            lps,
            rules,
            pred,
            frames: Vec::with_capacity(cap),
            positions: Vec::with_capacity(cap),
            pending: VecDeque::new(),
            prune: None,
            sorted: unlimited.then(Vec::new),
            done: false,
            stats: QueryStats::default(),
        }
    }

    /// An unlimited cursor's next candidate in `(doc, positions)` order,
    /// left in `positions`; the first pull drains the descent, and the
    /// copies and the sort run on the filter clock.
    fn pop_sorted(&mut self) -> Result<Option<DocId>> {
        if !self.done {
            let t0 = Instant::now();
            let mut all = Vec::new();
            while let Some(doc) = self.advance()? {
                all.push((doc, self.positions.clone()));
            }
            all.sort_unstable_by(|a, b| b.cmp(a));
            self.sorted = Some(all);
            self.stats.filter_time += t0.elapsed();
        }
        let next = self.sorted.as_mut().and_then(Vec::pop);
        Ok(next.map(|(doc, positions)| {
            self.positions = positions;
            doc
        }))
    }

    /// The next pending document the predicate pre-filter lets through.
    fn pop_pending(&mut self) -> Option<DocId> {
        while let Some(doc) = self.pending.pop_front() {
            if self.pred.is_none_or(|p| p.allows(doc)) {
                return Some(doc);
            }
            self.stats.pred_skipped += 1;
        }
        None
    }

    fn advance(&mut self) -> Result<Option<DocId>> {
        if self.done {
            return Ok(None);
        }
        if let Some(doc) = self.pop_pending() {
            return Ok(Some(doc));
        }
        if self.frames.is_empty() {
            // Not started: a cursor whose frames ran out is done.
            self.prune = self.idx.rarest_label(&self.lps)?;
            if let Some((_, lefts)) = &self.prune {
                self.stats.range_queries += 1;
                self.stats.nodes_scanned += lefts.len() as u64;
            }
            // The virtual root's scope is (0, u64::MAX].
            self.push_frame(0, 0, u64::MAX)?;
        }
        loop {
            let depth = match self.frames.len().checked_sub(1) {
                Some(d) => d,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            };
            // Invariant: while trying frame `depth`'s rows, positions
            // holds exactly the levels chosen by the shallower frames.
            self.positions.truncate(depth);
            let (left, right, level) = {
                let frame = &mut self.frames[depth];
                if frame.next >= frame.hits.len() {
                    self.frames.pop();
                    continue;
                }
                let h = frame.hits[frame.next];
                frame.next += 1;
                (h.0, h.1, h.2)
            };
            // MaxGap pruning (Theorem 4): the parent frame's current
            // row carries the per-trie-node fine gap (§5.4).
            if depth > 0 {
                if let Some(rule) = self.rules[depth - 1] {
                    let prev_fine = self.frames[depth - 1].current().3;
                    let mg = rule.global.min(prev_fine as u64);
                    let prev = self.positions[depth - 1];
                    let dist = (level as u64).saturating_sub(prev as u64);
                    if dist > mg + rule.extra {
                        self.stats.maxgap_pruned += 1;
                        continue;
                    }
                }
            }
            // Rarest-label pruning: the candidate's node at that
            // position would descend from this row, so some row of its
            // label must have its left in the row's subtree.
            if let Some((_, lefts)) = self.prune.as_ref().filter(|p| depth < p.0) {
                let next = lefts.partition_point(|&l| l <= left);
                if lefts.get(next).is_none_or(|&l| l > right) {
                    continue;
                }
            }
            self.positions.push(level);
            if depth + 1 == self.lps.len() {
                self.idx.scan_docids(left, right, &mut self.pending)?;
                if let Some(doc) = self.pop_pending() {
                    return Ok(Some(doc));
                }
                // No admissible document ends on this trie node: keep
                // descending.
            } else {
                self.push_frame(depth + 1, left, right)?;
            }
        }
    }

    fn push_frame(&mut self, depth: usize, ql: u64, qr: u64) -> Result<()> {
        self.stats.range_queries += 1;
        let hits = self.idx.scan_tag_range(self.lps[depth], ql, qr)?;
        self.stats.nodes_scanned += hits.len() as u64;
        self.frames.push(Frame { hits, next: 0 });
        Ok(())
    }
}

impl Source for CandidateCursor<'_> {
    /// Resumes the descent where the previous pull suspended, on the
    /// filter clock; an unlimited cursor yields its sorted candidates
    /// instead. The descent reads no document.
    fn next(&mut self, _: &mut Views<'_>) -> Result<Option<(DocId, &[PostNum])>> {
        let doc = match self.sorted {
            Some(_) => self.pop_sorted()?,
            None => {
                let t0 = Instant::now();
                let doc = self.advance();
                self.stats.filter_time += t0.elapsed();
                doc?
            }
        };
        Ok(doc.map(|doc| (doc, self.positions.as_slice())))
    }

    /// `range_queries`, `nodes_scanned`, `maxgap_pruned`,
    /// `pred_skipped`, `filter_time`.
    fn stats(&self) -> QueryStats {
        self.stats
    }

    fn exhausted(&self) -> bool {
        self.done
    }
}

/// What a segment tier lends an EPIndex stream to anchor a value twig
/// on (see [`AnchoredCursor`]).
#[derive(Clone, Copy)]
pub(crate) struct TierValues<'a> {
    /// The tier's value run.
    pub(crate) run: &'a ValueRunReader,
    /// The tier's RPIndex: its MaxGap table names every label a node
    /// with children carries in the tier.
    pub(crate) rp: &'a PrixIndex,
    /// The table the query's and the records' labels name.
    pub(crate) syms: &'a SymbolTable,
}

/// Where an anchor's postings come from, and what its leaf must be.
enum Probe {
    /// A text leaf: its label — the value — and the one value-run key
    /// its postings lie under, `str_key(parent tag, value)`; `None` when
    /// the table does not name the value, so no document of a tier holds
    /// it. `truncated` when the value is longer than the key holds
    /// ([`STR_KEY_CAP`] bytes), so other values share the key.
    Text {
        value: Sym,
        key: Option<Vec<u8>>,
        truncated: bool,
    },
    /// A leaf that carries a probeable predicate: the evaluator's index
    /// of that predicate, whose postings [`PredEval::build`] probed.
    Pred(usize),
}

/// One anchor of an anchored stream: a query leaf that is a text leaf or
/// carries a probeable predicate.
pub(crate) struct Anchor {
    /// The image slot a posting's leaf fills: the text leaf's own
    /// postorder, or a predicate leaf's §4.4 dummy, a slot past the
    /// query's nodes. `None` for a predicate leaf the index does not
    /// extend, as an exact RPIndex plan does not.
    at: Option<PostNum>,
    probe: Probe,
    /// `(query postorder, label)` of the nodes above `at`, parent first,
    /// root last: for a predicate leaf, the leaf first.
    up: Vec<(PostNum, Sym)>,
}

/// The anchors `q` has on the tier `values` describes, one per query leaf
/// in postorder, or `None` when the tier's stream descends the trie;
/// `extended` is whether the index extends `q` ([`PrixIndex::extends`]).
/// Anchoring is structural: every edge below the root `/`, and every
/// query leaf either a text leaf or a leaf carrying a predicate `pred`
/// probed this tier's value run for (any operator but `!=`), so that
/// every other query node is an anchor's ancestor and its image lies on
/// the anchor's walk up the NPS. A text leaf also needs its value to be
/// no label a node with children carries in the tier: such a node is the
/// image of a text leaf too (matching is label-based), but the value run
/// indexes leaves only. A predicate leaf needs nothing more: its image's
/// accepted leaf children are the postings.
pub(crate) fn plan_anchors(
    idx: &PrixIndex,
    q: &TwigQuery,
    extended: bool,
    values: &TierValues<'_>,
    pred: Option<&PredEval<'_>>,
) -> Option<Vec<Anchor>> {
    let t = q.tree();
    let n = t.len() as PostNum;
    if q.edges_by_post()[..n as usize - 1]
        .iter()
        .any(|e| *e != EdgeKind::Child)
    {
        return None;
    }
    let mut anchors = Vec::new();
    let mut dummy = n;
    for leaf in (1..=n).filter(|&v| t.is_leaf(t.node_at(v))) {
        let mut up = Vec::new();
        let mut at = leaf;
        while let Some(p) = t.parent_post(at) {
            up.push((p, t.label_at(p)));
            at = p;
        }
        let label = t.label_at(leaf);
        anchors.push(if t.kind(t.node_at(leaf)) == NodeKind::Text {
            if values.rp.labels_a_parent(label) {
                return None;
            }
            let name = values.syms.get(label);
            Anchor {
                at: Some(leaf),
                probe: Probe::Text {
                    value: label,
                    key: name.map(|name| str_key(up[0].1, name)),
                    truncated: name.is_some_and(|name| name.len() > STR_KEY_CAP),
                },
                up,
            }
        } else {
            let k = pred?.probed_at(idx.doc_base(), leaf)?;
            up.insert(0, (leaf, label));
            Anchor {
                at: extended.then(|| {
                    dummy += 1;
                    dummy
                }),
                probe: Probe::Pred(k),
                up,
            }
        });
    }
    (!anchors.is_empty()).then_some(anchors)
}

/// `explain`'s line for an anchored plan: each anchor's key, or its
/// predicate.
pub(crate) fn explain_anchors(
    anchors: &[Anchor],
    syms: &SymbolTable,
    pred: Option<&PredEval<'_>>,
) -> String {
    let keys: Vec<String> = anchors
        .iter()
        .map(|a| {
            let tag = syms.name(a.up[0].1);
            match a.probe {
                Probe::Text { value, .. } => format!("{tag} = \"{}\"", syms.name(value)),
                Probe::Pred(k) => {
                    let op = pred.map(|p| p.pred(k).render_op()).unwrap_or_default();
                    format!("{tag} {op}")
                }
            }
        })
        .collect();
    format!("filter: anchored on the value run: {}\n", keys.join(", "))
}

/// The second candidate source: a value twig's or a predicate twig's
/// matches, from its tier's value run and records, with no trie descent,
/// no plan and no Algorithm 2 pass.
///
/// The first pull gathers every anchor's postings and merge-joins them
/// by document: a predicate's come from the evaluator's probe, and each
/// text leaf's key is scanned here — the one spanning the fewest blocks
/// first, each later scan stopping past the last document still in the
/// intersection. Then, one document at a time: a document whose anchors'
/// postorders cannot come in query order is dropped unread; otherwise
/// the refine stage's [`Views::get`] decodes its regular view into the
/// stage's one view, to the depth [`AnchoredCursor::depth`] names, and
/// the anchors walk it: a text posting must name a leaf of the record,
/// and under a truncated key one that carries the value (an exact key
/// already does), each anchor walks up the NPS checking every ancestor's
/// label, and the anchors join where their images meet. A predicate
/// posting only finds its node's image, so a predicate's walks are one
/// per image, and the §4.4 dummy under it takes the image's first child:
/// that is the least candidate the trie descent has for the embedding.
///
/// Each join is one embedding, and a proven one: every query node's
/// image carries its label and is its query parent's image's child, and
/// images in query postorder ascend, which is what Algorithm 2 checks.
/// The join keeps the embedding only when its order key — the images of
/// the cursor's `key` slots — strictly increases, and the cursor yields
/// the embeddings in key order: the order of the trie descent's `S` (see
/// the module docs). Distinct joins differ in some anchor's walk, and so
/// in the image of a query node: no match repeats.
pub(crate) struct AnchoredCursor<'a> {
    idx: &'a PrixIndex,
    run: &'a ValueRunReader,
    anchors: Vec<Anchor>,
    pred: Option<&'a PredEval<'a>>,
    /// Per anchor, its postings in the documents every anchor's key
    /// holds, `(doc, post)` ascending, and the first not walked yet.
    postings: Vec<Vec<(DocId, PostNum)>>,
    walked: Vec<usize>,
    /// Per anchor, where its postings in the current document start
    /// (they end at `walked`).
    starts: Vec<usize>,
    /// Per anchor, the images of its walks in the current document,
    /// `at` (if any) and then `up` each; and the images a join assigns
    /// by slot — the query's nodes in postorder, then the predicate
    /// leaves' dummies — 0 unset. Reused from one document to the next.
    walks: Vec<Vec<PostNum>>,
    img: Vec<PostNum>,
    /// Per node of the document being walked, its first child — the
    /// least node whose parent it is — or 0 for a leaf: what a text
    /// posting's leaf test and a predicate's dummy read.
    first: Vec<PostNum>,
    /// The slots of the order key: every non-root query node in
    /// postorder, a predicate leaf's dummy just before its leaf.
    key: Vec<usize>,
    /// The query's nodes: an embedding is the images of slots `1..=n`.
    n: usize,
    /// The document being yielded; its matches, each its key and then its
    /// embedding; where each match starts, in key order; and how many of
    /// them were yielded.
    doc: DocId,
    found: Vec<PostNum>,
    order: Vec<usize>,
    yielded: usize,
    probed: bool,
    done: bool,
    stats: QueryStats,
}

impl<'a> AnchoredCursor<'a> {
    /// The cursor of `anchors` ([`plan_anchors`]) over a query of `n`
    /// nodes.
    pub(crate) fn new(
        idx: &'a PrixIndex,
        run: &'a ValueRunReader,
        anchors: Vec<Anchor>,
        n: usize,
        pred: Option<&'a PredEval<'a>>,
    ) -> Self {
        let mut dummies = anchors
            .iter()
            .filter(|a| matches!(a.probe, Probe::Pred(_)))
            .filter_map(|a| Some((a.up[0].0 as usize, a.at? as usize)))
            .peekable();
        let mut key = Vec::new();
        for v in 1..=n {
            key.extend(dummies.next_if(|&(leaf, _)| leaf == v).map(|(_, d)| d));
            if v < n {
                key.push(v);
            }
        }
        let slots = anchors.iter().filter_map(|a| a.at).max().unwrap_or(0);
        let k = anchors.len();
        AnchoredCursor {
            idx,
            run,
            anchors,
            img: vec![0; n.max(slots as usize) + 1],
            first: Vec::new(),
            key,
            n,
            pred,
            postings: vec![Vec::new(); k],
            walked: vec![0; k],
            starts: vec![0; k],
            walks: vec![Vec::new(); k],
            doc: 0,
            found: Vec::new(),
            order: Vec::new(),
            yielded: 0,
            probed: false,
            done: false,
            stats: QueryStats::default(),
        }
    }

    /// How much of a record the walks and the stage read: the LPS for the
    /// labels, and the leaf list too when a text anchor's key is
    /// truncated or a predicate is verified.
    pub(crate) fn depth(&self) -> Depth {
        let truncated = |a: &Anchor| {
            matches!(
                a.probe,
                Probe::Text {
                    truncated: true,
                    ..
                }
            )
        };
        if self.pred.is_some() || self.anchors.iter().any(truncated) {
            Depth::Leaves
        } else {
            Depth::Lps
        }
    }

    /// Predicate `k`'s postings in this tier, as the evaluator probed
    /// them.
    fn probed(&self, k: usize) -> &'a [(DocId, PostNum)] {
        self.pred
            .and_then(|p| p.postings(self.idx.doc_base(), k))
            .unwrap_or_default()
    }

    /// Gathers every anchor's postings and keeps those of the documents
    /// all of them hold.
    fn probe(&mut self) -> Result<()> {
        let mut docs: Option<Vec<DocId>> = None;
        let mut texts = Vec::new();
        for (i, a) in self.anchors.iter().enumerate() {
            match a.probe {
                Probe::Pred(k) => {
                    let held = docs_of(self.probed(k));
                    docs = Some(match docs {
                        None => held,
                        Some(d) => merge_join(&d, &held),
                    });
                }
                Probe::Text { ref key, .. } => {
                    let span = key
                        .as_ref()
                        .map_or(0, |k| self.run.key_span(VxSection::Str, k));
                    texts.push((span, i));
                }
            }
        }
        // The predicates' probe ruled the rest of the tier out unvisited.
        if let Some(d) = &docs {
            self.stats.pred_skipped += (self.idx.doc_count() - d.len()) as u64;
        }
        texts.sort_unstable();
        for (_, i) in texts {
            let Probe::Text { key: Some(key), .. } = &self.anchors[i].probe else {
                docs = Some(Vec::new());
                break;
            };
            let last = match &docs {
                Some(d) if d.is_empty() => break,
                Some(d) => d.last().copied(),
                None => None,
            };
            let list = &mut self.postings[i];
            let (lo, hi) = (Bound::Included(&key[..]), Bound::Included(&key[..]));
            self.run.scan(VxSection::Str, lo, hi, |_, doc, post| {
                let inside = last.is_none_or(|l| doc <= l);
                if inside {
                    list.push((doc, post));
                }
                inside
            })?;
            self.stats.valix_probes += 1;
            self.stats.valix_postings += list.len() as u64;
            let held = docs_of(list);
            docs = Some(match docs {
                None => held,
                Some(d) => merge_join(&d, &held),
            });
        }
        let docs = docs.unwrap_or_default();
        for i in 0..self.anchors.len() {
            match self.anchors[i].probe {
                Probe::Pred(k) => {
                    let kept = self.probed(k).iter().copied().filter(held_in(&docs));
                    self.postings[i].extend(kept);
                }
                Probe::Text { .. } => self.postings[i].retain(held_in(&docs)),
            }
        }
        Ok(())
    }

    /// Anchor `i`'s postings in the current document.
    fn posts(&self, i: usize) -> &[(DocId, PostNum)] {
        &self.postings[i][self.starts[i]..self.walked[i]]
    }

    /// Walks the next document; `false` when none is left.
    fn next_doc(&mut self, views: &mut Views<'_>) -> Result<bool> {
        let Some(&(doc, _)) = self.postings[0].get(self.walked[0]) else {
            return Ok(false);
        };
        self.doc = doc;
        self.found.clear();
        self.order.clear();
        self.yielded = 0;
        for ((list, walked), start) in self
            .postings
            .iter()
            .zip(&mut self.walked)
            .zip(&mut self.starts)
        {
            *start = *walked;
            while list.get(*walked).is_some_and(|&(d, _)| d == doc) {
                *walked += 1;
            }
        }
        // An embedding's leaves ascend in query postorder, and so do the
        // leaves under them: try the least posting each time.
        let mut least = 0;
        for i in 0..self.anchors.len() {
            match self.posts(i).iter().find(|&&(_, post)| post > least) {
                Some(&(_, post)) => least = post,
                None => return Ok(true),
            }
        }
        if self.pred.is_some_and(|p| !p.allows(doc)) {
            self.stats.pred_skipped += 1;
            return Ok(true);
        }
        let (regular, _) = views.get(doc)?;
        // Descending, so each node keeps its least child.
        self.first.clear();
        self.first.resize(regular.nps.len() + 2, 0);
        for (i, &p) in regular.nps.iter().enumerate().rev() {
            self.first[p as usize] = i as PostNum + 1;
        }
        for (i, (a, out)) in self.anchors.iter().zip(&mut self.walks).enumerate() {
            out.clear();
            for &(_, post) in &self.postings[i][self.starts[i]..self.walked[i]] {
                climb(regular, &self.first, a, post, out);
            }
            if out.is_empty() {
                return Ok(true);
            }
        }
        let mut img = std::mem::take(&mut self.img);
        let mut found = std::mem::take(&mut self.found);
        self.join(0, &mut img, &mut found);
        let klen = self.key.len();
        self.order.extend((0..found.len()).step_by(klen + self.n));
        self.order
            .sort_unstable_by(|&x, &y| found[x..x + klen].cmp(&found[y..y + klen]));
        self.img = img;
        self.found = found;
        Ok(true)
    }

    /// Joins anchor `i`'s walks onto the images `img` the earlier
    /// anchors fixed, and appends every complete assignment whose key
    /// strictly increases to `found`: its key, then its embedding.
    fn join(&self, i: usize, img: &mut [PostNum], found: &mut Vec<PostNum>) {
        let Some(a) = self.anchors.get(i) else {
            let start = found.len();
            found.extend(self.key.iter().map(|&slot| img[slot]));
            if found[start..].windows(2).all(|w| w[0] < w[1]) {
                found.extend_from_slice(&img[1..=self.n]);
            } else {
                found.truncate(start);
            }
            return;
        };
        let nodes = || a.at.into_iter().chain(a.up.iter().map(|&(e, _)| e));
        let width = a.up.len() + usize::from(a.at.is_some());
        for walk in self.walks[i].chunks_exact(width) {
            if nodes()
                .zip(walk)
                .any(|(e, &v)| img[e as usize] != 0 && img[e as usize] != v)
            {
                continue;
            }
            // The earlier anchors fixed whole walks up to the root, so
            // the nodes this walk fixes first are the ones below the
            // highest it shares: a prefix of `nodes()`.
            let fresh = nodes().take_while(|&e| img[e as usize] == 0).count();
            for (e, &v) in nodes().zip(walk) {
                img[e as usize] = v;
            }
            self.join(i + 1, img, found);
            for e in nodes().take(fresh) {
                img[e as usize] = 0;
            }
        }
    }

    /// The order key of the match yielded last.
    #[cfg(test)]
    fn last_key(&self) -> &[PostNum] {
        let at = self.order[self.yielded - 1];
        &self.found[at..at + self.key.len()]
    }
}

impl Source for AnchoredCursor<'_> {
    /// Loads each document it enters through `views`, on the filter
    /// clock, and yields its matches' embeddings.
    fn next(&mut self, views: &mut Views<'_>) -> Result<Option<(DocId, &[PostNum])>> {
        let t0 = Instant::now();
        if !self.probed {
            self.probed = true;
            self.probe()?;
        }
        while !self.done && self.yielded == self.order.len() {
            self.done = !self.next_doc(views)?;
        }
        self.stats.filter_time += t0.elapsed();
        if self.done {
            return Ok(None);
        }
        let at = self.order[self.yielded] + self.key.len();
        self.yielded += 1;
        Ok(Some((self.doc, &self.found[at..at + self.n])))
    }

    /// The probes, their postings, the documents the predicate
    /// pre-filter dropped, `filter_time`.
    fn stats(&self) -> QueryStats {
        self.stats
    }

    fn exhausted(&self) -> bool {
        self.done
    }
}

/// A filter over `(doc, post)` postings in document order that keeps
/// those of the documents `docs` (ascending) holds: one merge walk over
/// the two lists, however many postings a document has.
fn held_in(docs: &[DocId]) -> impl FnMut(&(DocId, PostNum)) -> bool + '_ {
    let mut at = 0;
    move |&(doc, _)| {
        while docs.get(at).is_some_and(|&d| d < doc) {
            at += 1;
        }
        docs.get(at) == Some(&doc)
    }
}

/// Appends to `out` the images of anchor `a`'s walk from the leaf at
/// `post` up to the query root — `at`'s, then each node's of `up` — in
/// the document whose view is `view` and whose first children are
/// `first`, if every node carries the query's label, a text leaf's node
/// is a leaf of the record, which no NPS entry names as its parent (the
/// rule [`extension_numbering`](crate::index::extension_numbering) uses),
/// and under a truncated key carries the value. (The tier files every
/// leaf under its parent's tag and its own name, one symbol's, so an
/// exact key already names the value.) A predicate's walk is appended
/// once per image of its node, with the dummy under it on that image's
/// first child.
fn climb(view: &DocData, first: &[PostNum], a: &Anchor, post: PostNum, out: &mut Vec<PostNum>) {
    if let Probe::Text {
        value, truncated, ..
    } = a.probe
    {
        if first.get(post as usize) != Some(&0) {
            return;
        }
        if truncated {
            let own = view.leaves.binary_search_by_key(&post, |l| l.1);
            if own.map(|k| view.leaves[k].0) != Ok(value) {
                return;
            }
        }
    }
    let start = out.len();
    if a.at.is_some() {
        out.push(post);
    }
    let mut v = post;
    for &(_, label) in &a.up {
        let i = (v as usize).wrapping_sub(1);
        match (view.lps.get(i), view.nps.get(i)) {
            (Some(&l), Some(&parent)) if l == label => v = parent,
            _ => {
                out.truncate(start);
                return;
            }
        }
        out.push(v);
    }
    if let Probe::Pred(_) = a.probe {
        let node = usize::from(a.at.is_some());
        let width = out.len() - start;
        let image = out[start + node];
        if out[..start].chunks_exact(width).any(|w| w[node] == image) {
            out.truncate(start);
        } else if a.at.is_some() {
            out[start] = first[image as usize];
        }
    }
}

/// The embeddings already emitted from one document.
type Seen = HashSet<Vec<PostNum>>;

/// One document's view and the embeddings already emitted from it.
#[derive(Default)]
struct OneDoc {
    /// The document `data` and `seen` belong to; `None` while they
    /// belong to none (before the first document, and while the next
    /// one is read into `data`).
    doc: Option<DocId>,
    data: DocData,
    seen: Seen,
}

/// The documents a [`RefineStage`] refines against and the scratch it
/// reads them through.
///
/// A stream whose candidates arrive grouped by document — an unlimited
/// trie stream after its sort, and every anchored stream — never returns
/// to a document it has left, so it keeps one view, and a trie stream
/// one dedup set, reset when the document changes: its vectors grow to
/// the widest document and are then reused, and nothing is left to free
/// when the stream ends. A limited trie stream refines in trie order,
/// which interleaves documents, so its dedup must span them: it keeps
/// every document's view and dedup set, each document read once, through
/// the same [`DocBuf`].
pub(crate) struct Views<'a> {
    idx: &'a PrixIndex,
    /// Which view of each record is held: the index's own for a trie
    /// stream, the regular view for an anchored one.
    kind: IndexKind,
    /// How much of each record the views decode.
    depth: Depth,
    buf: DocBuf,
    one: OneDoc,
    /// A limited trie stream's views and dedup sets, per document;
    /// `None` for a grouped stream.
    spread: Option<HashMap<DocId, (DocData, Seen)>>,
}

impl<'a> Views<'a> {
    fn new(idx: &'a PrixIndex, kind: IndexKind, depth: Depth, grouped: bool) -> Self {
        Views {
            idx,
            kind,
            depth,
            buf: DocBuf::default(),
            one: OneDoc::default(),
            spread: (!grouped).then(HashMap::new),
        }
    }

    /// `doc`'s view of the stream's kind and the embeddings emitted from
    /// it, the document read first unless it is held.
    fn get(&mut self, doc: DocId) -> Result<(&DocData, &mut Seen)> {
        let (idx, kind, depth, buf) = (self.idx, self.kind, self.depth, &mut self.buf);
        let Some(spread) = &mut self.spread else {
            if self.one.doc != Some(doc) {
                self.one
                    .enter(doc, |data| idx.load_doc_into(doc, kind, depth, buf, data))?;
            }
            return Ok((&self.one.data, &mut self.one.seen));
        };
        let (data, seen) = match spread.entry(doc) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let mut data = DocData::default();
                idx.load_doc_into(doc, kind, depth, buf, &mut data)?;
                e.insert((data, Seen::new()))
            }
        };
        Ok((data, seen))
    }

    /// How many views and dedup sets are held.
    #[cfg(test)]
    fn held(&self) -> usize {
        match &self.spread {
            Some(spread) => spread.len(),
            None => usize::from(self.one.doc.is_some()),
        }
    }
}

impl OneDoc {
    /// Reads `doc` into the view with `read`. The view is no document's
    /// until the read succeeds: a record that does not load never leaves
    /// the previous document's view standing under this one's id.
    fn enter(&mut self, doc: DocId, read: impl FnOnce(&mut DocData) -> Result<()>) -> Result<()> {
        self.doc = None;
        read(&mut self.data)?;
        self.doc = Some(doc);
        self.seen.clear();
        Ok(())
    }
}

/// Algorithm 2 refinement + embedding projection + dedup + predicate
/// verification as a per-candidate stage. Order-agnostic: feeding it
/// candidates in any order yields the same set of distinct matches
/// (first occurrence wins). Where it keeps the documents it reads is
/// [`Views`]'s: one view for a stream grouped by document, one per
/// document otherwise. Per candidate it allocates nothing but the
/// match it emits: the checks read the view in place, and the embedding
/// and its projection go to buffers the stage keeps. An anchored
/// stream's matches skip refinement, projection and dedup: only the
/// absolute-root check and predicate verification run
/// ([`RefineStage::accept`]).
pub(crate) struct RefineStage<'a> {
    views: Views<'a>,
    /// Value-predicate evaluator: refined matches must pass its
    /// positional verification, which needs the leaf records loaded
    /// even when the plan's leaf check is skipped.
    pred: Option<&'a PredEval<'a>>,
    /// The embedding in plan numbering, and projected.
    img: Vec<PostNum>,
    base: Vec<PostNum>,
    /// `(doc, S)` candidate pairs that entered refinement.
    candidates: u64,
    /// Candidates surviving all refinement phases.
    refined: u64,
    /// Refined matches the evaluator rejected.
    pred_rejected: u64,
    refine_time: Duration,
    project_time: Duration,
}

impl<'a> RefineStage<'a> {
    fn new(views: Views<'a>, pred: Option<&'a PredEval<'a>>) -> Self {
        RefineStage {
            views,
            pred,
            img: Vec::new(),
            base: Vec::new(),
            candidates: 0,
            refined: 0,
            pred_rejected: 0,
            refine_time: Duration::default(),
            project_time: Duration::default(),
        }
    }

    /// Runs one candidate through refinement, projection, the
    /// absolute-root check, dedup, and predicate verification. Returns
    /// the match if the candidate survives everything and is new.
    fn process(
        &mut self,
        plan: &QueryPlan,
        absolute: bool,
        doc: DocId,
        positions: &[PostNum],
    ) -> Result<Option<TwigMatch>> {
        self.candidates += 1;
        let t0 = Instant::now();
        let (data, seen) = self.views.get(doc)?;
        // The trie holds the document's sequence as its record was
        // written: a position past the record's is a damaged record,
        // which refinement must not index into.
        if positions
            .iter()
            .any(|&p| p == 0 || p as usize > data.nps.len())
        {
            return Err(corrupt_record());
        }
        let ctx = RefineCtx {
            doc_nps: &data.nps,
            query_nps: &plan.seq.nps,
            positions,
            edges: &plan.edges,
            query_leaves: &plan.leaves,
            doc_leaves: &data.leaves,
            doc_lps: &data.lps,
            skip_leaf_check: plan.skip_leaf,
        };
        let ok = refine_match(&ctx);
        let t1 = Instant::now();
        self.refine_time += t1 - t0;
        if !ok {
            return Ok(None);
        }
        self.refined += 1;
        embedding_into(&plan.seq.nps, positions, &data.nps, &mut self.img);
        let base = &mut self.base;
        let new = project_embedding_into(plan, data, &self.img, base).is_some()
            && !(absolute && base.last() != Some(&data.n_orig))
            && !seen.contains(base.as_slice());
        if new {
            seen.insert(base.clone());
        }
        let t2 = Instant::now();
        self.project_time += t2 - t1;
        if !new {
            return Ok(None);
        }
        if let Some(p) = self.pred {
            // Positional predicate verification refines too.
            let ok = p.matches(data, base);
            self.refine_time += t2.elapsed();
            if !ok {
                self.pred_rejected += 1;
                return Ok(None);
            }
        }
        Ok(Some(TwigMatch {
            doc,
            embedding: base.clone(),
        }))
    }

    /// Takes a match an anchored source proved, in its document's regular
    /// view (the one view the source loaded), through the absolute-root
    /// check and predicate verification, on the refine clock. Its join
    /// already did what Algorithm 2 and projection do, and made it
    /// distinct, so it counts as a refined candidate as it comes.
    fn accept(&mut self, absolute: bool, doc: DocId, embedding: &[PostNum]) -> Option<TwigMatch> {
        debug_assert_eq!(self.views.one.doc, Some(doc));
        self.candidates += 1;
        self.refined += 1;
        let t0 = Instant::now();
        let data = &self.views.one.data;
        let rooted = !absolute || embedding.last() == Some(&data.n_orig);
        let verified = rooted && self.pred.is_none_or(|p| p.matches(data, embedding));
        self.pred_rejected += u64::from(rooted && !verified);
        self.refine_time += t0.elapsed();
        verified.then(|| TwigMatch {
            doc,
            embedding: embedding.to_vec(),
        })
    }
}

/// The one executor, behind [`PrixIndex::stream`]: candidates → refine
/// → project. With [`ExecOpts::limit`] set, matches arrive in the
/// tier's candidate order and the source stops at the limit; without
/// one they arrive in `(doc, positions)` candidate order — a trie
/// descent is drained and sorted by the first pull (see the module
/// docs for why), an anchored source yields that order as it goes.
pub struct MatchStream<'a> {
    source: Box<dyn Source + 'a>,
    stage: RefineStage<'a>,
    /// The plan a trie descent's candidates are refined against; `None`
    /// when the source is anchored and yields proven matches.
    plan: Option<QueryPlan>,
    absolute: bool,
    limit: Option<usize>,
    emitted: u64,
    /// Filter time spent outside the source: planning the stream.
    setup_time: Duration,
}

impl<'a> MatchStream<'a> {
    /// The stream of `q` over `idx`, anchored on `values` when the query
    /// has anchors there ([`plan_anchors`]), a trie descent of its
    /// [`QueryPlan`] otherwise; `setup` is when planning it started.
    pub(crate) fn new(
        idx: &'a PrixIndex,
        q: &TwigQuery,
        opts: &ExecOpts,
        pred: Option<&'a PredEval<'a>>,
        values: Option<TierValues<'a>>,
        setup: Instant,
    ) -> Result<Self> {
        let extended = idx.extends(q)?;
        let anchored =
            values.and_then(|v| Some((v.run, plan_anchors(idx, q, extended, &v, pred)?)));
        let (source, views, plan): (Box<dyn Source + 'a>, _, _) = match anchored {
            // An anchored source yields one document at a time, so it
            // arrives grouped by document.
            Some((run, anchors)) => {
                let cursor = AnchoredCursor::new(idx, run, anchors, q.tree().len(), pred);
                let views = Views::new(idx, IndexKind::Regular, cursor.depth(), true);
                (Box::new(cursor), views, None)
            }
            None => {
                let plan = idx.plan(q)?;
                let rules = if opts.use_maxgap {
                    idx.gap_rules(&plan)
                } else {
                    vec![None; plan.seq.len().saturating_sub(1)]
                };
                let lps = plan.seq.lps.clone();
                // An unlimited trie stream refines its sorted candidates,
                // grouped by document.
                let unlimited = opts.limit.is_none();
                let cursor = CandidateCursor::new(idx, lps, rules, pred, unlimited);
                let leaf_data = !plan.skip_leaf || pred.is_some();
                let depth = if leaf_data { Depth::Leaves } else { Depth::Nps };
                let views = Views::new(idx, idx.kind(), depth, unlimited);
                (Box::new(cursor), views, Some(plan))
            }
        };
        Ok(MatchStream {
            source,
            stage: RefineStage::new(views, pred),
            plan,
            absolute: q.is_absolute(),
            limit: opts.limit,
            emitted: 0,
            setup_time: setup.elapsed(),
        })
    }

    /// Pulls the next distinct match. Returns `None` once the
    /// candidates are used up or the limit is reached; either way, no
    /// further index work happens after that.
    pub fn next_match(&mut self) -> Result<Option<TwigMatch>> {
        while self.limit.is_none_or(|k| (self.emitted as usize) < k) {
            let Some((doc, pulled)) = self.source.next(&mut self.stage.views)? else {
                break;
            };
            let m = match &self.plan {
                Some(plan) => self.stage.process(plan, self.absolute, doc, pulled)?,
                None => self.stage.accept(self.absolute, doc, pulled),
            };
            if let Some(m) = m {
                self.emitted += 1;
                return Ok(Some(m));
            }
        }
        Ok(None)
    }

    /// `true` once the source ran dry: a pull found no candidate left.
    /// A stream stopped by its limit (or dropped early) is not
    /// exhausted — `!exhausted()` after the stream ends is the
    /// conservative "truncated" signal (no probing for a further match
    /// is performed).
    pub fn exhausted(&self) -> bool {
        self.source.exhausted()
    }

    /// Merged pipeline statistics: the source's filter counters and
    /// timing, the refine stage's counters and timings, and the
    /// candidate / match counts observed by the stream so far.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.source.stats();
        s.filter_time += self.setup_time;
        s.candidates = self.stage.candidates;
        s.refined = self.stage.refined;
        s.refine_time = self.stage.refine_time;
        s.project_time = self.stage.project_time;
        s.matches = self.emitted;
        s.pred_rejected = self.stage.pred_rejected;
        s
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use prix_prufer::{embedding_into, refine_match, RefineCtx};
    use prix_storage::{MemSegEnv, RawStore};
    use prix_testkit::TestRng;
    use prix_xml::{Collection, NodeKind};

    use super::{plan_anchors, AnchoredCursor, MatchStream, Source, TierValues, Views};
    use crate::engine::{EngineConfig, PrixEngine};
    use crate::index::{
        extension_numbering, project_embedding_into, Depth, DocBuf, DocData, ExecOpts, IndexKind,
        PrixIndex, QueryPlan,
    };
    use crate::naive::naive_ordered;
    use crate::segbuild::BulkBuilder;
    use crate::valix::{PredEval, STR_KEY_CAP};
    use crate::xpath::parse_xpath;

    /// `(doc, embedding)` pairs.
    type Matches = Vec<(u32, Vec<u32>)>;

    /// `xpath` over `docs` in one tier: its matches, whether the tier
    /// anchored it (no range query ran), and the oracle's embeddings.
    fn run(docs: &[&str], xpath: &str) -> (Matches, bool, Matches) {
        let mut c = Collection::new();
        for d in docs {
            c.add_xml(d).unwrap();
        }
        let engine = PrixEngine::build(c.clone(), EngineConfig::default()).unwrap();
        let snap = engine.snapshot();
        let q = snap.parse_query(xpath).unwrap();
        let out = snap.query_opts(&q, &ExecOpts::new()).unwrap();
        let got = out.matches.into_iter().map(|m| (m.doc, m.embedding));
        let mut syms = c.symbols().clone();
        let oq = crate::xpath::parse_xpath(xpath, &mut syms).unwrap();
        let oracle = c
            .iter()
            .flat_map(|(doc, t)| naive_ordered(t, &oq).into_iter().map(move |e| (doc, e)));
        (
            got.collect(),
            out.stats.range_queries == 0,
            oracle.collect(),
        )
    }

    #[test]
    fn a_value_a_node_with_children_carries_keeps_the_tier_on_the_trie() {
        // Matching is by label: the element `d`, which has a child, is
        // the image of the text leaf "d", but no posting names it.
        let docs = ["<r><A><d><x/></d></A></r>", "<r><A>d</A></r>"];
        let (got, anchored, oracle) = run(&docs, r#"//r[./A="d"]"#);
        assert!(!anchored);
        assert_eq!(got, oracle);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn a_truncated_key_is_told_apart_by_the_leaf_label() {
        let long = "v".repeat(300);
        let docs = [
            format!("<a><b>{long}1</b></a>"),
            format!("<a><b>{long}2</b><b>{long}1</b></a>"),
        ];
        let docs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let (got, anchored, oracle) = run(&docs, &format!(r#"//a[./b="{long}2"]"#));
        assert!(anchored);
        assert_eq!(got, oracle);
        assert_eq!(got, vec![(1, vec![1, 2, 5])]);
    }

    #[test]
    fn an_anchored_twig_still_verifies_its_predicates() {
        let docs = ["<a><b>x</b>5</a>", "<a><b>x</b>50</a>", "<a><b>y</b>5</a>"];
        let (got, anchored, _) = run(&docs, r#"//a[./b="x"][. < 10]"#);
        assert!(anchored);
        assert_eq!(got, vec![(0, vec![1, 2, 4])]);
    }

    #[test]
    fn anchors_join_in_query_order_only() {
        // Doc 0 holds both values in the other order, doc 1 in query
        // order twice over, doc 2 under two different parents.
        let docs = [
            "<e><r><u>y</u><u>x</u></r></e>",
            "<e><r><u>x</u><u>y</u><u>x</u><u>y</u></r></e>",
            "<e><r><u>x</u></r><r><u>y</u></r></e>",
        ];
        let (got, anchored, oracle) = run(&docs, r#"//e/r[./u="x"][./u="y"]"#);
        assert!(anchored);
        assert_eq!(got, oracle);
        assert_eq!(got.iter().filter(|(d, _)| *d == 1).count(), 3);
        assert!(got.iter().all(|(d, _)| *d == 1));
    }

    /// Six documents, each one match of `//a/b` and of `//a[./b="x"]`.
    fn six_docs() -> PrixEngine {
        let mut c = Collection::new();
        for i in 0..6 {
            c.add_xml(&format!("<a><b>x</b><c>{i}</c></a>")).unwrap();
        }
        PrixEngine::build(c, EngineConfig::default()).unwrap()
    }

    /// Drains `stream`: the documents its matches came from, and the
    /// most views its refine stage held after any pull.
    fn drain_holding(stream: &mut MatchStream<'_>) -> (usize, usize) {
        let (mut docs, mut most) = (HashSet::new(), 0);
        while let Some(m) = stream.next_match().unwrap() {
            docs.insert(m.doc);
            most = most.max(stream.stage.views.held());
        }
        (docs.len(), most)
    }

    /// A stream grouped by document — an unlimited trie stream, an
    /// anchored stream with a limit or without — holds one view and one
    /// dedup set however many documents it drains; a limited trie
    /// stream, whose documents interleave, holds one per document.
    #[test]
    fn a_grouped_stream_holds_one_view_and_one_dedup_set() {
        let engine = six_docs();
        let tier = &engine.seg_tiers()[0];
        let values = TierValues {
            run: &tier.vx,
            rp: &tier.rp,
            syms: engine.symbols(),
        };
        let mut syms = engine.symbols().clone();
        let path = parse_xpath("//a/b", &mut syms).unwrap();
        let twig = parse_xpath(r#"//a[./b="x"]"#, &mut syms).unwrap();
        let unlimited = ExecOpts::new();
        let limited = ExecOpts {
            limit: Some(100),
            ..ExecOpts::new()
        };
        for (what, q, values, opts, held) in [
            ("unlimited trie", &path, None, &unlimited, 1),
            ("anchored", &twig, Some(values), &unlimited, 1),
            ("limited anchored", &twig, Some(values), &limited, 1),
            ("limited trie", &path, None, &limited, 6),
        ] {
            let idx = if values.is_some() { &tier.ep } else { &tier.rp };
            let mut stream = idx.stream_tier(q, opts, None, values).unwrap();
            assert_eq!(drain_holding(&mut stream), (6, held), "{what}");
            let anchored = stream.stats().range_queries == 0;
            assert_eq!(anchored, values.is_some(), "{what}");
        }
    }

    /// A document that fails to load leaves no view standing: the one
    /// view is no document's until the next load succeeds, so the
    /// previous document's is never served under the new id.
    #[test]
    fn a_document_that_fails_to_load_leaves_no_view_standing() {
        let engine = six_docs();
        let idx = &engine.seg_tiers()[0].ep;
        let mut views = Views::new(idx, IndexKind::Extended, Depth::Leaves, true);
        let first = views.get(0).unwrap().0.clone();
        assert_eq!(views.held(), 1);
        assert!(views.get(99).is_err(), "past the tier");
        assert_eq!(views.held(), 0);
        assert!(views.get(99).is_err());
        assert_eq!(views.get(0).unwrap().0, &first);

        // An anchored stream's load on the EPIndex: the regular view it
        // walks, no extended view, and the leaf list decoded exactly when
        // the depth asks for it.
        for (depth, leaves) in [(Depth::Lps, 0), (Depth::Leaves, 2)] {
            let mut views = Views::new(idx, IndexKind::Regular, depth, true);
            let regular = views.get(0).unwrap().0;
            assert_eq!(regular.orig_map, None, "{depth:?}");
            assert_eq!(regular.nps.len() + 1, regular.n_orig as usize, "{depth:?}");
            assert_eq!(regular.lps.len(), regular.nps.len(), "{depth:?}");
            assert_eq!(regular.leaves.len(), leaves, "{depth:?}");
            assert_eq!(views.held(), 1);
            assert!(views.get(99).is_err(), "past the tier");
            assert_eq!(views.held(), 0);
            assert!(views.get(0).is_ok());
            assert_eq!(views.held(), 1);
        }
    }

    /// A bulk-built tier of the one document `xml`, in memory.
    fn one_doc_tier(xml: &str) -> Arc<MemSegEnv> {
        let env = Arc::new(MemSegEnv::new());
        let mut b = BulkBuilder::with_env(EngineConfig::default(), env.clone()).unwrap();
        b.add_xml(xml).unwrap();
        drop(b.finish().unwrap());
        env
    }

    /// A tier of one document, `<a><b>x</b><c>y</c></a>` (postorder x 1,
    /// b 2, y 3, c 4, a 5), whose record was damaged: NPS entry `i`, node
    /// `i + 1`'s parent, set from `was` to `now`. The segment does not
    /// checksum blocks on the query path.
    fn a_damaged_record(i: u64, was: u8, now: u8) -> PrixEngine {
        let env = one_doc_tier("<a><b>x</b><c>y</c></a>");
        let ep = env.store(".g1.ep.seg").unwrap();
        let word = |at: u64| {
            let mut w = [0; 8];
            ep.read_at(at, &mut w).unwrap();
            u64::from_le_bytes(w)
        };
        // Header fields: the record index and the record section. Record
        // 0 is its length prefix, `n`, then the NPS.
        let at = word(48) + word(word(40)) + 2 + i;
        let mut parent = [0];
        ep.read_at(at, &mut parent).unwrap();
        assert_eq!(parent, [was]);
        ep.write_at(at, &[now]).unwrap();
        PrixEngine::reopen_env(env, 8).unwrap()
    }

    /// An anchored stream over a record its leaf list and NPS disagree
    /// on, and over postings past a record's last node, yields no
    /// candidate: it never panics, and never places a position outside
    /// the view. Both damages pass decode (every parent above its child)
    /// and give `y`, which the leaf list names a leaf, a child: `b` (a
    /// chain), and `x`, which is not the node just before `y`, so a leaf
    /// test that reads only `y`'s last possible child passes it.
    #[test]
    fn an_anchored_stream_over_a_damaged_record_yields_no_candidate() {
        // The same labels, with `y` at postorder 7: past the last node of
        // the damaged record, which is document 0 too.
        let far = one_doc_tier("<a><b>x</b><b>x</b><b>x</b><c>y</c></a>");
        let far = PrixEngine::reopen_env(far, 8).unwrap();
        for (damage, (i, was, now)) in [("b under y", (1, 5, 3)), ("x under y", (0, 2, 3))] {
            let engine = a_damaged_record(i, was, now);
            let tier = &engine.seg_tiers()[0];
            let mut syms = engine.symbols().clone();
            let q = parse_xpath(r#"//a[./c="y"]"#, &mut syms).unwrap();
            for (what, run) in [("its own run", &tier.vx), ("far", &far.seg_tiers()[0].vx)] {
                let values = TierValues {
                    run,
                    rp: &tier.rp,
                    syms: engine.symbols(),
                };
                let opts = ExecOpts::new();
                let mut stream = tier.ep.stream_tier(&q, &opts, None, Some(values)).unwrap();
                if let Ok(m) = stream.next_match() {
                    assert_eq!(m, None, "{damage}, {what}");
                }
                let stats = stream.stats();
                assert_eq!(stats.range_queries, 0, "{damage}, {what}: anchored");
                assert_eq!(stats.valix_postings, 1, "{damage}, {what}");
                assert_eq!(stats.candidates, 0, "{damage}, {what}");
            }
        }
    }

    /// A trie stream over a record whose node count was lowered, 2 to
    /// 1, in a one-document tier `<a><b><c/></b></a>`: every parent is
    /// still above its child, so the record decodes, but the trie's
    /// positions run past its NPS. The stream refuses the record,
    /// limited or not; it never panics.
    #[test]
    fn a_trie_stream_over_a_damaged_record_is_refused() {
        let env = one_doc_tier("<a><b><c/></b></a>");
        let ep = env.store(".g1.ep.seg").unwrap();
        let word = |at: u64| {
            let mut w = [0; 8];
            ep.read_at(at, &mut w).unwrap();
            u64::from_le_bytes(w)
        };
        // Record 0: its length prefix, then `n`.
        let at = word(48) + word(word(40)) + 1;
        let mut n = [0];
        ep.read_at(at, &mut n).unwrap();
        assert_eq!(n, [2]);
        ep.write_at(at, &[1]).unwrap();
        let engine = PrixEngine::reopen_env(env, 8).unwrap();
        let tier = &engine.seg_tiers()[0];
        let q = parse_xpath("//a/b", &mut engine.symbols().clone()).unwrap();
        for opts in [ExecOpts::new(), ExecOpts::new().with_limit(1)] {
            let mut stream = tier.rp.stream(&q, &opts, None).unwrap();
            let err = stream.next_match().expect_err("a damaged record");
            assert_eq!(
                err.to_string(),
                "unsupported query: corrupt document record",
                "{opts:?}"
            );
        }
    }

    const NAMES: [&str; 4] = ["a", "b", "c", "d"];

    /// The values of the random documents and twigs: two of them longer
    /// than a value-run key holds, equal in their first
    /// [`STR_KEY_CAP`] bytes.
    fn values() -> [String; 6] {
        let long = "w".repeat(STR_KEY_CAP + 20);
        [
            "v1",
            "v2",
            "5",
            "17",
            &format!("{long}1"),
            &format!("{long}2"),
        ]
        .map(String::from)
    }

    /// A random document of up to four levels over four element names,
    /// with value leaves, some of them among an element's children, and
    /// empty elements at the bottom.
    fn random_doc(rng: &mut TestRng, depth: u32, out: &mut String) {
        let name = *rng.pick(&NAMES);
        out.push_str(&format!("<{name}>"));
        if depth > 0 && rng.chance(0.4) {
            out.push_str(rng.pick::<String>(&values()));
        } else if depth < 3 {
            for _ in 0..1 + rng.below(4) {
                if rng.chance(0.15) {
                    out.push_str(rng.pick::<String>(&values()));
                } else {
                    random_doc(rng, depth + 1, out);
                }
            }
        }
        out.push_str(&format!("</{name}>"));
    }

    /// A random predicate whose path ends in an anchor: a text leaf, or a
    /// leaf carrying `=`, `<` or `starts-with`.
    fn anchor_pred(rng: &mut TestRng) -> String {
        let mut path = rng.pick(&NAMES).to_string();
        if rng.chance(0.2) {
            path = format!("{path}/{}", rng.pick(&NAMES));
        }
        let value = rng.pick(&values()).clone();
        match rng.below(5) {
            0 | 1 => format!(r#"./{path}="{value}""#),
            2 => format!(r#"{path} = "{value}""#),
            3 => format!("./{path} < {}", rng.pick(&["6", "20"])),
            _ => format!(r#"starts-with(./{path}, "{}")"#, &value[..1]),
        }
    }

    /// A random twig whose edges below the root are all `/` and whose
    /// leaves are all anchors: one or two steps, each with anchored
    /// branches, the last step possibly a leaf with a predicate of its
    /// own.
    fn random_twig(rng: &mut TestRng) -> String {
        let axis = if rng.chance(0.25) { "/" } else { "//" };
        let mut q = format!("{axis}{}", rng.pick(&NAMES));
        let steps = rng.below(2);
        for k in 0..=steps {
            if k > 0 {
                q.push_str(&format!("/{}", rng.pick(&NAMES)));
            }
            if k == steps && k > 0 && rng.chance(0.25) {
                q.push_str(&format!("[. >= {}]", rng.pick(&["5", "17"])));
                break;
            }
            let branches = if k == steps {
                1 + rng.below(2)
            } else {
                rng.below(2)
            };
            for _ in 0..branches {
                q.push_str(&format!("[{}]", anchor_pred(rng)));
            }
        }
        q
    }

    /// The matches of `idx`'s unlimited stream of `q`, anchored on
    /// `values` when given, in the order it yields them.
    fn stream_matches(
        idx: &PrixIndex,
        q: &crate::query::TwigQuery,
        pred: Option<&PredEval<'_>>,
        values: Option<TierValues<'_>>,
    ) -> Matches {
        let mut stream = idx.stream_tier(q, &ExecOpts::new(), pred, values).unwrap();
        let mut out = Vec::new();
        while let Some(m) = stream.next_match().unwrap() {
            out.push((m.doc, m.embedding));
        }
        out
    }

    /// The `S` the trie descent finds for an anchored match of `q` (run
    /// by `plan`) in `doc`, computed apart from the cursor: the plan's
    /// non-root nodes in
    /// postorder, a query node at its image in `emb`, a text leaf's dummy
    /// just after the node before its leaf's image, a predicate leaf's
    /// dummy at the cursor's `key` entry for it; on an EPIndex each
    /// through the record's extension numbering. Also checks that the key
    /// holds every other entry's image, in the plan's order.
    fn reference_s(
        idx: &PrixIndex,
        plan: &QueryPlan,
        q: &crate::query::TwigQuery,
        doc: u32,
        emb: &[u32],
        key: &[u32],
    ) -> Vec<u32> {
        let mut regular = DocData::default();
        idx.load_doc_into(
            doc,
            IndexKind::Regular,
            Depth::Nps,
            &mut DocBuf::default(),
            &mut regular,
        )
        .unwrap();
        let mut ext = Vec::new();
        if idx.kind() == IndexKind::Extended {
            extension_numbering(&regular.nps, &mut ext).unwrap();
        }
        let pos = |v: u32| if ext.is_empty() { v } else { ext[v as usize] };
        // The query postorder of plan node `e`, 0 for a dummy.
        let orig = |e: u32| match &plan.ext_of_orig {
            None => e,
            Some(map) => map.iter().position(|&x| x == e).map_or(0, |i| i as u32 + 1),
        };
        let t = q.tree();
        let mut keys = key.iter();
        let mut s = Vec::new();
        for e in 1..plan.qtree.len() as u32 {
            s.push(match orig(e) {
                // A dummy: its leaf comes right after it.
                0 if t.kind(t.node_at(orig(e + 1))) == NodeKind::Text => {
                    pos(emb[orig(e + 1) as usize - 1] - 1) + 1
                }
                0 => pos(*keys.next().unwrap()),
                v => {
                    let image = emb[v as usize - 1];
                    assert_eq!(keys.next(), Some(&image));
                    pos(image)
                }
            });
        }
        assert_eq!(keys.next(), None);
        s
    }

    /// Every match an anchored stream yields without Algorithm 2 is one
    /// the trie path's checks accept on the same candidate: on random
    /// documents and all-`/` twigs with text and predicate leaves, on the
    /// RPIndex and the EPIndex, with `S` computed from the match apart
    /// from the cursor ([`reference_s`]), the document's LPS at `S` is the
    /// plan's, `refine_match` accepts `S` on the view the trie path
    /// refines against, projecting the embedding that gives is the match,
    /// and no `(doc, embedding)` pair repeats. A document's matches come
    /// in ascending `S`, and the anchored and trie streams answer alike,
    /// in the same order.
    #[test]
    fn anchored_matches_pass_the_trie_paths_checks() {
        let mut rng = TestRng::from_seed(0x5eed_0047);
        let mut checked = [0; 2];
        for _ in 0..60 {
            let mut c = Collection::new();
            for _ in 0..12 {
                let mut xml = String::new();
                random_doc(&mut rng, 0, &mut xml);
                c.add_xml(&xml).unwrap();
            }
            let engine = PrixEngine::build(c, EngineConfig::default()).unwrap();
            let tier = &engine.seg_tiers()[0];
            let values = TierValues {
                run: &tier.vx,
                rp: &tier.rp,
                syms: engine.symbols(),
            };
            for _ in 0..24 {
                let xpath = random_twig(&mut rng);
                let q = parse_xpath(&xpath, &mut engine.symbols().clone()).unwrap();
                let pred = PredEval::build(&q, engine.seg_tiers(), engine.symbols()).unwrap();
                let pred = pred.as_ref();
                for (kind, idx) in [&tier.rp, &tier.ep].into_iter().enumerate() {
                    let Ok(extended) = idx.extends(&q) else {
                        continue;
                    };
                    let Some(anchors) = plan_anchors(idx, &q, extended, &values, pred) else {
                        continue;
                    };
                    let plan = idx.plan(&q).unwrap();
                    let n = q.tree().len();
                    let mut cursor = AnchoredCursor::new(idx, values.run, anchors, n, pred);
                    let mut views = Views::new(idx, IndexKind::Regular, cursor.depth(), true);
                    let mut seen = HashSet::new();
                    let mut last: Option<(u32, Vec<u32>)> = None;
                    while let Some((doc, emb)) = cursor.next(&mut views).unwrap() {
                        let emb = emb.to_vec();
                        let s = reference_s(idx, &plan, &q, doc, &emb, cursor.last_key());
                        let view = idx.load_doc(doc, Depth::Leaves).unwrap();
                        let what = format!("{xpath} on {}, doc {doc}, S {s:?}", idx.kind());
                        let lps: Vec<_> = s.iter().map(|&p| view.lps.get(p as usize - 1)).collect();
                        let want: Vec<_> = plan.seq.lps.iter().map(Some).collect();
                        assert_eq!(lps, want, "{what}");
                        let ctx = RefineCtx {
                            doc_nps: &view.nps,
                            query_nps: &plan.seq.nps,
                            positions: &s,
                            edges: &plan.edges,
                            query_leaves: &plan.leaves,
                            doc_leaves: &view.leaves,
                            doc_lps: &view.lps,
                            skip_leaf_check: plan.skip_leaf,
                        };
                        assert!(refine_match(&ctx), "{what}");
                        let (mut img, mut base) = (Vec::new(), Vec::new());
                        embedding_into(&plan.seq.nps, &s, &view.nps, &mut img);
                        project_embedding_into(&plan, &view, &img, &mut base).unwrap();
                        assert_eq!(base, emb, "{what}");
                        assert!(seen.insert((doc, emb)), "{what}: repeated");
                        if let Some((_, before)) = last.as_ref().filter(|l| l.0 == doc) {
                            assert!(before < &s, "{what}: after {before:?}");
                        }
                        last = Some((doc, s));
                        checked[kind] += 1;
                    }
                    let anchored = stream_matches(idx, &q, pred, Some(values));
                    assert_eq!(anchored, stream_matches(idx, &q, pred, None), "{xpath}");
                }
            }
        }
        assert!(checked.iter().all(|&n| n >= 200), "{checked:?}");
    }

    /// Where predicate images nest, the trie's order is not the order of
    /// the images but that of the §4.4 dummy under each, the image's
    /// first child: in the first document the value is `b`'s first child,
    /// in the second it is not. An anchored stream yields the trie's
    /// matches in the trie's order on both indexes.
    #[test]
    fn nested_predicate_images_come_in_the_tries_order() {
        let mut c = Collection::new();
        c.add_xml("<r><a><b>5<c/><a><b>7</b></a></b></a></r>")
            .unwrap();
        c.add_xml("<r><a><b><c/>5<a><b>7</b></a></b></a></r>")
            .unwrap();
        let engine = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let tier = &engine.seg_tiers()[0];
        let values = TierValues {
            run: &tier.vx,
            rp: &tier.rp,
            syms: engine.symbols(),
        };
        for xpath in ["//a/b[. > 3]", "//a[./b > 3]", "//b[. > 3]"] {
            let q = parse_xpath(xpath, &mut engine.symbols().clone()).unwrap();
            let pred = PredEval::build(&q, engine.seg_tiers(), engine.symbols()).unwrap();
            let pred = pred.as_ref();
            for idx in [&tier.rp, &tier.ep] {
                let what = format!("{xpath} on {}", idx.kind());
                if q.tree().len() == 1 && idx.kind() == IndexKind::Regular {
                    assert!(idx.stream(&q, &ExecOpts::new(), pred).is_err(), "{what}");
                    continue;
                }
                let mut stream = idx
                    .stream_tier(&q, &ExecOpts::new(), pred, Some(values))
                    .unwrap();
                let mut anchored = Vec::new();
                while let Some(m) = stream.next_match().unwrap() {
                    anchored.push((m.doc, m.embedding));
                }
                assert_eq!(stream.stats().range_queries, 0, "{what}: anchored");
                let trie = stream_matches(idx, &q, pred, None);
                assert_eq!(anchored, trie, "{what}");
                let mut sorted = trie.clone();
                sorted.sort();
                assert_ne!(trie, sorted, "{what}");
                assert_eq!(trie.len(), 4, "{what}");
            }
        }
    }
}
