//! The streaming query executor: a pull-based filter → refine →
//! project pipeline over the PRIX index.
//!
//! The paper's two-phase evaluation (Algorithm 1 subsequence filtering,
//! Algorithm 2 refinement) is decomposed into composable operators:
//!
//! ```text
//!   CandidateCursor ──► RefineStage ──► MatchStream
//!   (explicit-stack      (per-candidate   (composition +
//!    trie descent,        refinement,      ordering rule,
//!    predicate            embedding        limit pushdown,
//!    pre-filter, one      projection,      per-stage stats)
//!    candidate per pull)  dedup)
//! ```
//!
//! [`CandidateCursor`] is the recursive `FindSubsequence` turned into
//! an explicit stack of suspended trie levels: each `next()` resumes
//! the depth-first descent exactly where the previous candidate was
//! emitted, so a consumer that stops pulling stops the traversal
//! mid-trie — the remaining range queries, trie-node scans, and docid
//! scans never run. That is what makes `LIMIT` a real pushdown instead
//! of a post-hoc truncation.
//!
//! [`RefineStage`] is order-agnostic; [`MatchStream`] picks the order
//! from [`ExecOpts::limit`]. With a limit it refines candidates as the
//! trie yields them, so it can stop mid-descent. Without one nobody can
//! stop it early, so its first pull drains the cursor, sorts the
//! candidates by `(doc, positions)` and refines them in that order:
//! each document's records are fetched once and in record order, which
//! is what keeps the pages per query down (refining in arrival order
//! instead measured +9 `pages_per_query` on `query_cold`).

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use prix_prufer::{embedding, refine_match, RefineCtx};
use prix_xml::{DocId, PostNum, Sym};

use crate::index::{
    project_embedding, DocData, ExecOpts, GapRule, PrixIndex, QueryPlan, QueryStats, Result,
    TwigMatch,
};
use crate::valix::PredEval;

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
/// resumable cursor. Each [`CandidateCursor::next`] yields one
/// `(doc, positions)` candidate pair in the same depth-first order the
/// recursive formulation emitted them, then suspends. Documents the
/// predicate pre-filter rules out are never yielded.
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
    started: bool,
    done: bool,
    stats: QueryStats,
}

impl<'a> CandidateCursor<'a> {
    pub(crate) fn new(
        idx: &'a PrixIndex,
        lps: Vec<Sym>,
        rules: Vec<Option<GapRule>>,
        pred: Option<&'a PredEval<'a>>,
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
            started: false,
            done: false,
            stats: QueryStats::default(),
        }
    }

    /// Filter-stage counters accumulated so far (`range_queries`,
    /// `nodes_scanned`, `maxgap_pruned`, `pred_skipped`, `filter_time`).
    pub(crate) fn stats(&self) -> QueryStats {
        self.stats
    }

    /// `true` once the whole trie descent has been drained. A cursor
    /// abandoned mid-descent (limit hit) never becomes exhausted.
    pub(crate) fn exhausted(&self) -> bool {
        self.done
    }

    /// Pulls the next `(doc, positions)` candidate, resuming the
    /// descent where the previous pull suspended.
    pub(crate) fn next(&mut self) -> Result<Option<(DocId, &[PostNum])>> {
        let t0 = Instant::now();
        let res = self.advance();
        self.stats.filter_time += t0.elapsed();
        match res? {
            Some(doc) => Ok(Some((doc, &self.positions))),
            None => Ok(None),
        }
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
        if !self.started {
            self.started = true;
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

/// Algorithm 2 refinement + embedding projection + dedup + predicate
/// verification as a per-candidate stage. Order-agnostic: feeding it
/// candidates in any order yields the same set of distinct matches
/// (first occurrence wins). The per-document [`DocData`] cache survives
/// across candidates, and dedup hashes per-document embedding sets so a
/// duplicate costs a lookup, not a clone.
pub(crate) struct RefineStage<'a> {
    idx: &'a PrixIndex,
    cache: HashMap<DocId, DocData>,
    seen: HashMap<DocId, HashSet<Vec<PostNum>>>,
    /// Value-predicate evaluator: refined matches must pass its
    /// positional verification, which needs the leaf records loaded
    /// even when the plan's leaf check is skipped.
    pred: Option<&'a PredEval<'a>>,
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
    fn new(idx: &'a PrixIndex, pred: Option<&'a PredEval<'a>>) -> Self {
        RefineStage {
            idx,
            cache: HashMap::new(),
            seen: HashMap::new(),
            pred,
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
        let data = match self.cache.entry(doc) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                self.idx
                    .load_doc(doc, !plan.skip_leaf || self.pred.is_some())?,
            ),
        };
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
        self.refine_time += t0.elapsed();
        if !ok {
            return Ok(None);
        }
        self.refined += 1;
        let t1 = Instant::now();
        let img = embedding(&plan.seq.nps, positions, &data.nps);
        let out = (|| {
            let base = project_embedding(plan, data, &img)?;
            if absolute && base[base.len() - 1] != data.n_orig {
                return None;
            }
            let set = self.seen.entry(doc).or_default();
            if set.contains(&base) {
                return None;
            }
            set.insert(base.clone());
            Some(TwigMatch {
                doc,
                embedding: base,
            })
        })();
        self.project_time += t1.elapsed();
        match (self.pred, out) {
            (Some(p), Some(m)) if !p.matches(data, &m.embedding) => {
                self.pred_rejected += 1;
                Ok(None)
            }
            (_, out) => Ok(out),
        }
    }
}

/// The one executor, behind [`PrixIndex::stream`]: cursor → refine →
/// project. With [`ExecOpts::limit`] set, matches arrive in
/// trie-traversal order and the descent stops at the limit; without
/// one the first pull drains the cursor and matches arrive in
/// `(doc, positions)` candidate order (see the module docs for why).
pub struct MatchStream<'a> {
    cursor: CandidateCursor<'a>,
    stage: RefineStage<'a>,
    plan: QueryPlan,
    absolute: bool,
    limit: Option<usize>,
    /// Unlimited streams only: the candidates not yet refined, sorted
    /// descending so the next one pops off the back.
    sorted: Vec<(DocId, Vec<PostNum>)>,
    emitted: u64,
}

impl<'a> MatchStream<'a> {
    pub(crate) fn new(
        idx: &'a PrixIndex,
        plan: QueryPlan,
        absolute: bool,
        opts: &ExecOpts,
        pred: Option<&'a PredEval<'a>>,
    ) -> Self {
        let rules = if opts.use_maxgap {
            idx.gap_rules(&plan)
        } else {
            vec![None; plan.seq.len().saturating_sub(1)]
        };
        let cursor = CandidateCursor::new(idx, plan.seq.lps.clone(), rules, pred);
        MatchStream {
            cursor,
            stage: RefineStage::new(idx, pred),
            plan,
            absolute,
            limit: opts.limit,
            sorted: Vec::new(),
            emitted: 0,
        }
    }

    /// Pulls the next distinct match. Returns `None` once the
    /// candidates are used up or the limit is reached; either way, no
    /// further index work happens after that.
    pub fn next_match(&mut self) -> Result<Option<TwigMatch>> {
        if self.limit.is_none() && !self.cursor.exhausted() {
            // Phase 1 (Algorithm 1) in full, then grouped per document
            // so phase 2 fetches each record once.
            while let Some((doc, positions)) = self.cursor.next()? {
                self.sorted.push((doc, positions.to_vec()));
            }
            self.sorted.sort_unstable_by(|a, b| b.cmp(a));
        }
        while self.limit.is_none_or(|k| (self.emitted as usize) < k) {
            let popped;
            let candidate = match self.limit {
                Some(_) => self.cursor.next()?,
                None => {
                    popped = self.sorted.pop();
                    popped.as_ref().map(|(doc, p)| (*doc, p.as_slice()))
                }
            };
            let Some((doc, positions)) = candidate else {
                break;
            };
            if let Some(m) = self
                .stage
                .process(&self.plan, self.absolute, doc, positions)?
            {
                self.emitted += 1;
                return Ok(Some(m));
            }
        }
        Ok(None)
    }

    /// `true` once the underlying cursor drained the whole trie
    /// descent. A stream stopped by its limit (or dropped early) is not
    /// exhausted — `!exhausted()` after the stream ends is the
    /// conservative "truncated" signal (no probing for a further match
    /// is performed).
    pub fn exhausted(&self) -> bool {
        self.cursor.exhausted()
    }

    /// Merged pipeline statistics: the cursor's filter counters and
    /// timing, the refine stage's counters and timings, and the
    /// candidate / match counts observed by the stream so far.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.cursor.stats();
        s.candidates = self.stage.candidates;
        s.refined = self.stage.refined;
        s.refine_time = self.stage.refine_time;
        s.project_time = self.stage.project_time;
        s.matches = self.emitted;
        s.pred_rejected = self.stage.pred_rejected;
        s
    }
}
