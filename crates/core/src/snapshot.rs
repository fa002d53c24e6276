//! The read side of the engine, and snapshot-isolated online ingest.
//!
//! [`EngineSnapshot`] is the one query surface: the Figure 3 pipeline
//! (filter by subsequence matching → refine → project) behind §5.6's
//! RP-vs-EP rule, the §5.7 arrangement loop, the routed and batch
//! entries, `explain`, and document reconstruction all live here and
//! nowhere else. [`PrixEngine`] builds and mutates; whoever wants
//! answers takes a view — [`PrixEngine::snapshot`] for a bare engine,
//! [`SharedEngine::snapshot`] while a writer runs.
//!
//! The paper treats the index as a build-once artifact; this module
//! makes inserts safe *while serving*. A view owns what it reads:
//!
//! * [`EngineSnapshot`] holds everything a query needs (symbol table,
//!   the tiers, RP/EP index handles, the value index) at one published
//!   epoch. Snapshots are immutable and cheap to share (`Arc`); queries
//!   against one snapshot are bit-identical no matter what the writer
//!   does concurrently.
//! * A tier never changes. A capture labels the delta's documents into
//!   rows of its own ([`crate::Delta::index`]), the rows the tier its
//!   compaction writes will hold; the writer shares only the record
//!   store with it, which only grows, and the view reads the records of
//!   its own documents (DESIGN.md §10).
//!
//! The epoch is the batch log's, the engine's one clock
//! ([`PrixEngine::epoch`]). [`SharedEngine`] keeps the registry of the
//! snapshots it published that readers still hold.
//!
//! [`SharedEngine`] is the concurrency wrapper: a single-writer
//! [`SharedEngine::ingest`] path that commits each batch with one save
//! (one batch-log record), and a wait-free-for-readers
//! [`SharedEngine::snapshot`] that hands out the current epoch's view.
//! Publication is atomic — the log append and its `fsync` inside
//! `PrixEngine::save` *are* the durability point, and swapping the
//! current snapshot afterwards is the visibility point. A crash between
//! the two recovers to exactly the new epoch (the record landed); a
//! crash before the `fsync` returns recovers to exactly the old one.
//! Once the log reaches its bound the writer compacts, which starts a
//! fresh one.
//!
//! Query parsing against a snapshot never mutates the frozen symbol
//! table: unknown labels are parked in a [`ScratchSyms`] overlay past
//! the table's end, where they match nothing (no tag range in any
//! index), which is exactly the right answer for a label the pinned
//! epoch has never seen.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use prix_storage::{BufferPool, IoScope, IoSnapshot};
use prix_xml::{Collection, DocId, PostNum, ScratchSyms, SymbolTable};

use crate::arrange::{arrangements, ARRANGEMENT_LIMIT};
use crate::engine::{PrixEngine, SegTier};
use crate::exec::{explain_anchors, plan_anchors, TierValues};
use crate::index::{
    Depth, ExecOpts, IndexError, IndexKind, PrixIndex, QueryStats, Result, TwigMatch,
};
use crate::plan::{AltProvider, EngineId, Routed};
use crate::query::TwigQuery;
use crate::valix::PredEval;
use crate::xpath::{parse_xpath, XPathError};

/// Everything a query execution reports.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The twig occurrences (deduplicated embeddings).
    pub matches: Vec<TwigMatch>,
    /// Filter/refinement counters.
    pub stats: QueryStats,
    /// Which index answered the query.
    pub index_used: IndexKind,
    /// I/O performed *by this query* (pages read = the paper's
    /// "Disk IO" column when the pool started cold). Attributed via a
    /// per-thread [`IoScope`], so it stays exact even when other
    /// queries run concurrently on the same buffer pool.
    pub io: IoSnapshot,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// `true` when execution stopped at [`ExecOpts::limit`] without
    /// proving the result set was drained; more matches *may* exist
    /// (conservative — no probing for the next match is done).
    pub truncated: bool,
    /// Which engine produced this outcome. PRIX paths derive it from
    /// `index_used`; routed alternative engines set their own id.
    pub engine: EngineId,
}

/// One tier's index pair, `(rp, ep)`, the shape [`pick_index`] routes
/// over, and what it lends an anchored stream (nothing on the delta,
/// which has no value run).
type TierRefs<'a> = (&'a PrixIndex, &'a PrixIndex, Option<TierValues<'a>>);

/// An immutable view of a [`PrixEngine`] at one epoch, and the only way
/// to query one.
///
/// Everything reachable from a snapshot reads as of its
/// [`EngineSnapshot::epoch`]: the tiers never change, and the delta's
/// indexes are the rows its documents were labeled into at capture.
pub struct EngineSnapshot {
    epoch: u64,
    syms: Arc<SymbolTable>,
    rp: PrixIndex,
    ep: PrixIndex,
    /// Immutable segment tiers at capture time. The tiers themselves
    /// never change after publication; cloning shares the underlying
    /// segment readers.
    segments: Vec<SegTier>,
    generation: u64,
    /// `(bytes, records)` of the batch log at capture time.
    log: (u64, u64),
    /// The pool the delta at capture lives in.
    pool: Arc<BufferPool>,
}

impl EngineSnapshot {
    /// The engine as it stands, the delta's documents labeled now.
    /// `prev` is the snapshot this one supersedes, if any: the symbol
    /// table only grows, so when `prev` froze one of the same length it
    /// is the same table and is shared instead of copied.
    pub(crate) fn capture(engine: &PrixEngine, prev: Option<&EngineSnapshot>) -> Self {
        let syms = match prev {
            Some(prev) if prev.syms.len() == engine.symbols().len() => Arc::clone(&prev.syms),
            _ => Arc::new(engine.symbols().clone()),
        };
        EngineSnapshot {
            epoch: engine.epoch(),
            syms,
            rp: engine.delta().index(IndexKind::Regular),
            ep: engine.delta().index(IndexKind::Extended),
            segments: engine.seg_tiers().to_vec(),
            generation: engine.generation(),
            log: (engine.log().len(), engine.log().records()),
            pool: Arc::clone(engine.pool()),
        }
    }

    /// The tier list a query descends: segments in ascending
    /// `doc_base` order (every engine has one, a bulk build's), then the
    /// mutable delta. The delta joins only when it has documents: an
    /// empty one would re-run every trie descent for zero candidates,
    /// and — worse — flip the conservative truncation flag for limited
    /// queries. Omitting it keeps a freshly bulk-built or just-compacted
    /// engine bit-identical to a single-tier engine over the same
    /// documents, which is the property the `bulk_equals_incremental`
    /// suite pins.
    fn tiers(&self) -> Vec<TierRefs<'_>> {
        let mut tiers: Vec<TierRefs<'_>> = self
            .segments
            .iter()
            .map(|t| {
                let values = TierValues {
                    run: &t.vx,
                    rp: &t.rp,
                    syms: &self.syms,
                };
                (&t.rp, &t.ep, Some(values))
            })
            .collect();
        if self.mutable_docs() > 0 {
            tiers.push((&self.rp, &self.ep, None));
        }
        tiers
    }

    /// Immutable segment tiers visible at this epoch.
    pub fn segment_tiers(&self) -> usize {
        self.segments.len()
    }

    /// Generation of the manifest visible at this epoch: 1 after a
    /// build, one more per compaction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Documents living in immutable segments at this epoch.
    pub fn segment_docs(&self) -> u64 {
        self.segments.iter().map(|t| u64::from(t.n_docs)).sum()
    }

    /// Blocks resident in the tiers' block caches now, summed over the
    /// tiers visible at this epoch.
    pub fn segment_cache_blocks(&self) -> usize {
        self.segments.iter().map(|t| t.cache.resident()).sum()
    }

    /// Documents living in the mutable delta at this epoch.
    pub fn mutable_docs(&self) -> usize {
        self.rp.doc_count()
    }

    /// Bytes of the batch log at this epoch: what a reopen would read.
    pub fn log_bytes(&self) -> u64 {
        self.log.0
    }

    /// Records in the batch log at this epoch: what a reopen would
    /// replay.
    pub fn log_records(&self) -> u64 {
        self.log.1
    }

    /// The published epoch this view answers at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen symbol table (safe to share across threads).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Parses an XPath against the frozen symbol table without
    /// mutating it. Labels unknown at this epoch resolve to scratch
    /// symbols that match nothing.
    pub fn parse_query(&self, xpath: &str) -> std::result::Result<TwigQuery, XPathError> {
        let mut scratch = ScratchSyms::new(&self.syms);
        parse_xpath(xpath, &mut scratch)
    }

    /// Executes an ordered twig query against this epoch's view.
    pub fn query(&self, q: &TwigQuery) -> Result<QueryOutcome> {
        self.query_opts(q, &ExecOpts::default())
    }

    /// [`EngineSnapshot::query`] with execution options. With
    /// [`ExecOpts::limit`] set the query stops pulling at the limit —
    /// the rest of each tier's candidate source and refinements never
    /// happen — and matches come in each tier's candidate order:
    /// trie-traversal order for a descent, `(doc, positions)` order for
    /// a value twig the tier anchors on its value run.
    pub fn query_opts(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome> {
        self.execute_prix(q, opts, None)
    }

    /// The ordered-query path, optionally forcing one index kind
    /// ([`EngineSnapshot::query_routed`] naming `prix_rp`/`prix_ep`;
    /// §5.6's rule when `None`).
    pub(crate) fn execute_prix(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        force: Option<IndexKind>,
    ) -> Result<QueryOutcome> {
        let (mut exec, pred) = self.begin(q, opts)?;
        exec.stream_tiers(q, pred.as_ref(), force, Some)?;
        Ok(exec.finish(pred.as_ref()))
    }

    /// Opens an execution at this epoch: lists the tiers, starts the I/O
    /// scope and the clock, then probes the value index for `q`'s
    /// predicates — the pre-filter, so its wall time is filter time and
    /// its run block reads are the query's I/O.
    fn begin(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
    ) -> Result<(Execution<'_>, Option<PredEval<'_>>)> {
        let mut exec = Execution {
            tiers: self.tiers(),
            // `stream_tiers` owns the limit, so a limited execution asks
            // every stream for arrival order with a limit none of them
            // reaches, and stops pulling when the budget is spent.
            stream_opts: ExecOpts {
                limit: opts.limit.map(|_| usize::MAX),
                ..*opts
            },
            budget: opts.limit.unwrap_or(usize::MAX),
            matches: Vec::new(),
            stats: QueryStats::default(),
            index_used: IndexKind::Regular,
            truncated: false,
            scope: IoScope::begin(),
            start: Instant::now(),
        };
        let pred = PredEval::build(q, &self.segments, &self.syms)?;
        exec.stats.filter_time = exec.start.elapsed();
        Ok((exec, pred))
    }

    /// Executes a batch of ordered twig queries on up to `threads`
    /// worker threads, returning one [`QueryOutcome`] per query in
    /// input order. Every worker reads this snapshot's epoch, and each
    /// query gets the same `opts`, including any limit. Workers pull
    /// queries from a shared atomic cursor, so long and short queries
    /// balance across threads; all of them read through the same
    /// sharded buffer pool.
    ///
    /// `threads` is clamped to `1..=queries.len()`: `threads == 0` is
    /// treated as 1 (serial), never an empty worker set. Each outcome's
    /// [`QueryOutcome::io`] is attributed through a per-thread
    /// [`IoScope`], so it counts exactly the pages that query touched —
    /// concurrent queries on other workers never leak into it.
    pub fn query_batch_opts(
        &self,
        queries: &[TwigQuery],
        threads: usize,
        opts: &ExecOpts,
    ) -> Result<Vec<QueryOutcome>> {
        let threads = threads.max(1).min(queries.len().max(1));
        if threads == 1 {
            return queries.iter().map(|q| self.query_opts(q, opts)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<QueryOutcome>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    let out = self.query_opts(&queries[i], opts);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every query index was claimed by a worker")
            })
            .collect()
    }

    /// Executes an unordered twig query by running every distinct branch
    /// arrangement (§5.7) and unioning the embeddings. With
    /// [`ExecOpts::limit`] set, arrangements interleave through the
    /// *shared* limit: distinct base-numbered matches count against the
    /// one budget, and as soon as it is spent the current stream is
    /// abandoned mid-trie and the remaining arrangements never run at
    /// all. (A per-stream limit would be unsound here — k matches from
    /// one arrangement may collapse with earlier ones in the dedup —
    /// which is why the budget is kept out of the streams.)
    /// Arrangements run in the order [`arrangements`] lists them,
    /// with a limit or without.
    pub fn query_unordered_opts(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome> {
        let arrs = arrangements(q, ARRANGEMENT_LIMIT)
            .map_err(|e| IndexError::Unsupported(e.to_string()))?;
        let (mut exec, pred) = self.begin(q, opts)?;
        let mut seen: HashSet<(u32, Vec<PostNum>)> = HashSet::new();
        // Tiers nest inside the arrangement loop; the final sort
        // re-establishes global order either way.
        for arr in &arrs {
            if exec.truncated {
                break;
            }
            // Arrangements strip predicates from their queries (the
            // structural twig is what gets rearranged), so the evaluator is
            // renumbered to each arrangement's postorders instead.
            let arr_pred = pred.as_ref().map(|p| p.remap(&arr.base_of));
            exec.stream_tiers(&arr.query, arr_pred.as_ref(), None, |m| {
                // Re-map the arrangement's postorder numbering back to
                // the base query's; only embeddings no earlier
                // arrangement produced count against the limit.
                let mut base_emb = vec![0 as PostNum; m.embedding.len()];
                for (arr_q, &img) in m.embedding.iter().enumerate() {
                    let base_q = arr.base_of[arr_q];
                    base_emb[(base_q - 1) as usize] = img;
                }
                seen.insert((m.doc, base_emb.clone())).then_some(TwigMatch {
                    doc: m.doc,
                    embedding: base_emb,
                })
            })?;
        }
        exec.matches.sort();
        Ok(exec.finish(pred.as_ref()))
    }

    /// Executes `q` against this epoch's view on the engine `engine`
    /// names, or by §5.6's rule when it names none: what
    /// [`EngineSnapshot::query_opts`] runs, the EPIndex for a value
    /// twig and the RPIndex for any other, MaxGap as `opts` says. An
    /// alternative engine comes from `alts`. Whatever engine ran, the
    /// matches come back canonicalized: sorted by `(doc, embedding)`.
    /// This is the library's way to compare engines; serving answers
    /// by §5.6's rule alone.
    pub fn query_routed(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        engine: Option<EngineId>,
        alts: &dyn AltProvider,
    ) -> Result<Routed> {
        let mut outcome = match engine {
            None => self.execute_prix(q, opts, None)?,
            Some(EngineId::PrixRp) => self.execute_prix(q, opts, Some(IndexKind::Regular))?,
            Some(EngineId::PrixEp) => self.execute_prix(q, opts, Some(IndexKind::Extended))?,
            Some(id) => {
                let engine = alts.alt_engine(id)?;
                if !engine.supports(q) {
                    return Err(IndexError::Unsupported(format!(
                        "engine {} cannot answer this query",
                        id.label()
                    )));
                }
                engine.execute(q, opts)?
            }
        };
        outcome.matches.sort_unstable();
        Ok(Routed { outcome })
    }

    /// Rebuilds the document trees this epoch can see from the RP
    /// index's stored sequences
    /// ([`prix_prufer::reconstruct::tree_from_sequences`]), ascending
    /// through the tiers so collection ids equal global document ids.
    /// This is how the alternative engines get a collection to encode
    /// on a reopened database, whose in-memory collection is empty. All
    /// nodes come back as elements (the RP encoding does not mark text
    /// nodes), which is exactly what label-driven matching needs.
    pub fn reconstruct_collection(&self) -> Result<Collection> {
        let mut collection = Collection::new();
        *collection.symbols_mut() = (*self.syms).clone();
        for (rp, _, _) in self.tiers() {
            let base = rp.doc_base();
            for local in 0..rp.doc_count() as u32 {
                let data = rp.load_doc(base + local, Depth::Leaves)?;
                let tree = prix_prufer::reconstruct::tree_from_sequences(
                    &data.lps,
                    &data.nps,
                    &data.leaves,
                )
                .map_err(|e| {
                    IndexError::Unsupported(format!("stored sequences are inconsistent: {e}"))
                })?;
                let id = collection.add_tree(tree);
                debug_assert_eq!(id, base + local, "tiers ascend contiguously");
            }
        }
        Ok(collection)
    }

    /// Describes the plan for an XPath at this epoch (index choice,
    /// sequences, edge constraints, MaxGap rules), ending with the
    /// engine §5.6's rule runs it on. On a tiered view the
    /// index shown is the *first* tier's — every tier routes the same
    /// way. Parses against a private copy of the symbol table (explain
    /// needs names for every query label, including ones this epoch has
    /// never seen).
    pub fn explain(&self, xpath: &str) -> Result<String> {
        let mut syms = (*self.syms).clone();
        let q = parse_xpath(xpath, &mut syms)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        let (rp, ep, values) = self.tiers()[0];
        let idx = pick_index(rp, ep, &q, None)?;
        let plan = idx.plan(&q)?;
        let pred = PredEval::build(&q, &self.segments, &syms)?;
        let extended = idx.extends(&q)?;
        let anchors = values.and_then(|v| plan_anchors(idx, &q, extended, &v, pred.as_ref()));
        let anchored = anchors.map(|a| explain_anchors(&a, &syms, pred.as_ref()));
        let mut out = format!("index: {}\n", idx.kind());
        out.push_str(&idx.explain(&plan, &syms, anchored)?);
        if let Some(pred) = &pred {
            out.push_str(&explain_pred(&q, pred, &syms));
        }
        let maxgap = if ExecOpts::default().use_maxgap {
            "on"
        } else {
            "off"
        };
        let engine = EngineId::from_kind(idx.kind()).label();
        out.push_str(&format!("planner: engine={engine} maxgap={maxgap}\n"));
        Ok(out)
    }
}

/// §5.6's optimizer rule over one tier's index pair: value queries need
/// the EPIndex; value-free queries take the RPIndex ("If twig queries
/// have no values, then indexing Regular-Prüfer sequences is
/// recommended"). `force` overrides the rule (`query_routed` naming
/// `prix_rp`/`prix_ep`); forcing the RPIndex for a value query is
/// refused — it cannot answer it.
fn pick_index<'a>(
    rp: &'a PrixIndex,
    ep: &'a PrixIndex,
    q: &TwigQuery,
    force: Option<IndexKind>,
) -> Result<&'a PrixIndex> {
    match force {
        Some(IndexKind::Regular) if q.needs_extended() => Err(IndexError::Unsupported(
            "value query cannot run on the RPIndex".into(),
        )),
        Some(IndexKind::Regular) => Ok(rp),
        Some(IndexKind::Extended) => Ok(ep),
        None => Ok(if q.needs_extended() { ep } else { rp }),
    }
}

/// Accumulates one stream's pipeline stats into the query's (everything
/// except `matches`, which [`Execution::finish`] counts once over the
/// final match list).
fn add_filter_counters(total: &mut QueryStats, s: &QueryStats) {
    total.range_queries += s.range_queries;
    total.nodes_scanned += s.nodes_scanned;
    total.maxgap_pruned += s.maxgap_pruned;
    total.candidates += s.candidates;
    total.refined += s.refined;
    total.filter_time += s.filter_time;
    total.refine_time += s.refine_time;
    total.project_time += s.project_time;
    total.pred_skipped += s.pred_skipped;
    total.pred_rejected += s.pred_rejected;
    total.valix_probes += s.valix_probes;
    total.valix_postings += s.valix_postings;
}

/// One PRIX execution in progress: what the ordered path and the §5.7
/// arrangement loop accumulate while they stream twigs over the tiers
/// (see [`EngineSnapshot::begin`]).
struct Execution<'a> {
    tiers: Vec<TierRefs<'a>>,
    /// What every stream runs with.
    stream_opts: ExecOpts,
    /// Matches still wanted (`usize::MAX` when there is no limit).
    budget: usize,
    matches: Vec<TwigMatch>,
    stats: QueryStats,
    index_used: IndexKind,
    truncated: bool,
    scope: IoScope,
    start: Instant,
}

impl Execution<'_> {
    /// Streams `q` over every tier into `matches`; `keep` turns a
    /// stream's match into the one to report, or drops it. Tiers ascend
    /// by document base and each stream's matches come out in order, so
    /// concatenation preserves the global document order a single tier
    /// produces. Once the budget is spent nothing more is pulled: the
    /// rest of the current trie descent, and every later tier, never
    /// runs — and since that leaves a stream undrained, more matches
    /// *may* exist, which is what `truncated` reports.
    fn stream_tiers(
        &mut self,
        q: &TwigQuery,
        pred: Option<&PredEval<'_>>,
        force: Option<IndexKind>,
        mut keep: impl FnMut(TwigMatch) -> Option<TwigMatch>,
    ) -> Result<()> {
        for &(rp, ep, values) in &self.tiers {
            let idx = pick_index(rp, ep, q, force)?;
            self.index_used = idx.kind();
            let mut stream = idx.stream_tier(q, &self.stream_opts, pred, values)?;
            while self.budget > 0 {
                let Some(m) = stream.next_match()? else {
                    break;
                };
                if let Some(m) = keep(m) {
                    self.matches.push(m);
                    self.budget -= 1;
                }
            }
            // Dropping the stream frees its refine stage's views and
            // dedup sets: refine time.
            let t0 = Instant::now();
            let (mut stats, exhausted) = (stream.stats(), stream.exhausted());
            drop(stream);
            stats.refine_time += t0.elapsed();
            add_filter_counters(&mut self.stats, &stats);
            if !exhausted {
                self.truncated = true;
                break;
            }
        }
        Ok(())
    }

    /// Closes the execution: match count, the valix probe counters, the
    /// I/O scope and the clock.
    fn finish(mut self, pred: Option<&PredEval<'_>>) -> QueryOutcome {
        self.stats.matches = self.matches.len() as u64;
        if let Some(p) = pred {
            self.stats.valix_probes += p.probe.probes;
            self.stats.valix_postings += p.probe.postings;
        }
        QueryOutcome {
            matches: self.matches,
            stats: self.stats,
            index_used: self.index_used,
            io: self.scope.end(),
            elapsed: self.start.elapsed(),
            truncated: self.truncated,
            engine: EngineId::from_kind(self.index_used),
        }
    }
}

/// Renders the `/explain` lines for a predicate query: one line per
/// predicate plus the valix probe's estimated selectivity. Predicate-
/// free queries never reach this (their explain output is pinned).
fn explain_pred(q: &TwigQuery, pred: &PredEval<'_>, syms: &SymbolTable) -> String {
    let mut out = String::new();
    for p in q.preds() {
        out.push_str(&format!(
            "predicate: {}{{{}}}\n",
            syms.name(q.tree().label(p.node)),
            p.render_op()
        ));
    }
    match pred.estimate() {
        Some((n, covered)) if covered > 0 => {
            out.push_str(&format!(
                "valix: probe passes {n}/{covered} docs (estimated selectivity {:.2}%)\n",
                (n as f64 / covered as f64) * 100.0
            ));
        }
        Some((n, _)) => {
            out.push_str(&format!("valix: probe passes {n} docs (nothing indexed)\n"));
        }
        None => {
            out.push_str("valix: no probeable predicate (verification only)\n");
        }
    }
    out
}

/// What one [`SharedEngine::ingest`] call did.
#[derive(Debug)]
pub struct IngestReport {
    /// Ids assigned to accepted documents, in input order.
    pub accepted: Vec<DocId>,
    /// `(input position, reason)` for documents that did not parse,
    /// the only ones refused. Rejection never touches the delta.
    pub rejected: Vec<(usize, String)>,
    /// The epoch readers see the accepted documents at. Unchanged from
    /// the previous epoch when nothing was accepted.
    pub epoch: u64,
}

/// A callback invoked with the new epoch after each successful publish.
type PublishHook = Box<dyn Fn(u64) + Send + Sync>;

/// A [`PrixEngine`] shared between one writer and any number of
/// snapshot readers.
///
/// Readers call [`SharedEngine::snapshot`] (a mutex-protected `Arc`
/// clone — no page I/O, no symbol-table lock) and run queries against
/// the returned view for as long as they like; the view never changes
/// underneath them. The writer calls [`SharedEngine::ingest`], which
/// serializes on an internal lock, validates and inserts a batch,
/// commits it durably with one save, atomically publishes a new
/// snapshot — and, once the batch log has reached its bound, compacts.
pub struct SharedEngine {
    writer: Mutex<PrixEngine>,
    current: Mutex<Arc<EngineSnapshot>>,
    /// Every snapshot this engine published that may still be held:
    /// the pin registry. Dead handles are pruned at each publish.
    published: Mutex<Vec<Weak<EngineSnapshot>>>,
    poisoned: AtomicBool,
    recovery: Option<prix_storage::RecoveryReport>,
    /// Compactions the log's bound forced (see
    /// [`prix_storage::CHECKPOINT_LOG_BYTES`]).
    log_compactions: AtomicU64,
    /// Called with the new epoch right after each publish becomes
    /// visible (serving layers hang cache invalidation off this).
    on_publish: Mutex<Option<PublishHook>>,
}

impl SharedEngine {
    /// Wraps an engine, publishing its current state as epoch-pinned
    /// snapshot number one.
    pub fn new(engine: PrixEngine) -> Self {
        let current = Arc::new(EngineSnapshot::capture(&engine, None));
        let recovery = engine.recovery();
        SharedEngine {
            writer: Mutex::new(engine),
            published: Mutex::new(vec![Arc::downgrade(&current)]),
            current: Mutex::new(current),
            poisoned: AtomicBool::new(false),
            recovery,
            log_compactions: AtomicU64::new(0),
            on_publish: Mutex::new(None),
        }
    }

    /// Registers a callback invoked with the new epoch *after* every
    /// successful publish — the snapshot swap has already happened, so
    /// anything the callback invalidates can be repopulated from the
    /// new epoch immediately. One callback at a time; registering
    /// replaces the previous one.
    pub fn set_on_publish(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.on_publish.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(hook));
    }

    /// The published snapshot's buffer pool (metrics). Does not take
    /// the writer lock. Compaction replaces the pool, so callers get a
    /// clone of the `Arc` rather than a reference.
    pub fn pool(&self) -> Arc<BufferPool> {
        Arc::clone(&self.snapshot().pool)
    }

    /// Epoch-pin observability: `(published snapshots still held,
    /// oldest epoch among them)`. The current snapshot is one of them;
    /// the others hold what readers still query — an older epoch's
    /// view, and the delta and pool a compaction retired.
    pub fn pinned_epochs(&self) -> (usize, Option<u64>) {
        let published = self.published.lock().unwrap_or_else(|e| e.into_inner());
        let held: Vec<u64> = published
            .iter()
            .filter_map(|s| Some(s.upgrade()?.epoch()))
            .collect();
        (held.len(), held.into_iter().min())
    }

    /// Folds the mutable delta into immutable segments and publishes
    /// the compacted view (see [`PrixEngine::compact`]). Serializes on
    /// the writer lock like ingest. Returns the published epoch, or
    /// `None` when the delta was empty and nothing changed. Snapshots
    /// taken before the call keep answering bit-identically from the
    /// retired pool and the old segment set.
    pub fn compact(&self) -> Result<Option<u64>> {
        let mut engine = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_poisoned() {
            return Err(IndexError::Unsupported(
                "engine poisoned by an earlier failed ingest; reopen the database".into(),
            ));
        }
        self.compact_locked(&mut engine)
    }

    /// Compactions the batch log's bound forced since this engine was
    /// wrapped.
    pub fn log_compactions(&self) -> u64 {
        self.log_compactions.load(Ordering::Relaxed)
    }

    /// [`SharedEngine::compact`] under the writer lock the caller holds.
    fn compact_locked(&self, engine: &mut PrixEngine) -> Result<Option<u64>> {
        match engine.compact() {
            Ok(false) => Ok(None),
            Ok(true) => Ok(Some(self.publish(engine))),
            Err(e) => {
                // Compaction failed at an unknown point; the in-memory
                // state may be mid-swap. Readers keep the last good
                // snapshot, further writes are refused.
                self.poisoned.store(true, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Makes the engine's state the current snapshot and tells the
    /// publish hook; returns the epoch readers now see. The caller
    /// holds the writer lock.
    fn publish(&self, engine: &PrixEngine) -> u64 {
        let snap = Arc::new(EngineSnapshot::capture(engine, Some(&self.snapshot())));
        let epoch = snap.epoch();
        {
            let mut published = self.published.lock().unwrap_or_else(|e| e.into_inner());
            published.retain(|s| s.strong_count() > 0);
            published.push(Arc::downgrade(&snap));
        }
        *self.current.lock().unwrap_or_else(|e| e.into_inner()) = snap;
        if let Some(hook) = self
            .on_publish
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            hook(epoch);
        }
        epoch
    }

    /// What crash recovery did when the wrapped engine was opened.
    pub fn recovery(&self) -> Option<prix_storage::RecoveryReport> {
        self.recovery
    }

    /// The current published snapshot. Holding the returned `Arc` pins
    /// its epoch: it answers as of then, and keeps the delta and tiers
    /// it reads alive, until it is dropped.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Whether a failed ingest or compaction has poisoned the engine, or
    /// a writer panicked under the writer lock, which may have left it
    /// half-changed. Reads keep serving the last published snapshot;
    /// further ingests and compactions are refused.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) || self.writer.is_poisoned()
    }

    /// Ingests a batch of XML documents and publishes a new epoch.
    ///
    /// Blocks until the writer lock is available; see
    /// [`SharedEngine::try_ingest`] for the non-blocking variant
    /// serving layers use for admission control.
    pub fn ingest(&self, docs: &[String]) -> Result<IngestReport> {
        let guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.ingest_locked(guard, |e| e.ingest_batch(docs))
    }

    /// [`SharedEngine::ingest`] that fails fast with `None` when
    /// another ingest holds the writer lock, so servers can shed load
    /// (HTTP 503) instead of queueing unboundedly.
    pub fn try_ingest(&self, docs: &[String]) -> Option<Result<IngestReport>> {
        self.try_writer()
            .map(|guard| self.ingest_locked(guard, |e| e.ingest_batch(docs)))
    }

    /// [`SharedEngine::try_ingest`] over a wrapper document whose root's
    /// element children each become one indexed document (see
    /// `PrixEngine::ingest_batch_split`).
    pub fn try_ingest_split(&self, wrapper: &str) -> Option<Result<IngestReport>> {
        self.try_writer()
            .map(|guard| self.ingest_locked(guard, |e| e.ingest_batch_split(wrapper)))
    }

    fn try_writer(&self) -> Option<std::sync::MutexGuard<'_, PrixEngine>> {
        match self.writer.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
        }
    }

    fn ingest_locked(
        &self,
        mut engine: std::sync::MutexGuard<'_, PrixEngine>,
        run: impl FnOnce(&mut PrixEngine) -> Result<crate::engine::IngestOutcome>,
    ) -> Result<IngestReport> {
        if self.is_poisoned() {
            return Err(IndexError::Unsupported(
                "engine poisoned by an earlier failed ingest; reopen the database".into(),
            ));
        }
        // One save commits the whole batch: the durability point.
        let ingested = run(&mut engine).and_then(|outcome| {
            if !outcome.accepted.is_empty() {
                engine.save()?;
            }
            Ok(outcome)
        });
        let outcome = ingested.inspect_err(|_| {
            // A document passed validation but failed mid-insert, or
            // the save failed: the in-memory index state is no longer
            // trustworthy. Further writes are refused; readers keep the
            // last good snapshot, whose counts end before this batch.
            self.poisoned.store(true, Ordering::Release);
        })?;
        // Rejections are read-only: nothing accepted, nothing published.
        let epoch = if outcome.accepted.is_empty() {
            engine.epoch()
        } else {
            // Swapping the snapshot makes the saved batch visible at the
            // epoch its commit established: the new snapshot's counts
            // take it in.
            let epoch = self.publish(&engine);
            // The batch is durable and visible whatever happens next: a
            // compaction that fails poisons the writer, and later
            // ingests report that.
            if engine.log_full() && self.compact_locked(&mut engine).is_ok() {
                self.log_compactions.fetch_add(1, Ordering::Relaxed);
            }
            epoch
        };
        Ok(IngestReport {
            accepted: outcome.accepted,
            rejected: outcome.rejected,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn docs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn shared() -> SharedEngine {
        let mut coll = Collection::new();
        coll.add_xml("<a><b>hello</b><c/></a>").unwrap();
        let engine = PrixEngine::build(coll, EngineConfig::default()).unwrap();
        SharedEngine::new(engine)
    }

    fn collection() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<dblp><inproceedings><author>Jim Gray</author><year>1990</year></inproceedings></dblp>")
            .unwrap();
        c.add_xml("<dblp><inproceedings><year>1990</year><author>Jim Gray</author></inproceedings></dblp>")
            .unwrap();
        c.add_xml("<dblp><www><editor>E</editor><url>u</url></www></dblp>")
            .unwrap();
        c
    }

    fn engine() -> PrixEngine {
        PrixEngine::build(collection(), EngineConfig::default()).unwrap()
    }

    #[test]
    fn optimizer_routes_value_queries_to_ep() {
        let eng = engine();
        let e = eng.snapshot();
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"]"#)
            .unwrap();
        let out = e.query(&q).unwrap();
        assert_eq!(out.index_used, IndexKind::Extended);
        assert_eq!(out.matches.len(), 2);
    }

    #[test]
    fn optimizer_routes_structural_queries_to_rp() {
        let eng = engine();
        let e = eng.snapshot();
        let q = e.parse_query("//www[./editor]/url").unwrap();
        let out = e.query(&q).unwrap();
        assert_eq!(out.index_used, IndexKind::Regular);
        assert_eq!(out.matches.len(), 1);
    }

    #[test]
    fn ordered_vs_unordered() {
        let eng = engine();
        let e = eng.snapshot();
        // Ordered: author before year — only doc 0.
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#)
            .unwrap();
        let ordered = e.query(&q).unwrap();
        assert_eq!(ordered.matches.len(), 1);
        assert_eq!(ordered.matches[0].doc, 0);
        // Unordered: both docs.
        let unordered = e.query_unordered_opts(&q, &ExecOpts::new()).unwrap();
        assert_eq!(unordered.matches.len(), 2);
    }

    #[test]
    fn unordered_query_over_the_arrangement_limit_is_refused() {
        let eng = engine();
        let e = eng.snapshot();
        // Seven distinct branches: 7! = 5040 arrangements.
        let q = e
            .parse_query("//a[./b][./c][./d][./e][./f][./g]/h")
            .unwrap();
        let err = e
            .query_unordered_opts(&q, &ExecOpts::new())
            .unwrap_err()
            .to_string();
        assert!(err.contains(&ARRANGEMENT_LIMIT.to_string()), "{err}");
        assert!(e.query(&q).is_ok(), "the ordered query is unaffected");
    }

    #[test]
    fn unordered_embeddings_use_base_numbering() {
        let eng = engine();
        let e = eng.snapshot();
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#)
            .unwrap();
        let out = e.query_unordered_opts(&q, &ExecOpts::new()).unwrap();
        let c = collection();
        let author = c.symbols().lookup("author").unwrap();
        for m in &out.matches {
            let t = c.doc(m.doc);
            // Base query postorder: "Jim Gray"=1, author=2, "1990"=3,
            // year=4, inproceedings=5.
            assert_eq!(t.label_at(m.embedding[1]), author, "doc {}", m.doc);
        }
    }

    #[test]
    fn cold_cache_queries_report_io() {
        let eng = engine();
        let e = eng.snapshot();
        let q = e.parse_query("//www[./editor]/url").unwrap();
        eng.clear_cache().unwrap();
        let out = e.query(&q).unwrap();
        assert!(out.io.seg_block_fetches > 0, "cold run must hit the disk");
        let warm = e.query(&q).unwrap();
        assert_eq!(warm.io.seg_block_fetches, 0, "warm run is fully cached");
        assert_eq!(warm.matches.len(), out.matches.len());
    }

    #[test]
    fn value_query_forced_onto_the_rp_index_is_refused() {
        let eng = engine();
        let e = eng.snapshot();
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"]"#)
            .unwrap();
        let forced = e.execute_prix(&q, &ExecOpts::default(), Some(IndexKind::Regular));
        assert!(forced.is_err(), "the RPIndex cannot answer a value query");
        let routed = e.query_routed(
            &q,
            &ExecOpts::default(),
            Some(EngineId::PrixRp),
            &crate::plan::NoAlts,
        );
        assert!(routed.is_err(), "naming prix_rp goes through the same rule");
        assert_eq!(e.query(&q).unwrap().matches.len(), 2, "unforced: EPIndex");
    }

    /// A view of the delta labels its documents as a tier of them is
    /// labeled, and answers alike.
    #[test]
    fn a_delta_answers_like_a_tier() {
        let docs: Vec<String> = (0..20)
            .map(|i| format!("<a><b><c>v{i}</c></b><d/></a>"))
            .collect();
        let mut c = Collection::new();
        for xml in &docs {
            c.add_xml(xml).unwrap();
        }
        let tier = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let mut delta = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
        for xml in &docs {
            delta.insert_document(xml).unwrap();
        }
        assert_eq!((tier.mutable_docs(), delta.mutable_docs()), (0, 20));
        let answers = |e: &PrixEngine| {
            let view = e.snapshot();
            let q = view.parse_query(r#"//a[./b/c="v7"]/d"#).unwrap();
            let all = view.parse_query("//a[./b/c]/d").unwrap();
            [view.query(&q).unwrap(), view.query(&all).unwrap()].map(|o| o.matches)
        };
        let (a, b) = (answers(&tier), answers(&delta));
        assert_eq!(a, b);
        assert_eq!((a[0].len(), a[1].len()), (1, 20));
    }

    /// A limited query answers in trie-arrival order; documents that
    /// end on one trie node arrive in id order from a delta as from a
    /// tier, however many share it, and the delta's answer is the tier
    /// it compacts into.
    #[test]
    fn a_limited_query_over_the_delta_answers_like_a_tier() {
        let doc = "<a><b><c>v</c></b><d/></a>";
        let mut c = Collection::new();
        for _ in 0..2000 {
            c.add_xml(doc).unwrap();
        }
        let tier = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let mut delta = PrixEngine::build(Collection::new(), EngineConfig::default()).unwrap();
        for _ in 0..2000 {
            delta.insert_document(doc).unwrap();
        }
        assert_eq!(delta.mutable_docs(), 2000);
        let answers = |e: &PrixEngine| {
            let view = e.snapshot();
            let q = view.parse_query("//a[./b/c]/d").unwrap();
            [300, 1000].map(|limit| {
                let out = view.query_opts(&q, &ExecOpts::new().with_limit(limit));
                out.unwrap().matches
            })
        };
        let want = answers(&tier);
        let docs: Vec<DocId> = want[0].iter().map(|m| m.doc).collect();
        assert_eq!(docs, (0..300).collect::<Vec<_>>());
        assert_eq!(answers(&delta), want);
        assert!(delta.compact().unwrap());
        assert_eq!(answers(&delta), want, "the tier the delta compacted into");
    }

    #[test]
    fn explain_describes_the_plan() {
        let eng = engine();
        let e = eng.snapshot();
        let text = e.explain("//www[./editor]/url").unwrap();
        assert!(text.contains("RPIndex"), "{text}");
        assert!(text.contains("leaf-extended"), "{text}");
        assert!(text.contains("LPS(Q)"), "{text}");
        assert!(text.contains("MaxGap rules"), "{text}");
        let tv = e
            .explain(r#"//inproceedings[./author="Jim Gray"]"#)
            .unwrap();
        assert!(tv.contains("EPIndex"), "{tv}");
        assert!(tv.ends_with("planner: engine=prix_ep maxgap=on\n"), "{tv}");
    }

    /// Collapses digit runs (with embedded dots) to `#` and space runs
    /// to one space, so the explain pins cover the full output shape —
    /// through the planner line — without re-pinning on every dataset
    /// tweak.
    fn normalize_explain(s: &str) -> String {
        let mut out = String::new();
        let (mut in_num, mut in_space) = (false, false);
        for ch in s.chars() {
            if ch.is_ascii_digit() || (ch == '.' && in_num) {
                if !in_num {
                    out.push('#');
                    in_num = true;
                }
                in_space = false;
                continue;
            }
            in_num = false;
            if ch == ' ' {
                if in_space {
                    continue;
                }
                in_space = true;
            } else {
                in_space = false;
            }
            out.push(ch);
        }
        out
    }

    #[test]
    fn explain_output_shape_is_pinned() {
        // The serving layer's `GET /explain` exposes this text
        // verbatim; pin the exact shape (digits and space runs
        // normalized — see `normalize_explain`) for one path query and
        // one twig query so refactors can't silently change the
        // contract.
        let eng = engine();
        let e = eng.snapshot();
        assert_eq!(
            normalize_explain(&e.explain("/dblp/www/url").unwrap()),
            "index: RPIndex\n\
             plan: RPIndex, leaf-extended query (§# fast path)\n\
             LPS(Q) = url www dblp\n\
             NPS(Q) = # # #\n\
             edges = / / / /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             MaxGap rules: # of # adjacent pairs bounded\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             planner: engine=prix_rp maxgap=on\n"
        );
        assert_eq!(
            normalize_explain(&e.explain("//www[./editor]/url").unwrap()),
            "index: RPIndex\n\
             plan: RPIndex, leaf-extended query (§# fast path)\n\
             LPS(Q) = editor www url www\n\
             NPS(Q) = # # # #\n\
             edges = / / / / /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             MaxGap rules: # of # adjacent pairs bounded\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             planner: engine=prix_rp maxgap=on\n"
        );
    }

    /// A value twig the first tier anchors names its anchors' keys in
    /// one more line (Table 3's Q5 over a one-entry SWISSPROT), ahead of
    /// the MaxGap rules, which only a trie descent applies.
    #[test]
    fn explain_names_the_value_run_anchors() {
        let mut c = Collection::new();
        c.add_xml("<Entry><Ref><Author>Mueller P</Author><Author>Keller M</Author></Ref></Entry>")
            .unwrap();
        let eng = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let q5 = r#"//Entry/Ref[./Author="Mueller P"][./Author="Keller M"]"#;
        assert_eq!(
            normalize_explain(&eng.snapshot().explain(q5).unwrap()),
            "index: EPIndex\n\
             plan: EPIndex, extended query (§#)\n\
             LPS(Q) = Mueller P Author Ref Keller M Author Ref Entry\n\
             NPS(Q) = # # # # # # #\n\
             edges = / / / / / / / /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             filter: anchored on the value run: Author = \"Mueller P\", Author = \"Keller M\"\n\
             MaxGap rules (trie descent only, as on the delta): # of # adjacent pairs bounded\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             planner: engine=prix_ep maxgap=on\n"
        );
    }

    /// A predicate twig the first tier anchors names its predicates in
    /// that line: a leaf carrying a probeable predicate is an anchor
    /// like a text leaf.
    #[test]
    fn explain_names_a_predicate_anchor() {
        let mut c = Collection::new();
        for year in [1980, 1990] {
            c.add_xml(&format!(
                "<inproceedings><year>{year}</year></inproceedings>"
            ))
            .unwrap();
        }
        let eng = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let text = eng
            .snapshot()
            .explain("//inproceedings[year < 1985]")
            .unwrap();
        assert_eq!(
            normalize_explain(&text),
            "index: RPIndex\n\
             plan: RPIndex, leaf-extended query (§# fast path)\n\
             LPS(Q) = year inproceedings\n\
             NPS(Q) = # #\n\
             edges = / / /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             filter: anchored on the value run: year < #\n\
             MaxGap rules (trie descent only, as on the delta): # of # adjacent pairs bounded\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             predicate: year{< #}\n\
             valix: probe passes #/# docs (estimated selectivity #%)\n\
             planner: engine=prix_rp maxgap=on\n"
        );
        assert!(text.contains("\nfilter: anchored on the value run: year < 1985\n"));
    }

    /// A trie descent whose LPS holds a label past position 0 that spans
    /// fewer tag blocks than position 0's names it and its row count:
    /// 600 haystack documents of distinct shapes, twelve of them under
    /// an `n`, asked `//n//h`.
    #[test]
    fn explain_names_the_rarest_label_pruning() {
        let mut c = Collection::new();
        for i in 0..600u32 {
            let body: String = (0..10)
                .map(|b| match i >> b & 1 {
                    1 => "<h><k/></h>",
                    _ => "<m/>",
                })
                .collect();
            let body = match i % 50 {
                0 => format!("<n>{body}</n>"),
                _ => body,
            };
            c.add_xml(&format!("<r>{body}<h><k/></h></r>")).unwrap();
        }
        let eng = PrixEngine::build(c, EngineConfig::default()).unwrap();
        let snap = eng.snapshot();
        let text = snap.explain("//n//h").unwrap();
        assert_eq!(
            normalize_explain(&text),
            "index: EPIndex\n\
             plan: EPIndex, extended query (§#)\n\
             LPS(Q) = h n\n\
             NPS(Q) = # #\n\
             edges = / // /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             filter: descent pruned to subtrees holding n (# rows)\n\
             MaxGap rules: # of # adjacent pairs bounded\n\
             planner: engine=prix_ep maxgap=on\n"
        );
        let q = snap.parse_query("//n//h").unwrap();
        let under_n: u32 = (0..600u32)
            .step_by(50)
            .map(|i| (i & 1023).count_ones())
            .sum();
        assert_eq!(snap.query(&q).unwrap().matches.len(), under_n as usize);
    }

    #[test]
    fn query_batch_matches_serial_and_preserves_order() {
        let eng = engine();
        let e = eng.snapshot();
        let xpaths = [
            "//www[./editor]/url",
            r#"//inproceedings[./author="Jim Gray"]"#,
            "//dblp//year",
            "//www/url",
        ];
        let queries: Vec<_> = xpaths.iter().map(|x| e.parse_query(x).unwrap()).collect();
        let serial: Vec<_> = queries
            .iter()
            .map(|q| e.query(q).unwrap().matches)
            .collect();
        for threads in [1, 2, 4, 16] {
            let batch = e
                .query_batch_opts(&queries, threads, &ExecOpts::new())
                .unwrap();
            assert_eq!(batch.len(), queries.len());
            for (i, out) in batch.iter().enumerate() {
                assert_eq!(out.matches, serial[i], "threads={threads} query {i}");
            }
        }
    }

    #[test]
    fn query_batch_zero_threads_clamps_to_serial() {
        // Regression: `threads == 0` must behave exactly like the
        // serial path (clamped to 1), not spawn zero workers and
        // return nothing / hang.
        let eng = engine();
        let e = eng.snapshot();
        let xpaths = ["//www[./editor]/url", "//dblp//year"];
        let queries: Vec<_> = xpaths.iter().map(|x| e.parse_query(x).unwrap()).collect();
        let batch = e.query_batch_opts(&queries, 0, &ExecOpts::new()).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, out) in queries.iter().zip(&batch) {
            assert_eq!(out.matches, e.query(q).unwrap().matches);
        }
        // Empty input with zero threads is a no-op, not a panic.
        assert!(e
            .query_batch_opts(&[], 0, &ExecOpts::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn snapshot_is_isolated_from_ingest() {
        let shared = shared();
        let before = shared.snapshot();
        let q = before.parse_query("/a/b").unwrap();
        let first = before.query(&q).unwrap();
        assert_eq!(first.matches.len(), 1);

        let report = shared
            .ingest(&docs(&["<a><b>world</b></a>", "<a><c/></a>"]))
            .unwrap();
        assert_eq!(report.accepted.len(), 2);
        assert!(report.rejected.is_empty());
        assert!(report.epoch > before.epoch());

        // The old snapshot still sees exactly one match...
        let again = before.query(&q).unwrap();
        assert_eq!(again.matches, first.matches);

        // ...while a fresh snapshot sees the new document too.
        let after = shared.snapshot();
        assert_eq!(after.epoch(), report.epoch);
        let q2 = after.parse_query("/a/b").unwrap();
        assert_eq!(after.query(&q2).unwrap().matches.len(), 2);
    }

    #[test]
    fn unknown_label_parses_and_matches_nothing() {
        let shared = shared();
        let snap = shared.snapshot();
        let q = snap.parse_query("/a/never_seen_label").unwrap();
        let out = snap.query(&q).unwrap();
        assert!(out.matches.is_empty());
        // Parsing against the snapshot never grew the frozen table.
        assert!(snap.symbols().lookup("never_seen_label").is_none());
    }

    #[test]
    fn rejected_documents_leave_epoch_unchanged() {
        let shared = shared();
        let before = shared.epoch();
        let report = shared.ingest(&docs(&["<a><b>ok"])).unwrap();
        assert!(report.accepted.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.epoch, before);
        assert_eq!(shared.epoch(), before);
        // The writer is healthy: a good batch still lands.
        let ok = shared.ingest(&docs(&["<a><b>x</b></a>"])).unwrap();
        assert_eq!(ok.accepted.len(), 1);
        assert!(ok.epoch > before);
    }

    #[test]
    fn mixed_batch_accepts_good_rejects_bad() {
        let shared = shared();
        let report = shared
            .ingest(&docs(&["<a><b>x</b></a>", "<broken", "<a><c/></a>"]))
            .unwrap();
        assert_eq!(report.accepted.len(), 2);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, 1);
        let snap = shared.snapshot();
        let q = snap.parse_query("//a").unwrap();
        assert_eq!(snap.query(&q).unwrap().matches.len(), 3);
    }

    #[test]
    fn explain_works_on_snapshot_with_unknown_labels() {
        let shared = shared();
        let snap = shared.snapshot();
        let text = snap.explain("/a/unknown_here").unwrap();
        assert!(text.starts_with("index: "));
        assert!(text.contains("unknown_here"));
    }

    #[test]
    fn publish_hook_fires_with_the_new_epoch_only_on_success() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let shared = shared();
        let seen = std::sync::Arc::new(AtomicU64::new(0));
        let seen2 = std::sync::Arc::clone(&seen);
        shared.set_on_publish(move |e| seen2.store(e, Ordering::SeqCst));
        // A fully rejected batch publishes nothing: the hook stays quiet.
        shared.ingest(&docs(&["<broken"])).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        // A successful publish reports exactly the new epoch.
        let report = shared.ingest(&docs(&["<a><b>x</b></a>"])).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), report.epoch);
    }

    /// A writer that panics under the writer lock — here, in the publish
    /// hook — may leave the engine half-changed: the engine is poisoned,
    /// and every later ingest and compaction is refused, while readers
    /// keep the view published before the panic.
    #[test]
    fn a_writer_that_panicked_is_refused() {
        let shared = std::sync::Arc::new(shared());
        shared.set_on_publish(|_| panic!("the publish hook fails"));
        let writer = std::sync::Arc::clone(&shared);
        let panicked = std::thread::spawn(move || writer.ingest(&docs(&["<a><b>x</b></a>"])));
        assert!(panicked.join().is_err());
        assert!(shared.is_poisoned());
        let batch = docs(&["<a><c/></a>"]);
        let refusals = [
            shared.ingest(&batch).err(),
            shared.try_ingest(&batch).and_then(Result::err),
            shared.try_ingest_split("<r><a/></r>").and_then(Result::err),
            shared.compact().err(),
        ];
        for err in refusals {
            let err = err.expect("refused").to_string();
            assert!(err.contains("poisoned"), "{err}");
        }
        let snap = shared.snapshot();
        let q = snap.parse_query("/a/b").unwrap();
        assert_eq!(snap.query(&q).unwrap().matches.len(), 2);
    }

    #[test]
    fn try_ingest_fails_fast_while_writer_busy() {
        let shared = std::sync::Arc::new(shared());
        // Hold the writer lock from another thread, then confirm
        // try_ingest sheds instead of blocking.
        let guard = shared.writer.lock().unwrap();
        let s2 = std::sync::Arc::clone(&shared);
        let handle = std::thread::spawn(move || s2.try_ingest(&docs(&["<a/>"])).is_none());
        assert!(handle.join().unwrap());
        drop(guard);
        assert!(shared.try_ingest(&docs(&["<a/>"])).unwrap().is_ok());
    }
}
